"""H2-matrix times hierarchical vector.

The product descends the block tree and stops at the input vector's
leaves.  Contributions of leaf blocks are collected through coupling
matrices; where a non-leaf block meets an input leaf, the raw input
coefficient is parked in an extra slot of the accumulator.  The result
therefore lives in the induced cluster basis: the row basis augmented,
per cluster, with the matrix columns hit by such parked coefficients.
The plan materializes that basis once, at its true per-cluster ranks,
and the standard backward transformation over it distributes the
accumulators into leaf coefficients.

The product is exact; only the representation is unusual.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import cross_gram_family
from .convert import materialize_induced
from .h2matrix import to_dense as h2_to_dense
from .hvector import HVector
from .tree import Subtree

__all__ = [
    "MatvecPlan",
    "InducedHVector",
    "build_plan",
    "multiply",
    "standard_backward",
    "induced_to_dense",
]


@dataclass
class MatvecPlan:
    """Per-(matrix, input basis) precomputation reused across products.

    nonleaf_cols[t] lists, in block construction order, the column
    clusters forming non-leaf blocks with row cluster t; offsets maps
    (t, s) to the slot of s inside t's accumulator; rank[t] is the
    induced rank of t.  cross[s] = W_s^T Q_s couples the matrix column
    basis with the input basis.  induced is the induced basis, with
    rank[t] columns at cluster t.
    """

    matrix: object
    input_basis: object
    cross: dict
    nonleaf_cols: dict
    offsets: dict
    rank: dict
    induced: object = None


def build_plan(matrix, input_basis):
    if input_basis.tree is not matrix.block_tree.col_tree:
        raise ValueError("input basis does not live on the column tree")
    cross = cross_gram_family(matrix.col_basis, input_basis)
    ka = matrix.rank
    k = input_basis.rank
    nonleaf_cols = {t: [] for t in range(len(matrix.block_tree.row_tree))}
    for b in matrix.block_tree.blocks:
        if not b.is_leaf:
            nonleaf_cols[b.row].append(b.col)
    nonleaf_cols = {t: tuple(v) for t, v in nonleaf_cols.items()}
    offsets = {}
    rank = {}
    for t, cols in nonleaf_cols.items():
        for j, s in enumerate(cols):
            offsets[(t, s)] = ka + j * k
        rank[t] = ka + k * len(cols)
    plan = MatvecPlan(matrix, input_basis, cross, nonleaf_cols, offsets, rank)
    plan.induced = materialize_induced(plan)
    return plan


class InducedHVector(HVector):
    """Result of a product: an HVector over plan.induced that keeps
    its plan, so that the slots of each coefficient can be read."""

    def __init__(self, plan, sub, coeff):
        super().__init__(plan.induced, sub, coeff)
        self.plan = plan


def _forward(x, plan, out):
    """Bottom-up pass computing W_s^T x|_s for every subtree member."""
    tree = x.basis.tree
    col_transfer = plan.matrix.col_basis.transfer

    def walk(s):
        if x.sub.is_leaf(s):
            out[s] = kernels.matvec(plan.cross[s], x.coeff[s])
            return
        acc = np.zeros(plan.matrix.rank)
        for s2 in tree.sons(s):
            walk(s2)
            acc = kernels.axpy(1.0, kernels.matvec(col_transfer[s2].T, out[s2]), acc)
        out[s] = acc

    walk(tree.root)


def _coupling(x, plan, xbar, sub, bars):
    """Collect all block contributions, refining the result subtree."""
    bt = plan.matrix.block_tree
    row_tree = bt.row_tree
    k = plan.input_basis.rank

    def walk(bid):
        b = bt.blocks[bid]
        t, s = b.row, b.col
        if b.is_leaf:
            bars[t][: plan.matrix.rank] += kernels.matvec(
                plan.matrix.coupling[bid], xbar[s]
            )
        elif x.sub.is_leaf(s):
            o = plan.offsets[(t, s)]
            bars[t][o : o + k] = kernels.axpy(1.0, x.coeff[s], bars[t][o : o + k])
        else:
            if sub.is_leaf(t):
                sub.expand(t)
                for t2 in row_tree.sons(t):
                    bars[t2] = np.zeros(plan.rank[t2])
            for sid in b.sons:
                walk(sid)

    walk(bt.root)


def multiply(plan, x):
    """Exact product of the planned matrix with a hierarchical vector.

    Returns an InducedHVector over plan.induced.  Operation counts are
    attributed to the phases "forward", "coupling" and "backward".
    """
    if x.basis is not plan.input_basis:
        raise ValueError("plan was built for a different input basis")
    x.validate()
    row_tree = plan.matrix.block_tree.row_tree
    xbar = {}
    with kernels.phase("forward"):
        _forward(x, plan, xbar)
    sub = Subtree(row_tree)
    bars = {row_tree.root: np.zeros(plan.rank[row_tree.root])}
    with kernels.phase("coupling"):
        _coupling(x, plan, xbar, sub, bars)
    with kernels.phase("backward"):
        y = standard_backward(plan.induced, sub, bars)
    return InducedHVector(plan, y.sub, y.coeff)


def standard_backward(basis, sub, bars):
    """Distribute accumulators over a subtree via plain transfers.

    bars maps every member i of sub to a float vector of length
    basis.rank_of(i); the result is the hierarchical vector collecting
    all contributions at the leaves.  The accumulators are consumed:
    they are updated in place and become the leaf coefficients.
    """
    tree = basis.tree
    out = HVector(basis, sub.copy(), {})

    def walk(t):
        if sub.is_leaf(t):
            out.coeff[t] = bars[t]
            return
        for t2 in tree.sons(t):
            bars[t2] += kernels.matvec(basis.transfer[t2], bars[t])
            kernels.tally(bars[t2].size)
            walk(t2)

    walk(tree.root)
    return out


def induced_to_dense(y, dense_matrix=None):
    """Dense expansion of an InducedHVector (tree position order).

    Each slot is expanded against the dense matrix and the input basis
    rather than through plan.induced, so this is an oracle for the
    product independent of the backward pass.  dense_matrix may supply
    a precomputed dense expansion of the planned matrix to avoid
    recomputing it.
    """
    plan = y.plan
    mat = plan.matrix
    row_tree = mat.block_tree.row_tree
    col_tree = mat.block_tree.col_tree
    if dense_matrix is None:
        dense_matrix = h2_to_dense(mat)
    ka = mat.rank
    k = plan.input_basis.rank
    out = np.zeros(row_tree.n)
    for t in y.sub.leaves():
        v = y.coeff[t]
        block = mat.row_basis.materialize(t) @ v[:ka]
        for s in plan.nonleaf_cols[t]:
            o = plan.offsets[(t, s)]
            seg = v[o : o + k]
            cols = plan.input_basis.materialize(s) @ seg
            block = block + dense_matrix[row_tree.positions(t), col_tree.positions(s)] @ cols
        out[row_tree.positions(t)] = block
    return out
