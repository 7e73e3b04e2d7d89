"""H2-matrix times hierarchical vector.

The product descends the block tree and stops at the input vector's
leaves.  Contributions of leaf blocks are collected through coupling
matrices; where a non-leaf block meets an input leaf, the raw input
coefficient is parked in an extra slot of the accumulator.  The result
therefore lives in the induced cluster basis: the row basis augmented,
per cluster, with the matrix columns hit by such parked coefficients.
The plan materializes that basis once, at its true per-cluster ranks.

Each of the three passes is a few stacked products over index arrays
rather than one small product per cluster or block:

* forward: one stacked product of the cross Gram matrices at the
  input's subtree leaves, then the forward transformation
  (ClusterBasis.forward) of the matrix's column basis;
* coupling: a block is visited when it is the root block or the
  column of its parent block is interior in the input's subtree.
  Visited leaf blocks make one stacked coupling product; visited
  non-leaf blocks park the input coefficient when their column is an
  input leaf and make their row interior in the result otherwise;
* backward: the backward transformation (ClusterBasis.backward) of
  the induced basis from the clusters interior in the result.

All accumulators share one flat buffer laid out by the induced
basis's ptr: cluster t owns the entries ptr[t] to ptr[t + 1].  The
input's flat array is read in place, one row per column cluster, and
the buffer becomes the result's array.  Counted flops equal those of
the recursive walk: each add into an accumulator is charged per batch.

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
    "induced_to_dense",
]


@dataclass
class BlockSet:
    """Blocks of one kind (leaf or non-leaf) in construction order.

    row, col: the block clusters.  parent: the position of the parent
    block in the plan's non-leaf blocks, or their count at the root
    block.  target[j]: the flat accumulator entries block j writes
    to, the leading matrix-rank entries of its row for a leaf block
    and its slot for a non-leaf block.  coupling: the stacked coupling
    matrices of leaf blocks.
    """

    row: np.ndarray
    col: np.ndarray
    parent: np.ndarray
    target: np.ndarray
    coupling: np.ndarray = None


@dataclass
class MatvecPlan:
    """Per-(matrix, input basis) precomputation reused across products.

    Row cluster t's accumulator occupies the flat entries ptr[t] to
    ptr[t + 1]: the matrix rank, then one slot of input-rank entries
    per non-leaf block of row t, numbered in block construction
    order; its length is the induced rank of t.  cross[s] = W_s^T Q_s
    couples the matrix column basis with the input basis, stacked per
    column cluster.  leaf_blocks and nonleaf_blocks describe the block
    tree, and induced is the induced basis.

    A plan is a snapshot of its matrix: the coupling matrices are
    copied into leaf_blocks and the induced transfers, so a matrix
    changed after build_plan needs a new plan.
    """

    matrix: object
    input_basis: object
    cross: np.ndarray
    ptr: np.ndarray
    leaf_blocks: BlockSet
    nonleaf_blocks: BlockSet
    induced: object = None


def build_plan(matrix, input_basis):
    if input_basis.tree is not matrix.block_tree.col_tree:
        raise ValueError("input basis does not live on the column tree")
    bases = (("input", input_basis), ("row", matrix.row_basis), ("column", matrix.col_basis))
    for name, basis in bases:
        if np.any(np.diff(basis.ptr) != basis.rank):
            raise ValueError(f"{name} basis: the product needs one rank at every cluster")
    bt = matrix.block_tree
    row_tree, col_tree = bt.row_tree, bt.col_tree
    ka = matrix.rank
    k = input_basis.rank
    cross = cross_gram_family(matrix.col_basis, input_basis)
    cross = np.array([cross[s] for s in range(len(col_tree))])
    leaves = [b for b in bt.blocks if b.is_leaf]
    others = [b for b in bt.blocks if not b.is_leaf]
    parent = np.full(len(bt.blocks), len(others), dtype=np.intp)
    for j, b in enumerate(others):
        parent[list(b.sons)] = j
    # a non-leaf block's slot is its rank among the non-leaf blocks of its row
    rows = np.array([b.row for b in others], dtype=np.intp)
    order = np.argsort(rows, kind="stable")
    count = np.bincount(rows, minlength=len(row_tree))
    slot = np.empty_like(rows)
    slot[order] = np.arange(rows.size) - (np.cumsum(count) - count)[rows[order]]
    ptr = np.zeros(len(row_tree) + 1, dtype=np.intp)
    ptr[1:] = np.cumsum(ka + k * count)

    def block_set(blocks, starts, width):
        ids = np.array([b.index for b in blocks], dtype=np.intp)
        return BlockSet(
            row=np.array([b.row for b in blocks], dtype=np.intp),
            col=np.array([b.col for b in blocks], dtype=np.intp),
            parent=parent[ids],
            target=np.asarray(starts, dtype=np.intp).reshape(-1, 1) + np.arange(width),
        )

    leaf_blocks = block_set(leaves, ptr[[b.row for b in leaves]], ka)
    leaf_blocks.coupling = np.array([matrix.coupling[b.index] for b in leaves])
    nonleaf_blocks = block_set(others, ptr[rows] + ka + k * slot, k)
    plan = MatvecPlan(matrix, input_basis, cross, ptr, leaf_blocks, nonleaf_blocks)
    plan.induced = materialize_induced(plan)
    plan.ptr = plan.induced.ptr  # the same offsets, computed from the transfers
    return plan


class InducedHVector(HVector):
    """Result of a product: an HVector over plan.induced that keeps
    its plan, so that the slots of each coefficient can be read."""

    def __init__(self, plan, sub, data):
        super().__init__(plan.induced, sub, data)
        self.plan = plan

    def copy(self):
        return InducedHVector(self.plan, self.sub.copy(), self.data.copy())


def _forward(plan, coeff, leaf, member):
    """W_s^T x|_s for every member s of the input's subtree.

    coeff holds the input coefficient of every subtree leaf in its
    row (other rows are ignored); leaf and member mark the subtree.
    Returns an array with one row per column cluster, zero outside
    the subtree.
    """
    xbar = np.zeros((len(leaf), plan.matrix.rank))
    leaves = np.flatnonzero(leaf)
    xbar[leaves] = kernels.matvec(plan.cross[leaves], coeff[leaves])
    plan.matrix.col_basis.forward(xbar.reshape(-1), member)
    return xbar


def _coupling(plan, coeff, leaf, interior, xbar, buf):
    """Add every block contribution into the flat buffer buf.

    Returns the boolean array of row clusters that are interior in
    the result's subtree.
    """
    # a block is visited when its parent block's column is interior;
    # the sentinel entry visits the root block, which has no parent
    descend = np.append(interior[plan.nonleaf_blocks.col], True)
    blocks = plan.leaf_blocks
    visited = descend[blocks.parent]
    if visited.any():
        pick = slice(None) if visited.all() else visited
        contrib = kernels.matvec(blocks.coupling[pick], xbar[blocks.col[pick]])
        np.add.at(buf, blocks.target[pick].ravel(), contrib.ravel())
    blocks = plan.nonleaf_blocks
    visited = descend[blocks.parent]
    parked = visited & leaf[blocks.col]
    if parked.any():
        # every slot belongs to one block and starts at zero
        target = blocks.target[parked]
        buf[target] = coeff[blocks.col[parked]]
        kernels.tally(target.size)
    result_interior = np.zeros(plan.ptr.size - 1, dtype=bool)
    result_interior[blocks.row[visited & interior[blocks.col]]] = True
    return result_interior


def multiply(plan, x):
    """Exact product of the planned matrix with a hierarchical vector.

    Returns an InducedHVector over plan.induced.  Operation counts are
    attributed to the phases "forward", "coupling" and "backward".
    """
    if x.basis is not plan.input_basis:
        raise ValueError("plan was built for a different input basis")
    x.validate()
    leaf = x.sub.leaf_mask()
    interior = x.sub.interior_mask()
    coeff = x.data.reshape(len(leaf), plan.input_basis.rank)
    with kernels.phase("forward"):
        xbar = _forward(plan, coeff, leaf, leaf | interior)
    buf = np.zeros(plan.ptr[-1])
    with kernels.phase("coupling"):
        result_interior = _coupling(plan, coeff, leaf, interior, xbar, buf)
    sub = Subtree.from_interior(plan.matrix.block_tree.row_tree, result_interior)
    with kernels.phase("backward"):
        plan.induced.backward(buf, result_interior)
    return InducedHVector(plan, sub, buf)


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
    blocks = plan.nonleaf_blocks
    out = np.zeros(row_tree.n)
    for t, v in y.coeff.items():
        block = mat.row_basis.materialize(t) @ v[:ka]
        mine = blocks.row == t
        for s, slot in zip(blocks.col[mine].tolist(), blocks.target[mine]):
            cols = plan.input_basis.materialize(s) @ y.data[slot]
            block = block + dense_matrix[row_tree.positions(t), col_tree.positions(s)] @ cols
        out[row_tree.positions(t)] = block
    return out
