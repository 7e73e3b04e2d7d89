"""H2-matrix times hierarchical vector.

The product descends the block tree and stops at the input vector's
leaves.  Contributions of leaf blocks are collected through coupling
matrices; where a non-leaf block meets an input leaf, the raw input
coefficient is parked in an extra slot of the accumulator.  The result
therefore lives in the induced cluster basis: the row basis augmented,
per cluster, with the matrix columns hit by such parked coefficients.
The plan materializes that basis once, at its true per-cluster ranks.

Every slot below a parked one holds the same thing: the input pushed
down to the slot's column cluster, whatever the row.  The product
therefore never multiplies the induced transfers; it factors their
backward transformation into the transformations of the input, the
column and the row bases.  Once the result's subtree is known (a row
is interior when a non-leaf block joins it with an interior column of
the input), a block is in the result when its parent's row is
interior there, and each pass is a few stacked products over index
arrays rather than one small product per cluster or block:

* forward: the input basis's backward transformation (add=False)
  pushes the input from its leaves down to the column clusters below
  them that blocks of the result read, and to their brothers; one
  stacked product of the cross Gram matrices at the input's leaves
  and at the column clusters below them that leaf blocks read, then
  the forward transformation (ClusterBasis.forward) of the matrix's
  column basis;
* coupling: one stacked coupling product over the leaf blocks of the
  result, summed per row (the plan orders the leaf blocks by row)
  into one accumulator of matrix rank per row cluster; parking an
  input leaf's coefficient is charged here as well;
* backward: the backward transformation of the row basis from the
  clusters interior in the result.

The result's leaves then take their leading entries from the row
accumulators and every slot of a block of the result the input
pushed down to its column.  The result's flat array is laid out by
the induced basis's ptr: cluster t owns the entries ptr[t] to
ptr[t + 1].  The plan keeps the induced basis, with its dense
transfers, for conversion, the projection factors and the oracles.
Counted flops equal those of the recursive walk of this factored
model; each add into an accumulator is charged per batch.  The passes
gather rows with ndarray.take: for the 9,148 rows of three entries
that one product at n = 4096 gathers, that takes 35-40 us where
indexing takes 140 us.

Every index array these passes read depends only on the input's
subtree: the result's subtree, the clusters to push from, the rows
the forward pass starts at, the leaf blocks of the result with their
coupling matrices stacked, and the targets of the output.  The plan
keeps them for the last input subtree (a ProductPattern), so a run of
products on one subtree, as in inverse iteration once the iterate's
subtree has settled, does only the arithmetic.

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
    """Blocks of one kind: leaf blocks in row order, non-leaf blocks in
    construction order.

    row, col: the block clusters.  parent: the position of the parent
    block in the plan's non-leaf blocks, or their count at the root
    block.  target[j]: the entries of the induced layout that block j
    stands for, the leading matrix-rank entries of its row for a leaf
    block and its slot for a non-leaf block.  coupling: the stacked
    coupling matrices of leaf blocks.
    """

    row: np.ndarray
    col: np.ndarray
    parent: np.ndarray
    target: np.ndarray
    coupling: np.ndarray = None


@dataclass
class ProductPattern:
    """The index work of a product that depends only on the input's
    subtree, kept on the plan for the next product on that subtree.

    key: the input's interior mask as bytes.  sub, interior: the
    result's subtree, copied into every result, and its interior.
    member: the input's members.  push: the input clusters
    whose coefficients the forward pass pushes down to their sons, or
    None.  at, cross: the input clusters the forward pass starts from
    and their stacked cross Gram matrices.  coupling, col: the stacked
    coupling matrices of the result's leaf blocks and their columns;
    starts, row: where each row's run of blocks starts and the row it
    sums into.  parked: the number of input coefficients parked
    in slots.  slot_target, slot_col: the slots of the non-leaf blocks
    at the result's leaves and their columns.  leaf_target, leaf_row:
    the leading entries of each result leaf and the row accumulator
    they come from.  Every array is read-only; when every leaf block
    is in the result, coupling is the plan's own stack, not a copy.
    """

    key: bytes
    sub: Subtree
    interior: np.ndarray
    member: np.ndarray
    push: np.ndarray
    at: np.ndarray
    cross: np.ndarray
    coupling: np.ndarray
    col: np.ndarray
    starts: np.ndarray
    row: np.ndarray
    parked: int
    slot_target: np.ndarray
    slot_col: np.ndarray
    leaf_target: np.ndarray
    leaf_row: np.ndarray


@dataclass
class MatvecPlan:
    """Per-(matrix, input basis) precomputation reused across products.

    Row cluster t's accumulator occupies the flat entries ptr[t] to
    ptr[t + 1]: the matrix rank, then one slot of input-rank entries
    per non-leaf block of row t, numbered in block construction
    order; its length is the induced rank of t.  cross[s] = W_s^T Q_s
    couples the matrix column basis with the input basis, stacked per
    column cluster.  leaf_blocks and nonleaf_blocks describe the block
    tree, and induced is the induced basis.  pattern is the
    ProductPattern of the last input subtree, replaced when a product
    meets another one.

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
    pattern: ProductPattern = None


def build_plan(matrix, input_basis):
    if input_basis.tree is not matrix.block_tree.col_tree:
        raise ValueError("input basis does not live on the column tree")
    bases = (("input", input_basis), ("row", matrix.row_basis), ("column", matrix.col_basis))
    for name, basis in bases:
        if np.any(np.diff(basis.ptr) != basis.rank):
            raise ValueError(f"{name} basis: the product needs one rank at every cluster")
    bt = matrix.block_tree
    row_tree = bt.row_tree
    ka = matrix.rank
    k = input_basis.rank
    cross = np.array(list(cross_gram_family(matrix.col_basis, input_basis).values()))
    # leaf blocks in row order: the coupling sums them per row
    leaves = sorted((b for b in bt.blocks if b.is_leaf), key=lambda b: b.row)
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


def _pattern(plan, x_sub):
    """The ProductPattern of inputs on the subtree x_sub."""
    tree = plan.input_basis.tree
    interior = x_sub.interior_mask()
    leaf = x_sub.leaf_mask()
    member = leaf | interior
    leaves, others = plan.leaf_blocks, plan.nonleaf_blocks
    row_tree = plan.matrix.block_tree.row_tree
    result = np.zeros(len(row_tree), dtype=bool)
    result[others.row[interior[others.col]]] = True
    # a block is in the result when its parent's row is interior in it;
    # the sentinel entry is the root block's
    inside = np.append(result[others.row], True)
    coupled = inside[leaves.parent]
    # the non-leaf blocks of the result at its leaves keep their slots
    slotted = inside[others.parent] & ~result[others.row]
    # below x's leaves: the columns leaf blocks read, and the slots';
    # the input is pushed down to them and to their brothers
    crossed = np.zeros_like(member)
    crossed[leaves.col[coupled]] = True
    crossed &= ~member
    below = crossed.copy()
    below[others.col[slotted]] = True
    below &= ~member
    push = np.zeros_like(member)
    while below.any():
        fathers = tree.father[below]
        push[fathers] = True
        below = np.zeros_like(push)
        below[fathers] = True
        below &= ~member
    at = np.flatnonzero(leaf | crossed)
    pick = slice(None) if coupled.all() else coupled
    row = leaves.row[pick]
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    sub = Subtree.from_interior(row_tree, result)
    out = np.flatnonzero(sub.leaf_mask())
    pattern = ProductPattern(
        key=interior.tobytes(),
        sub=sub,
        interior=result,
        member=member,
        push=push if push.any() else None,
        at=at,
        cross=plan.cross[at],
        coupling=leaves.coupling[pick],
        col=leaves.col[pick],
        starts=starts,
        row=row[starts],
        parked=int(np.count_nonzero(leaf[others.col])),
        slot_target=others.target[slotted],
        slot_col=others.col[slotted],
        leaf_target=plan.ptr[out][:, None] + np.arange(plan.matrix.rank),
        leaf_row=out,
    )
    for value in [*vars(pattern).values(), *vars(sub).values()]:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return pattern


def _forward(plan, coeff, pattern):
    """W_s^T x|_s for every member s of the input's subtree.

    coeff holds the input coefficient of every cluster in pattern.at,
    the subtree leaves and the clusters below them that leaf blocks
    read (other rows are ignored).  Returns an array with one row per
    column cluster, zero outside the subtree and pattern.at.
    """
    xbar = np.zeros((len(pattern.member), plan.matrix.rank))
    xbar[pattern.at] = kernels.matvec(pattern.cross, coeff.take(pattern.at, axis=0))
    plan.matrix.col_basis.forward(xbar.reshape(-1), pattern.member)
    return xbar


def multiply(plan, x):
    """Exact product of the planned matrix with a hierarchical vector.

    Returns an InducedHVector over plan.induced.  Operation counts are
    attributed to the phases "forward", "coupling" and "backward".
    The plan keeps the pattern of the last input subtree.
    """
    if x.basis is not plan.input_basis:
        raise ValueError("plan was built for a different input basis")
    x.validate()
    key = x.sub.interior_mask().tobytes()
    if plan.pattern is None or plan.pattern.key != key:
        plan.pattern = None  # free the old stacks before gathering new ones
        plan.pattern = _pattern(plan, x.sub)
    p = plan.pattern
    with kernels.phase("forward"):
        data = x.data
        if p.push is not None:
            data = data.copy()
            plan.input_basis.backward(data, p.push, add=False)
        coeff = data.reshape(len(p.member), plan.input_basis.rank)
        xbar = _forward(plan, coeff, p)
    rows = np.zeros((len(p.interior), plan.matrix.rank))
    with kernels.phase("coupling"):
        if p.col.size:
            contrib = kernels.matvec(p.coupling, xbar.take(p.col, axis=0))
            rows[p.row] = np.add.reduceat(contrib, p.starts)
        if p.parked:
            kernels.tally(p.parked * plan.input_basis.rank)
    with kernels.phase("backward"):
        plan.matrix.row_basis.backward(rows.reshape(-1), p.interior)
    buf = np.zeros(plan.ptr[-1])
    buf[p.leaf_target] = rows.take(p.leaf_row, axis=0)
    buf[p.slot_target] = coeff.take(p.slot_col, axis=0)
    return InducedHVector(plan, p.sub.copy(), buf)


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
