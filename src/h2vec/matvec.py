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
  the forward transformation of the matrix's column basis;
* coupling: a row's leaf blocks are in the result together, when
  the row's father is interior there, so the plan keeps the leaf
  blocks by row: per count c of leaf blocks in a row, one stack of
  each row's c coupling matrices side by side.  One stacked product
  per count, of these stacks with the entries of their columns,
  writes each row's sum into its accumulator of matrix rank; parking
  an input leaf's coefficient is charged here as well;
* backward: the backward transformation of the row basis from the
  clusters interior in the result.

Each pass is a list of steps (basis.run_steps): a stack of matrices
with the entries it reads and the entries it adds or writes into.
ClusterBasis.forward_steps and backward_steps cut a basis's transfer
groups to the clusters a pass treats.  The result's leaves then take
their leading entries from the row accumulators and every slot of a
block of the result the input pushed down to its column.  The
result's flat array is laid out by the induced basis's ptr: cluster t
owns the entries ptr[t] to ptr[t + 1].  The plan keeps the induced
basis, with its dense transfers, for the oracles and for
nested_orthogonalize, which gives the isometric basis at the ranks
nestedness allows in which the demo converts its products, mapped
there exactly by convert.CoordinateMap.  Counted flops equal those of the recursive
walk of this factored model; each add into an accumulator is charged
per batch.  The passes gather entries with ndarray.take: for the
27,444 entries the coupling of one product at n = 4096 reads, that
takes 38-44 us, against 44-47 us by indexing.

Steps of tiny matrices, of at most kernels.TINY_ENTRIES entries, are
held batch-last (basis.BatchLastGroup), the layout in which such
stacks multiply fastest.  build_plan builds such coupling groups
batch-last, as only products read them, and gives the row basis's
transfer groups batch-last twins, once; the steps view them or are
picked from them.  The steps a pattern copies, of the cross Gram
matrices and of the transposed column transfers, are copied
batch-last.  A product at n = 4096 and rank 3 on the full
subtree runs all its 26 steps so.

Everything these passes read but the input's coefficients depends
only on the input's subtree: the result's subtree, the steps of the
three transformations, the rows the forward pass starts at with their
cross Gram matrices, the coupling stacks of the rows of the result,
and the targets of the output.  The plan keeps them for the last
input subtree (a ProductPattern), so a run of products on one
subtree, as in inverse iteration once the iterate's subtree has
settled, does only the arithmetic: per step one take, one stacked
product and one add or write.

The product is exact; only the representation is unusual.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .basis import MatrixGroup, cross_gram_family, run_steps
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
    the block tree's order.

    row, col: the block clusters.  parent: the position of the parent
    block in the plan's non-leaf blocks, or their count at the root
    block.  target[j]: the entries of the induced layout that block j
    stands for, the leading matrix-rank entries of its row for a leaf
    block and its slot for a non-leaf block.  number: for leaf blocks,
    their places in the matrix's coupling stack.
    """

    row: np.ndarray
    col: np.ndarray
    parent: np.ndarray
    target: np.ndarray
    number: np.ndarray = None


@dataclass
class ProductPattern:
    """What a product reads that depends only on the input's subtree,
    kept on the plan for the next product on that subtree.

    key: the input's interior mask as bytes.  sub: the result's
    subtree, copied into every result.  push: the steps of the input
    basis's backward transformation that push the input down to the
    clusters the forward pass reads.  cross: the step of the cross
    Gram matrices of the input clusters the forward pass starts from,
    reading their input entries and writing their column entries.
    forward: the steps of the column basis's forward
    transformation over the input's members.  coupling: the plan's
    coupling groups cut to the rows of the result.  backward: the
    steps of the row basis's backward transformation from the
    result's interior.  parked: the number of input coefficients
    parked in slots.  slot_target, slot_col: the slots of the
    non-leaf blocks at the result's leaves and their columns.
    leaf_target, leaf_row: the leading entries of each result leaf
    and the row accumulators they come from.  Every array, also those
    of the steps and groups, is read-only.  Where the clusters that
    take part form one run of a group of the plan or of a basis, a
    whole group in particular, the pattern holds views of the group's
    arrays, not copies.
    """

    key: bytes
    sub: Subtree
    push: list
    cross: MatrixGroup
    forward: list
    coupling: list
    backward: list
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
    per non-leaf block of row t, numbered in the block tree's
    order; its length is the induced rank of t.  cross[s] = W_s^T Q_s
    couples the matrix column basis with the input basis, stacked per
    column cluster.  leaf_blocks and nonleaf_blocks describe the block
    tree, and induced is the induced basis.  coupling holds one
    MatrixGroup per count c of leaf blocks in a row: its clusters are
    the rows with c leaf blocks, its matrices the k x c k matrices
    [S_1 ... S_c] of each row's couplings side by side, in the order
    of leaf_blocks, its source the entries of the c columns in the flat (clusters, k)
    array of the forward pass and its target the row's entries in the
    flat (clusters, k) row accumulators, k the matrix rank; a group of
    tiny matrices is held batch-last, as a BatchLastGroup.  pattern
    is the ProductPattern of the last input subtree, replaced when a
    product meets another one.

    A plan is a snapshot of its matrix: the coupling stacks are copies
    of the matrix's couplings, and the induced transfers are built
    from them, so a matrix changed after build_plan needs a new plan.
    """

    matrix: object
    input_basis: object
    cross: np.ndarray
    ptr: np.ndarray
    leaf_blocks: BlockSet
    nonleaf_blocks: BlockSet
    coupling: list
    induced: object = None
    pattern: ProductPattern = None


def build_plan(matrix, input_basis):
    if input_basis.tree is not matrix.block_tree.col_tree:
        raise ValueError("input basis does not live on the column tree")
    if np.any(np.diff(input_basis.ptr) != input_basis.rank):
        raise ValueError("input basis: the product needs one rank at every cluster")
    bt, ka, k = matrix.block_tree, matrix.rank, input_basis.rank
    cross = cross_gram_family(matrix.col_basis, input_basis).stacked(np.arange(len(bt.col_tree)), ka, k)
    # leaf blocks in row order: the coupling sums them per row
    by_row = np.argsort(bt.row[bt.leaf], kind="stable")
    leaves = np.flatnonzero(bt.leaf)[by_row]
    others = np.flatnonzero(~bt.leaf)
    # a block's parent by its position among the non-leaf blocks
    parent = np.append(np.cumsum(~bt.leaf) - 1, others.size)[bt.parent]
    # a non-leaf block's slot is its rank among the non-leaf blocks of its row
    rows = bt.row[others]
    order = np.argsort(rows, kind="stable")
    count = np.bincount(rows, minlength=len(bt.row_tree))
    slot = np.empty_like(rows)
    slot[order] = np.arange(rows.size) - (np.cumsum(count) - count)[rows[order]]
    ptr = np.zeros(len(bt.row_tree) + 1, dtype=np.intp)
    ptr[1:] = np.cumsum(ka + k * count)
    leaf_blocks = BlockSet(bt.row[leaves], bt.col[leaves], parent[leaves], ptr[bt.row[leaves], None] + np.arange(ka), by_row)
    starts = ptr[rows] + ka + k * slot
    nonleaf_blocks = BlockSet(rows, bt.col[others], parent[others], starts[:, None] + np.arange(k))
    coupling = _coupling_groups(matrix, leaf_blocks)
    # every product reads the row transfers: tiny ones get a batch-last
    # twin, once, which backward_steps picks from
    for group in matrix.row_basis.transfer.groups:
        if group.last is None:
            group.last = group.batch_last()
    plan = MatvecPlan(matrix, input_basis, cross, ptr, leaf_blocks, nonleaf_blocks, coupling)
    plan.induced = materialize_induced(plan)
    plan.ptr = plan.induced.ptr  # the same offsets, read-only
    return plan


def _coupling_groups(matrix, leaves):
    """The plan's coupling groups, one per count of leaf blocks in a
    row, batch-last where their matrices are tiny."""
    ka = matrix.rank
    count = np.bincount(leaves.row)
    first = np.cumsum(count) - count
    groups = []
    for c in sorted(set(count[count > 0].tolist())):
        rows = np.flatnonzero(count == c)
        blocks = first[rows][:, None] + np.arange(c)
        # (rows, c, ka, ka) -> (rows, ka, c, ka): S_1 ... S_c side by side
        stack = matrix.coupling[leaves.number[blocks]].transpose(0, 2, 1, 3).reshape(rows.size, ka, c * ka)
        source = (leaves.col[blocks][:, :, None] * ka + np.arange(ka)).reshape(rows.size, c * ka)
        group = MatrixGroup(rows, stack, source, rows[:, None] * ka + np.arange(ka))
        groups.append(group.batch_last() or group)
    return groups


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
    k, ka = plan.input_basis.rank, plan.matrix.rank
    cross = MatrixGroup(at, plan.cross[at], at[:, None] * k + np.arange(k), at[:, None] * ka + np.arange(ka))
    # so a row's leaf blocks are in the result together, when the row's
    # father is interior there; the root's father, -1, reads the
    # appended True
    row_in = np.append(result, True)[row_tree.father]
    coupling = (group.pick(row_in[group.clusters]) for group in plan.coupling)
    sub = Subtree.from_interior(row_tree, result)
    out = np.flatnonzero(sub.leaf_mask())
    pattern = ProductPattern(
        key=interior.tobytes(),
        sub=sub,
        push=plan.input_basis.backward_steps(push),
        cross=cross.batch_last() or cross,
        forward=plan.matrix.col_basis.forward_steps(member),
        coupling=[group for group in coupling if group is not None],
        backward=plan.matrix.row_basis.backward_steps(result),
        parked=int(np.count_nonzero(leaf[others.col])),
        slot_target=others.target[slotted],
        slot_col=others.col[slotted],
        leaf_target=plan.ptr[out][:, None] + np.arange(plan.matrix.rank),
        leaf_row=out,
    )
    steps = [*pattern.push, pattern.cross, *pattern.forward, *pattern.coupling, *pattern.backward]
    for value in [*vars(pattern).values(), *vars(sub).values(), *(v for s in steps for v in vars(s).values())]:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return pattern


def _forward(plan, coeff, pattern):
    """W_s^T x|_s for every member s of the input's subtree.

    coeff holds the input coefficient of every cluster the cross step
    reads (pattern.cross.clusters), the subtree leaves and the clusters
    below them that leaf blocks read (other rows are ignored).  Returns
    an array with one row per column cluster, zero outside the subtree
    and those clusters.
    """
    xbar = np.zeros((len(plan.cross), plan.matrix.rank))
    run_steps(coeff.reshape(-1), [pattern.cross], add=False, out=xbar.reshape(-1))
    run_steps(xbar.reshape(-1), pattern.forward)
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
        if p.push:
            data = data.copy()
            run_steps(data, p.push, add=False)
        coeff = data.reshape(-1, plan.input_basis.rank)
        xbar = _forward(plan, coeff, p)
    rows = np.zeros((len(p.sub.tree), plan.matrix.rank))
    with kernels.phase("coupling"):
        run_steps(xbar.reshape(-1), p.coupling, add=False, out=rows.reshape(-1))
        if p.parked:
            kernels.tally(p.parked * plan.input_basis.rank)
    with kernels.phase("backward"):
        run_steps(rows.reshape(-1), p.backward)
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
