"""Adaptive basis conversion with exact error control.

Converting a hierarchical vector into a different (isometric) basis
descends the source subtree: where the exact projection error fits the
local budget the projected coefficient is committed, otherwise the
coefficient is pushed to the sons and the descent continues.  On the
way back up, sons are merged again whenever the exact merge error
keeps the accumulated bound inside the local budget.

The local budget at a cluster holding a fraction f of all indices is
eps * sqrt(f): committed leaves have disjoint supports, so the global
error is bounded by eps.  Accumulated bounds follow the recursion
acc(t) = local(t) + sqrt(sum of son acc squared), an upper bound for
the true error by the triangle inequality along refinement chains and
Pythagoras across disjoint supports.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import ClusterBasis
from .hvector import HVector, merge

__all__ = [
    "ToleranceBudget",
    "ConversionReport",
    "materialize_induced",
    "convert",
    "coarsen_pass",
]


# widens acceptance tests by this multiple of the local coefficient
# norm, so that exact representations (errors at round-off level) are
# recognized even for eps = 0
REL_FLOOR = 1e-12


@dataclass
class ToleranceBudget:
    """Global tolerance with per-cluster split and round-off floor.

    The floor REL_FLOOR only widens acceptance tests; accumulated
    bounds always use the true computed errors, never the floor.
    """

    eps: float

    def limit(self, size, total, scale):
        """Acceptance limit at a cluster holding `size` of `total`
        indices whose coefficient has norm `scale`."""
        return max(self.eps * math.sqrt(size / total), REL_FLOOR * scale)


@dataclass
class ConversionReport:
    """Per-cluster exact local errors committed during one conversion."""

    commit_errors: dict = field(default_factory=dict)
    merge_errors: dict = field(default_factory=dict)
    forced: list = field(default_factory=list)
    bound: float = 0.0
    cluster_count: int = 0


def materialize_induced(plan):
    """Explicit nested basis realizing the induced layout of a plan.

    Cluster t has the rank ptr[t + 1] - ptr[t] of its accumulator: the
    row basis in the leading columns, then one slot of input-basis
    columns per non-leaf block of row t.  Leaves own no such blocks,
    so the leaf matrices are the row basis's own.  The transfer of a
    son t2 of t is assembled from tiles placed in accumulator
    coordinates: the row transfer of t2 on the leading entries of t2
    and t, and for every block below a non-leaf block a tile whose
    rows are the block's own entries and whose columns are its parent
    block's slot, coupling times cross Gram times input transfer for
    a leaf block and the input transfer for a non-leaf block.  The
    basis is built on zero transfers, and each kind of tile is
    scattered once into its transfer store, by the start of each
    son's transfer, so the transfers are written into one store only.
    """
    mat = plan.matrix
    row_tree = mat.block_tree.row_tree
    col_tree = mat.block_tree.col_tree
    ptr = plan.ptr
    rank, father = np.diff(ptr), row_tree.father
    leaf, nonleaf = plan.leaf_blocks, plan.nonleaf_blocks
    sons = np.flatnonzero(father >= 0)
    cols = np.flatnonzero(col_tree.father >= 0)
    lead = np.arange(mat.rank)
    k = plan.input_basis.rank
    input_transfer = np.zeros((len(col_tree), k, k))
    for s, f in plan.input_basis.transfer.items():
        input_transfer[s] = f
    # cross[s2] times the input transfer of s2, shared by all blocks (t2, s2)
    pushed = np.zeros(plan.cross.shape)
    pushed[cols] = kernels.matmul(plan.cross[cols], input_transfer[cols])
    zero = np.zeros((rank.max(), rank.max()))
    leaf_matrix = {t: mat.row_basis.leaf_matrix[t] for t in row_tree.leaves()}
    blank = {t2: zero[: rank[t2], : rank[father[t2]]] for t2 in sons.tolist()}
    induced = ClusterBasis(row_tree, leaf_matrix, blank)
    start = induced.transfer_start

    def place(son, rows, columns, tiles, write):
        """Write tiles[j] into the transfer of son[j], at the given
        rows and columns in accumulator coordinates."""
        t = father[son]
        row = (rows - ptr[son][:, None]) * rank[t][:, None]
        col = columns - ptr[t][:, None]
        at = start[son][:, None, None] + row[:, :, None] + col[:, None, :]
        write(induced.transfer_store, at.ravel(), tiles.ravel())

    # only the leaf-block tiles overlap; they add up in block order
    rows, columns = ptr[sons][:, None] + lead, ptr[father[sons]][:, None] + lead
    tiles = np.array([mat.row_basis.transfer[t2] for t2 in sons.tolist()])
    place(sons, rows, columns, tiles, np.put)
    below = leaf.parent < nonleaf.row.size
    coupled = kernels.matmul(leaf.coupling[below], pushed[leaf.col[below]])
    slot = nonleaf.target[leaf.parent[below]]
    place(leaf.row[below], leaf.target[below], slot, coupled, np.add.at)
    inner = nonleaf.parent < nonleaf.row.size
    slot = nonleaf.target[nonleaf.parent[inner]]
    tiles = input_transfer[nonleaf.col[inner]]
    place(nonleaf.row[inner], nonleaf.target[inner], slot, tiles, np.put)
    return induced


def _ascent(y, pfactors, budget, merge_errors):
    """The merge step of convert and coarsen_pass, as ascend(i, acc).

    Merges the sons of i into i when all are subtree leaves of y and
    the exact merge error plus their accumulated bound acc fits the
    local budget; returns the bound at i.
    """
    tree, off = y.basis.tree, y.basis.offsets

    def ascend(i, acc):
        if not all(y.sub.is_leaf(s) for s in tree.sons(i)):
            return acc
        merged, merge_err, scale = merge(y, i, pfactors)
        candidate = merge_err + acc
        if candidate <= budget.limit(tree.size(i), tree.n, scale):
            y.sub.contract(i)
            y.data[off[i] : off[i + 1]] = merged
            merge_errors[i] = merge_err
            return candidate
        return acc

    return ascend


def convert(x, target, zfactors, pfactors, budget):
    """Approximate x in a different isometric basis, adaptively.

    Parameters
    ----------
    x : HVector over the source basis (a product result qualifies).
    target : isometric ClusterBasis on the same tree.
    zfactors : ProjectionFactors for (source, target).
    pfactors : merge factors of the target basis.
    budget : ToleranceBudget.

    Returns
    -------
    (y, bound, report) : the converted vector, the accumulated error
    bound acc(root) (an upper bound for the true Euclidean error), and
    the per-cluster report of exact local errors.
    """
    if zfactors.source is not x.basis or zfactors.target is not target:
        raise ValueError("projection factors do not match source/target bases")
    if not target.isometric:
        raise ValueError("target basis must be isometric")
    x.validate()
    tree = target.tree
    y = HVector(target)
    xoff, yoff = x.basis.offsets, target.offsets
    report = ConversionReport()
    ascend = _ascent(y, pfactors, budget, report.merge_errors)

    def descend(i, xhat):
        # xhat: the source coefficient at i, or None above x's leaves
        if xhat is None and x.sub.is_leaf(i):
            xhat = x.data[xoff[i] : xoff[i + 1]]
        if xhat is not None:
            err = float(np.linalg.norm(kernels.matvec(zfactors.z[i], xhat)))
            fits = err <= budget.limit(tree.size(i), tree.n, float(np.linalg.norm(xhat)))
            if fits or tree.is_leaf(i):
                y.data[yoff[i] : yoff[i + 1]] = kernels.matvec(zfactors.cross[i], xhat)
                report.commit_errors[i] = err
                if not fits:
                    report.forced.append(i)
                return err
        y.sub.expand(i)
        acc = 0.0
        for s in tree.sons(i):
            son = None if xhat is None else kernels.matvec(x.basis.transfer[s], xhat)
            acc += descend(s, son) ** 2
        return ascend(i, math.sqrt(acc))

    bound = descend(tree.root, None)
    report.bound = bound
    report.cluster_count = y.sub.count()
    return y, bound, report


def coarsen_pass(y, pfactors, budget):
    """Greedy bottom-up merging of an isometric hierarchical vector.

    Merges sons wherever the accumulated exact error stays inside the
    local budget; a second pass changes nothing.  Returns the total
    bound acc(root).
    """
    if not y.basis.isometric:
        raise ValueError("coarsening requires an isometric basis")
    y.validate()
    tree = y.basis.tree
    ascend = _ascent(y, pfactors, budget, {})

    def walk(i):
        if y.sub.is_leaf(i):
            return 0.0
        acc = 0.0
        for s in tree.sons(i):
            acc += walk(s) ** 2
        return ascend(i, math.sqrt(acc))

    return walk(tree.root)
