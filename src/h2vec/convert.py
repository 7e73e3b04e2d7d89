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

Both directions run one tree level at a time.  The descent makes one
stacked Z product per group of projection factors (level, source and
target rank, rows of Z) over the clusters holding a source
coefficient, commits those whose error fits, or that are tree leaves,
with one stacked cross product, and pushes the rest to their sons by
the source basis's backward transformation of that level.  The ascent
treats the clusters whose sons are all leaves as merge candidates.
Per stack of the target's merge factors, the stacked son transfers E
with orthonormal columns, it makes one stacked E^T product, the merged
coefficients, and one stacked E product, whose difference from the
son coefficients has the exact merge error as its norm: 2 m r
multiply-adds per candidate with m stacked son entries and rank r.
It builds the subtree once at the end.  coarsen_pass is the
ascent alone.

A product lands in the induced basis, whose ranks exceed what
nestedness allows: a father's rank above the sum of its sons' adds
columns but no range.  CoordinateMap carries a vector exactly into
the isometric basis that basis.nested_orthogonalize builds at the
nested ranks, where the descent runs fewer and smaller groups.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import ClusterBasis, _check_family, run_steps
from .hvector import HVector
from .tree import Subtree

__all__ = [
    "ToleranceBudget",
    "ConversionReport",
    "CoordinateMap",
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
    eps is a non-negative real number; 0 and inf are allowed.
    """

    eps: float

    def __post_init__(self):
        if not (isinstance(self.eps, numbers.Real) and self.eps >= 0.0):
            raise ValueError(f"eps must be non-negative, got {self.eps}")

    def limit(self, size, total, scale):
        """Acceptance limit at a cluster holding `size` of `total`
        indices whose coefficient has norm `scale`; size and scale may
        be arrays, one entry per cluster."""
        return np.maximum(self.eps * np.sqrt(size / total), REL_FLOOR * scale)


@dataclass
class ConversionReport:
    """Per-cluster exact local errors committed during one conversion."""

    commit_errors: dict = field(default_factory=dict)
    merge_errors: dict = field(default_factory=dict)
    forced: list = field(default_factory=list)
    bound: float = 0.0


def materialize_induced(plan):
    """Explicit nested basis realizing the induced layout of a plan.

    Cluster t has the rank ptr[t + 1] - ptr[t] of its accumulator: the
    row basis in the leading columns, then one slot of input-basis
    columns per non-leaf block of row t.  Leaves own no such blocks,
    so the leaf matrices equal the row basis's.  The transfer of a
    son t2 of t is assembled from tiles placed in accumulator
    coordinates: the row transfer of t2 on the leading entries of t2
    and t, and for every block below a non-leaf block a tile whose
    rows are the block's own entries and whose columns are its parent
    block's slot, coupling times cross Gram times input transfer for
    a leaf block and the input transfer for a non-leaf block.  The
    basis is built on zeros; the row basis's leaf store, laid out
    alike, is copied into its leaf store, and each kind of tile is
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
    # cross[s2] times the input transfer of s2, shared by all blocks (t2, s2)
    pushed = np.zeros(plan.cross.shape)
    pushed[cols] = kernels.matmul(plan.cross[cols], plan.input_basis.transfer.stacked(cols, k, k))
    induced = ClusterBasis(row_tree, rank, None, None)
    induced.leaf_matrix.store[:] = mat.row_basis.leaf_matrix.store

    def place(son, rows, columns, tiles, write):
        """Write tiles[j] into the transfer of son[j], at the given
        rows and columns in accumulator coordinates."""
        t = father[son]
        row = (rows - ptr[son][:, None]) * rank[t][:, None]
        col = columns - ptr[t][:, None]
        at = induced.transfer.start[son][:, None, None] + row[:, :, None] + col[:, None, :]
        write(induced.transfer.store, at.ravel(), tiles.ravel())

    # only the leaf-block tiles overlap; they add up in block order
    rows, columns = ptr[sons][:, None] + lead, ptr[father[sons]][:, None] + lead
    tiles = mat.row_basis.transfer.stacked(sons, mat.rank, mat.rank)
    place(sons, rows, columns, tiles, np.put)
    below = leaf.parent < nonleaf.row.size
    coupled = kernels.matmul(mat.coupling[leaf.number[below]], pushed[leaf.col[below]])
    slot = nonleaf.target[leaf.parent[below]]
    place(leaf.row[below], leaf.target[below], slot, coupled, np.add.at)
    inner = nonleaf.parent < nonleaf.row.size
    slot = nonleaf.target[nonleaf.parent[inner]]
    tiles = plan.input_basis.transfer.stacked(nonleaf.col[inner], k, k)
    place(nonleaf.row[inner], nonleaf.target[inner], slot, tiles, np.put)
    return induced


class CoordinateMap:
    """The exact map of vectors over a basis V to the coordinates of
    the basis Q of nested_orthogonalize(V), with V_t = Q_t R_t.

    Called on a vector x over V, it returns the vector over Q on a copy
    of x's subtree whose coefficient at each subtree leaf t is R_t x_t,
    so that both expand to the same dense vector.  factors is the
    family of kind "coordinates" that nested_orthogonalize returns,
    and x must live on its source basis.  The map runs one stacked
    product per group of factors that holds leaves of x's subtree;
    these steps are kept under the leaf mask they were cut for, as a
    product plan keeps its pattern, so a run of vectors on one subtree
    only multiplies.  A vector of another basis is refused; convert
    validates the coefficients it is given.
    """

    def __init__(self, factors):
        self.factors = factors
        self.key = self.steps = None

    def __call__(self, x):
        factors = self.factors
        # the target is the factors' own; kind and source are checked
        _check_family(factors, "coordinates", x.basis, getattr(factors, "target", None))
        leaf = x.sub.leaf_mask()
        key = leaf.tobytes()
        if key != self.key:
            picked = (group.pick(leaf[group.clusters]) for group in factors.groups)
            self.key, self.steps = key, [step for step in picked if step is not None]
        data = np.zeros(factors.target.ptr[-1])
        run_steps(x.data, self.steps, add=False, out=data)
        return HVector(factors.target, x.sub.copy(), data)


def _rows(mask):
    """Index for the rows marked in mask: a slice when all are, which
    takes a view of a stack instead of a copy."""
    return slice(None) if mask.all() else mask


def _check_budget(budget):
    if not isinstance(budget, ToleranceBudget):
        raise ValueError(f"budget must be a ToleranceBudget, got {type(budget).__name__}")


def _ascent(y, interior, acc, factors, budget, merge_errors):
    """The merge step of convert and coarsen_pass, bottom-up by level.

    interior marks the interior clusters of y and acc holds the
    accumulated bound at y's leaves; both are updated in place, as is
    y.data.  On each level the bound of an interior cluster is the
    root of the sum of its sons' squared bounds, added in son order.
    The interior clusters whose sons are all leaves are the
    candidates: per group of merge factors, the stacked son transfers
    E, one stacked E^T product gives their merged coefficients and one
    stacked E product the residuals, whose norms are the exact merge
    errors; a candidate merges when its error plus its bound fits the
    local budget.  Sets y.sub once and returns the bound at the
    root.
    """
    tree, data = y.basis.tree, y.data
    for level in range(len(tree.by_level) - 2, -1, -1):
        here, sons = tree.by_level[level], tree.by_level[level + 1]
        inner = here[interior[here]]
        if not inner.size:
            continue
        fathers = tree.father[sons]
        sq = np.bincount(fathers, weights=np.square(acc[sons]), minlength=len(tree))
        acc[inner] = np.sqrt(sq[inner])
        candidate = interior.copy()
        candidate[fathers[interior[sons]]] = False
        for group in factors.levels[level]:
            pick = candidate[group.clusters]
            if not pick.any():
                continue
            pick = _rows(pick)
            ids, stack, stacked = group.clusters[pick], group.stack[pick], data[group.source[pick]]
            merged = kernels.matvec(stack.transpose(0, 2, 1), stacked)
            rest = stacked - kernels.matvec(stack, merged)
            error = np.sqrt(np.einsum("ij,ij->i", rest, rest))
            bound = error + acc[ids]
            scale = np.sqrt(np.einsum("ij,ij->i", stacked, stacked))
            merge = bound <= budget.limit(tree.sizes[ids], tree.n, scale)
            ids = ids[merge]
            interior[ids] = False
            data[group.target[pick][merge]] = merged[merge]
            acc[ids] = bound[merge]
            merge_errors.update(zip(ids.tolist(), error[merge].tolist()))
    y.sub = Subtree.from_interior(tree, interior)
    return float(acc[tree.root])


def convert(x, target, zfactors, pfactors, budget):
    """Approximate x in a different isometric basis, adaptively.

    Parameters
    ----------
    x : HVector over the source basis (a product result qualifies).
    target : isometric ClusterBasis on the same tree.
    zfactors : projection_factors(source, target).
    pfactors : coarsening_factors(target), its stacked son transfers.
    budget : ToleranceBudget.

    Returns
    -------
    (y, bound, report) : the converted vector, the accumulated error
    bound acc(root) (an upper bound for the true Euclidean error), and
    the per-cluster report of exact local errors.
    """
    _check_budget(budget)
    _check_family(zfactors, "projection", x.basis, target)
    _check_family(pfactors, "merge", target)
    x.validate()
    tree = target.tree
    y = HVector(target)
    report = ConversionReport()
    data = x.data.copy()  # pushed down in place
    has = x.sub.leaf_mask().copy()  # the clusters holding a source coefficient
    interior = x.sub.interior_mask()
    acc = np.zeros(len(tree))
    for level, group_list in enumerate(zfactors.levels):
        push = np.zeros(len(tree), dtype=bool)
        for group in group_list:
            pick = has[group.clusters]
            if not pick.any():
                continue
            pick = _rows(pick)
            ids, xhat = group.clusters[pick], data[group.source[pick]]
            stack, k = group.stack[pick], group.target.shape[1]
            zx = kernels.matvec(stack[:, k:], xhat)
            err = np.sqrt(np.einsum("ij,ij->i", zx, zx))
            scale = np.sqrt(np.einsum("ij,ij->i", xhat, xhat))
            fits = err <= budget.limit(tree.sizes[ids], tree.n, scale)
            commit = fits | ~tree.has_sons[ids]
            y.data[group.target[pick][commit]] = kernels.matvec(stack[_rows(commit), :k], xhat[commit])
            acc[ids[commit]] = err[commit]
            report.commit_errors.update(zip(ids[commit].tolist(), err[commit].tolist()))
            report.forced.extend(ids[commit & ~fits].tolist())
            push[ids[~commit]] = True
        if push.any():
            interior |= push
            x.basis.backward(data, push, add=False, level=level)
            sons = tree.by_level[level + 1]
            has[sons] |= push[tree.father[sons]]
    bound = _ascent(y, interior, acc, pfactors, budget, report.merge_errors)
    report.bound = bound
    return y, bound, report


def coarsen_pass(y, pfactors, budget):
    """Greedy bottom-up merging of an isometric hierarchical vector.

    Merges sons wherever the accumulated exact error stays inside the
    local budget; a second pass changes nothing.  Returns the total
    bound acc(root).
    """
    _check_budget(budget)
    _check_family(pfactors, "merge", y.basis)
    y.validate()
    acc = np.zeros(len(y.basis.tree))
    return _ascent(y, y.sub.interior_mask(), acc, pfactors, budget, {})
