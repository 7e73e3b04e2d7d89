"""Adaptive basis conversion with exact error control.

Converting a hierarchical vector into a different (isometric) basis
descends the source subtree: where the exact projection error fits the
local budget eps * sqrt(f) of a cluster holding a fraction f of all
indices, or the cluster is a tree leaf, the projected coefficient is
committed; otherwise the coefficient is pushed to the sons and the
descent continues.  The committed clusters are the leaves of the
subtree D the conversion visits.

The error ledger.  The target is isometric and nested, so the error of
a commit at u, orthogonal to range(V_u), and the error of a merge at t,
inside the sons' ranges and orthogonal to range(V_t), are mutually
orthogonal: range(V_t) restricted to a descendant u lies in range(V_u).
The squared error of the result is therefore the sum of its commit
and merge errors squared, and the reported bound is sqrt(sum of
commit^2 + sum of merge^2) times 1 + MARGIN for rounding: the true
error, not a bound on it.

The merges.  The error ledger makes eps^2 one budget for the whole
vector: what the commits' squared errors leave of it pays for merges.
Level by level from the deepest, the clusters whose sons are all
leaves are the candidates; they merge in order of squared merge error,
ties by cluster number, while the running sum fits what is left.  Each
merge removes sons - 1 leaves, so on one level this takes the most
merges the budget allows; across levels it does not look ahead, so it
may spend on a deep merge what a cheaper set of merges higher up would
need.  The fewest leaves within eps solve a tree knapsack (Bohanec &
Bratko, Machine Learning 15, 1994), whose per-level min-plus tables
and top-down cut took more than twice this ascent's time per call in
the grid-64 demo and the algebra benchmark.  Errors at round-off level
relative to their coefficient (REL_FLOOR) are charged 0, so that
eps = 0 still recognizes exact representations, while the bound keeps
their true values.

Both directions run one tree level at a time.  The descent makes one
stacked Z product per group of projection factors (level, source and
target rank, rows of Z) over the clusters holding a source
coefficient, commits those whose error fits, or that are tree leaves,
with one stacked cross product, and pushes the rest to their sons by
the source basis's backward transformation of that level.  The ascent
makes, per stack of the target's merge factors, the stacked son
transfers E with orthonormal columns, one stacked E^T product, the
merged coefficients, and one stacked E product, whose difference from
the son coefficients has the exact merge error as its norm: 2 m r
multiply-adds per candidate with m stacked son entries and rank r.
coarsen_pass is the ascent alone.

A product lands in the induced basis, whose ranks exceed what
nestedness allows: a father's rank above the sum of its sons' adds
columns but no range.  CoordinateMap carries a vector exactly into
the isometric basis that basis.nested_orthogonalize builds at the
nested ranks, where the descent runs fewer and smaller groups.
"""

import math
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
# norm, and local errors within it are charged 0 against the budget,
# so that exact representations (errors at round-off level) are
# recognized even for eps = 0
REL_FLOOR = 1e-12

# relative rounding margin of the error ledger: a bound is reported as
# sqrt(sum of squared local errors) times 1 + MARGIN, and merges are
# taken only while the charged sum is at most (eps / (1 + 2 MARGIN))^2,
# so that sums added in another order still report a bound within eps
MARGIN = 1e-12


@dataclass
class ToleranceBudget:
    """Global tolerance with per-cluster split and round-off floor.

    The split and the floor REL_FLOOR make the descent's stopping test;
    reported bounds always use the true computed errors, never the
    floor.  eps is a non-negative real number; 0 and inf are allowed.
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


def _ascent(y, interior, commits, factors, budget, merge_errors):
    """The merge ascent of convert and coarsen_pass, bottom-up by level.

    interior marks the interior clusters of the subtree at whose leaves
    y.data holds coefficients, and commits holds two lists, the true
    and the charged squared errors of those leaves (both empty where
    they carry no error); interior is updated in place, as is y.data.
    What the charged errors leave of eps^2 (less the rounding margin)
    is the budget of the merges.  On each level, the candidates are the
    interior clusters whose sons are all leaves: per group of merge
    factors, the stacked son transfers E, one stacked E^T product gives
    their merged coefficients and one stacked E product the residuals,
    whose squared norms are the exact merge errors, charged 0 at
    round-off level.  The candidates merge in order of charged error,
    ties by cluster number, for as long as their running sum fits what
    is left of the budget; merges charged 0 always do.  Sets y.sub
    once, adds the applied merges to merge_errors unless it is None
    and returns the bound sqrt(sum of true squared errors) of the
    result.
    """
    tree, data = y.basis.tree, y.data
    limit = budget.eps / (1.0 + 2.0 * MARGIN)
    # fsum: the budget left does not depend on the order of the commits
    left = limit * limit - math.fsum(commits[1])
    applied = []
    for level in range(len(tree.by_level) - 2, -1, -1):
        here, sons = tree.by_level[level], tree.by_level[level + 1]
        if not interior[here].any():
            continue
        candidate = interior.copy()
        candidate[tree.father[sons[interior[sons]]]] = False
        found = []
        for group in factors.levels[level]:
            pick = candidate[group.clusters]
            if not pick.any():
                continue
            pick = _rows(pick)
            stack, stacked = group.stack[pick], data[group.source[pick]]
            merged = kernels.matvec(stack.transpose(0, 2, 1), stacked)
            rest = stacked - kernels.matvec(stack, merged)
            sq = np.einsum("ij,ij->i", rest, rest)
            floor = sq <= (REL_FLOOR * REL_FLOOR) * np.einsum("ij,ij->i", stacked, stacked)
            found.append((group.clusters[pick], group.target[pick], merged, sq, np.where(floor, 0.0, sq)))
        if not found:
            continue
        ids, target, merged, sq, cost = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
        order = np.lexsort((ids, cost))
        total = np.cumsum(cost[order])
        take = order[total <= max(left, 0.0)]
        if not take.size:
            continue
        left -= float(total[take.size - 1])
        interior[ids[take]] = False
        data[target[take]] = merged[take]
        applied.append((ids[take], sq[take]))
    y.sub = Subtree.from_interior(tree, interior)
    ids, sq = map(np.concatenate, zip(*applied)) if applied else (np.zeros(0, dtype=np.intp), np.zeros(0))
    if merge_errors is not None:
        merge_errors.update(zip(ids.tolist(), np.sqrt(sq).tolist()))
    return math.sqrt(math.fsum(commits[0]) + float(sq.sum())) * (1.0 + MARGIN)


def convert(x, target, zfactors, pfactors, budget):
    """Approximate x in a different isometric basis within eps, with
    merges on one budget for the whole vector.

    Parameters
    ----------
    x : HVector over the source basis (a product result qualifies).
    target : isometric ClusterBasis on the same tree.
    zfactors : projection_factors(source, target).
    pfactors : coarsening_factors(target), its stacked son transfers.
    budget : ToleranceBudget.

    Returns
    -------
    (y, bound, report) : the converted vector, the bound
    sqrt(sum of squared commit and merge errors), which equals the
    true Euclidean error up to rounding (MARGIN), and the report of
    those errors per cluster.
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
    commits = [], []  # true and charged squared errors
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
            sq = np.einsum("ij,ij->i", zx, zx)
            err, scale = np.sqrt(sq), np.sqrt(np.einsum("ij,ij->i", xhat, xhat))
            fits = err <= budget.limit(tree.sizes[ids], tree.n, scale)
            commit = fits | ~tree.has_sons[ids]
            y.data[group.target[pick][commit]] = kernels.matvec(stack[_rows(commit), :k], xhat[commit])
            commits[0].extend(sq[commit].tolist())
            commits[1].extend(np.where(err <= REL_FLOOR * scale, 0.0, sq)[commit].tolist())
            report.commit_errors.update(zip(ids[commit].tolist(), err[commit].tolist()))
            report.forced.extend(ids[commit & ~fits].tolist())
            push[ids[~commit]] = True
        if push.any():
            interior |= push
            x.basis.backward(data, push, add=False, level=level)
            sons = tree.by_level[level + 1]
            has[sons] |= push[tree.father[sons]]
    report.bound = _ascent(y, interior, commits, pfactors, budget, report.merge_errors)
    return y, report.bound, report


def coarsen_pass(y, pfactors, budget):
    """Merge an isometric hierarchical vector, in place, while the
    squared merge errors add up within eps^2.

    The ascent of convert, over y's own subtree, whose leaves carry no
    error.  Returns the bound sqrt(sum of squared merge errors), the
    Euclidean change up to rounding (MARGIN).  A second pass may merge
    more: it starts from a budget of eps again.
    """
    _check_budget(budget)
    _check_family(pfactors, "merge", y.basis)
    y.validate()
    return _ascent(y, y.sub.interior_mask(), ([], []), pfactors, budget, None)
