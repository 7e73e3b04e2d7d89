"""Nested cluster bases, their transformations and exact error factors.

A cluster basis stores one matrix per leaf cluster and one transfer
matrix per non-root cluster; the matrix of an interior cluster is
defined implicitly by stacking son matrices times their transfers.
Ranks may vary from cluster to cluster.  The basis owns its layouts:
one flat coefficient array (ptr), and one store each of leaf matrices
and of transfers, stacked per (level, shape), over which its forward
and backward transformations and the expansion of its vectors run as
one stacked product per group.  An isometric basis has orthonormal
columns at every cluster, which makes optimal projections and exact
error computation possible.  The per-cluster matrices below, like the
Gram family, are ClusterMatrices: stored once, stacked per (level,
shape), for passes that treat one level of the tree at a time, and
read per cluster through views.

* merge factors: the orthogonal factor Q of one QR per interior
  cluster over the stacked transfer matrices.  Multiplying stacked son
  coefficients by Q^T yields the optimally merged coefficient in the
  leading rows and the exact merge error in the trailing rows.
* projection factors: small upper-triangular matrices Z per cluster
  with  || V x - Q Q^T V x || = || Z x ||  for all coefficient vectors
  x, computed by a bottom-up recursion together with the cross terms
  Q^T V needed to commit projected coefficients.
"""

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import kernels

__all__ = [
    "ClusterBasis",
    "ClusterMatrices",
    "MergeFactors",
    "ProjectionFactors",
    "polynomial_basis",
    "orthogonalize",
    "gram_family",
    "cross_gram_family",
    "coarsening_factors",
    "projection_factors",
]

# largest entry of V^T V - I accepted in a basis flagged isometric
ISOMETRY_TOL = 1e-10


@dataclass
class MatrixGroup:
    """Clusters of one level whose matrices share their shape.

    stack holds their matrices, one per cluster.  source and target
    hold per cluster the entries of the flat coefficient arrays that
    its matrix maps from and to, laid out by the ptr of the bases the
    builder names; a basis's transfer groups also hold the fathers.
    """

    clusters: np.ndarray
    stack: np.ndarray
    source: np.ndarray = None
    target: np.ndarray = None
    fathers: np.ndarray = None


class ClusterMatrices(Mapping):
    """One small matrix per cluster, stored once, in stacks.

    shapes maps clusters to tuples (rows, cols, *more); the clusters
    of one level with equal tuples form one group, whose matrices are
    one (b, rows, cols) stack.  groups run top-down, and levels[l]
    lists the groups of level l, for passes that treat one level at a
    time.  The stacks lie in one flat store, where the matrix of
    cluster i starts at start[i], row-major; it holds the given
    matrices, or zeros.  views, also read as self[i], is a read-only
    mapping from each cluster to a view of its matrix.  basis names
    the basis the matrices belong to, for a family of one basis such
    as its Gram matrices.
    """

    def __init__(self, tree, shapes, matrices=None, basis=None):
        self.basis = basis
        keys, level = {}, tree.level.tolist()
        for i, shape in shapes.items():
            keys.setdefault((level[i], *shape), []).append(i)
        keys = sorted(keys.items())
        sizes = [len(ids) * rows * cols for (_, rows, cols, *_), ids in keys]
        self.store = np.zeros(sum(sizes))
        self.start = np.zeros(len(tree), dtype=np.intp)
        self.groups = []
        self.levels = [[] for _ in tree.by_level]
        views = {}
        for ((level, rows, cols, *_), ids), at in zip(keys, np.cumsum([0] + sizes).tolist()):
            stack = self.store[at : at + len(ids) * rows * cols].reshape(-1, rows, cols)
            self.start[ids] = at + rows * cols * np.arange(len(ids))
            if matrices is not None:
                np.concatenate([matrices[i] for i in ids], out=stack.reshape(-1, cols))
            group = MatrixGroup(np.array(ids, dtype=np.intp), stack)
            views.update(zip(ids, stack))
            self.groups.append(group)
            self.levels[level].append(group)
        self.views = MappingProxyType(dict(sorted(views.items())))

    def __getitem__(self, i):
        return self.views[i]

    def __iter__(self):
        return iter(self.views)

    def __len__(self):
        return len(self.views)


def _entries(ptr, clusters, width):
    """Entries of the given clusters, all of the given rank, in a flat
    coefficient array laid out by ptr, as a (len(clusters), width) array."""
    return ptr[clusters][:, None] + np.arange(width)


class ClusterBasis:
    """Nested basis with per-cluster ranks: leaf plus transfer matrices.

    leaf_matrix maps each tree leaf t to its (#indices, r_t) matrix;
    transfer maps each non-root cluster s with father t to the r_s x r_t
    matrix realizing nestedness.  rank is the largest cluster rank, the
    common rank of a uniform basis.  A basis flagged isometric is
    checked: V_t^T V_t = I at every leaf and sum_s E_s^T E_s = I over
    the sons of every interior cluster.

    The read-only ptr lays out one coefficient per cluster in a flat
    array: cluster t owns the entries ptr[t] to ptr[t + 1], as many as
    the columns of its leaf matrix or of its sons' transfers.  offsets
    holds ptr as a list, for walks that slice one cluster at a time.

    The leaf matrices and the transfers are copied once into
    ClusterMatrices stacked per (level, shape), and leaf_matrix and
    transfer are read-only mappings of views into the stacks.  The
    leaf_groups' source holds their clusters' entries, their target
    the clusters' tree positions.  The transfer groups, per (level,
    rank, father rank), run top-down in groups; their source and
    target hold the entries of the fathers and of the sons, and
    levels[l] lists the groups of the sons on level l.  The transfer
    of s starts at transfer_start[s] in the flat transfer_store.
    """

    def __init__(self, tree, leaf_matrix, transfer, isometric=False):
        self.tree = tree
        self.isometric = isometric
        wanted = [
            (leaf_matrix, tree.leaves(), "leaf matrix"),
            (transfer, np.flatnonzero(tree.father >= 0).tolist(), "transfer"),
        ]
        for given, clusters, what in wanted:
            missing = [i for i in clusters if i not in given]
            if missing:
                raise ValueError(f"cluster {missing[0]}: no {what} given")
        ranks = [
            transfer[c.sons[0]].shape[1] if c.sons else leaf_matrix[c.index].shape[1]
            for c in tree.clusters
        ]
        self.rank = max(ranks)
        self.ptr = np.cumsum([0] + ranks)
        self.ptr.flags.writeable = False
        self.offsets = self.ptr.tolist()
        shapes = {s: (ranks[s], ranks[t]) for s, t in enumerate(tree.father.tolist()) if t >= 0}
        leaf_shapes = {t: (tree.size(t), ranks[t]) for t in tree.leaves()}
        expected = [(transfer, shapes, "transfer"), (leaf_matrix, leaf_shapes, "leaf matrix")]
        for given, want, what in expected:
            bad = [i for i, shape in want.items() if np.shape(given[i]) != shape]
            if bad:
                rows, r = want[bad[0]]
                raise ValueError(f"cluster {bad[0]}: expected a {rows} x {r} {what}")
        leaves = ClusterMatrices(tree, leaf_shapes, leaf_matrix)
        self.leaf_matrix, self.leaf_groups = leaves.views, leaves.groups
        begin = np.array([c.begin for c in tree.clusters])
        for group in self.leaf_groups:
            rows, r = group.stack.shape[1:]
            group.source = _entries(self.ptr, group.clusters, r)
            group.target = begin[group.clusters][:, None] + np.arange(rows)
        stacks = ClusterMatrices(tree, shapes, transfer)
        self.transfer, self.groups, self.levels = stacks.views, stacks.groups, stacks.levels
        self.transfer_store, self.transfer_start = stacks.store, stacks.start
        for group in self.groups:
            r2, r = group.stack.shape[1:]
            group.fathers = tree.father[group.clusters]
            group.source = _entries(self.ptr, group.fathers, r)
            group.target = _entries(self.ptr, group.clusters, r2)
        if isometric:
            self._check_isometric()

    def _check_isometric(self):
        rank = np.diff(self.ptr)
        square = np.concatenate([[0], np.cumsum(rank * rank)])
        # V_t^T V_t - I, or sum_s E_s^T E_s - I, flat, r_t^2 entries per cluster
        gram = np.zeros(square[-1])
        row = np.arange(self.ptr[-1]) - np.repeat(self.ptr[:-1], rank)
        gram[np.repeat(square[:-1], rank) + row * np.repeat(rank + 1, rank)] = -1.0
        owned = [(g, g.clusters) for g in self.leaf_groups]
        for g, owner in owned + [(g, g.fathers) for g in self.groups]:
            sums = (g.stack.transpose(0, 2, 1) @ g.stack).reshape(len(owner), -1)
            np.add.at(gram, square[owner][:, None] + np.arange(sums.shape[1]), sums)
        deviation = np.maximum.reduceat(np.abs(gram), square[:-1])
        bad = np.flatnonzero(deviation > ISOMETRY_TOL)
        if bad.size:
            raise ValueError(
                f"cluster {bad[0]}: basis flagged isometric, but its Gram matrix "
                f"deviates from the identity by {deviation[bad[0]]:.1e}"
            )

    def rank_of(self, i):
        """Rank r_i of cluster i."""
        return self.offsets[i + 1] - self.offsets[i]

    def forward(self, data, member):
        """Forward transformation in the flat array data laid out by ptr:
        bottom-up, add E_s^T data[s] into the father of every son s
        marked in member."""
        for group in reversed(self.groups):
            active = member[group.clusters]
            if not active.any():
                continue
            pick = slice(None) if active.all() else active
            # copied: a product with the transposed view rounds differently
            transposed = np.ascontiguousarray(group.stack[pick].transpose(0, 2, 1))
            pushed = kernels.matvec(transposed, data[group.target[pick]])
            np.add.at(data, group.source[pick].ravel(), pushed.ravel())
            kernels.tally(pushed.size)

    def backward(self, data, interior, add=True, level=None):
        """Backward transformation in the flat array data laid out by
        ptr: top-down, add E_s data[t] into every son s of every
        cluster t marked in interior.

        With add=False E_s data[t] overwrites the son's entries, and
        no adds are counted: this refines, pushing coefficients down
        to the sons.  A level restricts the pass to the fathers on it.
        """
        for group in self.groups if level is None else self.levels[level + 1]:
            active = interior[group.fathers]
            if not active.any():
                continue
            pick = slice(None) if active.all() else active
            son, father = group.target[pick], data[group.source[pick]]
            pushed = kernels.matvec(group.stack[pick], father)
            if add:
                data[son] += pushed
                kernels.tally(son.size)
            else:
                data[son] = pushed

    def materialize(self, i):
        """Expand the basis matrix of cluster i down to its leaves."""
        tree = self.tree
        if tree.is_leaf(i):
            return self.leaf_matrix[i]
        blocks = [
            kernels.matmul(self.materialize(s), self.transfer[s])
            for s in tree.sons(i)
        ]
        return np.vstack(blocks)


def _legendre_columns(block, box_min, box_max, degree):
    """Tensor Legendre basis on a box, evaluated at the given points."""
    npts, dim = block.shape
    mapped = np.zeros_like(block)
    for d in range(dim):
        lo, hi = box_min[d], box_max[d]
        if hi > lo:
            mapped[:, d] = (2.0 * block[:, d] - lo - hi) / (hi - lo)
    per_dim = [
        np.polynomial.legendre.legvander(mapped[:, d], degree) for d in range(dim)
    ]
    cols = []
    for alpha in itertools.product(range(degree + 1), repeat=dim):
        c = np.ones(npts)
        for d, a in enumerate(alpha):
            c = c * per_dim[d][:, a]
        cols.append(c)
    return np.column_stack(cols)


def polynomial_basis(tree, points, degree):
    """Cluster basis of tensor Legendre polynomials, rank (degree+1)^d.

    Leaf matrices evaluate the polynomials (scaled to each cluster's
    bounding box) at the cluster's points.  Transfer matrices are
    recovered by least squares from the nestedness relation, which is
    exact for polynomials as long as every cluster's evaluation matrix
    has full column rank.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    dim = points.shape[1]
    rank = (degree + 1) ** dim
    vander = {}
    for i, c in enumerate(tree.clusters):
        if c.size < rank:
            raise ValueError(
                f"cluster {i} holds {c.size} points, need at least {rank}"
            )
        block = points[tree.indices(i)]
        vander[i] = _legendre_columns(block, c.box_min, c.box_max, degree)

    leaf_matrix = {}
    transfer = {}
    for i, c in enumerate(tree.clusters):
        if not c.sons:
            if np.linalg.matrix_rank(vander[i]) < rank:
                raise ValueError(
                    f"cluster {i}: leaf evaluation matrix is rank deficient; "
                    "points are not in general position"
                )
            leaf_matrix[i] = vander[i]
            continue
        offset = 0
        for s in c.sons:
            rows = tree.clusters[s].size
            target = vander[i][offset : offset + rows]
            offset += rows
            # restricted polynomials stay in the son's span, so the
            # least-squares residual is zero up to round-off; interior
            # rank deficiencies only make the transfer non-unique
            e = np.linalg.lstsq(vander[s], target, rcond=None)[0]
            residual = np.linalg.norm(vander[s] @ e - target)
            scale = max(1.0, np.linalg.norm(target))
            if residual > 1e-10 * scale:
                raise ValueError(
                    f"cluster {s}: nestedness residual {residual:.3e} "
                    "exceeds tolerance"
                )
            transfer[s] = e
    return ClusterBasis(tree, leaf_matrix, transfer, isometric=False)


def orthogonalize(basis):
    """Turn a cluster basis into an isometric one with the same ranges.

    Returns (iso, change) where change[i] is the upper-triangular
    matrix with  basis.materialize(i) = iso.materialize(i) @ change[i]
    for every cluster i.
    """
    tree = basis.tree
    leaf_matrix = {}
    transfer = {}
    change = {}
    for i in tree.postorder():
        sons = tree.sons(i)
        what = "transfer stack" if sons else "leaf matrix"
        if sons:
            a = np.vstack([kernels.matmul(change[s], basis.transfer[s]) for s in sons])
        else:
            a = basis.leaf_matrix[i]
        if a.shape[0] < a.shape[1]:
            raise ValueError(f"cluster {i}: {what} has {a.shape[0]} rows, fewer than its rank {a.shape[1]}")
        stack, change[i] = kernels.triangularize(a)
        diagonal = np.diagonal(change[i])
        if np.min(diagonal) < 1e-12 * max(1.0, float(np.max(np.abs(diagonal)))):
            raise ValueError(f"cluster {i}: rank-deficient {what}")
        q = stack.thin_q()
        if not sons:
            leaf_matrix[i] = q
        # the rows of son s are those of its change, r_s of them
        at = 0
        for s in sons:
            transfer[s] = q[at : at + len(change[s])]
            at += len(change[s])
    iso = ClusterBasis(tree, leaf_matrix, transfer, isometric=True)
    return iso, change


def gram_family(basis):
    """Per-cluster Gram matrices V^T V via the transfer recursion, as
    ClusterMatrices over the entries of the basis's ptr that name the
    basis."""
    gram = cross_gram_family(basis, basis)
    gram = ClusterMatrices(basis.tree, {i: g.shape for i, g in gram.items()}, gram, basis)
    for group in gram.groups:
        group.source = group.target = _entries(basis.ptr, group.clusters, group.stack.shape[1])
    return gram


def cross_gram_family(left, right):
    """Per-cluster products left^T right for two bases on one tree."""
    if left.tree is not right.tree:
        raise ValueError("bases live on different trees")
    tree, lt, rt = left.tree, left.transfer, right.transfer
    cross = {}
    for i in tree.postorder():
        if tree.is_leaf(i):
            cross[i] = kernels.matmul(left.leaf_matrix[i].T, right.leaf_matrix[i])
        else:
            cross[i] = sum(
                kernels.matmul(lt[s].T, kernels.matmul(cross[s], rt[s]))
                for s in tree.sons(i)
            )
    return cross


class MergeFactors(ClusterMatrices):
    """The merge factors of an isometric basis, named by it: self[i] is
    the m x m orthogonal factor Q of interior cluster i, in the stack
    of its group.  The clusters of one group share the level, the rank
    and the sum of their sons' ranks; the group's source holds, per
    cluster, its sons' entries in son order in a flat array laid out
    by the basis's ptr, and its target the cluster's own entries.
    """


def coarsening_factors(basis):
    """QR orthogonal factors of the stacked transfers of an isometric basis.

    For each interior cluster i, multiplying the stacked son
    coefficients by the factor's transpose puts the optimally merged
    coefficient in the first rank_of(i) rows and the exact merge error
    in the remaining rows.  Returns MergeFactors.
    """
    if not basis.isometric:
        raise ValueError("merge factors require an isometric basis")
    tree, ptr = basis.tree, basis.ptr
    spans = {
        i: np.concatenate([np.arange(ptr[s], ptr[s + 1]) for s in tree.sons(i)])
        for i in np.flatnonzero(tree.has_sons).tolist()
    }
    shapes = {i: (span.size, span.size, basis.rank_of(i)) for i, span in spans.items()}
    q = MergeFactors(tree, shapes, basis=basis)
    for group in q.groups:
        ids = group.clusters.tolist()
        for qi, i in zip(group.stack, ids):
            stacked = np.vstack([basis.transfer[s] for s in tree.sons(i)])
            qi[:] = kernels.triangularize(stacked)[0].q
        group.source = np.array([spans[i] for i in ids])
        group.target = _entries(ptr, group.clusters, basis.rank_of(ids[0]))
    return q


@dataclass
class ProjectionFactors:
    """Exact projection-error matrices between two bases on one tree.

    z[i] is upper triangular with || Vx - QQ^T Vx || = || z[i] x || on
    cluster i; cross[i] = Q^T V supplies the projected coefficients.
    Both are read-only mappings of views into stacked, the
    ClusterMatrices holding [cross[i]; z[i]] per cluster; a group's
    source holds its clusters' entries in flat arrays laid out by the
    source basis's ptr, and its target those laid out by the target's.
    """

    source: ClusterBasis
    target: ClusterBasis
    z: Mapping
    cross: Mapping
    stacked: ClusterMatrices


def projection_factors(source, target):
    """Build ProjectionFactors for projecting `source` onto `target`.

    Works bottom-up: on leaves the orthonormal complement of the target
    matrix is applied to the source matrix and condensed by a thin QR;
    on interior clusters the son factors are pushed through the source
    transfers and combined with the complement of the stacked target
    transfers.  The cross terms Q^T V fall out of the same pass.
    """
    if source.tree is not target.tree:
        raise ValueError("bases live on different trees")
    if not target.isometric:
        raise ValueError("target basis must be isometric")
    tree = source.tree
    rs, rt = np.diff(source.ptr), np.diff(target.ptr)
    stacked = ClusterMatrices(tree, {i: (rt[i] + rs[i], rs[i]) for i in range(len(tree))})
    cross = {i: m[: rt[i]] for i, m in stacked.views.items()}
    z = {i: m[rt[i] :] for i, m in stacked.views.items()}
    for i in tree.postorder():
        sons = tree.sons(i)
        if sons:
            q = np.vstack([target.transfer[s] for s in sons])
            v = np.vstack([kernels.matmul(cross[s], source.transfer[s]) for s in sons])
        else:
            q, v = target.leaf_matrix[i], source.leaf_matrix[i]
        stack, _ = kernels.triangularize(q)
        transformed = stack.apply_adjoint(v)
        cross[i][:] = transformed[: rt[i]]
        complement = transformed[rt[i] :]
        if sons:
            pushed = np.vstack([kernels.matmul(z[s], source.transfer[s]) for s in sons])
            complement = np.vstack([pushed, complement])
        r = kernels.triangular_factor(complement)
        z[i][: r.shape[0]] = r
    for group in stacked.groups:
        group.source = _entries(source.ptr, group.clusters, group.stack.shape[2])
        group.target = _entries(target.ptr, group.clusters, group.stack.shape[1] - group.stack.shape[2])
    return ProjectionFactors(
        source, target, MappingProxyType(z), MappingProxyType(cross), stacked
    )
