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
read per cluster through views.  A family names its kind and the
source and target bases it was built for, which _check_family checks.

* merge factors: the orthogonal factor Q of one QR per interior
  cluster over the stacked transfer matrices.  Multiplying stacked son
  coefficients by Q^T yields the optimally merged coefficient in the
  leading rows and the exact merge error in the trailing rows.
* projection factors: per cluster the cross term Q^T V, which commits
  projected coefficients, over an upper-trapezoidal Z with
  || V x - Q Q^T V x || = || Z x ||  for all coefficient vectors x,
  both from one bottom-up recursion.  Z is the triangular factor of a
  QR of the projection residual, so it has min(m_t, r_s) rows, where
  m_t is the residual's row count and r_s the source rank.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import kernels

__all__ = [
    "ClusterBasis",
    "ClusterMatrices",
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
    mapping from each cluster to a view of its matrix.  A family's
    kind, one of FAMILIES, and the source and target bases it was
    built for, by whose ptr its groups' source and target entries are
    laid out, are set by its builder; other matrices keep None.
    """

    def __init__(self, tree, shapes, matrices=None):
        self.kind = self.source = self.target = None
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


# each kind of family as messages name it, given and as an owner
FAMILIES = {
    "gram": ("a Gram family", "Gram family belongs"),
    "cross": ("a cross-Gram family", "cross-Gram family belongs"),
    "merge": ("merge factors", "merge factors belong"),
    "projection": ("projection factors", "projection factors belong"),
}


def _check_family(factors, kind, source, target=None):
    """Raise ValueError, naming what was expected and what was given, unless
    factors is a family of this kind built for source and target (or source)."""
    given = factors.kind if isinstance(factors, ClusterMatrices) else None
    if given != kind:
        raise ValueError(f"expected {FAMILIES[kind][0]}, got {FAMILIES.get(given, [type(factors).__name__])[0]}")
    for role, want, have in (("source ", source, factors.source), ("target ", target or source, factors.target)):
        if have is not want:
            raise ValueError(f"{FAMILIES[kind][1]} to a different {role if target else ''}basis")


def _family(family, kind, source, target):
    """Tag family with its kind and bases, and give each group its
    clusters' entries in the layouts of source and target."""
    family.kind, family.source, family.target = kind, source, target
    for group in family.groups:
        group.source = _entries(source.ptr, group.clusters, group.stack.shape[2])
        group.target = _entries(target.ptr, group.clusters, target.rank_of(group.clusters[0]))
    return family


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
            # copied: on the @ branch a product with the transposed view
            # rounds differently, and passing the view instead raised
            # the grid-64 demo's peak RSS from 107 to 114 MB
            transposed = np.ascontiguousarray(group.stack[pick].transpose(0, 2, 1))
            pushed = kernels.matvec(transposed, data.take(group.target[pick]))
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
            son, father = group.target[pick], data.take(group.source[pick])
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


def _kron(factors):
    """Kronecker products over a batch: factors[d] is a (b, m_d, k_d)
    stack, and the first factor's indices vary slowest."""
    out = np.ones((len(factors[0]), 1, 1))
    for f in factors:
        shape = (len(out), out.shape[1] * f.shape[1], out.shape[2] * f.shape[2])
        out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(shape)
    return out


def polynomial_basis(tree, points, degree):
    """Cluster basis of tensor Legendre polynomials, rank (degree+1)^d.

    Each cluster scales the polynomials to its bounding box.  Leaf
    matrices evaluate them at the leaf's points.  The transfers need
    no evaluation: on each axis a son's scaled coordinate y is
    scale * y + shift in its father's (both 0 where the father's box
    is flat), P_a(scale * y + shift) re-expands exactly in P_0(y) ...
    P_p(y) by a (p+1) x (p+1) matrix, one solve at the p+1 Gauss
    nodes, and a transfer is the Kronecker product of these matrices
    over the axes (Börm, Efficient Numerical Methods for Non-local
    Operators, 2010).  Raises ValueError unless points holds tree.n
    finite rows of tree.dim coordinates (or tree.n values on a line),
    and when a leaf has fewer points than the rank or a rank-deficient
    evaluation matrix.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape != (tree.n, tree.dim) or not np.all(np.isfinite(points)):
        raise ValueError(
            f"expected {tree.n} finite points of dimension {tree.dim}, "
            f"got an array of shape {points.shape}"
        )
    rank = (degree + 1) ** tree.dim
    legvander = np.polynomial.legendre.legvander
    low = np.array([c.box_min for c in tree.clusters])
    high = np.array([c.box_max for c in tree.clusters])
    # dividing by an infinite span maps a flat axis to 0
    span = np.where(high > low, high - low, np.inf)
    leaf_matrix = {}
    for i in tree.leaves():
        if tree.size(i) < rank:
            raise ValueError(f"cluster {i} holds {tree.size(i)} points, need at least {rank}")
        scaled = (2.0 * points[tree.indices(i)] - low[i] - high[i]) / span[i]
        leaf_matrix[i] = _kron([legvander(x, degree)[:, None, :] for x in scaled.T])[:, 0, :]
        if np.linalg.matrix_rank(leaf_matrix[i]) < rank:
            raise ValueError(
                f"cluster {i}: leaf evaluation matrix is rank deficient; "
                "points are not in general position"
            )
    sons = np.flatnonzero(tree.father >= 0)
    fathers = tree.father[sons]
    scale = (high[sons] - low[sons]) / span[fathers]
    shift = (low[sons] + high[sons] - low[fathers] - high[fathers]) / span[fathers]
    nodes = np.polynomial.legendre.leggauss(degree + 1)[0]
    # per_axis[s, d][b, a]: the coefficient of P_b(y) in P_a(scale * y + shift)
    per_axis = np.linalg.solve(
        legvander(nodes, degree), legvander(scale[..., None] * nodes + shift[..., None], degree)
    )
    transfers = _kron([per_axis[:, d] for d in range(tree.dim)])
    return ClusterBasis(tree, leaf_matrix, dict(zip(sons.tolist(), transfers)), isometric=False)


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
    """Per-cluster Gram matrices V^T V: the cross-Gram family of the
    basis with itself, of kind "gram"."""
    gram = cross_gram_family(basis, basis)
    gram.kind = "gram"
    return gram


def cross_gram_family(left, right):
    """Per-cluster products left^T right via the transfer recursion, as
    a family of kind "cross" from right (source) to left (target)."""
    if left.tree is not right.tree:
        raise ValueError("bases live on different trees")
    tree, lt, rt = left.tree, left.transfer, right.transfer
    order = tree.postorder()
    cross = ClusterMatrices(tree, {i: (left.rank_of(i), right.rank_of(i)) for i in order})
    for i in order:
        if tree.is_leaf(i):
            cross[i][:] = kernels.matmul(left.leaf_matrix[i].T, right.leaf_matrix[i])
        else:
            cross[i][:] = sum(
                kernels.matmul(lt[s].T, kernels.matmul(cross[s], rt[s]))
                for s in tree.sons(i)
            )
    return _family(cross, "cross", right, left)


def coarsening_factors(basis):
    """QR orthogonal factors of the stacked transfers of an isometric basis.

    For each interior cluster i, multiplying the stacked son
    coefficients by the factor's transpose puts the optimally merged
    coefficient in the first rank_of(i) rows and the exact merge error
    in the remaining rows.  Returns the merge factors as
    ClusterMatrices of kind "merge", built for the basis: self[i] is
    the m x m orthogonal factor Q of interior cluster i.  The clusters
    of one group share the level, the rank and the sum of their sons'
    ranks; the group's source holds, per cluster, its sons' entries in
    son order in a flat array laid out by the basis's ptr, and its
    target the cluster's own entries.
    """
    if not basis.isometric:
        raise ValueError("merge factors require an isometric basis")
    tree, ptr = basis.tree, basis.ptr
    spans = {
        i: np.concatenate([np.arange(ptr[s], ptr[s + 1]) for s in tree.sons(i)])
        for i in np.flatnonzero(tree.has_sons).tolist()
    }
    shapes = {i: (span.size, span.size, basis.rank_of(i)) for i, span in spans.items()}
    q = ClusterMatrices(tree, shapes)
    q.kind, q.source, q.target = "merge", basis, basis
    for group in q.groups:
        ids = group.clusters.tolist()
        for qi, i in zip(group.stack, ids):
            stacked = np.vstack([basis.transfer[s] for s in tree.sons(i)])
            qi[:] = kernels.triangularize(stacked)[0].q
        group.source = np.array([spans[i] for i in ids])
        group.target = _entries(ptr, group.clusters, basis.rank_of(ids[0]))
    return q


def projection_factors(source, target):
    """Family of kind "projection" for projecting `source` onto `target`.

    self[i] is [Q^T V; Z] on cluster i: the cross term in the first
    r_t = target.rank_of(i) rows, then Z with
    || Vx - QQ^T Vx || = || Z x ||.
    Works bottom-up: on leaves the orthonormal complement of the target
    matrix is applied to the source matrix and condensed by a QR; on
    interior clusters the son factors, pushed through the source
    transfers, join the complement of the stacked target transfers.
    Z is that QR's upper-trapezoidal factor: zr_i = min(m_i, r_s)
    rows by the source rank r_s, where m_i, the rows it condenses, is
    |i| - r_t on a leaf and, on an interior cluster, the sum over its
    sons of their Z rows and target ranks, less r_t.  The groups run
    per (level, r_t + zr_i, r_s, r_t), so clusters whose Z differ in
    rows lie apart: the grid-64 demo's induced basis has 26 triples of
    level, r_s and r_t, and 33 groups.
    """
    if source.tree is not target.tree:
        raise ValueError("bases live on different trees")
    if not target.isometric:
        raise ValueError("target basis must be isometric")
    tree = source.tree
    rs, rt = np.diff(source.ptr), np.diff(target.ptr)
    zr = np.zeros_like(rs)
    for i in tree.postorder():
        sons = tree.sons(i)
        rows = sum(zr[s] + rt[s] for s in sons) if sons else tree.size(i)
        zr[i] = min(rows - rt[i], rs[i])
    stacked = ClusterMatrices(tree, {i: (rt[i] + zr[i], rs[i], rt[i]) for i in range(len(tree))})
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
        z[i][:] = kernels.triangular_factor(complement)
    return _family(stacked, "projection", source, target)
