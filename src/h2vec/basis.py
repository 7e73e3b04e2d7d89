"""Nested cluster bases, their transformations and exact error factors.

A cluster basis stores one matrix per leaf cluster and one transfer
matrix per non-root cluster; the matrix of an interior cluster is
defined implicitly by stacking son matrices times their transfers.
Ranks may vary from cluster to cluster.  A basis is built from arrays:
its ranks, its leaf matrices and its transfers in cluster order, which
it copies once into its own layouts: one flat coefficient array (ptr),
and one store each of leaf matrices and of transfers, stacked per
(level, shape), over which its transformations and the expansion of
its vectors run as one stacked product per group.  The layouts follow
from the tree and the ranks alone, so bases with equal ranks on one
tree share them.  An isometric basis has orthonormal columns at every
cluster, which makes optimal projections and exact error computation
possible.  The per-cluster matrices below, like the Gram family, are
ClusterMatrices too, read per cluster through views built on first
read.  A family names its kind and its source and target bases, which
_check_family checks.

* merge factors: the orthogonal factor Q of one QR per interior
  cluster over the stacked transfer matrices.  Multiplying stacked son
  coefficients by Q^T yields the optimally merged coefficient in the
  leading rows and the exact merge error in the trailing rows.
* projection factors: per cluster the cross term Q^T V, which commits
  projected coefficients, over an upper-trapezoidal Z with
  || V x - Q Q^T V x || = || Z x ||  for all coefficient vectors x:
  the trailing columns of the triangular factor of one QR per cluster
  of the target's columns beside the source's, whose leading block is
  I as the target is isometric.  Z has min(m_t, r_s) rows, where m_t
  is the projection residual's row count and r_s the source rank.
* coordinate factors: per cluster the triangular factor R_t of a
  basis V over the isometric basis Q that nested_orthogonalize builds
  from it at the ranks nestedness allows, V_t = Q_t R_t, so that R_t
  carries V's coefficients exactly into Q's (convert.CoordinateMap).
"""

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import kernels
from .tree import _check_integer

__all__ = [
    "ClusterBasis",
    "ClusterMatrices",
    "polynomial_basis",
    "orthogonalize",
    "nested_orthogonalize",
    "gram_family",
    "cross_gram_family",
    "coarsening_factors",
    "projection_factors",
    "run_steps",
]

# largest entry of V^T V - I accepted in a basis flagged isometric
ISOMETRY_TOL = 1e-10


@dataclass
class MatrixGroup:
    """Clusters whose matrices share their shape, in a basis or a
    family those of one level.

    stack holds their matrices, one per cluster.  source and target
    hold per cluster the entries of the flat coefficient arrays that
    its matrix maps from and to, laid out by the ptr of the bases the
    builder names; a basis's transfer groups also hold the fathers.
    A step, one stacked product of a pass (see run_steps), is a
    MatrixGroup too, often one picked from a larger group.
    """

    clusters: np.ndarray
    stack: np.ndarray
    source: np.ndarray = None
    target: np.ndarray = None
    fathers: np.ndarray = None

    def pick(self, mask):
        """The group of the clusters marked in mask, a boolean array
        with one entry per cluster, or None when none is; its arrays
        are views of this group's when the marked clusters form one
        run, copies otherwise."""
        at = mask.nonzero()[0]
        if not at.size:
            return None
        first, last = int(at[0]), int(at[-1])
        if last - first == at.size - 1:
            at = slice(first, last + 1)
        more = (None if a is None else a[at] for a in (self.source, self.target, self.fathers))
        return MatrixGroup(self.clusters[at], self.stack[at], *more)


class ClusterMatrices(Mapping):
    """One small matrix per cluster, stored once, in stacks.

    shapes[j], a row of a two-dimensional array, is the tuple
    (rows, cols, *more) of cluster clusters[j]; the clusters of one
    level with equal tuples form one group, in the order given, whose
    matrices are one (b, rows, cols) stack.  groups run top-down, and
    levels[l] lists the groups of level l.  The stacks lie in one flat
    store, a copy of matrices (an array holding those of the given
    clusters in the given order, one after another) or zeros, where
    the matrix of cluster i starts at start[i], row-major; clusters
    lists the clusters in store order.  views, also read as self[i], is
    a read-only mapping from each cluster to a view of its matrix,
    built on first read; a key that is not an int or a NumPy integer
    is missing from self, as from LeafCoefficients.  A family's kind,
    one of FAMILIES, and the source and target bases it was built for,
    by whose ptr its groups' source and target entries are laid out,
    are set by its builder; other matrices keep None.
    """

    def __init__(self, tree, clusters, shapes, matrices=None):
        self.kind = self.source = self.target = None
        keys = np.column_stack((tree.level[clusters], shapes))
        order, bounds = _runs(keys)
        size = keys[:, 1] * keys[:, 2]
        self.store = np.zeros(size.sum()) if matrices is None else _reordered(matrices, size, order)
        keys, size, self.clusters = keys[order], size[order], np.asarray(clusters, dtype=np.intp)[order]
        self.start = np.zeros(len(tree), dtype=np.intp)
        self.start[self.clusters] = np.cumsum(size) - size
        self.groups = []
        self.levels = [[] for _ in tree.by_level]
        for a, z in zip(bounds[:-1], bounds[1:]):
            level, rows, cols = keys[a, :3].tolist()
            at = self.start[self.clusters[a]]
            stack = self.store[at : at + (z - a) * rows * cols].reshape(-1, rows, cols)
            group = MatrixGroup(self.clusters[a:z], stack)
            self.groups.append(group)
            self.levels[level].append(group)

    @cached_property
    def views(self):
        views = zip(self.clusters.tolist(), (m for group in self.groups for m in group.stack))
        return MappingProxyType(dict(sorted(views, key=lambda item: item[0])))

    def stacked(self, clusters, rows, cols):
        """A copy of the matrices of the given clusters, each rows x cols,
        as one stack in the given order."""
        return self.store[self.start[clusters][:, None] + np.arange(rows * cols)].reshape(-1, rows, cols)

    def __getitem__(self, i):
        # a dict would find cluster 2 under the key 2.0, cluster 1 under True
        if type(i) is not int and not isinstance(i, np.integer):
            raise KeyError(i)
        return self.views[i]

    def __iter__(self):
        return iter(self.views)

    def __len__(self):
        return len(self.clusters)


# each kind of family as messages name it, given and as an owner
FAMILIES = {
    "gram": ("a Gram family", "Gram family belongs"),
    "cross": ("a cross-Gram family", "cross-Gram family belongs"),
    "merge": ("merge factors", "merge factors belong"),
    "projection": ("projection factors", "projection factors belong"),
    "coordinates": ("coordinate factors", "coordinate factors belong"),
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


def _runs(keys):
    """Sort the rows of keys, a two-dimensional array, stably: returns
    the order, and the bounds of its runs of equal rows, as a list.
    (np.unique would do, but its first call imports numpy.ma.)"""
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
    return order, np.append(np.flatnonzero(new), len(order)).tolist()


def _reordered(matrices, size, order):
    """Matrices of the given sizes, held row-major one after another in
    an array, as one new flat array that holds them in the given order.
    They move in units of the largest size dividing every size: whole
    matrices when all share one size, whole rows when all share a rank."""
    flat = np.asarray(matrices, dtype=float).ravel()
    unit = int(np.gcd.reduce(size)) or 1
    count = size // unit
    begin, moved = (np.cumsum(count) - count)[order], count[order]
    at = np.repeat(begin - np.cumsum(moved) + moved, moved)
    at += np.arange(at.size)
    return flat.reshape(-1, unit)[at].ravel()


def _checked(store, clusters, shapes, what):
    """The store, an array or None, as a flat array, or None; raises
    ValueError, naming the first cluster at fault, unless it holds one
    finite matrix of the given shape per cluster."""
    if store is None:
        return None
    store = np.asarray(store, dtype=float).ravel()
    ends = np.cumsum(shapes[:, 0] * shapes[:, 1])
    if store.size != ends[-1:].sum():
        if not ends.size:
            raise ValueError(f"{store.size} {what} entries given, none needed")
        j = min(int(np.searchsorted(ends, store.size, side="right")), ends.size - 1)
        rows, cols = shapes[j]
        raise ValueError(f"cluster {clusters[j]}: {store.size} {what} entries given, {ends[j]} needed "
                         f"through its {rows} x {cols} {what}")
    # the extremes are non-finite if any entry is, and reading them allocates no mask
    if not np.isfinite([store.min(initial=0.0), store.max(initial=0.0)]).all():
        j = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(store))[0], side="right"))
        raise ValueError(f"cluster {clusters[j]}: non-finite entries in its {what}")
    return store


def _entries(ptr, clusters, width):
    """Entries of the given clusters, all of the given rank, in a flat
    coefficient array laid out by ptr, as a (len(clusters), width) array."""
    return ptr[clusters][:, None] + np.arange(width)


def run_steps(data, steps, add=True, out=None):
    """Run stacked products, in order: each step's stack times data at
    its source entries is added into out (by default data) at its
    target entries, which may repeat, or with add=False written there.
    Adds are counted.  data and out are flat arrays; steps are
    MatrixGroups, as the step builders of ClusterBasis return them."""
    out = data if out is None else out
    for step in steps:
        pushed = kernels.matvec(step.stack, data.take(step.source))
        if add:
            np.add.at(out, step.target.ravel(), pushed.ravel())
            kernels.tally(pushed.size)
        else:
            out[step.target] = pushed


class ClusterBasis:
    """Nested basis with per-cluster ranks: leaf plus transfer matrices.

    ranks holds the rank r_t of every cluster t.  leaf_store holds the
    (|t|, r_t) matrix of every leaf t, and transfer_store the r_s x r_t
    transfer of every non-root cluster s with father t, realizing
    nestedness: any arrays holding their matrices row-major, one after
    another, in cluster order, or None for zeros.  Refused, naming
    the first cluster at fault: ranks other than one positive integer
    per cluster, and stores with a non-finite entry or not as many as
    the ranks call for.  rank is the largest cluster rank, the common
    rank of a uniform basis.  isometric=True has the given stores
    checked: V_t^T V_t = I at every leaf and sum_s E_s^T E_s = I over
    the sons of every interior cluster; nested_orthogonalize flags its own.

    The read-only ptr lays out one coefficient per cluster in a flat
    array: cluster t owns the entries ptr[t] to ptr[t + 1].  offsets
    holds ptr as a list, for walks that slice one cluster at a time.

    The stores are copied once into two ClusterMatrices stacked per
    (level, shape), leaf_matrix and transfer, read per cluster through
    views built on first read; bases with equal ranks on one tree share
    their layout, so nested_orthogonalize and materialize_induced build
    on zeros and write the stacks.  The leaf groups' source holds their
    clusters' entries, their target the clusters' tree positions.  The
    transfer groups, per (level, rank, father rank), run top-down; their
    source and target hold the entries of the fathers and of the sons,
    and transfer.levels[l] lists the groups of the sons on level l.
    forward_steps and backward_steps cut the transfer groups to the
    clusters a transformation treats, and forward and backward run
    those steps.
    """

    def __init__(self, tree, ranks, leaf_store, transfer_store, isometric=False):
        self.tree = tree
        self.isometric = isometric
        rank = np.asarray(ranks)
        if rank.shape != (len(tree),) or rank.dtype.kind != "i":
            raise ValueError(f"expected {len(tree)} integer ranks, got {rank.dtype} of shape {rank.shape}")
        if rank.min() < 1:
            raise ValueError(f"cluster {np.argmin(rank)}: rank {rank.min()} is not positive")
        leaves, sons = np.flatnonzero(~tree.has_sons), np.flatnonzero(tree.father >= 0)
        leaf_shapes = np.column_stack((tree.sizes[leaves], rank[leaves]))
        shapes = np.column_stack((rank[sons], rank[tree.father[sons]]))
        leaf_store = _checked(leaf_store, leaves, leaf_shapes, "leaf matrix")
        transfer_store = _checked(transfer_store, sons, shapes, "transfer")
        self.rank = int(rank.max())
        self.ptr = np.concatenate([[0], np.cumsum(rank)])
        self.ptr.flags.writeable = False
        self.offsets = self.ptr.tolist()
        self.leaf_matrix = ClusterMatrices(tree, leaves, leaf_shapes, leaf_store)
        for group in self.leaf_matrix.groups:
            rows, r = group.stack.shape[1:]
            group.source = _entries(self.ptr, group.clusters, r)
            group.target = tree.begin[group.clusters][:, None] + np.arange(rows)
        self.transfer = ClusterMatrices(tree, sons, shapes, transfer_store)
        for group in self.transfer.groups:
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
        owned = [(g, g.clusters) for g in self.leaf_matrix.groups]
        for g, owner in owned + [(g, g.fathers) for g in self.transfer.groups]:
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

    def forward_steps(self, member):
        """The steps of the forward transformation over the sons marked
        in member, bottom-up: per transfer group with such sons, their
        transfers transposed, reading the sons' entries and adding into
        the fathers'."""
        steps = []
        for group in reversed(self.transfer.groups):
            step = group.pick(member[group.clusters])
            if step is None:
                continue
            # copied, and kept by a product pattern for all products on
            # its subtree: on the @ branch a product with the transposed
            # view rounds differently, and passing the view instead
            # raised the grid-64 demo's peak RSS from 107 to 114 MB
            step.stack = np.ascontiguousarray(step.stack.transpose(0, 2, 1))
            step.source, step.target = step.target, step.source
            steps.append(step)
        return steps

    def backward_steps(self, interior, level=None):
        """The steps of the backward transformation from the clusters
        marked in interior, top-down: per transfer group whose fathers
        are marked, their transfers, reading the fathers' entries and
        adding into or writing the sons'.  A level restricts the steps to the fathers
        on it."""
        groups = self.transfer.groups if level is None else self.transfer.levels[level + 1]
        steps = (group.pick(interior[group.fathers]) for group in groups)
        return [step for step in steps if step is not None]

    def forward(self, data, member):
        """Forward transformation in the flat array data laid out by ptr:
        bottom-up, add E_s^T data[s] into the father of every son s
        marked in member."""
        run_steps(data, self.forward_steps(member))

    def backward(self, data, interior, add=True, level=None):
        """Backward transformation in the flat array data laid out by
        ptr: top-down, add E_s data[t] into every son s of every
        cluster t marked in interior.

        With add=False E_s data[t] overwrites the son's entries, and
        no adds are counted: this refines, pushing coefficients down
        to the sons.  A level restricts the pass to the fathers on it.
        """
        run_steps(data, self.backward_steps(interior, level), add)

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
    matrices evaluate them at the leaf's points, all leaves in one
    pass, and one stacked matrix_rank per leaf group checks them.  The
    transfers need no evaluation: on each axis a son's scaled
    coordinate y is scale * y + shift in its father's (both 0 where the
    father's box is flat), P_a(scale * y + shift) re-expands exactly in
    P_0(y) ... P_p(y) by a (p+1) x (p+1) matrix, one solve at the p+1
    Gauss nodes, and a transfer is the Kronecker product of these
    matrices over the axes (Börm, Efficient Numerical Methods for
    Non-local Operators, 2010).  Raises ValueError unless points holds
    tree.n finite rows of tree.dim coordinates (or tree.n values on a
    line) and degree is an integer >= 0 (a NumPy integer too, not a
    bool), and names the first leaf, in tree.leaves() order, that has
    fewer points than the rank or a rank-deficient evaluation matrix.
    """
    _check_integer(degree, "degree", 0)
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
    low, high = tree.box_min, tree.box_max
    # dividing by an infinite span maps a flat axis to 0
    span = np.where(high > low, high - low, np.inf)
    leaves = tree.leaves()
    owner, at = np.repeat(leaves, tree.sizes[leaves]), np.concatenate([tree.indices(i) for i in leaves])
    scaled = (2.0 * points[at] - low[owner] - high[owner]) / span[owner]
    values = _kron([legvander(x, degree)[:, None, :] for x in scaled.T])[:, 0, :]
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
    basis = ClusterBasis(tree, np.full(len(tree), rank), values, transfers, isometric=False)
    deficient = np.zeros(len(tree), dtype=bool)
    for group in basis.leaf_matrix.groups:
        deficient[group.clusters] = np.linalg.matrix_rank(group.stack) < rank
    for i in leaves:
        if tree.sizes[i] < rank:
            raise ValueError(f"cluster {i} holds {tree.sizes[i]} points, need at least {rank}")
        if deficient[i]:
            raise ValueError(
                f"cluster {i}: leaf evaluation matrix is rank deficient; "
                "points are not in general position"
            )
    return basis


def orthogonalize(basis):
    """Turn a cluster basis into an isometric one with the same ranges.

    Returns nested_orthogonalize(basis) behind two refusals, each a
    ValueError naming the first cluster at fault in post-order: before
    any QR, a leaf matrix or transfer stack with fewer rows than its
    rank; after the pass, a rank-deficient one, whose change has a
    diagonal entry below 1e-12 max(1, its largest).  Without short
    stacks the nested ranks are the basis's, so iso keeps the basis's
    ranks and layout, and change[i], r_i x r_i, is upper triangular
    with non-negative diagonal and basis.materialize(i) =
    iso.materialize(i) @ change[i].
    """
    tree, rank = basis.tree, np.diff(basis.ptr)
    order, what = tree.post_order, np.where(tree.has_sons, "transfer stack", "leaf matrix")
    rows = np.where(tree.has_sons, np.bincount(tree.father[1:], rank[1:], len(tree)), tree.sizes).astype(int)
    short = order[rows[order] < rank[order]]
    if short.size:
        i = short[0]
        raise ValueError(f"cluster {i}: {what[i]} has {rows[i]} rows, fewer than its rank {rank[i]}")
    iso, change = nested_orthogonalize(basis)
    deficient = np.zeros(len(tree), dtype=bool)
    for group in change.groups:
        d = np.diagonal(group.stack, axis1=1, axis2=2)
        deficient[group.clusters] = d.min(1) < 1e-12 * d.max(1, initial=1.0)
    bad = order[deficient[order]]
    if bad.size:
        raise ValueError(f"cluster {bad[0]}: rank-deficient {what[bad[0]]}")
    return iso, change


def nested_orthogonalize(basis):
    """An isometric basis at the basis's nested ranks, with exact factors.

    Returns (iso, change).  iso has orthonormal columns at every
    cluster t and the rank r'_t = min(m_t, r_t), r_t being the basis's
    rank and m_t the rows of t's matrix to factor: |t| at a leaf, the
    sum of the sons' r'_s above.  change, a family of kind
    "coordinates" from the basis (source) to iso (target), holds the
    upper-trapezoidal r'_t x r_t matrix change[i], with non-negative
    diagonal, such that basis.materialize(i) = iso.materialize(i) @
    change[i] at every cluster i.  Level by level, bottom-up, one
    stacked thin QR factors each group of the level's clusters whose
    leaf matrices or stacks [change[s] @ E_s over the sons s] share a
    shape: change[i] is the triangular factor, iso's leaf matrix or
    stacked son transfers the orthogonal one.  It refuses neither
    stacks with fewer rows than columns nor rank deficiency, since iso
    is isometric whatever the rank of change; orthogonalize is this
    pass behind those two refusals.
    iso's transfers are smaller than the basis's, so the products
    change[s] @ E_s of a level lie in a buffer of their own, laid out
    so that each group's stack is one run of it.
    """
    tree, rank = basis.tree, np.diff(basis.ptr)
    interior = [ids[tree.has_sons[ids]] for ids in tree.by_level]
    rows = tree.sizes.copy()
    new = np.minimum(rows, rank)
    for here in reversed(interior):
        rows[here] = np.bincount(tree.father[1:], new[1:], len(tree))[here]
        new[here] = np.minimum(rows[here], rank[here])
    iso = ClusterBasis(tree, new, None, None)
    change = ClusterMatrices(tree, np.arange(len(tree)), np.column_stack((new, rank)))

    def factor(ids, a):
        """Thin QRs of the stack a of the matrices of clusters ids: writes
        their change, returns the orthogonal factors as rows, one per cluster."""
        q, r = kernels.qr_stack(a, thin=True)
        change.store[change.start[ids][:, None] + np.arange(r[0].size)] = r.reshape(len(ids), -1)
        return q.reshape(len(ids), -1)

    for level in reversed(range(len(tree.by_level))):
        for group in basis.leaf_matrix.levels[level]:
            q = factor(group.clusters, group.stack)
            iso.leaf_matrix.store[iso.leaf_matrix.start[group.clusters][:, None] + np.arange(q.shape[1])] = q
        here = interior[level]
        if not here.size:
            continue
        by_shape, bounds = _runs(np.column_stack((rows[here], rank[here])))
        fathers = here[by_shape]
        position = np.zeros(len(tree), dtype=np.intp)
        position[fathers] = np.arange(fathers.size)
        # the sons by father, in by_shape order, so that the stacks of
        # one group of fathers are one run of the products
        sons = tree.by_level[level + 1]
        sons = sons[np.argsort(position[tree.father[sons]], kind="stable")]
        width = new[sons] * rank[tree.father[sons]]
        start = np.zeros(len(tree), dtype=np.intp)
        start[sons] = np.cumsum(width) - width
        products = np.empty(width.sum())
        for ids, c, e in _group_pairs(change.levels[level + 1], basis.transfer.levels[level + 1], len(tree)):
            at = start[ids][:, None] + np.arange(c.shape[1] * e.shape[2])
            products[at] = kernels.matmul(c, e).reshape(len(ids), -1)
        for a, z in zip(bounds[:-1], bounds[1:]):
            ids = fathers[a:z]
            m, n = rows[ids[0]], rank[ids[0]]
            first = start[tree.sons(int(ids[0]))[0]]
            q = factor(ids, products[first : first + (z - a) * m * n].reshape(-1, m, n))
            iso.transfer.store[_son_entries(tree, ids, iso.transfer.start, new * new[tree.father])] = q
    iso.isometric = True
    return iso, _family(change, "coordinates", basis, iso)


def _son_entries(tree, fathers, start, width):
    """Per father, the entries of its sons, in son order, in a flat array
    where cluster s owns width[s] entries from start[s]: a
    (len(fathers), -1) array, so the fathers' sons must own as many."""
    position = np.full(len(tree) + 1, -1)
    position[fathers] = np.arange(len(fathers))
    # the root's father -1 reads the last entry, which no father sets
    sons = np.flatnonzero(position[tree.father] >= 0)
    sons = sons[np.argsort(position[tree.father[sons]], kind="stable")]
    w = width[sons]
    ends = np.cumsum(w)
    return (np.repeat(start[sons] + w - ends, w) + np.arange(ends[-1])).reshape(len(fathers), -1)


def gram_family(basis):
    """Per-cluster Gram matrices V^T V: the cross-Gram family of the
    basis with itself, of kind "gram"."""
    gram = cross_gram_family(basis, basis)
    gram.kind = "gram"
    return gram


def cross_gram_family(left, right):
    """Per-cluster products left^T right via the transfer recursion, as
    a family of kind "cross" from right (source) to left (target).

    Bottom-up, level by level: one stacked L^T R per pair of a left and
    a right leaf group gives the leaves' products; one stacked
    E_L^T (C E_R) per pair of a left and a right transfer group gives
    each son's share of its father's product, C being the son's; and
    the shares add into the fathers in son order.  The clusters of a
    group of the family lie in post-order.
    """
    if left.tree is not right.tree:
        raise ValueError("bases live on different trees")
    tree = left.tree
    lr, rr = np.diff(left.ptr), np.diff(right.ptr)
    order = tree.post_order
    cross = ClusterMatrices(tree, order, np.column_stack((lr[order], rr[order])))
    store, start, width = cross.store, cross.start, lr * rr

    for ids, lv, rv in _group_pairs(left.leaf_matrix.groups, right.leaf_matrix.groups, len(tree)):
        product = kernels.matmul(lv.transpose(0, 2, 1), rv)
        store[start[ids][:, None] + np.arange(width[ids[0]])] = product.reshape(len(ids), -1)
    for level in range(len(tree.by_level) - 1, 0, -1):
        sons = tree.by_level[level]
        fathers = tree.father[sons]
        w = width[fathers]
        # each son's share, laid out as its father's product, in by_level order
        offset = np.zeros(len(tree), dtype=np.intp)
        offset[sons] = np.cumsum(w) - w
        shares = np.empty(w.sum())
        for ids, le, re in _group_pairs(left.transfer.levels[level], right.transfer.levels[level], len(tree)):
            c = cross.stacked(ids, lr[ids[0]], rr[ids[0]])
            share = kernels.matmul(le.transpose(0, 2, 1), kernels.matmul(c, re))
            shares[offset[ids][:, None] + np.arange(share[0].size)] = share.reshape(len(ids), -1)
        np.add.at(store, np.repeat(start[fathers] - offset[sons], w) + np.arange(w.sum()), shares)
    return _family(cross, "cross", right, left)


def _group_pairs(lgroups, rgroups, size):
    """Per pair of a left and a right group that share clusters, of a
    tree of the given size: those clusters, in the left group's order,
    and their matrices in the two groups, stacked."""
    group, row = np.zeros((2, 2, size), dtype=np.intp)
    for side, groups in enumerate((lgroups, rgroups)):
        for k, g in enumerate(groups):
            group[side, g.clusters], row[side, g.clusters] = k, np.arange(len(g.clusters))
    for lg in lgroups:
        order, bounds = _runs(group[1, lg.clusters][:, None])
        for a, z in zip(bounds[:-1], bounds[1:]):
            ids = lg.clusters[order[a:z]]
            rg = rgroups[group[1, ids[0]]]
            yield ids, lg.stack[row[0, ids]], rg.stack[row[1, ids]]


def coarsening_factors(basis):
    """QR orthogonal factors of the stacked transfers of an isometric basis.

    For each interior cluster i, multiplying the stacked son
    coefficients by the factor's transpose puts the optimally merged
    coefficient in the first rank_of(i) rows and the exact merge error
    in the remaining rows.  Returns the merge factors as
    ClusterMatrices of kind "merge", built for the basis: self[i] is
    the m x m orthogonal factor Q of interior cluster i.  The clusters
    of one group share the level, the rank and the sum of their sons'
    ranks, and one stacked complete QR gives all their factors; the
    group's source holds, per cluster, its sons' entries in son order
    in a flat array laid out by the basis's ptr, and its target the
    cluster's own entries.
    """
    if not basis.isometric:
        raise ValueError("merge factors require an isometric basis")
    tree, rank = basis.tree, np.diff(basis.ptr)
    rows = np.bincount(tree.father[1:], rank[1:], len(tree)).astype(int)
    ids = np.flatnonzero(tree.has_sons)
    q = ClusterMatrices(tree, ids, np.column_stack((rows[ids], rows[ids], rank[ids])))
    q.kind, q.source, q.target = "merge", basis, basis
    for group in q.groups:
        ids, (b, m), r = group.clusters.tolist(), group.stack.shape[:2], rank[group.clusters[0]]
        at = _son_entries(tree, ids, basis.transfer.start, rank * rank[tree.father])
        group.stack[:] = kernels.qr_stack(basis.transfer.store[at].reshape(b, m, r))[0]
        group.source = _son_entries(tree, ids, basis.ptr, rank)
        group.target = _entries(basis.ptr, group.clusters, r)
    return q


def projection_factors(source, target):
    """Family of kind "projection" for projecting `source` onto `target`.

    self[i] is [Q^T V; Z] on cluster i: the cross term in the first
    r_t = target.rank_of(i) rows, then Z with
    || Vx - QQ^T Vx || = || Z x ||.
    Bottom-up, self[i] is the trailing r_s columns of the triangular
    factor R of [A | B]: the target and source leaf matrices on a
    leaf; on an interior cluster, per son s, the son's target
    transfer, padded with zeros to the rows of f_s = self[s], beside
    f_s times the son's source transfer.  A has orthonormal columns,
    the target being isometric, so R's leading block, upper triangular
    with R_11^T R_11 = A^T A = I and a non-negative diagonal, is I.
    Hence self[i] is A^T B, the cross term, over Z, a triangular
    factor of B - A A^T B with zr_i = min(m_i, r_s) rows: m_i, the
    rows of [A | B] less r_t, is |i| - r_t on a leaf and, on an
    interior cluster, the sum over its sons of their Z rows and target
    ranks, less r_t.  The groups run per (level, r_t + zr_i, r_s, r_t),
    so clusters whose Z differ in rows lie apart: the grid-64 demo's
    source, its induced basis at nested ranks, has one rank per level,
    so 7 triples of level, r_s and r_t, and 8 groups, where the induced
    basis itself has 26 triples and 33 groups.
    """
    if source.tree is not target.tree:
        raise ValueError("bases live on different trees")
    if not target.isometric:
        raise ValueError("target basis must be isometric")
    tree = source.tree
    rs, rt = np.diff(source.ptr), np.diff(target.ptr)
    zr = np.zeros_like(rs)
    for i in tree.post_order.tolist():
        sons = tree.sons(i)
        rows = sum(zr[s] + rt[s] for s in sons) if sons else tree.sizes[i]
        zr[i] = min(rows - rt[i], rs[i])
    factors = ClusterMatrices(tree, np.arange(len(tree)), np.column_stack((rt + zr, rs, rt)))
    for i in tree.post_order.tolist():
        sons = tree.sons(i)
        if sons:
            ab, at = np.zeros((sum(len(factors[s]) for s in sons), rt[i] + rs[i])), 0
            for s in sons:
                ab[at : at + rt[s], : rt[i]] = target.transfer[s]
                ab[at : at + len(factors[s]), rt[i] :] = kernels.matmul(factors[s], source.transfer[s])
                at += len(factors[s])
        else:
            ab = np.hstack([target.leaf_matrix[i], source.leaf_matrix[i]])
        factors[i][:] = kernels.triangular_factor(ab)[:, rt[i] :]
    return _family(factors, "projection", source, target)
