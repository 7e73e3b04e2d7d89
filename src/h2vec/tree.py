"""Cluster trees over index sets and mutable subtrees.

A cluster tree is a hierarchical disjoint partition of an index set,
held as arrays with one entry per cluster.  Indices are stored through
a permutation so that every cluster owns a contiguous range of
positions; restricting a vector to a cluster is then a plain slice.
The geometric builder bisects every cluster of a level at once, top
down, until no cluster holds more than the leaf size, so all leaves
sit on one level and the tree is perfect binary, numbered depth first.
Where a level holds a single index before that, it stops there and
raises the leaf size to that level's largest cluster, with a warning.

A Subtree marks a pruning of the reference tree: the root is always a
member, and every non-leaf member keeps all of its tree sons.  The
marked leaves partition the index set and describe the active
resolution of a compressed vector.
"""

import warnings

import numpy as np

__all__ = [
    "ClusterTree",
    "Subtree",
    "build_cluster_tree",
    "validate_tree",
]


class ClusterTree:
    """Immutable cluster tree; root has index 0, sons follow fathers.

    The tree is given by arrays, one entry per cluster: level[i],
    father[i] (-1 at the root), and the positions begin[i] to end[i]
    that cluster i owns.  The sons of a cluster are the clusters whose
    father it is, in index order.  build_cluster_tree numbers clusters
    depth first: the sons of cluster i on level l of a tree of depth D
    are i + 1 and i + 2**(D - l), so the leaves in index order are in
    position order.

    Arrays are the tree's only data.  level, father, begin, sizes[i]
    (the index count) and has_sons[i] serve passes that treat one
    level of the tree at a time; box_min[i], box_max[i] and diameter[i]
    hold the corners and the diameter of cluster i's bounding box.  The
    sons of cluster i are son_ids[son_ptr[i] : son_ptr[i + 1]].
    by_level[l] lists the clusters of level l, the sons of one father
    together and in son order.  pre_order and post_order list all
    clusters depth first, sons in son order, pre_order with every
    father before its sons and post_order after them.  clusters holds
    the cluster numbers 0 to len(tree) - 1.  son_ptr, son_ids,
    pre_order, post_order and clusters are read-only.
    """

    def __init__(self, level, father, begin, end, perm, dim, leaf_size, box_min, box_max):
        self.level = np.asarray(level, dtype=np.intp)
        self.father = np.asarray(father, dtype=np.intp)
        self.begin, end = np.asarray(begin, dtype=np.intp), np.asarray(end, dtype=np.intp)
        self.perm = np.asarray(perm, dtype=np.intp)
        self.n = self.perm.size
        self.dim = dim
        self.leaf_size = leaf_size
        self.root = 0
        count = len(self.level)
        self.sizes = end - self.begin
        # all sons, those of one father together, fathers and sons in index order
        sons = np.flatnonzero(self.father >= 0)
        sons = sons[np.argsort(self.father[sons], kind="stable")]
        per_father = np.bincount(self.father[sons], minlength=count)
        self.has_sons = per_father > 0
        self.son_ptr, self.son_ids = np.concatenate(([0], np.cumsum(per_father))), sons
        leaf_levels = self.level[~self.has_sons]
        self.depth = int(leaf_levels.max()) if leaf_levels.size else 0
        by_level = sons[np.argsort(self.level[self.father[sons]], kind="stable")]
        on_level = np.bincount(self.level[self.father[sons]] + 1, minlength=int(self.level.max()) + 1)
        self.by_level = [np.array([self.root], dtype=np.intp)] + np.split(by_level, np.cumsum(on_level)[:-1])[1:]
        # in either order a subtree's positions are contiguous: the first
        # is its father's first plus the counts of its elder brothers'
        # subtrees, plus one in pre-order, where the father comes first
        subtree = np.ones(count, dtype=np.intp)
        for ids in reversed(self.by_level[1:]):
            np.add.at(subtree, self.father[ids], subtree[ids])
        elder = np.cumsum(subtree[sons]) - subtree[sons]
        first = np.zeros(count, dtype=np.intp)
        first[sons] = elder - np.repeat(elder[self.son_ptr[:-1][self.has_sons]], per_father[self.has_sons])
        pre = first + (self.father >= 0)
        for ids in self.by_level[1:]:
            first[ids] += first[self.father[ids]]
            pre[ids] += pre[self.father[ids]]
        self.clusters = np.arange(count)
        self.post_order, self.pre_order = np.empty((2, count), dtype=np.intp)
        self.post_order[first + subtree - 1] = self.clusters
        self.pre_order[pre] = self.clusters
        for fixed in (self.son_ptr, self.son_ids, self.pre_order, self.post_order, self.clusters):
            fixed.flags.writeable = False
        self.box_min = np.asarray(box_min, dtype=float)
        self.box_max = np.asarray(box_max, dtype=float)
        extent = self.box_max - self.box_min
        # vecdot rounds as np.linalg.norm of one extent does
        self.diameter = np.sqrt(np.vecdot(extent, extent))

    def __len__(self):
        return self.clusters.size

    def sons(self, i):
        return tuple(self.son_ids[self.son_ptr[i] : self.son_ptr[i + 1]].tolist())

    def is_leaf(self, i):
        return not self.has_sons[i]

    def positions(self, i):
        begin = int(self.begin[i])
        return slice(begin, begin + int(self.sizes[i]))

    def indices(self, i):
        """Original indices owned by cluster i."""
        return self.perm[self.positions(i)]

    def leaves(self):
        return np.flatnonzero(~self.has_sons).tolist()


def _bisect_level(coords, edges, lo, hi):
    """Bisect every cluster of one level at once; return the reordering
    of the positions and the size of each cluster's left son.

    Cluster c owns positions edges[c]:edges[c + 1] of coords, at least
    two, and has the box [lo[c], hi[c]].  Its split axis has the most
    distinct coordinates, ties broken by box extent, then by the lower
    axis.  It is sorted stably along that axis and split at the box
    midpoint, points on it going right: gridded point sets then split
    into full grid rectangles, which count-balanced splitting does not
    give.  If one side would be empty, the count is halved instead.
    """
    n, dim = coords.shape
    begins, sizes = edges[:-1], np.diff(edges)
    cluster = np.repeat(np.arange(begins.size), sizes)
    orders = np.stack([np.lexsort((coords[:, d], cluster)) for d in range(dim)])
    values = np.take_along_axis(coords.T, orders, axis=1)
    new = np.ones(values.shape, dtype=bool)
    new[:, 1:] = values[:, 1:] != values[:, :-1]
    new[:, begins] = True
    distinct = np.add.reduceat(new, begins, axis=1).T
    # the last of the axes sorted by (distinct, extent, -axis)
    axis = np.lexsort((np.broadcast_to(-np.arange(dim), lo.shape), hi - lo, distinct))[:, -1]
    mid = np.take_along_axis(lo + hi, axis[:, None], axis=1)[:, 0] * 0.5
    below = coords[np.arange(n), axis[cluster]] < mid[cluster]
    split = np.add.reduceat(below, begins)
    split = np.where((split == 0) | (split == sizes), (sizes + 1) // 2, split)
    return orders[axis[cluster], np.arange(n)], split


def build_cluster_tree(points, leaf_size):
    """Build a level-uniform binary cluster tree by midpoint bisection.

    One top-down loop over the levels bisects every cluster of a level
    at once and stops at the first level where no cluster holds more
    than leaf_size indices.  Every cluster above it splits in two, so
    the tree is perfect binary of some depth D, numbered depth first:
    the sons of cluster i on level l are i + 1 and i + 2**(D - l).  If
    a level holds a single index before that, the loop stops there and
    raises leaf_size to that level's largest cluster size, the smallest
    that keeps all leaves on one level, with a warning.

    Parameters
    ----------
    points : (n, d) array of coordinates, d >= 1 (a flat array is 1D).
    leaf_size : maximum number of indices per leaf, an integer >= 1.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("expected a non-empty set of points")
    if points.shape[1] == 0:
        raise ValueError(f"points have no coordinates: shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite coordinates")
    integer = isinstance(leaf_size, (int, np.integer)) and not isinstance(leaf_size, bool)
    if not integer or leaf_size < 1:
        raise ValueError(f"leaf_size must be an integer of at least 1, got {leaf_size!r}")
    levels, size = _bisection(points, int(leaf_size))
    return _assemble(points, levels, size)


def _bisection(points, leaf_size):
    """The levels of midpoint bisection of an (n, d) array of points,
    top down, as (perm, edges, box_min, box_max), the clusters of a
    level in position order: perm orders the points, cluster c owns
    positions edges[c] to edges[c + 1].  Stops at the first level where
    no cluster holds more than leaf_size indices, or, raising leaf_size
    to that level's largest cluster size with a warning, where one
    holds a single index.  Returns the levels and the leaf size."""
    size, perm = leaf_size, np.arange(points.shape[0])
    edges = np.array([0, points.shape[0]])
    levels = []
    while True:
        coords = points[perm]
        lo, hi = np.minimum.reduceat(coords, edges[:-1]), np.maximum.reduceat(coords, edges[:-1])
        levels.append((perm, edges, lo, hi))
        sizes = np.diff(edges)
        if sizes.max() <= size:
            break
        if sizes.min() == 1:
            size = int(sizes.max())
            warnings.warn(
                f"leaf_size raised from {leaf_size} to {size} to keep all leaves on one level",
                stacklevel=3,
            )
            break
        order, split = _bisect_level(coords, edges, lo, hi)
        perm = perm[order]
        edges = np.sort(np.concatenate((edges, edges[:-1] + split)))
    return levels, size


def _assemble(points, levels, leaf_size):
    """The cluster tree whose levels are the given levels of _bisection,
    its leaves the last, numbered depth first."""
    depth = len(levels) - 1
    # per level, its clusters' numbers in position order
    index = [np.zeros(1, dtype=np.intp)]
    for level in range(depth):
        index.append(np.stack((index[-1] + 1, index[-1] + 2 ** (depth - level)), axis=1).ravel())
    at = np.concatenate(index)
    level, father, begin, end = np.empty((4, at.size), dtype=np.intp)
    level[at] = np.repeat(np.arange(depth + 1), [i.size for i in index])
    father[at] = np.concatenate([[-1]] + [np.repeat(i, 2) for i in index[:-1]])
    begin[at] = np.concatenate([edges[:-1] for _, edges, _, _ in levels])
    end[at] = np.concatenate([edges[1:] for _, edges, _, _ in levels])
    box_min, box_max = np.empty((2, at.size, points.shape[1]))
    box_min[at] = np.concatenate([lo for _, _, lo, _ in levels])
    box_max[at] = np.concatenate([hi for _, _, _, hi in levels])
    perm = levels[-1][0]
    return ClusterTree(level, father, begin, end, perm, points.shape[1], leaf_size, box_min, box_max)


def validate_tree(tree):
    """Check cluster-tree invariants; return None or a description of
    the first violation found."""
    if not np.array_equal(np.sort(tree.perm), np.arange(tree.n)):
        return f"perm is not a permutation of 0 to {tree.n - 1}"
    level, begin = tree.level.tolist(), tree.begin.tolist()
    end = (tree.begin + tree.sizes).tolist()
    root = tree.root
    if level[root] != 0:
        return f"root is on level {level[root]} instead of 0"
    if begin[root] != 0 or end[root] != tree.n:
        return f"root covers [{begin[root]}, {end[root]}) instead of [0, {tree.n})"
    for i in np.flatnonzero(tree.has_sons).tolist():
        sons = tree.sons(i)
        ranges = sorted((begin[s], end[s]) for s in sons)
        for (b1, e1), (b2, e2) in zip(ranges, ranges[1:]):
            if b2 < e1:
                return f"cluster {i}: sons overlap at position {b2}"
        pos = begin[i]
        for b, e in ranges:
            if b != pos:
                return f"cluster {i}: sons miss positions [{pos}, {b})"
            pos = e
        if pos != end[i]:
            return f"cluster {i}: sons miss positions [{pos}, {end[i]})"
        for s in sons:
            if level[s] != level[i] + 1:
                return f"cluster {s}: level is not father level + 1"
    levels = np.unique(tree.level[~tree.has_sons]).tolist()
    if len(levels) > 1:
        return f"leaves on multiple levels: {levels}"
    return None


class Subtree:
    """Mutable pruning of a cluster tree; starts minimal (root only)."""

    def __init__(self, tree):
        self.tree = tree
        self._member = np.zeros(len(tree.clusters), dtype=bool)
        self._leaf = np.zeros(len(tree.clusters), dtype=bool)
        self._member[tree.root] = True
        self._leaf[tree.root] = True
        self._count = 1

    @classmethod
    def from_interior(cls, tree, interior):
        """Subtree whose interior nodes are the clusters marked in the
        boolean array `interior`.

        The marked clusters must have sons in the tree and, apart from
        the root, a marked father; the members are the root and every
        son of a marked cluster.  Raises ValueError unless the mask
        has one entry per cluster.
        """
        interior = np.asarray(interior, dtype=bool)
        if interior.shape != (len(tree.clusters),):
            raise ValueError(
                f"expected an interior mask of {len(tree.clusters)} entries, "
                f"got shape {interior.shape}"
            )
        has_father = tree.father >= 0
        member = np.zeros(len(tree.clusters), dtype=bool)
        member[has_father] = interior[tree.father[has_father]]
        if np.any(interior & ~tree.has_sons) or np.any(interior & ~member & has_father):
            raise ValueError("interior clusters do not form a subtree")
        member[tree.root] = True
        other = cls.__new__(cls)
        other.tree = tree
        other._member = member
        other._leaf = member & ~interior
        other._count = int(np.count_nonzero(member))
        return other

    def copy(self):
        other = Subtree.__new__(Subtree)
        other.tree = self.tree
        other._member = self._member.copy()
        other._leaf = self._leaf.copy()
        other._count = self._count
        return other

    def _cluster(self, i):
        """i, checked to be an integer that numbers a cluster of the tree."""
        integer = isinstance(i, (int, np.integer)) and not isinstance(i, bool)
        if not (integer and 0 <= i < self._leaf.size):
            raise ValueError(f"cluster {i}: not in the tree")
        return i

    def __contains__(self, i):
        return bool(self._member[self._cluster(i)])

    def is_leaf(self, i):
        return bool(self._leaf[self._cluster(i)])

    def count(self):
        """Number of member clusters."""
        return self._count

    def expand(self, i):
        """Turn leaf i into an interior node by adding its tree sons."""
        if not self.is_leaf(i):
            raise ValueError(f"cluster {i} is not a subtree leaf")
        sons = self.tree.sons(i)
        if not sons:
            raise ValueError(f"cluster {i} has no sons in the reference tree")
        self._leaf[i] = False
        for s in sons:
            self._member[s] = True
            self._leaf[s] = True
        self._count += len(sons)

    def contract(self, i):
        """Remove the sons of i, making i a leaf again."""
        if i not in self or self._leaf[i]:
            raise ValueError(f"cluster {i} is not an interior subtree node")
        sons = self.tree.sons(i)
        for s in sons:
            if not self._leaf[s]:
                raise ValueError(f"cluster {s} is not a subtree leaf")
        for s in sons:
            self._member[s] = False
            self._leaf[s] = False
        self._leaf[i] = True
        self._count -= len(sons)

    def leaves(self):
        """Leaf clusters in depth-first order."""
        pre = self.tree.pre_order
        return pre[self._leaf[pre]].tolist()

    def leaf_mask(self):
        """Read-only boolean array marking the subtree leaves."""
        mask = self._leaf.view()
        mask.flags.writeable = False
        return mask

    def interior_mask(self):
        """Boolean array marking the interior members (a fresh copy)."""
        return self._member & ~self._leaf

    def members(self):
        """Member clusters in depth-first order."""
        pre = self.tree.pre_order
        return pre[self._member[pre]].tolist()
