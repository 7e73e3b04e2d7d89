"""Cluster trees over index sets and mutable subtrees.

A cluster tree is a hierarchical disjoint partition of an index set.
Indices are stored through a permutation so that every cluster owns a
contiguous range of positions; restricting a vector to a cluster is
then a plain slice.  The geometric builder bisects every cluster of a
level at once, top down, until no cluster holds more than the leaf
size, so all leaves sit on one level and the tree is perfect binary,
numbered depth first.  Where a level holds a single index before that,
it stops there and raises the leaf size to that level's largest
cluster, with a warning.

A Subtree marks a pruning of the reference tree: the root is always a
member, and every non-leaf member keeps all of its tree sons.  The
marked leaves partition the index set and describe the active
resolution of a compressed vector.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cluster",
    "ClusterTree",
    "Subtree",
    "build_cluster_tree",
    "validate_tree",
]


@dataclass
class Cluster:
    index: int
    level: int
    begin: int
    end: int
    sons: tuple

    @property
    def size(self):
        return self.end - self.begin


class ClusterTree:
    """Immutable cluster tree; root has index 0, sons follow fathers.

    The tree is given by arrays, one entry per cluster: level[i],
    father[i] (-1 at the root), and the positions begin[i] to end[i]
    that cluster i owns.  The sons of a cluster are the clusters whose
    father it is, in index order.  build_cluster_tree numbers clusters
    depth first: the sons of cluster i on level l of a tree of depth D
    are i + 1 and i + 2**(D - l), so the leaves in index order are in
    position order.

    level, father, begin, sizes[i] (the index count) and has_sons[i]
    are arrays, for passes that treat one level of the tree at a time;
    box_min[i], box_max[i] and diameter[i] hold the corners and the
    diameter of cluster i's bounding box.  by_level[l] lists the
    clusters of level l, the sons of one father together and in son
    order, and post_order lists all clusters in post-order, sons in
    son order before their father.  clusters[i] is the Cluster record
    of cluster i.
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
        leaf_levels = self.level[~self.has_sons]
        self.depth = int(leaf_levels.max()) if leaf_levels.size else 0
        by_level = sons[np.argsort(self.level[self.father[sons]], kind="stable")]
        on_level = np.bincount(self.level[self.father[sons]] + 1, minlength=int(self.level.max()) + 1)
        self.by_level = [np.array([self.root], dtype=np.intp)] + np.split(by_level, np.cumsum(on_level)[:-1])[1:]
        # post-order: a subtree's first position is its father's first
        # position plus the counts of its elder brothers' subtrees
        subtree = np.ones(count, dtype=np.intp)
        for ids in reversed(self.by_level[1:]):
            np.add.at(subtree, self.father[ids], subtree[ids])
        ends = np.cumsum(per_father)
        elder = np.cumsum(subtree[sons]) - subtree[sons]
        first = np.zeros(count, dtype=np.intp)
        first[sons] = elder - np.repeat(elder[(ends - per_father)[self.has_sons]], per_father[self.has_sons])
        for ids in self.by_level[1:]:
            first[ids] += first[self.father[ids]]
        self.post_order = np.empty(count, dtype=np.intp)
        self.post_order[first + subtree - 1] = np.arange(count)
        self.post_order.flags.writeable = False
        flat = sons.tolist()
        sons_of = map(lambda a, z: tuple(flat[a:z]), (ends - per_father).tolist(), ends.tolist())
        fields = (self.level.tolist(), self.begin.tolist(), end.tolist(), sons_of)
        self.clusters = list(map(Cluster, range(count), *fields))
        self.box_min = np.asarray(box_min, dtype=float)
        self.box_max = np.asarray(box_max, dtype=float)
        extent = self.box_max - self.box_min
        # vecdot rounds as np.linalg.norm of one extent does
        self.diameter = np.sqrt(np.vecdot(extent, extent))

    def __len__(self):
        return len(self.clusters)

    def sons(self, i):
        return self.clusters[i].sons

    def is_leaf(self, i):
        return not self.clusters[i].sons

    def size(self, i):
        return self.clusters[i].size

    def positions(self, i):
        c = self.clusters[i]
        return slice(c.begin, c.end)

    def indices(self, i):
        """Original indices owned by cluster i."""
        c = self.clusters[i]
        return self.perm[c.begin : c.end]

    def leaves(self):
        return np.flatnonzero(~self.has_sons).tolist()

    def postorder(self):
        """All clusters in post-order, as a list."""
        return self.post_order.tolist()


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
    root = tree.clusters[tree.root]
    if root.begin != 0 or root.end != tree.n:
        return f"root covers [{root.begin}, {root.end}) instead of [0, {tree.n})"
    for c in tree.clusters:
        if not c.sons:
            continue
        ranges = sorted((tree.clusters[s].begin, tree.clusters[s].end) for s in c.sons)
        for (b1, e1), (b2, e2) in zip(ranges, ranges[1:]):
            if b2 < e1:
                return f"cluster {c.index}: sons overlap at position {b2}"
        pos = c.begin
        for b, e in ranges:
            if b != pos:
                return f"cluster {c.index}: sons miss positions [{pos}, {b})"
            pos = e
        if pos != c.end:
            return f"cluster {c.index}: sons miss positions [{pos}, {c.end})"
        for s in c.sons:
            if tree.clusters[s].level != c.level + 1:
                return f"cluster {s}: level is not father level + 1"
    levels = {c.level for c in tree.clusters if not c.sons}
    if len(levels) > 1:
        return f"leaves on multiple levels: {sorted(levels)}"
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
        """i, checked to number a cluster of the tree."""
        if not 0 <= i < self._leaf.size:
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
        return [i for i in self.members() if self._leaf[i]]

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
        out = []
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not self._leaf[node]:
                stack.extend(reversed(self.tree.sons(node)))
        return out

    def check_partition(self):
        """Verify that leaf ranges tile [0, n); returns None or a message."""
        ranges = sorted(
            (self.tree.clusters[i].begin, self.tree.clusters[i].end)
            for i in self.leaves()
        )
        pos = 0
        for b, e in ranges:
            if b != pos:
                return f"gap or overlap at position {pos} (next range starts {b})"
            pos = e
        if pos != self.tree.n:
            return f"leaves stop at {pos} instead of {self.tree.n}"
        return None
