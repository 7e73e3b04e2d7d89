"""Cluster trees over index sets and mutable subtrees.

A cluster tree is a hierarchical disjoint partition of an index set.
Indices are stored through a permutation so that every cluster owns a
contiguous range of positions; restricting a vector to a cluster is
then a plain slice.  All leaves sit on the same level, which the
geometric builder enforces by splitting shallow leaves further (and,
if that would ever require splitting a single index, by raising the
requested leaf size).

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
    box_min: np.ndarray
    box_max: np.ndarray

    @property
    def size(self):
        return self.end - self.begin


class ClusterTree:
    """Immutable cluster tree; root has index 0, sons follow fathers.

    level[i], father[i], sizes[i] and has_sons[i] hold the level, the
    father (-1 at the root), the index count and whether cluster i has
    sons, as arrays, for passes that treat one level of the tree at a
    time.  by_level[l] lists the clusters of level l, the sons of one
    father together and in son order.
    """

    def __init__(self, clusters, perm, dim, leaf_size):
        self.clusters = clusters
        self.perm = np.asarray(perm, dtype=np.intp)
        self.n = self.perm.size
        self.dim = dim
        self.leaf_size = leaf_size
        self.root = 0
        levels = [c.level for c in clusters if not c.sons]
        self.depth = max(levels) if levels else 0
        self.level = np.array([c.level for c in clusters], dtype=np.intp)
        father = [-1] * len(clusters)
        for c in clusters:
            for s in c.sons:
                father[s] = c.index
        self.father = np.array(father, dtype=np.intp)
        self.sizes = np.array([c.size for c in clusters], dtype=np.intp)
        self.has_sons = np.array([bool(c.sons) for c in clusters])
        by_level = [[self.root]] + [[] for _ in range(int(self.level.max()))]
        for c in clusters:
            if c.sons:
                by_level[c.level + 1].extend(c.sons)
        self.by_level = [np.array(ids, dtype=np.intp) for ids in by_level]
        self._diameter = [
            float(np.linalg.norm(c.box_max - c.box_min)) for c in clusters
        ]

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
        return [c.index for c in self.clusters if not c.sons]

    def postorder(self):
        order = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for s in reversed(self.sons(node)):
                    stack.append((s, False))
        return order

    def diameter(self, i):
        """Diameter of cluster i's bounding box."""
        return self._diameter[i]


def _bisect(points, perm, begin, end):
    """Reorder perm[begin:end] along the split axis; return split point.

    The split axis is the one with the most distinct coordinate values,
    ties broken by box extent, then by axis index; the split position
    is the box midpoint on that axis (points at the midpoint go right).
    Midpoint bisection keeps gridded point sets decomposing into full
    grid rectangles, which count-balanced splitting does not; for
    degenerate extents it falls back to halving the count.
    """
    block = perm[begin:end]
    coords = points[block]
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    distinct = [np.unique(coords[:, d]).size for d in range(coords.shape[1])]
    axis = max(
        range(coords.shape[1]), key=lambda d: (distinct[d], hi[d] - lo[d], -d)
    )
    order = np.argsort(coords[:, axis], kind="stable")
    perm[begin:end] = block[order]
    mid = 0.5 * (lo[axis] + hi[axis])
    split = int(np.searchsorted(coords[order, axis], mid))
    if split == 0 or split == end - begin:
        split = (end - begin + 1) // 2
    return begin + split


def _try_build(points, leaf_size):
    n = points.shape[0]
    perm = np.arange(n, dtype=np.intp)
    # records: [begin, end, level, sons]
    records = []

    def split(begin, end, level):
        idx = len(records)
        records.append([begin, end, level, []])
        if end - begin > leaf_size:
            mid = _bisect(points, perm, begin, end)
            records[idx][3] = [
                split(begin, mid, level + 1),
                split(mid, end, level + 1),
            ]
        return idx

    split(0, n, 0)

    # pad shallow leaves until all leaves share the deepest level
    depth = max(r[2] for r in records if not r[3])
    pending = [i for i, r in enumerate(records) if not r[3] and r[2] < depth]
    while pending:
        i = pending.pop()
        begin, end, level, _ = records[i]
        if end - begin < 2:
            return None  # cannot split a singleton; caller raises leaf_size
        mid = _bisect(points, perm, begin, end)
        left = len(records)
        records.append([begin, mid, level + 1, []])
        right = len(records)
        records.append([mid, end, level + 1, []])
        records[i][3] = [left, right]
        for child in (left, right):
            if level + 1 < depth:
                pending.append(child)

    clusters = []
    for i, (begin, end, level, sons) in enumerate(records):
        block = points[perm[begin:end]]
        clusters.append(
            Cluster(
                index=i,
                level=level,
                begin=begin,
                end=end,
                sons=tuple(sons),
                box_min=block.min(axis=0),
                box_max=block.max(axis=0),
            )
        )
    return ClusterTree(clusters, perm, points.shape[1], leaf_size)


def build_cluster_tree(points, leaf_size):
    """Build a level-uniform binary cluster tree by midpoint bisection.

    Parameters
    ----------
    points : (n, d) array of coordinates (a flat array is treated as 1D).
    leaf_size : maximum number of indices per leaf; raised automatically
        (with a warning) when level uniformity would require splitting a
        single index.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("expected a non-empty set of points")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite coordinates")
    if leaf_size < 1:
        raise ValueError("leaf_size must be at least 1")
    size = leaf_size
    while True:
        tree = _try_build(points, size)
        if tree is not None:
            if size != leaf_size:
                warnings.warn(
                    f"leaf_size raised from {leaf_size} to {size} "
                    "to keep all leaves on one level",
                    stacklevel=2,
                )
            return tree
        size += 1


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
