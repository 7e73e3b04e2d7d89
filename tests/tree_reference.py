"""Recursive cluster-tree builder: the reference for the level loop.

It bisects one cluster at a time, recursing while a cluster holds more
than ``leaf_size`` indices, then pads shallow leaves down to the deepest
level, and rebuilds the whole tree with ``leaf_size + 1`` whenever the
padding would have to split a single index.  Clusters are numbered in
the order the recursion and the padding create them.  Tests compare
``h2vec.tree.build_cluster_tree`` against it: equal permutations, equal
(level, begin, end) sets, equal raised leaf sizes and the same warning,
and equal cluster numbers where no padding was needed.
"""

import warnings

import numpy as np

from h2vec.tree import Cluster, ClusterTree


def _bisect(points, perm, begin, end):
    """Reorder perm[begin:end] along the split axis; return split point.

    The split axis is the one with the most distinct coordinate values,
    ties broken by box extent, then by axis index; the split position
    is the box midpoint on that axis (points at the midpoint go right);
    for degenerate extents it falls back to halving the count.
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
    """(tree, padded), or None when padding would split a single index."""
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
    padded = bool(pending)
    while pending:
        i = pending.pop()
        begin, end, level, _ = records[i]
        if end - begin < 2:
            return None
        mid = _bisect(points, perm, begin, end)
        left = len(records)
        records.append([begin, mid, level + 1, []])
        right = len(records)
        records.append([mid, end, level + 1, []])
        records[i][3] = [left, right]
        for child in (left, right):
            if level + 1 < depth:
                pending.append(child)

    clusters, box_min, box_max = [], [], []
    for i, (begin, end, level, sons) in enumerate(records):
        block = points[perm[begin:end]]
        clusters.append(Cluster(index=i, level=level, begin=begin, end=end, sons=tuple(sons)))
        box_min.append(block.min(axis=0))
        box_max.append(block.max(axis=0))
    tree = ClusterTree(clusters, perm, points.shape[1], leaf_size, box_min, box_max)
    return tree, padded


def build_cluster_tree(points, leaf_size):
    """(tree, padded): the recursive build, retried with leaf_size + 1
    until padding splits no single index; warns as the library does
    when the leaf size was raised."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    size = leaf_size
    while True:
        built = _try_build(points, size)
        if built is not None:
            if size != leaf_size:
                warnings.warn(
                    f"leaf_size raised from {leaf_size} to {size} "
                    "to keep all leaves on one level",
                    stacklevel=2,
                )
            return built
        size += 1
