"""Per-cluster oracles for the level passes of basis set-up.

Each routine here is the one-cluster-at-a-time form of a stacked pass
in h2vec: one QR per cluster in post-order for `orthogonalize`, one QR
per interior cluster for `coarsening_factors`, one Legendre evaluation
per leaf for `polynomial_basis`, the transfer recursion one cluster at
a time in post-order for `cross_gram_family`, and one draw per leaf
and per transfer for `instances.random_basis`.  They call the same
kernels, or draw the same numbers, in the same order per cluster, so
their outputs, and their counted flops, are the library's bit for bit.
"""

import numpy as np

from h2vec import kernels
from h2vec.basis import ClusterBasis, ClusterMatrices, _entries, _family, _kron


def orthogonalize(basis):
    """(iso, change) with basis.materialize(i) = iso.materialize(i) @ change[i],
    from one QR per cluster, in post-order."""
    tree = basis.tree
    leaf_matrix = {}
    transfer = {}
    change = {}
    for i in tree.post_order.tolist():
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


def coarsening_factors(basis):
    """Merge factors of an isometric basis, one QR per interior cluster."""
    tree, ptr = basis.tree, basis.ptr
    spans = {
        i: np.concatenate([np.arange(ptr[s], ptr[s + 1]) for s in tree.sons(i)])
        for i in np.flatnonzero(tree.has_sons).tolist()
    }
    shapes = [(span.size, span.size, basis.rank_of(i)) for i, span in spans.items()]
    q = ClusterMatrices(tree, list(spans), shapes)
    q.kind, q.source, q.target = "merge", basis, basis
    for group in q.groups:
        ids = group.clusters.tolist()
        for qi, i in zip(group.stack, ids):
            stacked = np.vstack([basis.transfer[s] for s in tree.sons(i)])
            qi[:] = kernels.triangularize(stacked)[0].q
        group.source = np.array([spans[i] for i in ids])
        group.target = _entries(ptr, group.clusters, basis.rank_of(ids[0]))
    return q


def legendre_leaf_matrices(tree, points, degree):
    """Leaf matrices of polynomial_basis(tree, points, degree), one leaf
    at a time in tree.leaves() order, with its refusals of short and
    rank-deficient leaves."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    rank = (degree + 1) ** tree.dim
    legvander = np.polynomial.legendre.legvander
    low, high = tree.box_min, tree.box_max
    span = np.where(high > low, high - low, np.inf)
    leaf_matrix = {}
    for i in tree.leaves():
        if tree.sizes[i] < rank:
            raise ValueError(f"cluster {i} holds {tree.sizes[i]} points, need at least {rank}")
        scaled = (2.0 * points[tree.indices(i)] - low[i] - high[i]) / span[i]
        leaf_matrix[i] = _kron([legvander(x, degree)[:, None, :] for x in scaled.T])[:, 0, :]
        if np.linalg.matrix_rank(leaf_matrix[i]) < rank:
            raise ValueError(
                f"cluster {i}: leaf evaluation matrix is rank deficient; "
                "points are not in general position"
            )
    return leaf_matrix


def cross_gram_family(left, right):
    """cross_gram_family(left, right), one cluster at a time in
    post-order: L^T R at a leaf, the sum over the sons s in son order of
    E_L,s^T (C_s E_R,s) at an interior cluster."""
    tree, lt, rt = left.tree, left.transfer, right.transfer
    order = tree.post_order.tolist()
    cross = ClusterMatrices(tree, order, [(left.rank_of(i), right.rank_of(i)) for i in order])
    for i in order:
        if tree.is_leaf(i):
            cross[i][:] = kernels.matmul(left.leaf_matrix[i].T, right.leaf_matrix[i])
        else:
            cross[i][:] = sum(
                kernels.matmul(lt[s].T, kernels.matmul(cross[s], rt[s]))
                for s in tree.sons(i)
            )
    return _family(cross, "cross", right, left)


def random_basis(tree, rank, rng):
    """instances.random_basis(tree, rank, rng), drawing one leaf matrix
    at a time in leaf order, then one transfer at a time by father and
    then by son."""
    leaf_matrix = {}
    transfer = {}
    for i in tree.leaves():
        size = tree.sizes[i]
        if size < rank:
            raise ValueError(f"leaf {i} smaller than rank {rank}")
        v = rng.standard_normal((size, rank))
        v[:rank] += 2.0 * np.eye(rank)
        leaf_matrix[i] = v
    for i in range(len(tree.clusters)):
        for s in tree.sons(i):
            transfer[s] = rng.standard_normal((rank, rank))
    return ClusterBasis(tree, leaf_matrix, transfer, isometric=False)
