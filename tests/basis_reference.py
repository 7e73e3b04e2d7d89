"""Per-cluster oracles for the level passes of basis set-up.

Each routine here is the one-cluster-at-a-time form of a stacked pass
in h2vec: one thin QR per cluster in post-order for
`nested_orthogonalize`, and so for `orthogonalize`, which refuses
short and rank-deficient stacks around it, one `np.vstack` of the
son transfers per interior cluster for `coarsening_factors`, one
Legendre evaluation per leaf for `polynomial_basis`, the transfer
recursion one cluster at a time in post-order for `cross_gram_family`,
and one draw per leaf and per transfer for `instances.random_basis`.
They call the same kernels, or draw the same numbers, in the same
order per cluster, so their outputs, and their counted flops, are the
library's bit for bit.

`mapping_basis` builds a basis from per-cluster mappings, as hand-built
test bases are written, and `mapping_layout` lays such mappings out one
matrix at a time: the oracle of the stores and groups that the array
constructor of `ClusterBasis` lays out in one pass.
"""

import numpy as np

from h2vec import kernels
from h2vec.basis import ClusterBasis, ClusterMatrices, _entries, _family, _kron


def _mapping_ranks(tree, leaf_matrix, transfer):
    """Per-cluster ranks read from the mappings: a leaf's from its leaf
    matrix, an interior cluster's from its eldest son's transfer.  Raises
    ValueError naming the first leaf or son, in index order, that has no
    matrix or one of the wrong shape."""
    leaves, sons = tree.leaves(), np.flatnonzero(tree.father >= 0).tolist()
    for clusters, mapping, what in ((leaves, leaf_matrix, "leaf matrix"), (sons, transfer, "transfer")):
        for i in clusters:
            if i not in mapping:
                raise ValueError(f"cluster {i}: no {what} given")
    rank = np.zeros(len(tree), dtype=int)
    for i in leaves:
        rank[i] = np.shape(leaf_matrix[i])[-1]
    for s in reversed(sons):
        rank[tree.father[s]] = np.shape(transfer[s])[-1]
    for s in sons:
        if np.shape(transfer[s]) != (rank[s], rank[tree.father[s]]):
            raise ValueError(f"cluster {s}: expected a {rank[s]} x {rank[tree.father[s]]} transfer")
    for i in leaves:
        if np.shape(leaf_matrix[i]) != (tree.sizes[i], rank[i]):
            raise ValueError(f"cluster {i}: expected a {tree.sizes[i]} x {rank[i]} leaf matrix")
    return rank


def mapping_basis(tree, leaf_matrix, transfer, isometric=False):
    """ClusterBasis from mappings of each leaf to its leaf matrix and of
    each non-root cluster to its transfer, with the ranks they imply."""
    rank = _mapping_ranks(tree, leaf_matrix, transfer)
    leaves, sons = tree.leaves(), np.flatnonzero(tree.father >= 0).tolist()
    leaf_store = np.concatenate([np.ravel(leaf_matrix[i]) for i in leaves])
    transfer_store = np.concatenate([np.zeros(0)] + [np.ravel(transfer[s]) for s in sons])
    return ClusterBasis(tree, rank, leaf_store, transfer_store, isometric=isometric)


def mapping_layout(tree, leaf_matrix, transfer):
    """The layout of a basis built from the mappings, one matrix at a
    time: ptr, and per kind ("leaf", "transfer") the store, the start of
    each cluster's matrix in it, and per (level, shape) group, top-down,
    its clusters in index order and their source, target and fathers."""
    rank = _mapping_ranks(tree, leaf_matrix, transfer)
    ptr = np.concatenate([[0], np.cumsum(rank)])
    out = {"ptr": ptr}
    for kind, mapping in (("leaf", leaf_matrix), ("transfer", transfer)):
        start, store, groups, at = np.zeros(len(tree), dtype=np.intp), [np.zeros(0)], [], 0
        key = {i: (int(tree.level[i]), *np.shape(mapping[i])) for i in mapping}
        for i in sorted(mapping, key=lambda i: (key[i], i)):
            start[i], at = at, at + np.size(mapping[i])
            store.append(np.ravel(mapping[i]))
            if not groups or key[groups[-1]["clusters"][-1]] != key[i]:
                groups.append({"clusters": [], "source": [], "target": [], "fathers": []})
            group, father = groups[-1], int(tree.father[i])
            group["clusters"].append(i)
            if kind == "leaf":
                group["source"].append(list(range(ptr[i], ptr[i + 1])))
                group["target"].append(list(range(tree.begin[i], tree.begin[i] + tree.sizes[i])))
            else:
                group["fathers"].append(father)
                group["source"].append(list(range(ptr[father], ptr[father + 1])))
                group["target"].append(list(range(ptr[i], ptr[i + 1])))
        out[kind] = {"store": np.concatenate(store), "start": start, "groups": groups}
    return out


def orthogonalize(basis):
    """(iso, change) of basis.orthogonalize: per cluster in post-order
    the short-stack refusal, then nested_orthogonalize below, then per
    cluster in post-order the refusal of a rank-deficient change."""
    tree = basis.tree
    for i in tree.post_order.tolist():
        sons = tree.sons(i)
        what = "transfer stack" if sons else "leaf matrix"
        rows = sum(basis.rank_of(s) for s in sons) if sons else int(tree.sizes[i])
        if rows < basis.rank_of(i):
            raise ValueError(f"cluster {i}: {what} has {rows} rows, fewer than its rank {basis.rank_of(i)}")
    iso, change = nested_orthogonalize(basis)
    for i in tree.post_order.tolist():
        what = "transfer stack" if tree.sons(i) else "leaf matrix"
        diagonal = np.diagonal(change[i])
        if np.min(diagonal) < 1e-12 * max(1.0, float(np.max(np.abs(diagonal)))):
            raise ValueError(f"cluster {i}: rank-deficient {what}")
    return iso, change


def nested_orthogonalize(basis):
    """(iso, change) of basis.nested_orthogonalize, from one thin QR per
    cluster, in post-order: of the leaf matrix, or of the sons'
    change[s] @ E_s stacked."""
    tree = basis.tree
    leaf_matrix = {}
    transfer = {}
    change = {}
    for i in tree.post_order.tolist():
        sons = tree.sons(i)
        if sons:
            a = np.vstack([kernels.matmul(change[s], basis.transfer[s]) for s in sons])
        else:
            a = basis.leaf_matrix[i]
        q, r = kernels.qr_stack(a[None])
        change[i] = r[0]
        if not sons:
            leaf_matrix[i] = q[0]
        at = 0
        for s in sons:
            transfer[s] = q[0, at : at + len(change[s])]
            at += len(change[s])
    return mapping_basis(tree, leaf_matrix, transfer), change


def coarsening_factors(basis):
    """Merge factors of an isometric basis: per interior cluster, its
    sons' transfers stacked by np.vstack."""
    tree, ptr = basis.tree, basis.ptr
    spans = {
        i: np.concatenate([np.arange(ptr[s], ptr[s + 1]) for s in tree.sons(i)])
        for i in np.flatnonzero(tree.has_sons).tolist()
    }
    shapes = [(span.size, basis.rank_of(i)) for i, span in spans.items()]
    e = ClusterMatrices(tree, list(spans), shapes)
    e.kind, e.source, e.target = "merge", basis, basis
    for group in e.groups:
        ids = group.clusters.tolist()
        for ei, i in zip(group.stack, ids):
            ei[:] = np.vstack([basis.transfer[s] for s in tree.sons(i)])
        group.source = np.array([spans[i] for i in ids])
        group.target = _entries(ptr, group.clusters, basis.rank_of(ids[0]))
    return e


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
    return mapping_basis(tree, leaf_matrix, transfer)
