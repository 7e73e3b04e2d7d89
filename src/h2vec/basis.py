"""Nested cluster bases, their transformations and exact error factors.

A cluster basis stores one matrix per leaf cluster and one transfer
matrix per non-root cluster; the matrix of an interior cluster is
defined implicitly by stacking son matrices times their transfers.
Ranks may vary from cluster to cluster.  The basis owns two layouts:
one flat coefficient array (ptr) and one store of transfers stacked
per (level, rank, father rank), over which its forward and backward
transformations run as one stacked product per group.  An isometric
basis has orthonormal columns at every cluster, which makes optimal
projections and exact error computation possible:

* merge factors: the orthogonal factor of one QR per interior cluster
  over the stacked transfer matrices.  Applying its adjoint to stacked
  son coefficients yields the optimally merged coefficient in the
  leading rows and the exact merge error in the trailing rows.
* projection factors: small upper-triangular matrices Z per cluster
  with  || V x - Q Q^T V x || = || Z x ||  for all coefficient vectors
  x, computed by a bottom-up recursion together with the cross terms
  Q^T V needed to commit projected coefficients.
"""

import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import kernels

__all__ = [
    "ClusterBasis",
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
class TransferGroup:
    """Non-root clusters of one level whose ranks, and those of their
    fathers, agree.  son_target and father_target hold their entries
    in a flat array laid out by the basis's ptr, and transfer stacks
    their transfers, a view into the basis's transfer store."""

    sons: np.ndarray
    fathers: np.ndarray
    son_target: np.ndarray
    father_target: np.ndarray
    transfer: np.ndarray


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

    The transfers are copied once into the flat transfer_store, where
    the transfer of s starts at transfer_start[s], row-major.  groups
    holds the non-root clusters grouped by (level, rank, father rank)
    in top-down order, each with its transfers as one stack in the
    store, and transfer is a read-only mapping of views into them.
    """

    def __init__(self, tree, leaf_matrix, transfer, isometric=False):
        self.tree = tree
        self.leaf_matrix = leaf_matrix
        self.isometric = isometric
        ranks = [
            transfer[c.sons[0]].shape[1] if c.sons else leaf_matrix[c.index].shape[1]
            for c in tree.clusters
        ]
        self.rank = max(ranks)
        self.ptr = np.cumsum([0] + ranks)
        self.ptr.flags.writeable = False
        self.offsets = self.ptr.tolist()
        # transfers grouped by (level, rank, father rank), top-down
        keys, level = {}, tree.level.tolist()
        for s, t in enumerate(tree.father.tolist()):
            if t >= 0:
                keys.setdefault((level[s], ranks[s], ranks[t]), []).append(s)
        keys = sorted(keys.items())
        sizes = [len(sons) * r2 * r for (_, r2, r), sons in keys]
        self.transfer_store = np.empty(sum(sizes))
        self.transfer_start = np.zeros(len(tree), dtype=np.intp)
        self.groups = []
        views = {}
        for ((_, r2, r), sons), at in zip(keys, np.cumsum([0] + sizes).tolist()):
            stack = self.transfer_store[at : at + len(sons) * r2 * r].reshape(-1, r2, r)
            self.transfer_start[sons] = at + r2 * r * np.arange(len(sons))
            mats = [transfer[s] for s in sons]
            bad = [s for s, e in zip(sons, mats) if e.shape != (r2, r)]
            if bad:
                raise ValueError(f"cluster {bad[0]}: expected a {r2} x {r} transfer")
            np.concatenate(mats, out=stack.reshape(-1, r))
            views.update(zip(sons, stack))
            sons = np.array(sons, dtype=np.intp)
            fathers = tree.father[sons]
            son_target = self.ptr[sons][:, None] + np.arange(r2)
            father_target = self.ptr[fathers][:, None] + np.arange(r)
            self.groups.append(TransferGroup(sons, fathers, son_target, father_target, stack))
        self.transfer = MappingProxyType(dict(sorted(views.items())))
        if isometric:
            self._check_isometric()

    def _check_isometric(self):
        rank = np.diff(self.ptr)
        square = np.concatenate([[0], np.cumsum(rank * rank)])
        # V_t^T V_t - I, or sum_s E_s^T E_s - I, flat, r_t^2 entries per cluster
        gram = np.zeros(square[-1])
        row = np.arange(self.ptr[-1]) - np.repeat(self.ptr[:-1], rank)
        gram[np.repeat(square[:-1], rank) + row * np.repeat(rank + 1, rank)] = -1.0
        for t, v in self.leaf_matrix.items():
            gram[square[t] : square[t + 1]] += (v.T @ v).ravel()
        for g in self.groups:
            sums = (g.transfer.transpose(0, 2, 1) @ g.transfer).reshape(len(g.sons), -1)
            np.add.at(gram, square[g.fathers][:, None] + np.arange(sums.shape[1]), sums)
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
            active = member[group.sons]
            if not active.any():
                continue
            pick = slice(None) if active.all() else active
            # copied: a product with the transposed view rounds differently
            transposed = np.ascontiguousarray(group.transfer[pick].transpose(0, 2, 1))
            pushed = kernels.matvec(transposed, data[group.son_target[pick]])
            np.add.at(data, group.father_target[pick].ravel(), pushed.ravel())
            kernels.tally(pushed.size)

    def backward(self, data, interior):
        """Backward transformation in the flat array data laid out by
        ptr: top-down, add E_s data[t] into every son s of every
        cluster t marked in interior."""
        for group in self.groups:
            active = interior[group.fathers]
            if not active.any():
                continue
            pick = slice(None) if active.all() else active
            son, father = group.son_target[pick], data[group.father_target[pick]]
            data[son] += kernels.matvec(group.transfer[pick], father)
            kernels.tally(son.size)

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
    k = basis.rank
    leaf_matrix = {}
    transfer = {}
    change = {}
    for i in tree.postorder():
        sons = tree.sons(i)
        if sons:
            a = np.vstack([kernels.matmul(change[s], basis.transfer[s]) for s in sons])
        else:
            a = basis.leaf_matrix[i]
            if a.shape[0] < k:
                raise ValueError(f"cluster {i}: fewer rows than rank")
        stack, change[i] = kernels.triangularize(a)
        diagonal = np.diagonal(change[i])
        if np.min(diagonal) < 1e-12 * max(1.0, float(np.max(np.abs(diagonal)))):
            what = "transfer stack" if sons else "leaf matrix"
            raise ValueError(f"cluster {i}: rank-deficient {what}")
        if sons:
            transfer.update(zip(sons, stack.thin_q().reshape(len(sons), k, -1)))
        else:
            leaf_matrix[i] = stack.thin_q()
    iso = ClusterBasis(tree, leaf_matrix, transfer, isometric=True)
    return iso, change


def gram_family(basis):
    """Per-cluster Gram matrices V^T V via the transfer recursion."""
    return cross_gram_family(basis, basis)


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


def coarsening_factors(basis):
    """QR orthogonal factors of the stacked transfers of an isometric basis.

    For each interior cluster, applying the factor's adjoint to the
    stacked son coefficients puts the optimally merged coefficient in
    the first k rows and the exact merge error in the remaining rows.
    """
    if not basis.isometric:
        raise ValueError("merge factors require an isometric basis")
    tree = basis.tree
    factors = {}
    for i in tree.postorder():
        if not tree.is_leaf(i):
            stacked = np.vstack([basis.transfer[s] for s in tree.sons(i)])
            factors[i], _ = kernels.triangularize(stacked)
    return factors


@dataclass
class ProjectionFactors:
    """Exact projection-error matrices between two bases on one tree.

    z[i] is upper triangular with || Vx - QQ^T Vx || = || z[i] x || on
    cluster i; cross[i] = Q^T V supplies the projected coefficients.
    """

    source: ClusterBasis
    target: ClusterBasis
    z: dict
    cross: dict


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
    kq = target.rank
    z = {}
    cross = {}
    for i in tree.postorder():
        sons = tree.sons(i)
        if sons:
            q = np.vstack([target.transfer[s] for s in sons])
            v = np.vstack([kernels.matmul(cross[s], source.transfer[s]) for s in sons])
        else:
            q, v = target.leaf_matrix[i], source.leaf_matrix[i]
        stack, _ = kernels.triangularize(q)
        transformed = stack.apply_adjoint(v)
        cross[i] = transformed[:kq]
        complement = transformed[kq:]
        if sons:
            pushed = np.vstack([kernels.matmul(z[s], source.transfer[s]) for s in sons])
            complement = np.vstack([pushed, complement])
        kv = source.rank_of(i)
        zi = np.zeros((kv, kv))
        r = kernels.triangular_factor(complement)
        zi[: r.shape[0]] = r
        z[i] = zi
    return ProjectionFactors(source, target, z, cross)
