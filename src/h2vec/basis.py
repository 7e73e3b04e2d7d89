"""Nested cluster bases and their exact error factors.

A cluster basis stores one matrix per leaf cluster and one transfer
matrix per non-root cluster; the matrix of an interior cluster is
defined implicitly by stacking son matrices times their transfers.
Ranks may vary from cluster to cluster.  An isometric basis has
orthonormal columns at every cluster, which makes optimal projections
and exact error computation possible:

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


class ClusterBasis:
    """Nested basis with per-cluster ranks: leaf plus transfer matrices.

    leaf_matrix maps each tree leaf t to its (#indices, r_t) matrix;
    transfer maps each non-root cluster s with father t to the r_s x r_t
    matrix realizing nestedness.  rank_of(t) reads r_t from these
    matrices.  rank is the common rank of a uniform basis and the
    largest rank of a basis whose ranks vary.
    """

    def __init__(self, tree, rank, leaf_matrix, transfer, isometric=False):
        self.tree = tree
        self.rank = rank
        self.leaf_matrix = leaf_matrix
        self.transfer = transfer
        self.isometric = isometric

    def rank_of(self, i):
        """Rank of cluster i: the leaf matrix's columns at a leaf, the
        sons' transfer columns at an interior cluster."""
        leaf = self.leaf_matrix.get(i)
        if leaf is not None:
            return leaf.shape[1]
        return self.transfer[self.tree.sons(i)[0]].shape[1]

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
    return ClusterBasis(tree, rank, leaf_matrix, transfer, isometric=False)


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
        if tree.is_leaf(i):
            v = basis.leaf_matrix[i]
            if v.shape[0] < k:
                raise ValueError(f"cluster {i}: fewer rows than rank")
            stack, r = kernels.triangularize(v)
            scale = max(1.0, float(np.max(np.abs(np.diagonal(r)))))
            if np.min(np.diagonal(r)) < 1e-12 * scale:
                raise ValueError(f"cluster {i}: rank-deficient leaf matrix")
            leaf_matrix[i] = stack.thin_q()
            change[i] = r
        else:
            sons = tree.sons(i)
            stacked = np.vstack(
                [kernels.matmul(change[s], basis.transfer[s]) for s in sons]
            )
            stack, r = kernels.triangularize(stacked)
            scale = max(1.0, float(np.max(np.abs(np.diagonal(r)))))
            if np.min(np.diagonal(r)) < 1e-12 * scale:
                raise ValueError(f"cluster {i}: rank-deficient transfer stack")
            qhat = stack.thin_q()
            for j, s in enumerate(sons):
                transfer[s] = qhat[j * k : (j + 1) * k]
            change[i] = r
    iso = ClusterBasis(tree, k, leaf_matrix, transfer, isometric=True)
    return iso, change


def gram_family(basis):
    """Per-cluster Gram matrices V^T V via the transfer recursion."""
    return cross_gram_family(basis, basis)


def cross_gram_family(left, right):
    """Per-cluster products left^T right for two bases on one tree."""
    if left.tree is not right.tree:
        raise ValueError("bases live on different trees")
    tree = left.tree
    cross = {}
    for i in tree.postorder():
        if tree.is_leaf(i):
            cross[i] = kernels.matmul(left.leaf_matrix[i].T, right.leaf_matrix[i])
        else:
            total = np.zeros((left.rank_of(i), right.rank_of(i)))
            for s in tree.sons(i):
                term = kernels.matmul(
                    left.transfer[s].T, kernels.matmul(cross[s], right.transfer[s])
                )
                total = total + term
            cross[i] = total
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
        if tree.is_leaf(i):
            continue
        stacked = np.vstack([basis.transfer[s] for s in tree.sons(i)])
        stack, _ = kernels.triangularize(stacked)
        factors[i] = stack
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
        if tree.is_leaf(i):
            v = source.leaf_matrix[i]
            q = target.leaf_matrix[i]
            stack, _ = kernels.triangularize(q)
            transformed = stack.apply_adjoint(v)
            cross[i] = transformed[:kq]
            complement = transformed[kq:]
        else:
            sons = tree.sons(i)
            stacked = np.vstack([target.transfer[s] for s in sons])
            stack, _ = kernels.triangularize(stacked)
            vhat = np.vstack(
                [kernels.matmul(cross[s], source.transfer[s]) for s in sons]
            )
            transformed = stack.apply_adjoint(vhat)
            cross[i] = transformed[:kq]
            pushed = np.vstack(
                [kernels.matmul(z[s], source.transfer[s]) for s in sons]
            )
            complement = np.vstack([pushed, transformed[kq:]])
        kv = source.rank_of(i)
        zi = np.zeros((kv, kv))
        r = kernels.triangular_factor(complement)
        zi[: r.shape[0]] = r
        z[i] = zi
    return ProjectionFactors(source, target, z, cross)
