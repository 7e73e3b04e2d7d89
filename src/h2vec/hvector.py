"""Hierarchical vectors: subtree plus per-leaf coefficient vectors.

A hierarchical vector represents x through x|_t = V_t x_t on every
leaf t of its subtree.  Refining a leaf pushes the coefficient through
the transfer matrices and leaves the represented vector unchanged;
merging sons back into their father uses the optimal orthogonal
projection and reports the exact error via the merge factors.
"""

import math

import numpy as np

from . import kernels
from .tree import Subtree

__all__ = [
    "HVector",
    "refine",
    "coarsen",
    "axpy",
    "scale",
    "dot",
    "norm",
    "to_dense",
    "from_dense",
]


class HVector:
    """Compressed vector over a cluster basis.

    coeff holds one vector of length basis.rank_of(i) per subtree leaf
    i; no other cluster carries storage.
    """

    def __init__(self, basis, sub=None, coeff=None):
        self.basis = basis
        self.sub = sub if sub is not None else Subtree(basis.tree)
        if coeff is None:
            coeff = {i: np.zeros(basis.rank_of(i)) for i in self.sub.leaves()}
        self.coeff = coeff

    def validate(self):
        """Raise ValueError, naming a cluster, unless coeff holds exactly
        one finite vector of length basis.rank_of(i) per subtree leaf i."""
        if self.sub.tree is not self.basis.tree:
            raise ValueError("subtree and basis live on different trees")
        leaves = self.sub.leaf_set()
        if self.coeff.keys() != leaves:
            bad = min(leaves.symmetric_difference(self.coeff))
            raise ValueError(f"cluster {bad}: coefficients off the subtree leaves")
        rank_of = self.basis.rank_of
        for i, c in self.coeff.items():
            if getattr(c, "shape", None) != (rank_of(i),):
                raise ValueError(f"cluster {i}: expected shape ({rank_of(i)},)")
        # one check over all coefficients; the loop only names the culprit
        if not np.isfinite(np.concatenate(list(self.coeff.values()))).all():
            bad = min(i for i, c in self.coeff.items() if not np.isfinite(c).all())
            raise ValueError(f"cluster {bad}: non-finite coefficients")

    @classmethod
    def zeros(cls, basis):
        """Zero vector on the minimal subtree."""
        return cls(basis)

    def copy(self):
        return HVector(
            self.basis, self.sub.copy(), {i: v.copy() for i, v in self.coeff.items()}
        )


def refine(x, i):
    """Split leaf i of x's subtree; the represented vector is unchanged."""
    if not x.sub.is_leaf(i):
        raise ValueError(f"cluster {i} is not a subtree leaf")
    sons = x.basis.tree.sons(i)
    if not sons:
        raise ValueError(f"cluster {i} has no sons to refine into")
    x.sub.expand(i)
    xi = x.coeff.pop(i)
    for s in sons:
        x.coeff[s] = kernels.matvec(x.basis.transfer[s], xi)


def merge(x, i, factors):
    """Optimal merge of the sons of i, without changing x.

    Stacks the son coefficients (all sons must be subtree leaves) and
    applies the adjoint of i's merge factor: the leading rank_of(i)
    entries are the merged coefficient, the norm of the rest is the
    exact merge error.  Returns (merged, error, norm of the stack).
    """
    stacked = np.concatenate([x.coeff[s] for s in x.basis.tree.sons(i)])
    factor = factors[i]
    transformed = factor.apply_adjoint(stacked)
    k = factor.count  # the columns of the stacked transfers: rank_of(i)
    rest = transformed[k:]
    # np.linalg.norm computes sqrt(x . x) as well, at a higher call cost
    error = math.sqrt(rest.dot(rest))
    return transformed[:k].copy(), error, math.sqrt(stacked.dot(stacked))


def coarsen(x, i, factors):
    """Merge the sons of i into i; returns the exact merge error.

    Requires an isometric basis and all tree sons of i to be subtree
    leaves.  The new coefficient is the orthogonal projection of the
    previous subvector; the returned value is the Euclidean norm of
    the difference, computed exactly from the merge factors.
    """
    if not x.basis.isometric:
        raise ValueError("coarsening requires an isometric basis")
    sons = x.basis.tree.sons(i)
    if not sons:
        raise ValueError(f"cluster {i} has no sons")
    for s in sons:
        if not x.sub.is_leaf(s):
            raise ValueError(f"cluster {s} is not a subtree leaf")
    merged, error, _ = merge(x, i, factors)
    x.sub.contract(i)
    for s in sons:
        del x.coeff[s]
    x.coeff[i] = merged
    return error


def axpy(alpha, x, y):
    """Update y <- y + alpha*x exactly, refining y's subtree as needed."""
    if x.basis is not y.basis:
        raise ValueError("vectors use different bases")
    tree = x.basis.tree
    transfer = x.basis.transfer

    def add_leaf(i, z):
        if y.sub.is_leaf(i):
            y.coeff[i] = kernels.axpy(1.0, z, y.coeff[i])
        else:
            for s in tree.sons(i):
                add_leaf(s, kernels.matvec(transfer[s], z))

    def add(i):
        if x.sub.is_leaf(i):
            add_leaf(i, alpha * x.coeff[i])
        else:
            if y.sub.is_leaf(i):
                refine(y, i)
            for s in tree.sons(i):
                add(s)

    add(tree.root)


def scale(x, alpha):
    """Multiply the represented vector by alpha in place."""
    for i in x.coeff:
        kernels.tally(x.coeff[i].size)
        x.coeff[i] = alpha * x.coeff[i]


def dot(x, y, gram):
    """Inner product of two hierarchical vectors over one basis.

    gram holds the per-cluster Gram matrices of the basis.  Where one
    subtree is deeper than the other, coefficients are pushed through
    the transfer matrices until both sides sit on a common leaf.
    """
    if x.basis is not y.basis:
        raise ValueError("vectors use different bases")
    tree = x.basis.tree
    transfer = x.basis.transfer

    def dot_leaf(i, z, w):
        if w.sub.is_leaf(i):
            return kernels.vdot(z, kernels.matvec(gram[i], w.coeff[i]))
        total = 0.0
        for s in tree.sons(i):
            total += dot_leaf(s, kernels.matvec(transfer[s], z), w)
        return total

    def descend(i):
        if x.sub.is_leaf(i):
            return dot_leaf(i, x.coeff[i], y)
        if y.sub.is_leaf(i):
            return dot_leaf(i, y.coeff[i], x)
        return sum(descend(s) for s in tree.sons(i))

    return descend(tree.root)


def norm(x, gram):
    """Euclidean norm; tiny negative round-off is clamped to zero."""
    return float(np.sqrt(max(dot(x, x, gram), 0.0)))


def to_dense(x):
    """Expand to a dense vector in tree position order."""
    tree = x.basis.tree
    out = np.zeros(tree.n)
    for i in x.sub.leaves():
        out[tree.positions(i)] = x.basis.materialize(i) @ x.coeff[i]
    return out


def from_dense(v, basis, sub=None):
    """Project a dense vector (tree position order) onto a subtree.

    Requires an isometric basis; each leaf coefficient is the optimal
    projection of the corresponding slice.  Returns (hvector, error)
    with the exact Euclidean norm of the residual.
    """
    if not basis.isometric:
        raise ValueError("projection requires an isometric basis")
    v = np.asarray(v, dtype=float)
    tree = basis.tree
    if v.shape != (tree.n,):
        raise ValueError(f"expected a vector of length {tree.n}")
    sub = sub.copy() if sub is not None else Subtree(tree)
    coeff = {}
    residual = 0.0
    for i in sub.leaves():
        q = basis.materialize(i)
        block = v[tree.positions(i)]
        c = q.T @ block
        coeff[i] = c
        residual += float(np.sum((block - q @ c) ** 2))
    return HVector(basis, sub, coeff), float(np.sqrt(max(residual, 0.0)))
