"""Hierarchical vectors: a subtree plus one flat coefficient array.

A hierarchical vector represents x through x|_t = V_t x_t on every
leaf t of its subtree.  The coefficients of all clusters share one
array laid out by the basis's ptr, as a product plan's accumulator
is; only the entries of subtree leaves are read.  Refining a leaf
pushes the coefficient through the transfer matrices and keeps the
represented vector; merging sons back into their father uses the
optimal orthogonal projection and reports the exact error.
"""

import math
from collections.abc import Mapping

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


class LeafCoefficients(Mapping):
    """Read-only mapping from the subtree leaves of x to writable views
    of their entries in x.data."""

    def __init__(self, x):
        self.x = x

    def __getitem__(self, i):
        off = self.x.basis.offsets
        if not (0 <= i < len(off) - 1 and self.x.sub.is_leaf(i)):
            raise KeyError(i)
        return self.x.data[off[i] : off[i + 1]]

    def __iter__(self):
        return iter(np.flatnonzero(self.x.sub.leaf_mask()).tolist())

    def __len__(self):
        return int(np.count_nonzero(self.x.sub.leaf_mask()))


class HVector:
    """Compressed vector over a cluster basis.

    data holds basis.ptr[-1] floats, zero by default; subtree leaf i
    has the coefficient data[ptr[i]:ptr[i + 1]], also read as coeff[i].
    """

    def __init__(self, basis, sub=None, data=None):
        self.basis = basis
        self.sub = sub if sub is not None else Subtree(basis.tree)
        self.data = data if data is not None else np.zeros(basis.ptr[-1])

    @property
    def coeff(self):
        return LeafCoefficients(self)

    @staticmethod
    def from_leaves(basis, sub, coeff):
        """Vector on sub (minimal when None) from a mapping of one
        coefficient per subtree leaf.  Raises ValueError, naming a
        cluster, for a missing or extra leaf, a wrong shape or a
        non-finite value."""
        x = HVector(basis, sub)
        off = set(x.coeff).symmetric_difference(coeff)
        if off:
            raise ValueError(f"cluster {min(off)}: coefficients off the subtree leaves")
        for i, c in coeff.items():
            view = x.coeff[i]
            if np.shape(c) != view.shape:
                raise ValueError(f"cluster {i}: expected shape {view.shape}")
            view[:] = c
        x.validate()
        return x

    def leaf_entries(self):
        """Boolean mask of the entries of data owned by subtree leaves."""
        return np.repeat(self.sub.leaf_mask(), np.diff(self.basis.ptr))

    def validate(self):
        """Raise ValueError unless sub lives on the basis's tree, data
        holds basis.ptr[-1] floats and every leaf entry is finite."""
        if self.sub.tree is not self.basis.tree:
            raise ValueError("subtree and basis live on different trees")
        if np.shape(self.data) != (self.basis.ptr[-1],):
            raise ValueError(f"expected {self.basis.ptr[-1]} coefficients in one flat array")
        bad = np.flatnonzero(self.leaf_entries() & ~np.isfinite(self.data))
        if bad.size:
            i = int(np.searchsorted(self.basis.ptr, bad[0], side="right")) - 1
            raise ValueError(f"cluster {i}: non-finite coefficients")

    @classmethod
    def zeros(cls, basis):
        """Zero vector on the minimal subtree."""
        return cls(basis)

    def copy(self):
        return HVector(self.basis, self.sub.copy(), self.data.copy())


def refine(x, i):
    """Split leaf i of x's subtree; the represented vector is unchanged."""
    x.sub.expand(i)  # raises unless i is a subtree leaf with tree sons
    off, data, transfer = x.basis.offsets, x.data, x.basis.transfer
    xi = data[off[i] : off[i + 1]]
    for s in x.basis.tree.sons(i):
        data[off[s] : off[s + 1]] = kernels.matvec(transfer[s], xi)


def merge(x, i, factors):
    """Optimal merge of the sons of i, without changing x.

    Stacks the son coefficients (all sons must be subtree leaves) and
    applies the adjoint of i's merge factor: the leading rank_of(i)
    entries are the merged coefficient, the norm of the rest is the
    exact merge error.  Returns (merged, error, norm of the stack).
    """
    off, data = x.basis.offsets, x.data
    stacked = np.concatenate([data[off[s] : off[s + 1]] for s in x.basis.tree.sons(i)])
    factor = factors[i]
    transformed = factor.apply_adjoint(stacked)
    k = factor.count  # the columns of the stacked transfers: rank_of(i)
    rest = transformed[k:]
    # np.linalg.norm computes sqrt(x . x) as well, at a higher call cost
    error = math.sqrt(rest.dot(rest))
    return transformed[:k], error, math.sqrt(stacked.dot(stacked))


def coarsen(x, i, factors):
    """Merge the sons of i into i; returns the exact merge error.

    Requires an isometric basis and all tree sons of i to be subtree
    leaves.  The new coefficient is the orthogonal projection of the
    previous subvector; the returned value is the Euclidean norm of
    the difference, computed exactly from the merge factors.
    """
    if not x.basis.isometric:
        raise ValueError("coarsening requires an isometric basis")
    if not x.basis.tree.sons(i):
        raise ValueError(f"cluster {i} has no sons")
    merged, error, _ = merge(x, i, factors)
    x.sub.contract(i)  # raises, leaving x as it was, unless all sons are leaves
    off = x.basis.offsets
    x.data[off[i] : off[i + 1]] = merged
    return error


def axpy(alpha, x, y):
    """Update y <- y + alpha*x exactly, refining y's subtree as needed."""
    if x.basis is not y.basis:
        raise ValueError("vectors use different bases")
    tree, transfer, off = x.basis.tree, x.basis.transfer, x.basis.offsets
    xdata, ydata = x.data, y.data

    def add_leaf(i, z):
        if y.sub.is_leaf(i):
            a, b = off[i], off[i + 1]
            ydata[a:b] = kernels.axpy(1.0, z, ydata[a:b])
        else:
            for s in tree.sons(i):
                add_leaf(s, kernels.matvec(transfer[s], z))

    def add(i):
        if x.sub.is_leaf(i):
            add_leaf(i, alpha * xdata[off[i] : off[i + 1]])
        else:
            if y.sub.is_leaf(i):
                refine(y, i)
            for s in tree.sons(i):
                add(s)

    add(tree.root)


def scale(x, alpha):
    """Multiply the represented vector by alpha in place."""
    live = x.leaf_entries()
    kernels.tally(int(np.count_nonzero(live)))
    x.data[live] *= alpha


def dot(x, y, gram):
    """Inner product of two hierarchical vectors over one basis.

    gram holds the per-cluster Gram matrices of the basis.  Where one
    subtree is deeper than the other, coefficients are pushed through
    the transfer matrices until both sides sit on a common leaf.
    """
    if x.basis is not y.basis:
        raise ValueError("vectors use different bases")
    tree, transfer, off = x.basis.tree, x.basis.transfer, x.basis.offsets

    def dot_leaf(i, z, w):
        if w.sub.is_leaf(i):
            return kernels.vdot(z, kernels.matvec(gram[i], w.data[off[i] : off[i + 1]]))
        total = 0.0
        for s in tree.sons(i):
            total += dot_leaf(s, kernels.matvec(transfer[s], z), w)
        return total

    def descend(i):
        if x.sub.is_leaf(i):
            return dot_leaf(i, x.data[off[i] : off[i + 1]], y)
        if y.sub.is_leaf(i):
            return dot_leaf(i, y.data[off[i] : off[i + 1]], x)
        return sum(descend(s) for s in tree.sons(i))

    return descend(tree.root)


def norm(x, gram):
    """Euclidean norm; tiny negative round-off is clamped to zero."""
    return float(np.sqrt(max(dot(x, x, gram), 0.0)))


def to_dense(x):
    """Expand to a dense vector in tree position order."""
    tree = x.basis.tree
    out = np.zeros(tree.n)
    for i, c in x.coeff.items():
        out[tree.positions(i)] = x.basis.materialize(i) @ c
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
    x = HVector(basis, sub.copy() if sub is not None else None)
    residual = 0.0
    for i in x.sub.leaves():
        q = basis.materialize(i)
        block = v[tree.positions(i)]
        c = x.coeff[i]
        c[:] = q.T @ block
        residual += float(np.sum((block - q @ c) ** 2))
    return x, float(np.sqrt(max(residual, 0.0)))
