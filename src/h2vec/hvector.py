"""Hierarchical vectors: a subtree plus one flat coefficient array.

A hierarchical vector represents x through x|_t = V_t x_t on every
leaf t of its subtree.  The coefficients of all clusters share one
array laid out by the basis's ptr, as a product plan's accumulator
is; only the entries of subtree leaves are read.  Refining a leaf
pushes the coefficient through the transfer matrices and keeps the
represented vector; merging sons back into their father uses the
optimal orthogonal projection and reports the exact error: on an
isometric basis the sons' stacked transfers E have orthonormal
columns, so E^T s is the merged coefficient of the stacked son
coefficients s and || s - E E^T s || the error.

axpy, dot and norm work on the common refinement of their operands,
the subtree whose interior is the union of theirs.  Each operand is
pushed down to its leaves by the basis's backward transformation,
one stacked product per transfer group, restricted to the clusters
interior to the union but not to the operand: axpy's y in place, any
other operand in a copy made only when there is something to push.
What remains is one masked update (axpy) or one masked dot of the
union's leaf entries (dot).  On an isometric basis V_t^T V_t = I up
to basis.ISOMETRY_TOL, so that dot is the inner product, at one
multiply-add per entry; any other basis needs its Gram family,
through which dot makes one stacked product per level and rank of
the union's leaves.  to_dense pushes the coefficients down
to the tree leaves in the same way and expands them by one stacked
product per leaf group of the basis; from_dense runs the other way,
by the transposed leaf stacks and the forward transformation.
"""

import math
from collections.abc import Mapping

import numpy as np

from . import kernels
from .basis import _check_family
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
    of their entries in x.data; any other key is missing."""

    def __init__(self, x):
        self.x = x

    def __getitem__(self, i):
        off = self.x.basis.offsets
        if type(i) is not int and not isinstance(i, np.integer):
            raise KeyError(i)
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
        if sub is not None and sub.tree is not basis.tree:
            raise ValueError("subtree and basis live on different trees")
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
        finite = np.isfinite(self.data)
        if finite.all():
            return
        bad = np.flatnonzero(self.leaf_entries() & ~finite)
        if bad.size:
            i = int(np.searchsorted(self.basis.ptr, bad[0], side="right")) - 1
            raise ValueError(f"cluster {i}: non-finite coefficients")

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

    Stacks the son coefficients s (all sons must be subtree leaves):
    for i's merge factor E, its sons' stacked transfers, E^T s is the
    merged coefficient and the norm of s - E E^T s the exact merge
    error.  Returns (merged, error, norm of the stack).
    """
    off, data, e = x.basis.offsets, x.data, factors[i]
    stacked = np.concatenate([data[off[s] : off[s + 1]] for s in x.basis.tree.sons(i)])
    merged = kernels.matvec(e.T, stacked)
    rest = stacked - kernels.matvec(e, merged)
    # np.linalg.norm computes sqrt(x . x) as well, at a higher call cost
    error = math.sqrt(rest.dot(rest))
    return merged, error, math.sqrt(stacked.dot(stacked))


def coarsen(x, i, factors):
    """Merge the sons of i into i; returns the exact merge error.

    Requires an isometric basis, its merge factors and all tree sons
    of i to be subtree leaves.  The new coefficient is the orthogonal
    projection of the previous subvector; the returned value is the
    Euclidean norm of the difference, computed exactly from the merge
    factors.
    """
    _check_family(factors, "merge", x.basis)
    # raises, leaving x as it was, unless i is interior with leaf sons
    x.sub.contract(i)
    merged, error, _ = merge(x, i, factors)
    off = x.basis.offsets
    x.data[off[i] : off[i + 1]] = merged
    return error


def _refined(x, interior, copy=True):
    """x's coefficients pushed from x's leaves down to the leaves of the
    subtree with the given interior: in a copy of x.data, made only when
    there is something to push, or with copy=False in x.data itself."""
    push = interior & ~x.sub.interior_mask()
    if not push.any():
        return x.data
    data = x.data.copy() if copy else x.data
    x.basis.backward(data, push, add=False)
    return data


def _common_interior(x, y):
    if x.basis is not y.basis:
        raise ValueError("vectors use different bases")
    return x.sub.interior_mask() | y.sub.interior_mask()


def _check_factor(alpha):
    if not math.isfinite(alpha):
        raise ValueError(f"expected a finite factor, got {alpha}")


def axpy(alpha, x, y):
    """Update y <- y + alpha*x exactly, refining y's subtree as needed."""
    _check_factor(alpha)
    interior = _common_interior(x, y)
    z = _refined(x, interior)
    _refined(y, interior, copy=False)
    y.sub = Subtree.from_interior(y.basis.tree, interior)
    live = y.leaf_entries()
    kernels.tally(int(np.count_nonzero(live)))
    y.data[live] += alpha * z[live]


def scale(x, alpha):
    """Multiply the represented vector by alpha in place."""
    _check_factor(alpha)
    live = x.leaf_entries()
    kernels.tally(int(np.count_nonzero(live)))
    x.data[live] *= alpha


def dot(x, y, gram=None):
    """Inner product of two hierarchical vectors over one basis.

    Where one subtree is deeper than the other, coefficients are pushed
    through the transfer matrices until both sides sit on the leaves of
    the common refinement.  On an isometric basis the inner product is
    then one masked dot of the leaf entries, exact up to the basis's
    isometry (ISOMETRY_TOL); gram may be left out, and when given it is
    checked, not multiplied.  Any other basis needs gram, the Gram
    family gram_family(basis), and multiplies through it per leaf.
    """
    interior = _common_interior(x, y)
    basis = x.basis
    if gram is not None:
        _check_family(gram, "gram", basis)
    elif not basis.isometric:
        raise ValueError("a basis that is not isometric needs its Gram family, gram_family(basis)")
    u, v = _refined(x, interior), _refined(y, interior)
    leaf = Subtree.from_interior(basis.tree, interior).leaf_mask()
    if basis.isometric:
        live = np.repeat(leaf, np.diff(basis.ptr))
        return kernels.vdot(u[live], v[live])
    total = 0.0
    for group in gram.groups:
        pick = leaf[group.clusters]
        if pick.any():
            gv = kernels.matvec(group.stack[pick], v[group.source[pick]])
            total += kernels.vdot(u[group.target[pick]].ravel(), gv.ravel())
    return total


def norm(x, gram=None):
    """Euclidean norm, as sqrt(dot(x, x, gram)); tiny negative round-off
    is clamped to zero."""
    return float(np.sqrt(max(dot(x, x, gram), 0.0)))


def to_dense(x):
    """Expand to a dense vector in tree position order.

    One backward pass pushes the coefficients from the subtree leaves
    down to the tree leaves; one stacked product per leaf group of
    the basis expands them.
    """
    basis = x.basis
    data = x.data.copy()
    push = basis.tree.has_sons & ~x.sub.interior_mask()
    if push.any():
        basis.backward(data, push, add=False)
    out = np.zeros(basis.tree.n)
    for group in basis.leaf_matrix.groups:
        out[group.target] = kernels.matvec(group.stack, data[group.source])
    return out


def from_dense(v, basis, sub=None):
    """Project a dense vector (tree position order) onto a subtree.

    Requires an isometric basis; each leaf coefficient is the optimal
    projection V_t^T v|_t, by one stacked product per leaf group at the
    tree leaves and the forward transformation above them.  Returns
    (hvector, error), the error being || v - to_dense(hvector) ||.
    """
    if not basis.isometric:
        raise ValueError("projection requires an isometric basis")
    v = np.asarray(v, dtype=float)
    tree = basis.tree
    if v.shape != (tree.n,):
        raise ValueError(f"expected a vector of length {tree.n}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"position {bad[0]}: non-finite entry")
    x = HVector(basis, sub.copy() if sub is not None else None)
    for group in basis.leaf_matrix.groups:
        # the transposed view rounds as each leaf's v.T @ block does; a copy does not
        x.data[group.source] = kernels.matvec(group.stack.transpose(0, 2, 1), v[group.target])
    below = ~(x.sub.interior_mask() | x.sub.leaf_mask())
    if below.any():
        basis.forward(x.data, below)
    r = v - to_dense(x)
    # NumPy's own sum: np.linalg.norm calls the threaded BLAS ddot beyond
    # 10,000 entries, which stalled for milliseconds per call on 2 CPUs
    return x, float(np.sqrt(np.einsum("i,i->", r, r)))
