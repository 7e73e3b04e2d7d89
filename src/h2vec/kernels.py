"""Small dense linear-algebra kernels with an operation counter.

Every higher-level structure in this package keeps its data as small
dense matrices; the routines here are the only place where actual
floating-point work happens, so they also maintain the multiply-add
counter used by the complexity checks.

Counting convention: a product of an (m, n) matrix with an n-vector
costs m*n multiply-adds and a product with an (n, p) matrix costs
m*n*p; a stack of b such products costs b times as much, the same as
b separate calls.  Callers that add the results into accumulators
charge the adds themselves, per batch, with ``tally``.  A QR of an
(m, n) matrix is charged m*n*min(m, n) for the triangular factor,
plus m*m*n when the complete m x m orthogonal factor is formed as
well (``triangularize``).  The orthogonal factor is kept dense, so
applying its adjoint to p columns is one counted product of m*m*p.
Comparisons and copies are not counted.

Stacks of matrix-vector products pick their kernel by shape.  A
stack of matrices with at most TINY_ENTRIES = 64 entries each is
multiplied by ``np.einsum``, larger ones by ``@``: below that size
per-matrix dispatch, not arithmetic, sets the time.  Measured as the
time of ``a @ x[:, :, None]`` over that of ``einsum`` (best of 5 x
200 calls, one process, 2 CPUs): 2.1-2.6 for 3 x 3 matrices, 1.5-1.8
for 6 x 6, 1.1-1.3 for 8 x 8, 1.0-1.2 for 9 x 9, but 0.8 for 16 x 16,
0.7 for 16 x 8 and 0.3 for tall 64 x 3 matrices, so the rule counts
entries, not columns.  Both kernels are charged the same count.

The QR routines fix signs so that the triangular factor has a
non-negative diagonal.  For input with orthonormal columns this forces
R = I, which means the leading columns of the orthogonal factor
coincide with the input itself; one application of its adjoint then
yields both projection coefficients (leading rows) and the exact
residual (trailing rows).
"""

import contextlib
import contextvars

import numpy as np

__all__ = [
    "FlopCounter",
    "count_flops",
    "phase",
    "tally",
    "matmul",
    "matvec",
    "axpy",
    "vdot",
    "ReflectorStack",
    "triangularize",
    "triangular_factor",
]

# stacked matrices of at most this many entries are multiplied by einsum
TINY_ENTRIES = 64

_COUNTER: contextvars.ContextVar = contextvars.ContextVar(
    "h2vec_flop_counter", default=None
)


class FlopCounter:
    """Tally of multiply-add operations, optionally split by phase."""

    def __init__(self):
        self.total = 0
        self.phases = {}
        self._phase = None

    def add(self, n):
        self.total += n
        if self._phase is not None:
            self.phases[self._phase] = self.phases.get(self._phase, 0) + n

    def reset(self):
        self.total = 0
        self.phases.clear()

    def __repr__(self):
        return f"FlopCounter(total={self.total}, phases={self.phases})"


@contextlib.contextmanager
def count_flops():
    """Install a fresh counter for the duration of the block.

    Counters nest; only the innermost active counter receives tallies,
    which keeps concurrent runs (each inside its own context) isolated.
    """
    counter = FlopCounter()
    token = _COUNTER.set(counter)
    try:
        yield counter
    finally:
        _COUNTER.reset(token)


@contextlib.contextmanager
def phase(name):
    """Attribute tallies inside the block to a named phase."""
    counter = _COUNTER.get()
    if counter is None:
        yield
        return
    previous = counter._phase
    counter._phase = name
    try:
        yield
    finally:
        counter._phase = previous


def tally(n):
    counter = _COUNTER.get()
    if counter is not None:
        counter.add(int(n))


def matmul(a, b):
    """Counted matrix-matrix product with shape check.

    a may also be a stack of s matrices, shape (s, m, n), with b a
    stack of s matrices, shape (s, n, p); the result is the (s, m, p)
    stack of the products a[j] @ b[j].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (
        a.ndim not in (2, 3)
        or a.ndim != b.ndim
        or a.shape[:-2] != b.shape[:-2]
        or a.shape[-1] != b.shape[-2]
    ):
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    tally(a.size * b.shape[-1])
    return a @ b


def matvec(a, x):
    """Counted matrix-vector product with shape check.

    a may also be a stack of b matrices, shape (b, m, n), with x a
    stack of b vectors, shape (b, n); the result is the (b, m) stack
    of the products a[j] @ x[j], computed by einsum when m * n is at
    most TINY_ENTRIES and by @ otherwise (see the module docstring).
    Either way the count is b * m * n; the two kernels may round
    differently.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.ndim == 2 and x.ndim == 1 and a.shape[1] == x.shape[0]:
        tally(a.size)
        return a @ x
    if a.ndim == 3 and x.ndim == 2 and (a.shape[0], a.shape[2]) == x.shape:
        tally(a.size)
        if a.shape[1] * a.shape[2] <= TINY_ENTRIES:
            return np.einsum("bij,bj->bi", a, x)
        return (a @ x[:, :, None])[:, :, 0]
    raise ValueError(f"matvec shape mismatch: {a.shape} x {x.shape}")


def axpy(alpha, x, y):
    """Counted y + alpha*x for equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
    tally(x.size)
    return y + alpha * x


def vdot(x, y):
    """Counted inner product."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"vdot shape mismatch: {x.shape} vs {y.shape}")
    tally(x.size)
    return float(x @ y)


class ReflectorStack:
    """Orthogonal factor of a QR with non-negative diagonal.

    Holds the complete m x m matrix Q with Q^T A = [R; 0] for the
    triangularized (m, count) matrix A, R upper triangular and
    non-negative on the diagonal.  The benchmark's layer tracer
    (``perfbench/tracing.py``) wraps ``apply_adjoint`` by this class name.
    """

    def __init__(self, q, count):
        self.q = q
        self.count = count

    def apply_adjoint(self, x):
        """Return Q^T x; x may be a vector or a matrix of columns.

        For input assembled as A*z with A the triangularized matrix,
        the leading ``count`` rows carry the coefficients R*z and the
        trailing rows the orthogonal-complement part.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return matvec(self.q.T, x)
        return matmul(self.q.T, x)

    def thin_q(self):
        """The leading ``count`` columns of Q.

        Returned as a copy: a view would keep the whole m x m Q
        alive for as long as the caller keeps the columns.
        """
        return self.q[:, : self.count].copy()


def _sign_fix(r):
    """Signs that make the diagonal of the triangular factor r non-negative."""
    return np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def _check_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in input")
    return a


def triangularize(a):
    """QR of a tall matrix with non-negative diagonal.

    Parameters
    ----------
    a : (m, n) array with m >= n and finite entries.

    Returns
    -------
    stack : ReflectorStack
        The orthogonal factor; ``stack.thin_q() @ r`` reproduces ``a``.
    r : (n, n) ndarray
        Upper triangular with non-negative diagonal.
    """
    a = _check_matrix(a)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need at least as many rows as columns, got {a.shape}")
    tally(m * n * (m + n))
    q, r = np.linalg.qr(a, mode="complete")
    signs = _sign_fix(r)
    q[:, :n] *= signs
    return ReflectorStack(q, n), r[:n] * signs[:, None]


def triangular_factor(a):
    """Upper-trapezoidal factor of a QR with non-negative diagonal.

    Works for any shape; returns an array of shape (min(m, n), n) with
    the same column Gram matrix as ``a``.
    """
    a = _check_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.zeros((min(m, n), n))
    tally(m * n * min(m, n))
    r = np.linalg.qr(a, mode="r")
    return r * _sign_fix(r)[:, None]
