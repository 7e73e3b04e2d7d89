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
(m, n) matrix, k = min(m, n), is charged m*n*k for the triangular
factor plus m*k*n for the thin orthogonal factor, and b times as much
for a stack of b (``qr_stack``).  ``ReflectorStack`` holds a complete
m x m orthogonal factor densely, so applying its adjoint to p columns
is one counted product of m*m*p.  Comparisons and copies are not
counted.

Stacks of matrix-vector products pick their kernel by shape and
layout.  A stack held batch-first, (b, m, n) matrices and (b, n)
vectors, is multiplied by ``np.einsum`` when its matrices have at
most TINY_ENTRIES = 64 entries each, larger ones by ``@``: below that
size per-matrix dispatch, not arithmetic, sets the time.  Ratios of
``@`` time over einsum time (best of 5 x 200 calls, three runs):
2.1-2.6 for 3 x 3 matrices, 1.1-1.3 for 8 x 8, 1.0-1.2 for 9 x 9,
but 0.8 for 16 x 16, 0.7 for 16 x 8 and 0.3 for tall 64 x 3, so the
rule counts entries, not columns; for the product's wide
coupling stacks, one k x ck matrix per row of c leaf blocks, 1.0-3.3
for 1,000 3 x 3c matrices (c = 1 ... 7) and 0.56-1.0 for 200
16 x 16c (c = 1 ... 4).  A stack held batch-last, (m, n, b) matrices
and (n, b) vectors (matvec's batch_last), is always multiplied by
einsum, whose inner loop then runs over the batch rather than over a
side of length 3.  Microseconds per call, batch-last einsum /
batch-first einsum / ``@``, contiguous operands, best of 5 x 200
calls in one process on 2 CPUs:

    shape    b = 1            b = 2            b = 200            b = 1,000
    3 x 3    2.1 / 2.1 / 1.4  2.1 / 2.1 / 1.5   2.7 /  5.2 /  8.1   6.0 /  18.9 /  38.6
    3 x 9    2.0 / 2.0 / 1.4  2.1 / 2.1 / 1.4   3.8 /  5.8 / 10.0  11.4 /  21.2 /  44.0
    3 x 18   1.9 / 1.8 / 1.3  2.2 / 1.9 / 1.4   5.7 /  7.0 / 10.7  18.9 /  26.0 /  47.2
    9 x 9    1.9 / 1.9 / 1.3  2.3 / 1.9 / 1.4   7.3 / 12.2 / 13.0  29.7 /  54.4 /  59.2
    16 x 16  1.9 / 1.9 / 1.3  3.0 / 2.1 / 1.4  19.0 / 23.8 / 17.5  96.9 / 133.3 / 116.5

Batch-last loses where dispatch sets the time, at b <= 2 (``@`` is
fastest there at every shape, and at 16 x 16, b = 2, batch-last is the
slowest), and to ``@`` at 16 x 16, b = 200.  Making the layout costs
a transposing copy, more than it saves in one product, and passing
transposed views gives the gain up, so stacks of tiny matrices are
held batch-last (basis.BatchLastGroup) only where they are kept for
many products or copied anyway, as the transposed transfers of a
forward transformation are; the one rule of TINY_ENTRIES decides.
All kernels are charged the same count.

The QR routines fix signs so that the triangular factor has a
non-negative diagonal.  For input [A | B] whose leading columns A are
orthonormal this forces the leading block of R to be I, so that R's
trailing columns hold the projection coefficients A^T B (leading
rows) over a triangular factor of the residual B - A A^T B: one
``triangular_factor`` gives both, with no orthogonal factor formed.
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
    "qr_stack",
    "triangular_factor",
]

# stacked matrices of at most this many entries are multiplied by
# einsum, and held batch-last where a product keeps them
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


def matvec(a, x, batch_last=False):
    """Counted matrix-vector product with shape check.

    a may also be a stack of b matrices, shape (b, m, n), with x a
    stack of b vectors, shape (b, n); the result is the (b, m) stack
    of the products a[j] @ x[j], computed by einsum when m * n is at
    most TINY_ENTRIES and by @ otherwise.  With batch_last the stack
    is held with its batch axis last: a of shape (m, n, b), x of shape
    (n, b), and the result is the (m, b) array whose column j is
    a[:, :, j] @ x[:, j], computed by einsum (see the module
    docstring).  Every way the count is b * m * n; the kernels may
    round differently.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if batch_last:
        if a.ndim == 3 and a.shape[1:] == x.shape:
            tally(a.size)
            return np.einsum("ijb,jb->ib", a, x)
    elif a.ndim == 2 and x.ndim == 1 and a.shape[1] == x.shape[0]:
        tally(a.size)
        return a @ x
    elif a.ndim == 3 and x.ndim == 2 and (a.shape[0], a.shape[2]) == x.shape:
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
    """Counted inner product of two vectors, by NumPy's own sum, not
    BLAS (see hvector.from_dense)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"vdot shape mismatch: {x.shape} vs {y.shape}")
    tally(x.size)
    return float(np.einsum("i,i->", x, y))


class ReflectorStack:
    """Complete orthogonal factor Q of a QR, held densely.

    Holds the m x m matrix Q with Q^T A = [R; 0] for an (m, count)
    matrix A, R upper triangular.  It has no caller in the library; it
    stays while the benchmark's layer tracer (perfbench/tracing.py)
    wraps ``apply_adjoint`` by this class name, until that tracer is
    rebuilt on a library trace (ROADMAP item 1).
    """

    def __init__(self, q, count):
        self.q = q
        self.count = count

    def apply_adjoint(self, x):
        """Return Q^T x; x may be a vector or a matrix of columns.

        For input assembled as A*z, the leading ``count`` rows carry
        the coefficients R*z and the trailing rows the
        orthogonal-complement part.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return matvec(self.q.T, x)
        return matmul(self.q.T, x)


def _sign_fix(r):
    """Signs that make the diagonals of the triangular factors r non-negative."""
    return np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)


def _check_matrix(a, ndim=2):
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        raise ValueError("expected a matrix" if ndim == 2 else "expected a stack of matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in input")
    return a


def qr_stack(a):
    """Thin QRs of a (b, m, n) stack of finite matrices of any shape, by
    one LAPACK call: the (b, m, k) factors q with orthonormal columns
    and the (b, k, n) upper-trapezoidal factors r, k = min(m, n), with
    non-negative diagonal, with q[j] @ r[j] = a[j]."""
    a = _check_matrix(a, ndim=3)
    b, m, n = a.shape
    k = min(m, n)
    q, r = np.linalg.qr(a, mode="reduced")
    tally(2 * b * m * n * k)
    signs = _sign_fix(r)
    q *= signs[:, None, :]
    return q, r * signs[:, :, None]


def triangular_factor(a):
    """Upper-trapezoidal factor of a QR with non-negative diagonal, of an
    (m, n) matrix or of each matrix of a (b, m, n) stack, by one LAPACK
    call: an array of shape (min(m, n), n), or (b, min(m, n), n), with
    the same column Gram matrices as a."""
    a = np.asarray(a, dtype=float)
    a = _check_matrix(a, ndim=3 if a.ndim == 3 else 2)
    *batch, m, n = a.shape
    k = min(m, n)
    if k == 0:
        return np.zeros((*batch, k, n))
    tally(int(np.prod(batch, dtype=int)) * m * n * k)
    r = np.linalg.qr(a, mode="r")
    return r * _sign_fix(r)[..., :, None]
