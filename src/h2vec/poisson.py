"""Finite-difference Poisson problem on the L-shaped domain.

The domain is the unit square minus the closed upper-right quarter
[1/2, 1] x [1/2, 1].  Grid points on the cut-out (including its
boundary lines) carry Dirichlet conditions and are excluded, leaving
the interior points of the L.  The 5-point stencil with spacing h =
1/grid yields a symmetric positive definite matrix in row-major
interior numbering.  Numbered that way, the matrix is block
tridiagonal with one block per grid row (Golub & Van Loan, Matrix
Computations, 4.5): the problem holds only those blocks.
`block_cholesky` factors the matrix from them, `block_solve` applies
its inverse to many right-hand sides through that factor, and
`inverse_square_trace` computes ||A^-1||_F^2 = trace((A^2)^-1) by
selected inversion, so that no n x n array is ever formed.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockCholesky",
    "PoissonProblem",
    "assemble_lshape",
    "block_cholesky",
    "block_solve",
    "inverse_square_trace",
]


@dataclass
class PoissonProblem:
    grid: int
    points: np.ndarray  # (n, 2) interior coordinates, row-major order
    site: np.ndarray  # (n, 2) integer grid coordinates (i, j)
    diagonal: list  # per grid row k, its (m_k, m_k) tridiagonal block
    below: list  # per pair of adjacent rows, the (m_{k+1}, m_k) coupling block


@dataclass
class BlockCholesky:
    """A = L L^T for a block-tridiagonal A, block by block: L is block
    lower bidiagonal, inverse[k] holds L_kk^-1 and below[k] the block
    L_{k+1,k}; spans[k] is block k's slice of the unknowns."""

    inverse: list
    below: list
    spans: list


def assemble_lshape(grid):
    """Assemble the 5-point stencil on the L-shaped domain, in blocks."""
    if grid < 4 or grid % 2:
        raise ValueError("grid must be an even number >= 4")
    h = 1.0 / grid
    inv_h2 = 1.0 / (h * h)
    half = grid // 2
    j, i = np.mgrid[1:grid, 1:grid]
    keep = (i < half) | (j < half)
    site = np.column_stack([i[keep], j[keep]])
    # row j holds the sites i = 1..m_j
    sizes = np.count_nonzero(keep, axis=1).tolist()
    diagonal = [inv_h2 * (4.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) for m in sizes]
    below = [-inv_h2 * np.eye(m1, m0) for m0, m1 in zip(sizes[:-1], sizes[1:])]
    return PoissonProblem(grid, site * h, site, diagonal, below)


def _check_blocks(diagonal, below):
    """The blocks as float arrays; raises ValueError for blocks of the
    wrong shape or an asymmetric diagonal block."""
    diagonal = [np.asarray(d, dtype=float) for d in diagonal]
    below = [np.asarray(b, dtype=float) for b in below]
    for k, d in enumerate(diagonal):
        if d.ndim != 2 or d.shape[0] != d.shape[1] or not d.size:
            raise ValueError(
                f"diagonal block {k}: expected a non-empty square matrix, got shape {d.shape}"
            )
        if not np.array_equal(d, d.T):
            raise ValueError(f"diagonal block {k} is not symmetric")
    sizes = [len(d) for d in diagonal]
    if not sizes or len(below) != len(sizes) - 1:
        raise ValueError(
            f"expected one block below each diagonal block but the last, "
            f"got {len(sizes)} diagonal and {len(below)} below"
        )
    for k, b in enumerate(below):
        if b.shape != (sizes[k + 1], sizes[k]):
            want = (sizes[k + 1], sizes[k])
            raise ValueError(f"block below {k}: expected shape {want}, got {b.shape}")
    return diagonal, below


def block_cholesky(diagonal, below):
    """Block Cholesky factor of a symmetric positive definite
    block-tridiagonal matrix.

    diagonal[k] is the (m_k, m_k) block on the diagonal and below[k]
    the (m_{k+1}, m_k) block under it; the blocks above are their
    transposes.  Block by block (Golub & Van Loan, Matrix Computations,
    4.3 and 4.5), L_kk is the Cholesky factor of the Schur complement
    S_k = A_kk - L_{k,k-1} L_{k,k-1}^T and L_{k+1,k} = A_{k+1,k} L_kk^-T.
    Raises ValueError for blocks of the wrong shape or an asymmetric
    diagonal block (LinAlgError, also a ValueError, when a pivot block
    is not positive definite).
    """
    diagonal, below = _check_blocks(diagonal, below)
    bounds = np.cumsum([0] + [len(d) for d in diagonal]).tolist()
    factor = BlockCholesky([], [], [slice(b, e) for b, e in zip(bounds[:-1], bounds[1:])])
    schur = diagonal[0]
    for k, d in enumerate(diagonal):
        factor.inverse.append(np.linalg.solve(np.linalg.cholesky(schur), np.eye(len(d))))
        if k + 1 < len(diagonal):
            factor.below.append(below[k] @ factor.inverse[k].T)
            schur = diagonal[k + 1] - factor.below[k] @ factor.below[k].T
    return factor


def block_solve(factor, b):
    """A^-1 b for the factor of A and b of shape (n,) or (n, c), by
    block forward and back substitution through the stored L_kk^-1:
    matrix products only.  Raises ValueError unless b has n rows."""
    b = np.asarray(b, dtype=float)
    n = factor.spans[-1].stop
    if b.ndim not in (1, 2) or len(b) != n:
        raise ValueError(f"expected {n} right-hand side rows, got shape {b.shape}")
    x = b.copy()
    spans = factor.spans
    # L y = b top down, then L^T x = y bottom up, in place
    x[spans[0]] = factor.inverse[0] @ x[spans[0]]
    for k in range(1, len(spans)):
        x[spans[k]] = factor.inverse[k] @ (x[spans[k]] - factor.below[k - 1] @ x[spans[k - 1]])
    x[spans[-1]] = factor.inverse[-1].T @ x[spans[-1]]
    for k in range(len(spans) - 2, -1, -1):
        x[spans[k]] = factor.inverse[k].T @ (x[spans[k]] - factor.below[k].T @ x[spans[k + 1]])
    return x


def inverse_square_trace(diagonal, below):
    """trace((A^2)^-1) = ||A^-1||_F^2 for a symmetric positive definite
    block-tridiagonal A given by its blocks, as for block_cholesky.

    Over pairs of block rows (the last one alone when their count is
    odd) A stays block tridiagonal, and its blocks below the diagonal
    are nonzero only in their upper right corner, so A^2 is block
    tridiagonal too.  With its block Cholesky factor G, the diagonal
    blocks of Z = (A^2)^-1 follow bottom up by selected inversion
    (Takahashi, Fagan & Chen, 1973; Erisman & Tinney, CACM 1975):
    Z_jj = G_jj^-T G_jj^-1 + H^T Z_{j+1,j+1} H with H = G_{j+1,j} G_jj^-1.
    Raises as block_cholesky does.
    """
    diagonal, below = _check_blocks(diagonal, below)
    sizes = [len(d) for d in diagonal]

    def block(i, k):
        if i == k:
            return diagonal[k]
        if abs(i - k) == 1:
            return below[k] if i > k else below[i].T
        return np.zeros((sizes[i], sizes[k]))

    pairs = [range(k, min(k + 2, len(sizes))) for k in range(0, len(sizes), 2)]
    d = [np.block([[block(i, k) for k in p] for i in p]) for p in pairs]
    b = [np.block([[block(i, k) for k in p] for i in q]) for p, q in zip(pairs[:-1], pairs[1:])]
    square = []
    for j, dj in enumerate(d):
        s = dj @ dj
        if j:
            s += b[j - 1] @ b[j - 1].T
        if j < len(b):
            s += b[j].T @ b[j]
        # symmetric only up to round-off
        square.append(0.5 * (s + s.T))
    square_below = [bj @ dj + dk @ bj for bj, dj, dk in zip(b, d, d[1:])]
    # the paired blocks of A are no longer needed while G is formed
    del d, b
    g = block_cholesky(square, square_below)
    z = g.inverse[-1].T @ g.inverse[-1]
    total = np.trace(z)
    for j in range(len(pairs) - 2, -1, -1):
        h = g.below[j] @ g.inverse[j]
        z = g.inverse[j].T @ g.inverse[j] + h.T @ z @ h
        total += np.trace(z)
    return float(total)
