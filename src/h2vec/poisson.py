"""Finite-difference Poisson problem on the L-shaped domain.

The domain is the unit square minus the closed upper-right quarter
[1/2, 1] x [1/2, 1].  Grid points on the cut-out (including its
boundary lines) carry Dirichlet conditions and are excluded, leaving
the interior points of the L.  The 5-point stencil with spacing h =
1/grid yields a symmetric positive definite matrix in row-major
interior numbering.  Numbered that way, the matrix is block
tridiagonal with one block per grid row (Golub & Van Loan, Matrix
Computations, 4.5): the problem holds only those blocks, and
`block_tridiagonal_inverse` inverts the matrix from them through a
block Cholesky factorization.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoissonProblem",
    "assemble_lshape",
    "block_tridiagonal_inverse",
]


@dataclass
class PoissonProblem:
    grid: int
    points: np.ndarray  # (n, 2) interior coordinates, row-major order
    site: np.ndarray  # (n, 2) integer grid coordinates (i, j)
    diagonal: list  # per grid row k, its (m_k, m_k) tridiagonal block
    below: list  # per pair of adjacent rows, the (m_{k+1}, m_k) coupling block


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


def block_tridiagonal_inverse(diagonal, below):
    """Inverse of a symmetric positive definite block-tridiagonal matrix.

    diagonal[k] is the (m_k, m_k) block on the diagonal and below[k]
    the (m_{k+1}, m_k) block under it; the blocks above are their
    transposes.  With A = L Lᵀ factored block by block (Golub & Van
    Loan, Matrix Computations, 4.3 and 4.5), the block rows of L⁻¹ are
    formed top down in one n x n buffer and overwritten bottom up by
    those of A⁻¹ = L⁻ᵀ L⁻¹.  Only the blocks on and below the diagonal
    are computed and the rest is mirrored, so the result is exactly
    symmetric.  Raises ValueError for blocks of the wrong shape or an
    asymmetric diagonal block (LinAlgError, also a ValueError, when a
    pivot block is not positive definite).
    """
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
    bounds = np.cumsum([0] + sizes).tolist()
    spans = [slice(b, e) for b, e in zip(bounds[:-1], bounds[1:])]
    x = np.empty((bounds[-1], bounds[-1]))
    # block row k of L⁻¹: L_k⁻¹ on the diagonal and, to its left,
    # -L_k⁻¹ C_{k-1} times block row k - 1
    inv_l = []  # L_k⁻¹
    factor = []  # C_k = A[k+1, k] L_k⁻ᵀ, the block of L below L_k
    schur = diagonal[0]
    for k, s in enumerate(spans):
        inv_l.append(np.linalg.solve(np.linalg.cholesky(schur), np.eye(sizes[k])))
        x[s, s] = inv_l[k]
        if k:
            x[s, : s.start] = -(inv_l[k] @ factor[k - 1]) @ x[spans[k - 1], : s.start]
        if k + 1 < len(spans):
            factor.append(below[k] @ inv_l[k].T)
            schur = diagonal[k + 1] - factor[k] @ factor[k].T
    # block row k of A⁻¹ = L_k⁻ᵀ (row k of L⁻¹ - C_kᵀ row k + 1 of A⁻¹),
    # left of and on the diagonal: one product with both block rows
    s = spans[-1]
    x[s, :] = inv_l[-1].T @ x[s, :]
    for k in range(len(spans) - 2, -1, -1):
        s = spans[k]
        both = x[s.start : spans[k + 1].stop, : s.stop]
        x[s, : s.stop] = np.hstack([inv_l[k].T, -inv_l[k].T @ factor[k].T]) @ both
    for s in spans:
        x[: s.start, s] = x[s, : s.start].T
        d = x[s, s]
        d[...] = np.tril(d) + np.tril(d, -1).T
    return x
