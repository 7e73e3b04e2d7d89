"""Finite-difference Poisson problem on the L-shaped domain.

The domain is the unit square minus the closed upper-right quarter
[1/2, 1] x [1/2, 1].  Grid points on the cut-out (including its
boundary lines) carry Dirichlet conditions and are excluded, leaving
the interior points of the L.  The 5-point stencil with spacing h =
1/grid yields a symmetric positive definite matrix in row-major
interior numbering.  Numbered that way, the matrix is block
tridiagonal with one block per grid row, and `block_tridiagonal_inverse`
inverts it through a block Cholesky factorization.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoissonProblem",
    "assemble_lshape",
    "block_tridiagonal_inverse",
    "lshape_interior_count",
]


@dataclass
class PoissonProblem:
    grid: int
    points: np.ndarray  # (n, 2) interior coordinates, row-major order
    matrix: np.ndarray  # (n, n) dense stencil matrix
    site: np.ndarray  # (n, 2) integer grid coordinates (i, j)


def _interior_sites(grid):
    half = grid // 2
    sites = []
    for j in range(1, grid):
        for i in range(1, grid):
            if i >= half and j >= half:
                continue
            sites.append((i, j))
    return sites


def lshape_interior_count(grid):
    """Number of interior grid points, by direct enumeration."""
    return len(_interior_sites(grid))


def assemble_lshape(grid):
    """Assemble the 5-point stencil matrix on the L-shaped domain."""
    if grid < 4 or grid % 2:
        raise ValueError("grid must be an even number >= 4")
    h = 1.0 / grid
    sites = _interior_sites(grid)
    n = len(sites)
    number = {ij: p for p, ij in enumerate(sites)}
    a = np.zeros((n, n))
    inv_h2 = 1.0 / (h * h)
    for p, (i, j) in enumerate(sites):
        a[p, p] = 4.0 * inv_h2
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = number.get((i + di, j + dj))
            if q is not None:
                a[p, q] = -inv_h2
    points = np.array([(i * h, j * h) for i, j in sites])
    return PoissonProblem(grid, points, a, np.array(sites))


def block_tridiagonal_inverse(a, bounds):
    """Inverse of a symmetric positive definite block-tridiagonal matrix.

    `bounds` lists the block offsets from 0 to n: block k spans rows
    and columns bounds[k]:bounds[k + 1].  For the stencil they are the
    offsets where `site[:, 1]` changes, one block per grid row.  With
    A = L Lᵀ factored block by block (Golub & Van Loan, Matrix
    Computations, 4.3 and 4.5), the block rows of L⁻¹ are formed top
    down in one n x n buffer and overwritten bottom up by those of
    A⁻¹ = L⁻ᵀ L⁻¹.  Only the blocks on and below the diagonal are
    computed and the rest is mirrored, so the result is exactly
    symmetric.  Raises ValueError for an entry outside the block
    pattern or an asymmetric matrix (LinAlgError, also a ValueError,
    when a pivot block is not positive definite).
    """
    a = np.asarray(a, dtype=float)
    bounds = np.asarray(bounds)
    n = bounds[-1]
    if a.shape != (n, n) or bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
        raise ValueError(
            f"expected increasing block bounds from 0 to the order of a square "
            f"matrix, got {bounds[0]}..{n} for shape {a.shape}"
        )
    spans = [slice(b, e) for b, e in zip(bounds[:-1], bounds[1:])]
    bands = [
        slice(bounds[max(k - 1, 0)], bounds[min(k + 2, len(spans))])
        for k in range(len(spans))
    ]
    inside = sum(np.count_nonzero(a[s, band]) for s, band in zip(spans, bands))
    if inside != np.count_nonzero(a):
        rows, cols = np.nonzero(a)
        gap = np.searchsorted(bounds, rows, "right") - np.searchsorted(bounds, cols, "right")
        first = np.argmax(np.abs(gap) > 1)
        raise ValueError(
            f"entry ({rows[first]}, {cols[first]}) lies outside the "
            f"block-tridiagonal pattern"
        )
    for s, band in zip(spans, bands):
        if not np.array_equal(a[s, band], a[band, s].T):
            raise ValueError("matrix is not symmetric")
    x = np.empty((n, n))
    # block row k of L⁻¹: L_k⁻¹ on the diagonal and, to its left,
    # -L_k⁻¹ C_{k-1} times block row k - 1
    inv_l = []  # L_k⁻¹
    below = []  # C_k = A[k+1, k] L_k⁻ᵀ, the block of L below L_k
    schur = a[spans[0], spans[0]]
    for k, s in enumerate(spans):
        inv_l.append(np.linalg.solve(np.linalg.cholesky(schur), np.eye(s.stop - s.start)))
        x[s, s] = inv_l[k]
        if k:
            x[s, : s.start] = -(inv_l[k] @ below[k - 1]) @ x[spans[k - 1], : s.start]
        if k + 1 < len(spans):
            below.append(a[spans[k + 1], s] @ inv_l[k].T)
            schur = a[spans[k + 1], spans[k + 1]] - below[k] @ below[k].T
    # block row k of A⁻¹ = L_k⁻ᵀ (row k of L⁻¹ - C_kᵀ row k + 1 of A⁻¹),
    # left of and on the diagonal: one product with both block rows
    s = spans[-1]
    x[s, :] = inv_l[-1].T @ x[s, :]
    for k in range(len(spans) - 2, -1, -1):
        s = spans[k]
        both = x[s.start : spans[k + 1].stop, : s.stop]
        x[s, : s.stop] = np.hstack([inv_l[k].T, -inv_l[k].T @ below[k].T]) @ both
    for s in spans:
        x[: s.start, s] = x[s, : s.start].T
        d = x[s, s]
        d[...] = np.tril(d) + np.tril(d, -1).T
    return x
