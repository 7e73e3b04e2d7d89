import math

import numpy as np
import pytest

from h2vec.h2matrix import H2Matrix
from h2vec.instances import line_tree, random_iso_basis
from h2vec.tree import Subtree


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def prefix_subtree(tree, level):
    """Subtree containing every cluster down to the given level."""
    return Subtree.from_interior(tree, tree.has_sons & (tree.level < level))


def leaf_ranges_tile(tree, leaves):
    """Whether the position ranges of the given clusters tile [0, n)."""
    ranges = sorted(zip(tree.begin[leaves].tolist(), (tree.begin + tree.sizes)[leaves].tolist()))
    ends = [0] + [e for _, e in ranges]
    return [b for b, _ in ranges] == ends[:-1] and ends[-1] == tree.n


def dense_stencil(problem):
    """The problem's 5-point stencil as a dense matrix, built only from
    its grid sites: 4/h^2 on the diagonal and -1/h^2 between sites one
    step apart."""
    h = 1.0 / problem.grid
    inv_h2 = 1.0 / (h * h)
    sites = [tuple(ij) for ij in problem.site.tolist()]
    number = {ij: p for p, ij in enumerate(sites)}
    a = np.zeros((len(sites), len(sites)))
    for p, (i, j) in enumerate(sites):
        a[p, p] = 4.0 * inv_h2
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = number.get((i + di, j + dj))
            if q is not None:
                a[p, q] = -inv_h2
    return a


def dense_inverse(problem):
    """The inverse of the problem's stencil as one dense array: the
    block solve of the identity, an oracle for tests only."""
    from h2vec.poisson import block_cholesky, block_solve

    factor = block_cholesky(problem.diagonal, problem.below)
    return block_solve(factor, np.eye(len(problem.points)))


def compress_dense(a, row_basis, col_basis, bt):
    """Project a dense matrix (tree position order) onto the H2 format,
    one leaf block at a time: the oracle of the demo's couplings.

    Coupling matrices are the two-sided orthogonal projections of the
    leaf blocks.  Returns (matrix, error, expansion): the expansion is
    the matrix's dense form, equal to `to_dense(matrix)`, filled block
    by block, and the error is the Frobenius norm of its difference
    with the input, summed up over the blocks.
    """
    if not (row_basis.isometric and col_basis.isometric):
        raise ValueError("compression requires isometric bases")
    a = np.asarray(a, dtype=float)
    shape = (bt.row_tree.n, bt.col_tree.n)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    leaves = bt.leaves()
    coupling = np.empty((len(leaves), row_basis.rank, col_basis.rank))
    expansion = np.zeros(shape)
    sumsq = 0.0
    for c, t, s in zip(coupling, bt.row[leaves].tolist(), bt.col[leaves].tolist()):
        rows, cols = bt.row_tree.positions(t), bt.col_tree.positions(s)
        v, w = row_basis.materialize(t), col_basis.materialize(s)
        block = a[rows, cols]
        c[...] = v.T @ (block @ w)
        # the same products as to_dense, so the expansions agree exactly
        expanded = v @ c @ w.T
        expansion[rows, cols] = expanded
        diff = (block - expanded).ravel()
        sumsq += float(diff @ diff)
    return H2Matrix(bt, row_basis, col_basis, coupling), math.sqrt(sumsq), expansion


def dense_columns(basis, i):
    return basis.materialize(i)


@pytest.fixture
def small_iso(rng):
    """Isometric rank-3 basis over 32 line points (leaves of size 4)."""
    tree = line_tree(32, 4)
    return random_iso_basis(tree, 3, rng)


@pytest.fixture
def square_leaf_iso(rng):
    """Isometric rank-3 basis with exactly rank-sized leaves (n = 3*2^4)."""
    tree = line_tree(48, 3)
    return random_iso_basis(tree, 3, rng)
