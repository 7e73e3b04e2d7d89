import numpy as np
import pytest

from h2vec.instances import line_tree, random_iso_basis


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def prefix_subtree(tree, level):
    """Subtree containing every cluster down to the given level."""
    from h2vec.tree import Subtree

    sub = Subtree(tree)
    frontier = [tree.root]
    while frontier:
        nxt = []
        for i in frontier:
            if tree.clusters[i].level < level and tree.sons(i):
                sub.expand(i)
                nxt.extend(tree.sons(i))
        frontier = nxt
    return sub


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
