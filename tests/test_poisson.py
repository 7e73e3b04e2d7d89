import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from h2vec.poisson import (
    assemble_lshape,
    block_cholesky,
    block_solve,
    inverse_square_trace,
)

from conftest import dense_inverse, dense_stencil


def blocks_to_dense(prob):
    """The block-tridiagonal matrix that the problem's blocks describe."""
    bounds = np.cumsum([0] + [len(d) for d in prob.diagonal])
    spans = [slice(b, e) for b, e in zip(bounds[:-1], bounds[1:])]
    a = np.zeros((bounds[-1], bounds[-1]))
    for s, d in zip(spans, prob.diagonal):
        a[s, s] = d
    for s, t, b in zip(spans[:-1], spans[1:], prob.below):
        a[t, s] = b
        a[s, t] = b.T
    return a


def test_interior_count_by_enumeration():
    # direct enumeration: interior square points minus the closed quarter
    for grid in (4, 8, 16):
        half = grid // 2
        count = 0
        for j in range(1, grid):
            for i in range(1, grid):
                if not (i >= half and j >= half):
                    count += 1
        prob = assemble_lshape(grid)
        assert len(prob.points) == len(prob.site) == count
        assert sum(len(d) for d in prob.diagonal) == count


@pytest.mark.parametrize("grid", [4, 8, 16, 32])
def test_blocks_match_the_dense_stencil(grid):
    prob = assemble_lshape(grid)
    # one diagonal block per grid row, in row-major site order
    rows = np.unique(prob.site[:, 1], return_counts=True)[1]
    assert [len(d) for d in prob.diagonal] == rows.tolist()
    assert len(prob.below) == len(prob.diagonal) - 1
    assert np.array_equal(blocks_to_dense(prob), dense_stencil(prob))


def test_matrix_symmetric():
    prob = assemble_lshape(8)
    for d in prob.diagonal:
        assert np.array_equal(d, d.T)
    a = dense_stencil(prob)
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("grid", [8, 16, 32])
def test_positive_definite(grid):
    smallest = np.linalg.eigvalsh(dense_stencil(assemble_lshape(grid)))[0]
    assert smallest > 0.0


def test_rejects_bad_grid():
    with pytest.raises(ValueError):
        assemble_lshape(2)
    with pytest.raises(ValueError):
        assemble_lshape(7)


def test_points_inside_lshape():
    prob = assemble_lshape(16)
    for x, y in prob.points:
        assert 0.0 < x < 1.0 and 0.0 < y < 1.0
        assert not (x >= 0.5 and y >= 0.5)
    assert np.array_equal(prob.points, prob.site / 16)


def test_assembly_holds_no_array_of_n_squared_entries():
    prob = assemble_lshape(64)
    n = len(prob.points)
    arrays = []
    for f in dataclasses.fields(prob):
        value = getattr(prob, f.name)
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, list):
            arrays.extend(value)
    assert len(arrays) == 2 + 2 * 63 - 1
    assert all(isinstance(a, np.ndarray) and a.size < n * n for a in arrays)


@pytest.mark.parametrize("grid", [8, 16, 32])
def test_block_inverse_matches_dense_inverse(grid):
    prob = assemble_lshape(grid)
    x = dense_inverse(prob)
    ref = np.linalg.inv(dense_stencil(prob))
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(x - x.T) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("grid", [4, 8, 16, 32])
def test_block_solve_matches_the_dense_solve(grid):
    prob = assemble_lshape(grid)
    factor = block_cholesky(prob.diagonal, prob.below)
    a = dense_stencil(prob)
    b = np.random.default_rng(grid).standard_normal((len(a), 7))
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(block_solve(factor, b) - ref) <= 1e-14 * np.linalg.norm(ref)
    # one right-hand side as a vector, and the input left as it was
    kept = b.copy()
    one = block_solve(factor, b[:, 3])
    assert one.shape == (len(a),)
    assert np.linalg.norm(one - ref[:, 3]) <= 1e-14 * np.linalg.norm(ref[:, 3])
    assert np.array_equal(b, kept)


@pytest.mark.parametrize("shape", [(160,), (162, 2), (1, 161), ()])
def test_block_solve_rejects_a_right_hand_side_of_another_length(shape):
    prob = assemble_lshape(16)
    factor = block_cholesky(prob.diagonal, prob.below)
    with pytest.raises(ValueError, match="expected 161 right-hand side rows"):
        block_solve(factor, np.ones(shape))


@pytest.mark.parametrize("grid", [4, 8, 16])
def test_inverse_square_trace_matches_the_dense_inverse(grid):
    # grid - 1 rows: the pairing of rows ends with one alone
    prob = assemble_lshape(grid)
    assert len(prob.diagonal) % 2 == 1
    ref = np.linalg.inv(dense_stencil(prob))
    want = float(np.sum(ref * ref))
    got = inverse_square_trace(prob.diagonal, prob.below)
    assert abs(got - want) <= 1e-13 * want


def random_block_tridiagonal(sizes, seed):
    """Blocks of a symmetric positive definite block-tridiagonal
    matrix: random blocks below, diagonal blocks shifted past the
    Gershgorin bound of their block rows."""
    rng = np.random.default_rng(seed)
    below = [rng.standard_normal((m1, m0)) for m0, m1 in zip(sizes[:-1], sizes[1:])]
    diagonal = []
    for k, m in enumerate(sizes):
        r = rng.standard_normal((m, m))
        d = r @ r.T
        d = 0.5 * (d + d.T)
        reach = sum(np.abs(b).sum() for b in below[max(k - 1, 0) : k + 1])
        diagonal.append(d + (1.0 + reach) * np.eye(m))
    return diagonal, below


@pytest.mark.parametrize("sizes", [[3, 5, 2, 4], [4, 4, 4, 4, 4, 4], [3, 1, 2], [5], [2, 3]])
def test_inverse_square_trace_with_any_block_count(sizes):
    diagonal, below = random_block_tridiagonal(sizes, len(sizes))
    a = blocks_to_dense(SimpleNamespace(diagonal=diagonal, below=below))
    assert np.linalg.eigvalsh(a)[0] > 0.0
    ref = np.linalg.inv(a)
    want = float(np.sum(ref * ref))
    assert abs(inverse_square_trace(diagonal, below) - want) <= 1e-13 * want
    b = np.eye(len(a))[:, ::2]
    x = block_solve(block_cholesky(diagonal, below), b)
    assert np.linalg.norm(x - ref[:, ::2]) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("function", [block_cholesky, inverse_square_trace])
def test_block_cholesky_rejects_bad_input(function):
    prob = assemble_lshape(8)
    diagonal, below = prob.diagonal, prob.below
    skewed = [d.copy() for d in diagonal]
    skewed[2][0, 1] *= 2.0
    with pytest.raises(ValueError, match="diagonal block 2 is not symmetric"):
        function(skewed, below)
    with pytest.raises(ValueError, match="1 below"):
        function(diagonal[:3], below[:1])
    with pytest.raises(ValueError, match="0 diagonal"):
        function([], [])
    with pytest.raises(ValueError, match=r"block below 2: expected shape \(3, 7\)"):
        function(diagonal, [b.T for b in below])
    with pytest.raises(ValueError, match="diagonal block 0: expected a non-empty square"):
        function([diagonal[0][:, 1:]] + diagonal[1:], below)
    with pytest.raises(ValueError, match="diagonal block 1: expected a non-empty square"):
        function([np.eye(1), np.zeros((0, 0))], [np.zeros((0, 1))])


def test_block_cholesky_rejects_an_indefinite_pivot():
    prob = assemble_lshape(8)
    with pytest.raises(np.linalg.LinAlgError):
        block_cholesky([-d for d in prob.diagonal], prob.below)
