import dataclasses

import numpy as np
import pytest

from h2vec.poisson import assemble_lshape, block_tridiagonal_inverse

from conftest import dense_stencil


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
    x = block_tridiagonal_inverse(prob.diagonal, prob.below)
    ref = np.linalg.inv(dense_stencil(prob))
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.array_equal(x, x.T)


def test_block_inverse_rejects_bad_input():
    prob = assemble_lshape(8)
    diagonal, below = prob.diagonal, prob.below
    skewed = [d.copy() for d in diagonal]
    skewed[2][0, 1] *= 2.0
    with pytest.raises(ValueError, match="diagonal block 2 is not symmetric"):
        block_tridiagonal_inverse(skewed, below)
    with pytest.raises(ValueError, match="1 below"):
        block_tridiagonal_inverse(diagonal[:3], below[:1])
    with pytest.raises(ValueError, match="0 diagonal"):
        block_tridiagonal_inverse([], [])
    with pytest.raises(ValueError, match=r"block below 2: expected shape \(3, 7\)"):
        block_tridiagonal_inverse(diagonal, [b.T for b in below])
    with pytest.raises(ValueError, match="diagonal block 0: expected a non-empty square"):
        block_tridiagonal_inverse([diagonal[0][:, 1:]] + diagonal[1:], below)
    with pytest.raises(ValueError, match="diagonal block 1: expected a non-empty square"):
        block_tridiagonal_inverse([np.eye(1), np.zeros((0, 0))], [np.zeros((0, 1))])
    with pytest.raises(np.linalg.LinAlgError):
        block_tridiagonal_inverse([-d for d in diagonal], below)
