import numpy as np
import pytest

from h2vec.poisson import assemble_lshape, block_tridiagonal_inverse


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
        assert prob.matrix.shape == (count, count)


def test_matrix_symmetric():
    prob = assemble_lshape(8)
    assert np.array_equal(prob.matrix, prob.matrix.T)


@pytest.mark.parametrize("grid", [8, 16, 32])
def test_positive_definite(grid):
    prob = assemble_lshape(grid)
    smallest = np.linalg.eigvalsh(prob.matrix)[0]
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


def row_bounds(prob):
    """Block offsets of the grid rows in the row-major numbering."""
    rows = prob.site[:, 1]
    return np.r_[0, np.flatnonzero(np.diff(rows)) + 1, len(rows)]


@pytest.mark.parametrize("grid", [8, 16, 32])
def test_block_inverse_matches_dense_inverse(grid):
    prob = assemble_lshape(grid)
    x = block_tridiagonal_inverse(prob.matrix, row_bounds(prob))
    ref = np.linalg.inv(prob.matrix)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.array_equal(x, x.T)


def test_block_inverse_rejects_entries_outside_the_pattern():
    prob = assemble_lshape(8)
    a = prob.matrix.copy()
    a[0, 20] = a[20, 0] = -1.0  # grid rows 1 and 3
    with pytest.raises(ValueError, match=r"entry \(0, 20\) lies outside"):
        block_tridiagonal_inverse(a, row_bounds(prob))


def test_block_inverse_rejects_bad_input():
    prob = assemble_lshape(8)
    bounds = row_bounds(prob)
    a = prob.matrix.copy()
    a[0, 1] *= 2.0
    with pytest.raises(ValueError, match="not symmetric"):
        block_tridiagonal_inverse(a, bounds)
    with pytest.raises(ValueError, match="block bounds"):
        block_tridiagonal_inverse(prob.matrix, bounds[:-1])
    with pytest.raises(ValueError, match="block bounds"):
        block_tridiagonal_inverse(prob.matrix, bounds[::-1])
    with pytest.raises(np.linalg.LinAlgError):
        block_tridiagonal_inverse(-prob.matrix, bounds)
