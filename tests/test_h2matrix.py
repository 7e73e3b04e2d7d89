import numpy as np
import pytest

from h2vec import textio
from h2vec.basis import orthogonalize
from h2vec.h2matrix import (
    build_block_tree,
    compress_dense,
    random_h2,
    sparsity_constant,
    to_dense,
)
from h2vec.instances import line_tree, random_basis, random_iso_basis
from h2vec.tree import build_cluster_tree


def block_labels_partition(bt):
    """Check that leaf blocks tile the index product exactly once."""
    nr, nc = bt.row_tree.n, bt.col_tree.n
    cover = np.zeros((nr, nc), dtype=int)
    for idx in bt.leaves():
        b = bt.blocks[idx]
        cover[bt.row_tree.positions(b.row), bt.col_tree.positions(b.col)] += 1
    return np.all(cover == 1)


def test_single_point_trees_give_single_block():
    tree = line_tree(1, 1)
    bt = build_block_tree(tree, tree, 1.0)
    assert len(bt.blocks) == 1
    assert bt.blocks[0].is_leaf


def test_block_tree_partitions_product():
    tree = line_tree(8, 1)
    bt = build_block_tree(tree, tree, 1.0)
    assert block_labels_partition(bt)


def test_eta_zero_gives_leaf_pairs_only():
    tree = line_tree(8, 2)
    bt = build_block_tree(tree, tree, 0.0)
    leaves = bt.leaves()
    assert len(leaves) == len(tree.leaves()) ** 2
    for idx in leaves:
        b = bt.blocks[idx]
        assert tree.is_leaf(b.row) and tree.is_leaf(b.col)
    assert block_labels_partition(bt)


def test_depth_mismatch_rejected():
    a = line_tree(8, 2)
    b = line_tree(8, 1)
    with pytest.raises(ValueError):
        build_block_tree(a, b, 1.0)


def test_sparsity_single_block():
    tree = line_tree(1, 1)
    bt = build_block_tree(tree, tree, 1.0)
    assert sparsity_constant(bt) == 1


def test_sparsity_direct_count():
    tree = line_tree(32, 2)
    for eta in (0.0, 1.0, 2.0):
        bt = build_block_tree(tree, tree, eta)
        rows = {}
        cols = {}
        for b in bt.blocks:
            rows[b.row] = rows.get(b.row, 0) + 1
            cols[b.col] = cols.get(b.col, 0) + 1
        want = max(max(rows.values()), max(cols.values()))
        assert sparsity_constant(bt) == want


def test_eta_zero_worst_case_sparsity():
    tree = line_tree(16, 2)
    bt = build_block_tree(tree, tree, 0.0)
    # with admissibility never firing, a deepest-level cluster pairs with
    # every leaf of the other tree
    assert sparsity_constant(bt) == len(tree.leaves())


def test_sparsity_bounded_in_problem_size():
    csps = []
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        tree = line_tree(n, 2)
        csps.append(sparsity_constant(build_block_tree(tree, tree, 1.0)))
    # bounded independently of n after warm-up sizes
    assert max(csps[2:]) <= csps[1] + 1
    assert csps[-1] <= csps[-2] + 1


def test_sparsity_bounded_2d():
    rng = np.random.default_rng(0)
    csps = []
    # one of the draws needs a larger leaf to keep all leaves on one level
    with pytest.warns(UserWarning, match="leaf_size raised from 16 to 17"):
        for n in (256, 1024, 4096):
            pts = rng.random((n, 2))
            tree = build_cluster_tree(pts, 16)
            csps.append(sparsity_constant(build_block_tree(tree, tree, 1.0)))
    assert csps[-1] <= 2 * csps[0]


def test_compress_representable_matrix(rng):
    tree = line_tree(32, 4)
    row = random_iso_basis(tree, 3, rng)
    col = random_iso_basis(tree, 3, rng)
    bt = build_block_tree(tree, tree, 1.0)
    m0 = random_h2(bt, row, col, seed=5)
    a = to_dense(m0)
    m1, err, _ = compress_dense(a, row, col, bt)
    assert err <= 1e-12 * np.linalg.norm(a)
    for idx in bt.leaves():
        assert np.max(np.abs(m1.coupling[idx] - m0.coupling[idx])) <= 1e-12


def test_compress_identity_with_square_leaves(rng, square_leaf_iso):
    tree = square_leaf_iso.tree
    bt = build_block_tree(tree, tree, 0.0)  # inadmissible-only leaf pairs
    a = np.eye(tree.n)
    _, err, _ = compress_dense(a, square_leaf_iso, square_leaf_iso, bt)
    assert err <= 1e-12 * np.linalg.norm(a)


def test_compress_smooth_kernel_improves_with_degree():
    from h2vec.basis import polynomial_basis

    pts = np.linspace(0.0, 1.0, 128)
    tree = build_cluster_tree(pts, 16)
    x = pts[tree.perm]
    a = 1.0 / (1.0 + np.subtract.outer(x, x) ** 2)
    bt = build_block_tree(tree, tree, 1.0)
    errors = []
    for degree in (1, 2, 3, 4):
        iso, _ = orthogonalize(polynomial_basis(tree, pts, degree))
        errors.append(compress_dense(a, iso, iso, bt)[1])
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


def test_compress_is_projection(rng):
    tree = line_tree(32, 4)
    row = random_iso_basis(tree, 2, rng)
    col = random_iso_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    a = rng.standard_normal((32, 32))
    m1, _, _ = compress_dense(a, row, col, bt)
    m2, err2, _ = compress_dense(to_dense(m1), row, col, bt)
    assert err2 <= 1e-12 * np.linalg.norm(a)
    for idx in bt.leaves():
        assert np.max(np.abs(m2.coupling[idx] - m1.coupling[idx])) <= 1e-13


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_compress_returns_the_expansion_and_its_error(rng, eta):
    tree = line_tree(48, 4)
    row = random_iso_basis(tree, 3, rng)
    col = random_iso_basis(tree, 3, rng)
    bt = build_block_tree(tree, tree, eta)
    a = rng.standard_normal((48, 48))
    m, err, expansion = compress_dense(a, row, col, bt)
    assert np.array_equal(expansion, to_dense(m))
    ref = np.linalg.norm(a - to_dense(m))
    assert abs(err - ref) <= 1e-12 * ref


def test_compress_requires_isometric(rng):
    tree = line_tree(16, 4)
    basis = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    with pytest.raises(ValueError):
        compress_dense(np.zeros((16, 16)), basis, basis, bt)


def test_random_h2_deterministic(rng):
    tree = line_tree(16, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    m1 = random_h2(bt, row, col, seed=42)
    m2 = random_h2(bt, row, col, seed=42)
    for idx in bt.leaves():
        assert np.array_equal(m1.coupling[idx], m2.coupling[idx])


def test_random_h2_zero_scale(rng):
    tree = line_tree(16, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    m = random_h2(bt, row, col, seed=0, scale=0.0)
    assert np.max(np.abs(to_dense(m))) == 0.0


def test_to_dense_matches_blockwise(rng):
    tree = line_tree(32, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    m = random_h2(bt, row, col, seed=3)
    dense = to_dense(m)
    for idx in bt.leaves():
        b = bt.blocks[idx]
        want = (
            row.materialize(b.row) @ m.coupling[idx] @ col.materialize(b.col).T
        )
        got = dense[tree.positions(b.row), tree.positions(b.col)]
        assert np.max(np.abs(got - want)) <= 1e-13


def test_h2_dump_roundtrip(rng):
    tree = line_tree(16, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    m = random_h2(bt, row, col, seed=17)
    text = textio.dump_h2matrix(m)
    back = textio.load_h2matrix(text, row, col)
    assert textio.dump_h2matrix(back) == text
    assert np.max(np.abs(to_dense(back) - to_dense(m))) == 0.0
