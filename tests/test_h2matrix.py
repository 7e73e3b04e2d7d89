import math
import re

import numpy as np
import pytest

from h2vec.basis import orthogonalize
from h2vec.h2matrix import (
    H2Matrix,
    build_block_tree,
    random_h2,
    sparsity_constant,
    to_dense,
)
from h2vec.instances import line_tree, random_basis, random_instance, random_iso_basis
from h2vec.matvec import build_plan
from h2vec.poisson import lshape_sites
from h2vec.tree import build_cluster_tree

from conftest import compress_dense


def recursive_block_tree(row_tree, col_tree, eta):
    """The block tree by recursive descent from the root pair, one
    admissibility test per pair: the oracle of build_block_tree.

    Returns the arrays row, col, parent, admissible and leaf, one
    entry per block in depth-first order.
    """
    blocks = []

    def diameter(tree, i):
        return float(np.linalg.norm(tree.box_max[i] - tree.box_min[i]))

    def box_distance(t, s):
        a_min, a_max = row_tree.box_min[t], row_tree.box_max[t]
        b_min, b_max = col_tree.box_min[s], col_tree.box_max[s]
        gap = np.maximum(0.0, np.maximum(a_min - b_max, b_min - a_max))
        return math.sqrt(gap.dot(gap))

    def descend(t, s, parent):
        idx = len(blocks)
        adm = max(diameter(row_tree, t), diameter(col_tree, s)) <= eta * box_distance(t, s)
        sons = [] if adm else [(t2, s2) for t2 in row_tree.sons(t) for s2 in col_tree.sons(s)]
        blocks.append((t, s, parent, adm, not sons))
        for t2, s2 in sons:
            descend(t2, s2, idx)

    descend(row_tree.root, col_tree.root, -1)
    return [np.array(column) for column in zip(*blocks)]


def block_labels_partition(bt):
    """Check that leaf blocks tile the index product exactly once."""
    nr, nc = bt.row_tree.n, bt.col_tree.n
    cover = np.zeros((nr, nc), dtype=int)
    for idx in bt.leaves():
        cover[bt.row_tree.positions(bt.row[idx]), bt.col_tree.positions(bt.col[idx])] += 1
    return np.all(cover == 1)


def test_single_point_trees_give_single_block():
    tree = line_tree(1, 1)
    bt = build_block_tree(tree, tree, 1.0)
    assert len(bt) == 1
    assert bt.leaf[0] and bt.parent[0] == -1


def _assert_matches_recursion(row_tree, col_tree, eta):
    bt = build_block_tree(row_tree, col_tree, eta)
    want = recursive_block_tree(row_tree, col_tree, eta)
    for name, column in zip(["row", "col", "parent", "admissible", "leaf"], want):
        assert np.array_equal(getattr(bt, name), column), name
    assert bt.leaves() == np.flatnonzero(want[4]).tolist()


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_block_tree_matches_recursive_descent(eta, dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        n = int(rng.integers(1, 300))
        points = rng.random((n, dim))
        tree = build_cluster_tree(points, int(rng.integers(1, 12)))
        _assert_matches_recursion(tree, tree, eta)
        # a column tree of the same shape on moved boxes
        other = build_cluster_tree(0.7 * points + 0.4, tree.leaf_size)
        _assert_matches_recursion(tree, other, eta)


@pytest.mark.parametrize("grid, leaf_size", [(16, 8), (32, 64)])
def test_block_tree_matches_recursive_descent_on_grid_points(grid, leaf_size):
    # at grid 16, eta 1 puts 82 pairs exactly on the admissibility bound
    tree = build_cluster_tree(lshape_sites(grid)[1], leaf_size)
    for eta in (0.5, 1.0, 2.0):
        _assert_matches_recursion(tree, tree, eta)


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
        assert tree.is_leaf(bt.row[idx]) and tree.is_leaf(bt.col[idx])
    assert block_labels_partition(bt)


@pytest.mark.parametrize("eta", [float("nan"), -1.0, float("inf"), -float("inf")])
def test_block_tree_rejects_a_bad_eta(eta):
    # a NaN or negative eta once gave 341 blocks, none admissible
    tree = line_tree(64, 4)
    with pytest.raises(ValueError, match=f"eta must be finite and non-negative, got {eta}"):
        build_block_tree(tree, tree, eta)


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
        for t, s in zip(bt.row.tolist(), bt.col.tolist()):
            rows[t] = rows.get(t, 0) + 1
            cols[s] = cols.get(s, 0) + 1
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
    assert np.max(np.abs(m1.coupling - m0.coupling)) <= 1e-12


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
    assert np.max(np.abs(m2.coupling - m1.coupling)) <= 1e-13


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
    assert np.array_equal(m1.coupling, m2.coupling)


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
    for idx, c in zip(bt.leaves(), m.coupling):
        t, s = int(bt.row[idx]), int(bt.col[idx])
        want = row.materialize(t) @ c @ col.materialize(s).T
        got = dense[tree.positions(t), tree.positions(s)]
        assert np.max(np.abs(got - want)) <= 1e-13


def test_random_h2_draws_one_matrix_per_leaf_block_in_order(rng):
    tree = line_tree(64, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    m = random_h2(bt, row, col, seed=7, scale=0.5)
    draws = np.random.default_rng(7)
    assert m.coupling.shape == (len(bt.leaves()), 2, 2)
    for c in m.coupling:
        assert np.array_equal(c, 0.5 * draws.uniform(-1.0, 1.0, size=(2, 2)))


def _instance_coupling():
    inst = random_instance(64, 3, 3, 1.0, 0)
    m = inst.matrix
    return inst, m.coupling.copy(), m.block_tree.leaves()


def _stack_refusal(count, got):
    """The refusal of a stack for count leaf blocks of rank 3, as a pattern."""
    return f"^{re.escape(f'expected a float64 coupling stack of shape {(count, 3, 3)} in leaf-block order, got {got}')}$"


@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_h2matrix_refuses_a_stack_of_another_length(change):
    # a missing coupling once failed inside build_plan with KeyError: 4
    inst, coupling, leaves = _instance_coupling()
    m, count = inst.matrix, len(leaves)
    stack = np.concatenate([coupling, coupling[:1]])[: count + change]
    with pytest.raises(ValueError, match=_stack_refusal(count, f"float64 array of shape {stack.shape}")):
        H2Matrix(m.block_tree, m.row_basis, m.col_basis, stack)


def test_h2matrix_refuses_a_coupling_of_another_shape():
    # a 2 x 3 coupling once failed with NumPy's "inhomogeneous shape" error
    inst, coupling, leaves = _instance_coupling()
    m, count = inst.matrix, len(leaves)
    for shape in ((count, 2, 2), (count, 3, 2), (count, 9)):
        with pytest.raises(ValueError, match=_stack_refusal(count, f"float64 array of shape {shape}")):
            H2Matrix(m.block_tree, m.row_basis, m.col_basis, np.zeros(shape))


@pytest.mark.parametrize("kind", ["dict", "list", "float32"])
def test_h2matrix_refuses_a_coupling_that_is_not_a_float64_array(kind):
    inst, coupling, leaves = _instance_coupling()
    m = inst.matrix
    given = {"dict": dict(zip(leaves, coupling)), "list": list(coupling), "float32": coupling.astype(np.float32)}[kind]
    got = f"float32 array of shape {coupling.shape}" if kind == "float32" else kind
    with pytest.raises(ValueError, match=_stack_refusal(len(leaves), got)):
        H2Matrix(m.block_tree, m.row_basis, m.col_basis, given)


def test_h2matrix_refuses_a_non_finite_coupling():
    # a NaN coupling was once accepted, and the product returned NaN
    inst, coupling, leaves = _instance_coupling()
    m = inst.matrix
    coupling[6, 1, 2] = np.inf
    coupling[4, 1, 2] = np.nan
    with pytest.raises(ValueError, match=f"^block {leaves[4]}: non-finite coupling matrix$"):
        H2Matrix(m.block_tree, m.row_basis, m.col_basis, coupling)


@pytest.mark.parametrize("side", ["row", "column"])
def test_h2matrix_refuses_a_basis_of_varying_rank(side):
    # the induced basis adds one slot per non-leaf block of a row
    inst, coupling, _ = _instance_coupling()
    m, ragged = inst.matrix, inst.plan.induced
    assert len(set(np.diff(ragged.ptr).tolist())) > 1
    bases = (ragged, m.col_basis) if side == "row" else (m.row_basis, ragged)
    with pytest.raises(ValueError, match=f"^{side} basis: an H2 matrix needs one rank at every cluster$"):
        H2Matrix(m.block_tree, *bases, coupling)
    # the product checks only the input basis
    with pytest.raises(ValueError, match="^input basis: the product needs one rank at every cluster$"):
        build_plan(m, ragged)


def test_h2matrix_checks_bases_then_shape_then_finiteness():
    inst, coupling, leaves = _instance_coupling()
    m = inst.matrix
    coupling[5, 0, 0] = np.inf
    coupling[2, 1, 1] = np.nan
    short = coupling[:-1]
    count = len(leaves)
    checks = [
        ((inst.plan.induced, m.col_basis, short), "^row basis: an H2 matrix needs one rank at every cluster$"),
        ((m.row_basis, m.col_basis, short), _stack_refusal(count, f"float64 array of shape {short.shape}")),
        ((m.row_basis, m.col_basis, coupling), f"^block {leaves[2]}: non-finite coupling matrix$"),
    ]
    for args, message in checks:
        with pytest.raises(ValueError, match=message):
            H2Matrix(m.block_tree, *args)
    coupling[5, 0, 0] = coupling[2, 1, 1] = 0.0
    assert H2Matrix(m.block_tree, m.row_basis, m.col_basis, coupling).coupling is coupling
