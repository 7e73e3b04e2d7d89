import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basis_reference
from conftest import merge_sons
from h2vec import kernels
from h2vec.basis import (
    ISOMETRY_TOL,
    BatchLastGroup,
    ClusterBasis,
    _check_family,
    coarsening_factors,
    cross_gram_family,
    gram_family,
    nested_orthogonalize,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from h2vec.convert import CoordinateMap
from h2vec.demo import PoissonDemo
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_instance,
    random_iso_basis,
    random_tree,
)
from h2vec.hvector import to_dense
from h2vec.poisson import lshape_sites
from h2vec.tree import build_cluster_tree


def legendre_columns(tree, points, i, degree):
    """Products P_a(x) P_b(y) of Legendre polynomials scaled to cluster
    i's box, at its points in the plane, for a, b = 0..degree, with a
    varying slowest."""
    low, high = tree.box_min[i], tree.box_max[i]
    x, y = ((2.0 * points[tree.indices(i)] - low - high) / (high - low)).T
    p = [np.polynomial.Legendre.basis(a) for a in range(degree + 1)]
    return np.column_stack([pa(x) * pb(y) for pa in p for pb in p])


def nestedness_defect(basis):
    tree = basis.tree
    worst = 0.0
    for i in range(len(tree.clusters)):
        full = basis.materialize(i)
        offset = 0
        for s in tree.sons(i):
            rows = tree.sizes[s]
            lhs = full[offset : offset + rows]
            rhs = basis.materialize(s) @ basis.transfer[s]
            scale = max(1.0, np.max(np.abs(full)))
            worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
            offset += rows
    return worst


def test_constant_basis_is_trivially_nested():
    tree = line_tree(8, 2)
    b = polynomial_basis(tree, np.linspace(0, 1, 8), 0)
    assert b.rank == 1
    for i in tree.leaves():
        assert np.allclose(b.leaf_matrix[i], 1.0)
    for i in b.transfer:
        assert np.allclose(b.transfer[i], 1.0)
    assert nestedness_defect(b) <= 1e-14


def test_linear_basis_nested_1d():
    tree = line_tree(8, 2)
    b = polynomial_basis(tree, np.linspace(0, 1, 8), 1)
    assert b.rank == 2
    assert nestedness_defect(b) <= 1e-12


def test_bicubic_rank_sixteen():
    rng = np.random.default_rng(0)
    pts = rng.random((256, 2))
    tree = build_cluster_tree(pts, 80)
    b = polynomial_basis(tree, pts, 3)
    assert b.rank == 16


def test_polynomial_basis_rejects_small_leaves():
    tree = line_tree(8, 2)
    with pytest.raises(ValueError, match="cluster"):
        polynomial_basis(tree, np.linspace(0, 1, 8), 2)  # rank 3 > leaf size 2


def test_polynomial_basis_uses_cluster_points():
    # leaves of a random 2D cloud; nestedness must hold on the permuted order
    rng = np.random.default_rng(5)
    pts = rng.random((64, 2))
    tree = build_cluster_tree(pts, 24)
    b = polynomial_basis(tree, pts, 1)
    assert nestedness_defect(b) <= 1e-11


@pytest.mark.parametrize(
    "points",
    [
        np.linspace(0, 1, 40),  # more points than the tree's indices
        np.linspace(0, 1, 16),  # fewer
        np.zeros((32, 2)),  # 2-D points on a tree on a line
        np.r_[np.linspace(0, 1, 31), np.nan],
        np.r_[np.linspace(0, 1, 31), np.inf],
    ],
)
def test_polynomial_basis_rejects_points_that_do_not_fit_the_tree(points):
    tree = line_tree(32, 4)
    with pytest.raises(ValueError, match="expected 32 finite points of dimension 1"):
        polynomial_basis(tree, points, 1)


@pytest.mark.parametrize("degree", [-1, 1.5, 2.0, True, False, "2", None])
def test_polynomial_basis_refuses_a_degree_that_is_not_a_non_negative_integer(degree):
    tree = line_tree(32, 8)
    with pytest.raises(ValueError, match=f"^degree must be an integer of at least 0, got {re.escape(repr(degree))}$"):
        polynomial_basis(tree, np.linspace(0, 1, 32), degree)


def test_polynomial_basis_takes_a_numpy_integer_degree():
    tree = line_tree(32, 8)
    points = np.linspace(0, 1, 32)
    want = polynomial_basis(tree, points, 2)
    got = polynomial_basis(tree, points, np.int64(2))
    assert got.rank == 3
    assert np.array_equal(got.leaf_matrix.store, want.leaf_matrix.store)
    assert np.array_equal(got.transfer.store, want.transfer.store)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_transfers_match_least_squares(degree):
    # the closed-form transfers solve the nestedness relation that a
    # least-squares fit over each son's points recovers
    rng = np.random.default_rng(degree)
    pts = rng.random((400, 2))
    tree = build_cluster_tree(pts, 64)
    b = polynomial_basis(tree, pts, degree)
    for i in range(len(tree)):
        offset = 0
        full = legendre_columns(tree, pts, i, degree)
        for s in tree.sons(i):
            son = legendre_columns(tree, pts, s, degree)
            want = full[offset : offset + len(son)]
            offset += len(son)
            e = np.linalg.lstsq(son, want, rcond=None)[0]
            assert np.max(np.abs(b.transfer[s] - e)) <= 1e-12
    assert nestedness_defect(b) <= 1e-12


def test_orthogonalize_identity_change_for_isometric(rng):
    tree = line_tree(32, 4)
    iso = random_iso_basis(tree, 3, rng)
    iso2, change = orthogonalize(iso)
    for i in change:
        assert np.max(np.abs(change[i] - np.eye(3))) <= 1e-12


def test_orthogonalize_constant_column():
    tree = line_tree(4, 4)  # single root leaf of size 4
    b = polynomial_basis(tree, np.linspace(0, 1, 4), 0)
    iso, change = orthogonalize(b)
    assert np.allclose(iso.leaf_matrix[0], 0.5)
    assert np.allclose(change[0], [[2.0]])


def test_orthogonalize_reconstruction(rng):
    tree = line_tree(32, 4)
    b = random_basis(tree, 3, rng)
    iso, change = orthogonalize(b)
    assert iso.isometric
    for i in range(len(tree.clusters)):
        v = b.materialize(i)
        q = iso.materialize(i)
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-12
        scale = max(1.0, np.max(np.abs(v)))
        assert np.max(np.abs(q @ change[i] - v)) <= 1e-12 * scale
    # change is the coordinate family that carries vectors over b to iso
    _check_family(change, "coordinates", b, iso)
    x = random_hvector(b, rng, steps=3)
    y = CoordinateMap(change)(x)
    assert y.basis is iso
    want = to_dense(x)
    assert np.max(np.abs(to_dense(y) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_orthogonalize_rejects_rank_deficient():
    tree = line_tree(8, 4)
    b = random_basis(tree, 2, np.random.default_rng(0))
    first = tree.leaves()[0]
    b.leaf_matrix[first][:, 1] = b.leaf_matrix[first][:, 0]
    with pytest.raises(ValueError, match="rank"):
        orthogonalize(b)


def test_gram_identity_for_isometric(rng):
    tree = line_tree(32, 4)
    iso = random_iso_basis(tree, 3, rng)
    gram = gram_family(iso)
    for i, g in gram.items():
        assert np.max(np.abs(g - np.eye(3))) <= 1e-12


def test_gram_constant_leaf():
    tree = line_tree(2, 2)
    b = polynomial_basis(tree, np.array([0.0, 1.0]), 0)
    gram = gram_family(b)
    assert np.allclose(gram[0], [[2.0]])


def test_gram_matches_dense(rng):
    tree = line_tree(32, 4)
    b = random_basis(tree, 3, rng)
    gram = gram_family(b)
    for i in range(len(tree.clusters)):
        v = b.materialize(i)
        scale = max(1.0, np.max(np.abs(v.T @ v)))
        assert np.max(np.abs(gram[i] - v.T @ v)) <= 1e-12 * scale


def test_cross_gram_same_basis(rng):
    tree = line_tree(32, 4)
    iso = random_iso_basis(tree, 3, rng)
    cross = cross_gram_family(iso, iso)
    for i, d in cross.items():
        assert np.max(np.abs(d - np.eye(3))) <= 1e-12


def test_cross_gram_constants():
    tree = line_tree(2, 2)
    b = polynomial_basis(tree, np.array([0.0, 1.0]), 0)
    assert np.allclose(cross_gram_family(b, b)[0], [[2.0]])
    iso, _ = orthogonalize(b)
    assert np.allclose(cross_gram_family(iso, iso)[0], [[1.0]])


def test_cross_gram_matches_dense(rng):
    tree = line_tree(32, 4)
    left = random_basis(tree, 2, rng)
    right = random_iso_basis(tree, 3, rng)
    cross = cross_gram_family(left, right)
    for i in range(len(tree.clusters)):
        dense = left.materialize(i).T @ right.materialize(i)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(cross[i] - dense)) <= 1e-12 * scale


def test_cross_gram_rejects_tree_mismatch(rng):
    a = random_basis(line_tree(8, 2), 2, rng)
    b = random_basis(line_tree(8, 2), 2, rng)
    with pytest.raises(ValueError):
        cross_gram_family(a, b)


def test_coarsening_factors_analytic_rank_one():
    # two sons with transfers [1/sqrt(2)] each: merging coefficients (a, b)
    # keeps (a+b)/sqrt(2) and loses |a-b|/sqrt(2)
    tree = line_tree(2, 1)
    s = 1.0 / np.sqrt(2.0)
    leaf_matrix = {i: np.ones((1, 1)) for i in tree.leaves()}
    transfer = {i: np.array([[s]]) for i in tree.leaves()}
    iso = basis_reference.mapping_basis(tree, leaf_matrix, transfer, isometric=True)
    factors = coarsening_factors(iso)
    merged, error, _ = merge_sons(iso, tree.root, [[1.0], [-1.0]], factors)
    assert abs(abs(merged[0]) - 0.0) <= 1e-14  # merged coefficient (1-1)/sqrt2
    assert abs(error - np.sqrt(2.0)) <= 1e-14
    merged, error, _ = merge_sons(iso, tree.root, [[1.0], [1.0]], factors)
    assert abs(merged[0] - np.sqrt(2.0)) <= 1e-14
    assert error <= 1e-14


def test_coarsening_factors_zero_error_in_range(rng, small_iso):
    factors = coarsening_factors(small_iso)
    tree = small_iso.tree
    i = tree.root
    y = rng.standard_normal(3)
    coeffs = [small_iso.transfer[s] @ y for s in tree.sons(i)]
    _, error, _ = merge_sons(small_iso, i, coeffs, factors)
    assert error <= 1e-13 * max(1.0, np.linalg.norm(y))


@pytest.mark.parametrize("seed", range(25))
def test_coarsening_error_matches_dense(seed):
    rng = np.random.default_rng(seed)
    tree = line_tree(int(rng.choice([16, 32, 64])), 4)
    k = int(rng.integers(1, 4))
    iso = random_iso_basis(tree, k, rng)
    factors = coarsening_factors(iso)
    interior = [i for i in range(len(tree.clusters)) if tree.sons(i)]
    i = interior[rng.integers(len(interior))]
    sons = tree.sons(i)
    coeffs = [rng.standard_normal(k) for _ in sons]
    dense = np.concatenate([iso.materialize(s) @ c for s, c in zip(sons, coeffs)])
    q = iso.materialize(i)
    truth = np.linalg.norm(dense - q @ (q.T @ dense))
    _, got, _ = merge_sons(iso, i, coeffs, factors)
    assert abs(got - truth) <= 1e-11 * max(1.0, truth)


@pytest.mark.parametrize("kind", ["uniform", "nested"])
def test_coarsening_factors_are_the_stacked_son_transfers(rng, kind):
    if kind == "uniform":
        iso = random_iso_basis(line_tree(64, 4), 3, rng)
    else:
        # nested ranks vary from level to level and within one
        iso = nested_orthogonalize(random_instance(64, 3, 2, 1.0, 5).plan.induced)[0]
        assert len(set(np.diff(iso.ptr).tolist())) > 2
    tree = iso.tree
    factors = coarsening_factors(iso)
    interior = np.flatnonzero(tree.has_sons).tolist()
    assert sorted(factors) == interior
    for i in interior:
        assert np.array_equal(factors[i], np.vstack([iso.transfer[s] for s in tree.sons(i)]))


def test_a_merge_is_charged_two_stacked_products(rng):
    iso = nested_orthogonalize(random_instance(64, 3, 2, 1.0, 5).plan.induced)[0]
    factors = coarsening_factors(iso)
    for i in np.flatnonzero(iso.tree.has_sons).tolist():
        coeffs = [rng.standard_normal(iso.rank_of(s)) for s in iso.tree.sons(i)]
        with kernels.count_flops() as counter:
            merge_sons(iso, i, coeffs, factors)
        m = sum(len(c) for c in coeffs)
        assert counter.total == 2 * m * iso.rank_of(i)


def test_coarsening_factors_require_isometric(rng):
    b = random_basis(line_tree(16, 4), 2, rng)
    with pytest.raises(ValueError):
        coarsening_factors(b)


def test_projection_factors_zero_for_same_basis(rng, small_iso):
    z = projection_factors(small_iso, small_iso)
    for i, f in z.items():
        assert np.max(np.abs(f[small_iso.rank_of(i) :])) <= 1e-13


def test_projection_factors_zero_for_same_range(rng):
    tree = line_tree(32, 4)
    b = random_basis(tree, 3, rng)
    iso, _ = orthogonalize(b)
    z = projection_factors(b, iso)
    for i, f in z.items():
        scale = max(1.0, np.max(np.abs(b.materialize(i))))
        assert np.max(np.abs(f[iso.rank_of(i) :])) <= 1e-11 * scale


@pytest.mark.parametrize("seed", range(25))
def test_projection_error_matches_dense_every_cluster(seed):
    rng = np.random.default_rng(seed)
    tree = line_tree(int(rng.choice([16, 32])), 4)
    kv = int(rng.integers(1, 4))
    kq = int(rng.integers(1, 4))
    source = random_basis(tree, kv, rng)
    target = random_iso_basis(tree, kq, rng)
    factors = projection_factors(source, target)
    for i in range(len(tree.clusters)):
        xhat = rng.standard_normal(kv)
        v = source.materialize(i) @ xhat
        q = target.materialize(i)
        truth = np.linalg.norm(v - q @ (q.T @ v))
        r = target.rank_of(i)
        got = np.linalg.norm(factors[i][r:] @ xhat)
        assert abs(got - truth) <= 1e-11 * max(1.0, truth)
        dense_cross = q.T @ source.materialize(i)
        scale = max(1.0, np.max(np.abs(dense_cross)))
        assert np.max(np.abs(factors[i][:r] - dense_cross)) <= 1e-11 * scale
    assert_whole_factors(factors, source, target)


def assert_whole_factors(factors, source, target):
    """At every cluster i, f = factors[i] keeps the source Gram matrix,
    f^T f = V^T V, relative to its largest entry, and its leading rows
    are the cross-Gram family's Q^T V, relative to the square root of
    that entry, V's largest column norm."""
    cross = cross_gram_family(target, source)
    for i, f in factors.items():
        v = source.materialize(i)
        gram = v.T @ v
        scale = np.max(np.abs(gram))
        assert np.max(np.abs(f.T @ f - gram)) <= 1e-11 * scale
        lead = f[: target.rank_of(i)]
        assert np.max(np.abs(lead - cross[i]), initial=0.0) <= 1e-12 * np.sqrt(scale)


def test_projection_z_is_upper_triangular(rng, small_iso):
    source = random_basis(small_iso.tree, 4, rng)
    factors = projection_factors(source, small_iso)
    for i, f in factors.items():
        assert np.max(np.abs(np.tril(f[small_iso.rank_of(i) :], -1))) == 0.0


def residual_rows(tree, source, target, i, z_rows):
    """Rows of cluster i's Z, min(m_i, r_s) for the m_i rows of the
    projection residual it condenses, by recursion over the sons; sets
    z_rows for i and every cluster below it."""
    sons = tree.sons(i)
    if sons:
        rows = sum(residual_rows(tree, source, target, s, z_rows) + target.rank_of(s) for s in sons)
    else:
        rows = tree.sizes[i]
    m = rows - target.rank_of(i)
    z_rows[i] = min(m, source.rank_of(i))
    return z_rows[i]


def induced_pair(n, ka, leaf_size, seed):
    """Source and target of a random instance's conversion: the induced
    basis of its product plan, with varying ranks, and its input basis."""
    inst = random_instance(n, 3, ka, 1.0, seed, leaf_size=leaf_size)
    return inst.plan.induced, inst.input_basis


def legendre_pair(grid, leaf_size):
    """Uniform ranks: isometric Legendre bases of degree 2 (source,
    rank 9) and 3 (target, rank 16) on the L-shape's grid points."""
    points = lshape_sites(grid)[1]
    tree = build_cluster_tree(points, leaf_size)
    return tuple(orthogonalize(polynomial_basis(tree, points, d))[0] for d in (2, 3))


INDUCED_CASES = [(128, 3, None, 0), (128, 3, None, 1), (128, 3, None, 2), (96, 2, 3, 1), (96, 2, 3, 2)]


@pytest.mark.parametrize(
    "pair, args, seed",
    [pytest.param(induced_pair, a, a[3], id="-".join(map(str, a))) for a in INDUCED_CASES]
    + [pytest.param(legendre_pair, (32, 64), 0, id="lshape-32-64")],
)
def test_projection_z_has_the_residual_rows(pair, args, seed):
    source, target = pair(*args)
    tree = source.tree
    factors = projection_factors(source, target)
    z_rows = {}
    residual_rows(tree, source, target, tree.root, z_rows)
    if pair is induced_pair:
        # these cases trim Z below the source rank, and the rank-sized
        # leaves leave no residual at all
        assert sum(z_rows[i] < source.rank_of(i) for i in z_rows) > len(tree) // 2
        if args[2] == 3:
            assert all(z_rows[i] == 0 for i in tree.leaves())
    rng = np.random.default_rng(seed)
    for i, f in factors.items():
        z = f[target.rank_of(i) :]
        assert z.shape == (z_rows[i], source.rank_of(i))
        assert np.max(np.abs(np.tril(z, -1)), initial=0.0) == 0.0
        xhat = rng.standard_normal(source.rank_of(i))
        v = source.materialize(i) @ xhat
        q = target.materialize(i)
        truth = np.linalg.norm(v - q @ (q.T @ v))
        assert abs(np.linalg.norm(z @ xhat) - truth) <= 1e-11 * max(1.0, truth)
    assert_whole_factors(factors, source, target)


def test_materialize_leaf_verbatim(rng):
    tree = line_tree(16, 4)
    b = random_basis(tree, 2, rng)
    leaf = tree.leaves()[0]
    assert b.materialize(leaf) is b.leaf_matrix[leaf]


def test_materialize_constant_root():
    tree = line_tree(8, 2)
    b = polynomial_basis(tree, np.linspace(0, 1, 8), 0)
    assert np.allclose(b.materialize(tree.root), np.ones((8, 1)))


@pytest.mark.parametrize("seed", range(10))
def test_random_nested_bases_stay_nested(seed):
    rng = np.random.default_rng(seed)
    tree = line_tree(int(rng.choice([8, 16, 32])), int(rng.integers(2, 6)))
    k = int(rng.integers(1, 4))
    if tree.sizes[~tree.has_sons].min() < k:
        pytest.skip("leaves too small for this rank draw")
    b = random_basis(tree, k, rng)
    assert nestedness_defect(b) <= 1e-12


def test_projection_factor_cost_scales_with_tree_size():
    # construction cost per cluster stays bounded as the tree grows
    rng = np.random.default_rng(7)
    costs = []
    for n in (64, 128, 256, 512):
        tree = line_tree(n, 4)
        source = random_basis(tree, 3, rng)
        target = random_iso_basis(tree, 3, rng)
        with kernels.count_flops() as counter:
            projection_factors(source, target)
        costs.append(counter.total / len(tree.clusters))
    assert max(costs) <= 2.0 * min(costs)


def _stores(basis):
    """A basis's ranks, leaf store and transfer store, in cluster order."""
    stores = (basis.leaf_matrix, basis.transfer)
    return (np.diff(basis.ptr), *(np.concatenate([m.ravel() for m in s.values()]) for s in stores))


def test_isometric_flag_is_checked():
    # a non-isometric basis flagged isometric would let coarsen_pass
    # report a bound below the true error
    tree = random_instance(64, 2, 2, 1.0, 0).tree
    b = random_basis(tree, 2, np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"cluster \d+: basis flagged isometric"):
        ClusterBasis(tree, *_stores(b), isometric=True)
    iso, _ = orthogonalize(b)
    again = basis_reference.mapping_basis(tree, iso.leaf_matrix, iso.transfer, isometric=True)
    assert all(np.array_equal(again.transfer[s], e) for s, e in iso.transfer.items())


def test_isometric_check_names_a_bad_leaf(rng):
    iso = random_iso_basis(line_tree(16, 4), 2, rng)
    leaf = iso.tree.leaves()[1]
    leaf_matrix = {**iso.leaf_matrix, leaf: 2.0 * iso.leaf_matrix[leaf]}
    with pytest.raises(ValueError, match=f"cluster {leaf}:"):
        basis_reference.mapping_basis(iso.tree, leaf_matrix, iso.transfer, isometric=True)


def test_transfer_shape_mismatch_names_the_cluster(rng):
    # ranks that do not fit the tree or the stores; a store that ends
    # early names the first cluster whose matrix it cuts
    b = random_basis(line_tree(16, 4), 2, rng)
    tree, (rank, leaves, transfers) = b.tree, _stores(b)
    assert len(tree) == 7
    with pytest.raises(ValueError, match="^expected 7 integer ranks, got int64 of shape \\(6,\\)$"):
        ClusterBasis(tree, rank[:-1], leaves, transfers)
    with pytest.raises(ValueError, match="^expected 7 integer ranks, got float64 of shape \\(7,\\)$"):
        ClusterBasis(tree, rank * 1.0, leaves, transfers)
    zero = rank.copy()
    zero[3] = 0
    with pytest.raises(ValueError, match="^cluster 3: rank 0 is not positive$"):
        ClusterBasis(tree, zero, leaves, transfers)
    last = tree.leaves()[-1]
    wide = rank.copy()
    wide[last] = 3
    message = f"^cluster {last}: 32 leaf matrix entries given, 36 needed through its 4 x 3 leaf matrix$"
    with pytest.raises(ValueError, match=message):
        ClusterBasis(tree, wide, leaves, transfers)
    message = f"^cluster {last}: 24 transfer entries given, 26 needed through its 3 x 2 transfer$"
    with pytest.raises(ValueError, match=message):
        ClusterBasis(tree, wide, np.ones(36), transfers)


def test_missing_leaf_matrix_or_transfer_names_the_cluster(rng):
    # a store that ends early names the first cluster whose matrix is
    # missing; one with entries left over names the last cluster
    iso = random_iso_basis(line_tree(16, 4), 2, rng)
    tree, (rank, leaves, transfers) = iso.tree, _stores(iso)
    first, last = tree.leaves()[0], tree.leaves()[-1]
    message = f"^cluster {first}: 0 leaf matrix entries given, 8 needed through its 4 x 2 leaf matrix$"
    with pytest.raises(ValueError, match=message):
        ClusterBasis(tree, rank, [], transfers)
    son = tree.sons(tree.root)[0]
    with pytest.raises(ValueError, match=f"^cluster {son}: 0 transfer entries given, 4 needed through its 2 x 2"):
        ClusterBasis(tree, rank, leaves, [])
    with pytest.raises(ValueError, match=f"^cluster {last}: 24 leaf matrix entries given, 32 needed"):
        ClusterBasis(tree, rank, leaves[:-8], transfers)
    with pytest.raises(ValueError, match=f"^cluster {len(tree) - 1}: 25 transfer entries given, 24 needed"):
        ClusterBasis(tree, rank, leaves, np.append(transfers, 0.0))
    with pytest.raises(ValueError, match="^2 transfer entries given, none needed$"):
        ClusterBasis(line_tree(4, 4), [1], np.ones(4), np.ones(2))


@pytest.mark.parametrize("isometric", [False, True])
def test_non_finite_entries_name_the_cluster(rng, isometric):
    iso = random_iso_basis(line_tree(16, 4), 2, rng)
    tree, (rank, leaves, transfers) = iso.tree, _stores(iso)
    # clusters 1, 2 and 3 come first, 4 entries each
    son = tree.sons(tree.root)[1]
    assert son == 4
    bad = transfers.copy()
    bad[3 * 4 + 3] = np.nan
    with pytest.raises(ValueError, match=f"^cluster {son}: non-finite entries in its transfer$"):
        ClusterBasis(tree, rank, leaves, bad, isometric=isometric)
    leaf = tree.leaves()[2]
    bad = leaves.copy()
    bad[2 * 8] = -np.inf
    with pytest.raises(ValueError, match=f"^cluster {leaf}: non-finite entries in its leaf matrix$"):
        ClusterBasis(tree, rank, bad, transfers, isometric=isometric)
    assert ClusterBasis(tree, rank, leaves, transfers, isometric=isometric).isometric == isometric


def _layout_cases():
    rng = np.random.default_rng(28)
    line, plane = line_tree(200, 8), build_cluster_tree(lshape_sites(32)[1], 64)
    tree = random_tree(rng, 150, 2, 8)
    yield "random", random_basis(tree, min(3, tree.sizes[~tree.has_sons].min()), rng)
    yield "random-iso", random_iso_basis(line_tree(96, 6), 2, rng)
    for degree in (1, 2, 3):
        yield f"line-degree-{degree}", polynomial_basis(line, np.linspace(0.0, 1.0, 200), degree)
        yield f"plane-degree-{degree}", polynomial_basis(plane, lshape_sites(32)[1], degree)
    yield "ragged", ragged_basis(random_tree(rng, 200, 2, 8), rng, 5)
    for n in (64, 300, 4096):
        yield f"induced-{n}", random_instance(n, 3, 3, 1.0, n).plan.induced


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_array_constructor_lays_out_the_mapping_constructors_stores():
    # the stores, ptr, starts and groups, bit for bit, against the
    # former constructor's layout of the same matrices one at a time
    for name, basis in _layout_cases():
        want = basis_reference.mapping_layout(basis.tree, basis.leaf_matrix, basis.transfer)
        assert np.array_equal(basis.ptr, want["ptr"]), name
        for kind, stacks, groups in (
            ("leaf", basis.leaf_matrix, basis.leaf_matrix.groups),
            ("transfer", basis.transfer, basis.transfer.groups),
        ):
            assert stacks.store.tobytes() == want[kind]["store"].tobytes(), (name, kind)
            assert np.array_equal(stacks.start, want[kind]["start"]), (name, kind)
            assert len(groups) == len(want[kind]["groups"]), (name, kind)
            for got, expected in zip(groups, want[kind]["groups"]):
                assert got.clusters.tolist() == expected["clusters"], (name, kind)
                assert got.source.tolist() == expected["source"], (name, kind)
                assert got.target.tolist() == expected["target"], (name, kind)
                fathers = [] if got.fathers is None else got.fathers.tolist()
                assert fathers == expected["fathers"], (name, kind)
        # the views are built once, on first read
        assert basis.leaf_matrix.views is basis.leaf_matrix.views
        # and the mapping constructor gives the same basis again
        again = basis_reference.mapping_basis(basis.tree, basis.leaf_matrix, basis.transfer)
        assert again.leaf_matrix.store.tobytes() == basis.leaf_matrix.store.tobytes(), name
        assert again.transfer.store.tobytes() == basis.transfer.store.tobytes(), name


def ragged_basis(tree, rng, max_rank):
    """Random nested basis whose ranks vary from cluster to cluster,
    drawn bottom-up: at most a leaf's size, and at most the sum of the
    sons' ranks at an interior cluster, so orthogonalize accepts it."""
    rank = [0] * len(tree)
    for i in tree.post_order.tolist():
        rows = sum(rank[s] for s in tree.sons(i)) or tree.sizes[i]
        rank[i] = int(rng.integers(1, min(max_rank, rows) + 1))
    leaf_matrix = {i: rng.standard_normal((tree.sizes[i], rank[i])) for i in tree.leaves()}
    transfer = {
        s: rng.standard_normal((rank[s], rank[i]))
        for i in range(len(tree))
        for s in tree.sons(i)
    }
    return basis_reference.mapping_basis(tree, leaf_matrix, transfer)


def loop_forward(basis, data, member):
    """Forward transformation, one cluster at a time."""
    tree, off = basis.tree, basis.offsets
    for s in tree.post_order.tolist():
        t = int(tree.father[s])
        if t >= 0 and member[s]:
            pushed = kernels.matvec(basis.transfer[s].T, data[off[s] : off[s + 1]])
            data[off[t] : off[t + 1]] += pushed
            kernels.tally(pushed.size)


def loop_backward(basis, data, interior):
    """Backward transformation, one cluster at a time (sons follow fathers)."""
    tree, off = basis.tree, basis.offsets
    for s in range(1, len(tree)):
        t = int(tree.father[s])
        if interior[t]:
            data[off[s] : off[s + 1]] += kernels.matvec(
                basis.transfer[s], data[off[t] : off[t + 1]]
            )
            kernels.tally(off[s + 1] - off[s])


def _basis_of(kind, seed):
    """A basis of the given kind.  "ragged" and "induced-accepted" bases
    pass orthogonalize; "induced" ones, from ranks k, ka in 1..3, mostly
    stack short.  An induced rank is ka plus k per non-leaf block of the
    row, so at a father of leaves with three non-leaf blocks the sons
    stack 2 ka rows for a rank of ka + 3 k: enough only when ka >= 3 k,
    as with k = 1 and ka = 3."""
    rng = np.random.default_rng(seed)
    if kind == "induced":
        k, ka = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        return random_instance(int(rng.choice([16, 32, 64])), k, ka, 1.0, seed).plan.induced
    if kind == "induced-accepted":
        return random_instance(int(rng.choice([16, 32, 64])), 1, 3, 1.0, seed).plan.induced
    tree = random_tree(rng, int(rng.integers(8, 120)), int(rng.integers(1, 3)), 6)
    if kind == "uniform":
        smallest = tree.sizes[~tree.has_sons].min()
        return random_basis(tree, int(rng.integers(1, min(3, smallest) + 1)), rng)
    return ragged_basis(tree, rng, 5)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["uniform", "ragged", "induced"]), seed=st.integers(0, 2**16))
def test_transformations_match_cluster_loops(kind, seed):
    basis = _basis_of(kind, seed)
    rng = np.random.default_rng(seed + 1)
    marks = rng.random(len(basis.tree)) < 0.6
    for stacked, looped in ((basis.forward, loop_forward), (basis.backward, loop_backward)):
        data = rng.standard_normal(basis.ptr[-1])
        want = data.copy()
        with kernels.count_flops() as batched:
            stacked(data, marks)
        with kernels.count_flops() as walked:
            looped(basis, want, marks)
        assert batched.total == walked.total
        assert np.max(np.abs(data - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["uniform", "ragged", "induced"]), seed=st.integers(0, 2**16))
def test_batch_last_twins_pick_and_run_like_their_groups(kind, seed):
    basis = _basis_of(kind, seed)
    rng = np.random.default_rng(seed + 1)
    marks = rng.random(len(basis.tree)) < 0.6
    for group in basis.transfer.groups:
        want = group.pick(marks[group.clusters])
        group.last = group.batch_last()
        got = group.pick(marks[group.clusters])
        if group.last is None:
            assert group.stack.shape[1] * group.stack.shape[2] > kernels.TINY_ENTRIES
            continue
        if want is None:
            assert got is None
            continue
        assert isinstance(got, BatchLastGroup) and got.last is None
        assert np.array_equal(got.clusters, want.clusters) and np.array_equal(got.fathers, want.fathers)
        assert np.array_equal(got.stack, want.stack.transpose(1, 2, 0))
        assert np.array_equal(got.source, want.source.T) and np.array_equal(got.target, want.target.T)
        flipped = got.transposed()
        assert np.array_equal(flipped.stack, want.stack.transpose(2, 1, 0)) and flipped.stack.flags.c_contiguous
        assert flipped.source is got.target and flipped.target is got.source
    # the transformations read the twins and still match the cluster loops
    for stacked, looped in ((basis.forward, loop_forward), (basis.backward, loop_backward)):
        data = rng.standard_normal(basis.ptr[-1])
        want = data.copy()
        with kernels.count_flops() as batched:
            stacked(data, marks)
        with kernels.count_flops() as walked:
            looped(basis, want, marks)
        assert batched.total == walked.total
        assert np.max(np.abs(data - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _assert_transfer_views(basis):
    seen = 0
    for group in basis.transfer.groups:
        assert np.shares_memory(group.stack, basis.transfer.store)
        for j, s in enumerate(group.clusters.tolist()):
            e = basis.transfer[s]
            assert e.shape == group.stack[j].shape
            assert e.ctypes.data == group.stack[j].ctypes.data
            assert e.ctypes.data == basis.transfer.store[basis.transfer.start[s] :].ctypes.data
            seen += 1
    assert seen == len(basis.transfer) == len(basis.tree) - 1
    with pytest.raises(TypeError):
        basis.transfer[seen] = np.zeros((1, 1))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), degree=st.integers(0, 2))
def test_transfers_are_views_into_group_stacks(seed, degree):
    n = int(np.random.default_rng(seed).integers(16, 160))
    poly = polynomial_basis(line_tree(n, 8), np.linspace(0.0, 1.0, n), degree)
    for basis in (poly, orthogonalize(poly)[0], _basis_of("induced", seed)):
        _assert_transfer_views(basis)
        # groups are top-down, and one group holds one level and one
        # pair of ranks
        levels = [int(basis.tree.level[g.clusters[0]]) for g in basis.transfer.groups]
        assert levels == sorted(levels)
        for g in basis.transfer.groups:
            assert len(set(basis.tree.level[g.clusters].tolist())) == 1
            assert np.array_equal(g.fathers, basis.tree.father[g.clusters])


def test_leaf_matrices_are_stored_once(rng):
    basis = random_basis(line_tree(32, 4), 2, rng)
    tree = basis.tree
    x = random_hvector(basis, rng, steps=3)
    before = to_dense(x)
    leaf = tree.leaves()[3]
    # a write through the view is seen by the next expansion
    basis.leaf_matrix[leaf][:] *= 2.0
    want = before.copy()
    want[tree.positions(leaf)] *= 2.0
    assert np.array_equal(to_dense(x), want)
    with pytest.raises(TypeError):
        basis.leaf_matrix[leaf] = np.zeros((4, 2))


def _short_stack(basis):
    """The first cluster, in post-order, whose leaf matrix or stacked
    son transfers have fewer rows than its rank; None if there is none."""
    tree = basis.tree
    for i in tree.post_order.tolist():
        rows = sum(basis.rank_of(s) for s in tree.sons(i)) or tree.sizes[i]
        if rows < basis.rank_of(i):
            return i
    return None


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ragged", "induced", "induced-accepted"]), seed=st.integers(0, 2**16))
def test_orthogonalize_varying_ranks(kind, seed):
    basis = _basis_of(kind, seed)
    short = _short_stack(basis)
    assert short is None or kind == "induced"
    if short is not None:
        with pytest.raises(ValueError, match=f"cluster {short}: .* fewer than its rank"):
            orthogonalize(basis)
        return
    iso, change = orthogonalize(basis)  # flagged isometric unchecked: check here
    iso._check_isometric()
    assert iso.isometric and np.array_equal(iso.ptr, basis.ptr)
    for i in range(len(basis.tree)):
        v = basis.materialize(i)
        got = iso.materialize(i) @ change[i]
        assert np.max(np.abs(got - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))


def _assert_orthogonalize_keeps_the_layout(basis):
    """orthogonalize's basis has the clusters, starts and group shapes
    of the input's leaf and transfer stores, unless it refuses."""
    if _short_stack(basis) is not None:
        return
    iso = orthogonalize(basis)[0]
    for got, want in ((iso.leaf_matrix, basis.leaf_matrix), (iso.transfer, basis.transfer)):
        assert np.array_equal(got.clusters, want.clusters)
        assert np.array_equal(got.start, want.start)
        assert [g.stack.shape for g in got.groups] == [g.stack.shape for g in want.groups]


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_orthogonalize_keeps_the_layout_of_polynomial_and_induced_bases():
    # orthogonalize writes its transfers through the input's starts
    for _, basis in _layout_cases():
        _assert_orthogonalize_keeps_the_layout(basis)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["uniform", "ragged", "induced", "induced-accepted"]), seed=st.integers(0, 2**16))
def test_orthogonalize_keeps_the_layout(kind, seed):
    _assert_orthogonalize_keeps_the_layout(_basis_of(kind, seed))


def test_orthogonalize_names_the_first_short_stack_in_post_order(rng):
    tree = line_tree(16, 4)
    # post-order 2 3 1 5 6 4 0: clusters 4 and 0 stack fewer rows than
    # their ranks, and 4 comes first
    rank = [6, 2, 1, 1, 3, 1, 1]
    assert tree.post_order.tolist() == [2, 3, 1, 5, 6, 4, 0]
    leaf_matrix = {i: rng.standard_normal((4, rank[i])) for i in tree.leaves()}
    transfer = {s: rng.standard_normal((rank[s], rank[int(tree.father[s])])) for s in range(1, 7)}
    basis = basis_reference.mapping_basis(tree, leaf_matrix, transfer)
    message = "^cluster 4: transfer stack has 2 rows, fewer than its rank 3$"
    for build in (basis_reference.orthogonalize, orthogonalize):
        with pytest.raises(ValueError, match=message):
            build(basis)


def _assert_same_orthogonalization(basis):
    """orthogonalize equals the per-cluster oracle bit for bit, with the
    same counted flops, or refuses the basis with the oracle's message."""
    try:
        with kernels.count_flops() as looped:
            want_iso, want_change = basis_reference.orthogonalize(basis)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
            orthogonalize(basis)
        return None
    with kernels.count_flops() as stacked:
        iso, change = orthogonalize(basis)
    assert stacked.total == looped.total
    iso._check_isometric()
    assert np.array_equal(iso.transfer.store, want_iso.transfer.store)
    for got, want in zip(iso.leaf_matrix.groups, want_iso.leaf_matrix.groups):
        assert np.array_equal(got.clusters, want.clusters)
        assert np.array_equal(got.stack, want.stack)
    assert sorted(change) == sorted(want_change)
    for i, c in want_change.items():
        assert np.array_equal(change[i], c)
    merge, want_merge = coarsening_factors(iso), basis_reference.coarsening_factors(iso)
    assert np.array_equal(merge.store, want_merge.store)
    for got, want in zip(merge.groups, want_merge.groups):
        assert np.array_equal(got.source, want.source)
        assert np.array_equal(got.target, want.target)
    return iso


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ragged", "induced", "induced-accepted"]), seed=st.integers(0, 2**16))
def test_level_passes_match_cluster_loops(kind, seed):
    iso = _assert_same_orthogonalization(_basis_of(kind, seed))
    assert iso is not None or kind == "induced"


def _assert_same_family(got, want):
    assert (got.kind, got.source, got.target) == (want.kind, want.source, want.target)
    assert np.array_equal(got.store, want.store)
    assert np.array_equal(got.start, want.start)
    assert len(got.groups) == len(want.groups)
    for g, w in zip(got.groups, want.groups):
        for name in ("clusters", "source", "target"):
            assert np.array_equal(getattr(g, name), getattr(w, name))


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["uniform", "ragged", "induced"]), seed=st.integers(0, 2**16))
def test_cross_gram_families_match_cluster_loops(kind, seed):
    # ranks vary within a level on both sides, so groups pair up partly
    basis = _basis_of(kind, seed)
    other = ragged_basis(basis.tree, np.random.default_rng(seed + 1), 4)
    for left, right in ((basis, basis), (basis, other), (other, basis)):
        with kernels.count_flops() as looped:
            want = basis_reference.cross_gram_family(left, right)
        with kernels.count_flops() as stacked:
            got = cross_gram_family(left, right)
        assert stacked.total == looped.total
        _assert_same_family(got, want)
    for b in (basis, other):
        want = basis_reference.cross_gram_family(b, b)
        want.kind = "gram"
        _assert_same_family(gram_family(b), want)


def test_cross_gram_family_multiplies_per_group_not_per_cluster(rng, monkeypatch):
    tree = line_tree(4096, 6)
    left, right = random_basis(tree, 3, rng), random_iso_basis(tree, 2, rng)
    calls = []
    matmul = kernels.matmul
    monkeypatch.setattr(kernels, "matmul", lambda a, b: calls.append(a.shape) or matmul(a, b))
    for l, r in ((left, left), (left, right)):
        calls.clear()
        cross_gram_family(l, r)
        # both bases hold one group per level: one product for the
        # leaves, two per transfer group
        assert len(calls) <= len(l.leaf_matrix.groups) + 2 * len(l.transfer.groups) < len(tree) // 50


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_induced_draws_reach_the_short_stack_refusal():
    # the property tests above cover the refusal through this kind only
    refused = [_short_stack(_basis_of("induced", seed)) is not None for seed in range(20)]
    assert sum(refused) >= 15


@pytest.mark.parametrize(
    "points, leaf_size, degree",
    [
        (lshape_sites(32)[1], 64, 2),
        (lshape_sites(32)[1], 64, 3),
        (np.linspace(0.0, 1.0, 200), 8, 0),
        (np.linspace(0.0, 1.0, 200), 8, 2),
    ],
    ids=["lshape-degree-2", "lshape-degree-3", "line-degree-0", "line-degree-2"],
)
def test_legendre_set_up_matches_cluster_loops(points, leaf_size, degree):
    tree = build_cluster_tree(points, leaf_size)
    poly = polynomial_basis(tree, points, degree)
    want = basis_reference.legendre_leaf_matrices(tree, points, degree)
    assert sorted(poly.leaf_matrix) == sorted(want)
    for i, v in want.items():
        assert np.array_equal(poly.leaf_matrix[i], v)
    assert _assert_same_orthogonalization(poly) is not None


def test_polynomial_basis_names_the_first_bad_leaf():
    points = np.linspace(0.0, 1.0, 16)
    tree = line_tree(16, 4)
    leaves = tree.leaves()
    for bad in ([leaves[2]], [leaves[1], leaves[3]], [leaves[3], leaves[0]]):
        # all of a leaf's points on one site: its evaluation matrix has rank 1
        pts = points.copy()
        for i in bad:
            pts[tree.indices(i)[1:]] = pts[tree.indices(i)[0]]
        first = min(bad, key=leaves.index)
        for build in (basis_reference.legendre_leaf_matrices, polynomial_basis):
            with pytest.raises(ValueError, match=f"^cluster {first}: leaf evaluation matrix is rank deficient"):
                build(tree, pts, 1)


def test_orthogonalize_names_the_first_deficient_cluster_in_post_order(rng):
    tree = line_tree(16, 4)
    order = tree.post_order.tolist()
    interior = next(i for i in order if tree.sons(i) and i != tree.root)
    leaf = next(i for i in order[order.index(interior) :] if tree.is_leaf(i))
    basis = random_basis(tree, 2, rng)
    # the sons' transfers lose their second column, so the stack does too
    for s in tree.sons(interior):
        basis.transfer[s][:, 1] = 0.0
    basis.leaf_matrix[leaf][:, 1] = basis.leaf_matrix[leaf][:, 0]
    message = f"^cluster {interior}: rank-deficient transfer stack$"
    for build in (basis_reference.orthogonalize, orthogonalize):
        with pytest.raises(ValueError, match=message):
            build(basis)


def test_change_factors_hold_no_orthogonal_factor(rng):
    # a view into a complete Q stack would keep every (m x m) factor
    # alive as long as the caller keeps change
    basis = random_basis(line_tree(96, 8), 3, rng)
    _, change = orthogonalize(basis)
    owners = {}
    for c in change.values():
        owner = c
        while owner.base is not None:
            owner = owner.base
        owners[id(owner)] = owner
    assert sum(o.size for o in owners.values()) == sum(c.size for c in change.values())


def _nested_ranks(basis):
    """The ranks nested_orthogonalize must give, one cluster at a time:
    min(|t|, r_t) at a leaf, min(r_t, sum of the sons' ranks) above."""
    tree = basis.tree
    rank = [0] * len(tree)
    for i in tree.post_order.tolist():
        rows = sum(rank[s] for s in tree.sons(i)) if tree.sons(i) else int(tree.sizes[i])
        rank[i] = min(rows, basis.rank_of(i))
    return rank


def _assert_nested_orthogonalization(basis):
    """nested_orthogonalize gives an isometric basis at the nested ranks
    whose coordinate factors recover the basis at every cluster, equal
    to the per-cluster oracle's bit for bit, with the same counted flops."""
    tree = basis.tree
    with kernels.count_flops() as looped:
        want_iso, want_change = basis_reference.nested_orthogonalize(basis)
    with kernels.count_flops() as stacked:
        iso, change = nested_orthogonalize(basis)
    assert stacked.total == looped.total
    assert np.array_equal(iso.ptr, want_iso.ptr)
    assert np.array_equal(iso.leaf_matrix.store, want_iso.leaf_matrix.store)
    assert np.array_equal(iso.transfer.store, want_iso.transfer.store)
    for i, c in want_change.items():
        assert np.array_equal(change[i], c)
    assert iso.tree is tree and iso.isometric
    iso._check_isometric()  # flagged unchecked: within ISOMETRY_TOL here
    ranks = _nested_ranks(basis)
    assert np.diff(iso.ptr).tolist() == ranks
    _check_family(change, "coordinates", basis, iso)
    assert sorted(change) == list(range(len(tree)))
    for i in range(len(tree)):
        r = change[i]
        assert r.shape == (ranks[i], basis.rank_of(i))
        assert np.all(np.tril(r, -1) == 0.0) and np.all(np.diagonal(r) >= 0.0)
        v, q = basis.materialize(i), iso.materialize(i)
        assert np.max(np.abs(q.T @ q - np.eye(ranks[i]))) <= ISOMETRY_TOL
        assert np.linalg.norm(q @ r - v) <= 1e-13 * np.linalg.norm(v)
    return iso, change


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["uniform", "ragged", "induced", "induced-accepted"]), seed=st.integers(0, 2**16))
def test_nested_orthogonalize_factors_every_basis_kind(kind, seed):
    # "induced" draws mostly stack short, which orthogonalize refuses
    _assert_nested_orthogonalization(_basis_of(kind, seed))


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_nested_orthogonalize_factors_the_layout_cases():
    for name, basis in _layout_cases():
        if basis.tree.n <= 300:
            _assert_nested_orthogonalization(basis)


def test_nested_orthogonalize_accepts_short_and_deficient_stacks(rng):
    tree = line_tree(16, 4)
    # post-order 2 3 1 5 6 4 0: clusters 4 and 0 stack fewer rows than
    # their ranks, as in the refusal test of orthogonalize
    rank = [6, 2, 1, 1, 3, 1, 1]
    leaf_matrix = {i: rng.standard_normal((4, rank[i])) for i in tree.leaves()}
    transfer = {s: rng.standard_normal((rank[s], rank[int(tree.father[s])])) for s in range(1, 7)}
    # and cluster 1's leaf sons span one direction only
    leaf_matrix[3] = leaf_matrix[2].copy()
    transfer[3] = transfer[2].copy()
    basis = basis_reference.mapping_basis(tree, leaf_matrix, transfer)
    iso, change = _assert_nested_orthogonalization(basis)
    assert np.diff(iso.ptr).tolist() == [4, 2, 1, 1, 2, 1, 1]
    # the deficient stack of cluster 1 gives a rank-1 change factor
    assert np.linalg.matrix_rank(change[1]) == 1


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_nested_orthogonalize_runs_one_thin_qr_per_level_and_shape(monkeypatch):
    calls = []
    qr_stack = kernels.qr_stack
    monkeypatch.setattr(kernels, "qr_stack", lambda a: calls.append(a.shape) or qr_stack(a))
    # orthogonalize, which refuses the short stacks of an "induced"
    # draw, is the same pass
    for build, kind in ((nested_orthogonalize, "induced"), (orthogonalize, "induced-accepted")):
        basis = _basis_of(kind, 3)
        calls.clear()
        build(basis)
        tree, rank = basis.tree, np.diff(basis.ptr)
        rows = tree.sizes.copy()
        ranks = np.array(_nested_ranks(basis))
        rows[tree.has_sons] = np.bincount(tree.father[1:], ranks[1:], len(tree))[tree.has_sons]
        shapes = {(int(tree.level[i]), int(rows[i]), int(rank[i])) for i in range(len(tree))}
        assert len(calls) == len(shapes), build.__name__


def test_nested_basis_of_the_grid_64_demo_has_one_transfer_group_per_level():
    demo = PoissonDemo(grid=64)
    nested, tree = demo.nested, demo.tree
    induced = np.diff(demo.plan.induced.ptr)
    assert induced[tree.by_level[5]].max() == 320  # where nestedness caps it at 32
    ranks = np.diff(nested.ptr)
    assert [sorted(set(ranks[ids].tolist())) for ids in tree.by_level] == [[32], [48], [80], [128], [64], [32], [16]]
    assert [len(groups) for groups in nested.transfer.levels] == [0, 1, 1, 1, 1, 1, 1]
    assert [len(groups) for groups in demo.zfactors.levels] == [1, 1, 1, 1, 1, 1, 2]
    assert demo.zfactors.source is nested and demo.zfactors.target is demo.iso
