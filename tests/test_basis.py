import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2vec import kernels, textio
from h2vec.basis import (
    ClusterBasis,
    coarsening_factors,
    cross_gram_family,
    gram_family,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_instance,
    random_iso_basis,
    random_tree,
)
from h2vec.hvector import to_dense
from h2vec.tree import build_cluster_tree


def nestedness_defect(basis):
    tree = basis.tree
    worst = 0.0
    for i in range(len(tree.clusters)):
        full = basis.materialize(i)
        offset = 0
        for s in tree.sons(i):
            rows = tree.size(s)
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
    iso = ClusterBasis(tree, leaf_matrix, transfer, isometric=True)
    factors = coarsening_factors(iso)
    out = factors[tree.root].T @ np.array([1.0, -1.0])
    assert abs(abs(out[0]) - 0.0) <= 1e-14  # merged coefficient (1-1)/sqrt2
    assert abs(np.linalg.norm(out[1:]) - np.sqrt(2.0)) <= 1e-14
    out2 = factors[tree.root].T @ np.array([1.0, 1.0])
    assert abs(out2[0] - np.sqrt(2.0)) <= 1e-14
    assert np.linalg.norm(out2[1:]) <= 1e-14


def test_coarsening_factors_zero_error_in_range(rng, small_iso):
    factors = coarsening_factors(small_iso)
    tree = small_iso.tree
    i = tree.root
    y = rng.standard_normal(3)
    stacked = np.concatenate(
        [small_iso.transfer[s] @ y for s in tree.sons(i)]
    )
    out = factors[i].T @ stacked
    assert np.linalg.norm(out[3:]) <= 1e-13 * max(1.0, np.linalg.norm(y))


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
    out = factors[i].T @ np.concatenate(coeffs)
    got = np.linalg.norm(out[k:])
    assert abs(got - truth) <= 1e-11 * max(1.0, truth)


def test_coarsening_factors_require_isometric(rng):
    b = random_basis(line_tree(16, 4), 2, rng)
    with pytest.raises(ValueError):
        coarsening_factors(b)


def test_projection_factors_zero_for_same_basis(rng, small_iso):
    z = projection_factors(small_iso, small_iso)
    for i, zi in z.z.items():
        assert np.max(np.abs(zi)) <= 1e-13


def test_projection_factors_zero_for_same_range(rng):
    tree = line_tree(32, 4)
    b = random_basis(tree, 3, rng)
    iso, _ = orthogonalize(b)
    z = projection_factors(b, iso)
    for i, zi in z.z.items():
        scale = max(1.0, np.max(np.abs(b.materialize(i))))
        assert np.max(np.abs(zi)) <= 1e-11 * scale


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
        got = np.linalg.norm(factors.z[i] @ xhat)
        assert abs(got - truth) <= 1e-11 * max(1.0, truth)
        dense_cross = q.T @ source.materialize(i)
        scale = max(1.0, np.max(np.abs(dense_cross)))
        assert np.max(np.abs(factors.cross[i] - dense_cross)) <= 1e-11 * scale


def test_projection_z_is_upper_triangular(rng, small_iso):
    source = random_basis(small_iso.tree, 4, rng)
    factors = projection_factors(source, small_iso)
    for zi in factors.z.values():
        assert np.max(np.abs(np.tril(zi, -1))) == 0.0


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
    if min(tree.size(i) for i in tree.leaves()) < k:
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


def test_basis_dump_roundtrip(rng):
    tree = line_tree(16, 4)
    b = random_basis(tree, 2, rng)
    text = textio.dump_basis(b)
    back = textio.load_basis(text, tree)
    assert textio.dump_basis(back) == text
    assert back.rank == 2 and not back.isometric
    for i in b.leaf_matrix:
        assert np.array_equal(back.leaf_matrix[i], b.leaf_matrix[i])


def test_basis_dump_rejects_wrong_rank_header(rng):
    tree = line_tree(16, 4)
    text = textio.dump_basis(random_basis(tree, 2, rng))
    with pytest.raises(ValueError, match="rank 3"):
        textio.load_basis(text.replace("rank 2", "rank 3"), tree)


def test_isometric_flag_is_checked():
    # a non-isometric basis flagged isometric would let coarsen_pass
    # report a bound below the true error
    tree = random_instance(64, 2, 2, 1.0, 0).tree
    b = random_basis(tree, 2, np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"cluster \d+: basis flagged isometric"):
        ClusterBasis(tree, b.leaf_matrix, b.transfer, isometric=True)
    iso, _ = orthogonalize(b)
    again = ClusterBasis(tree, iso.leaf_matrix, iso.transfer, isometric=True)
    assert all(np.array_equal(again.transfer[s], e) for s, e in iso.transfer.items())


def test_isometric_check_names_a_bad_leaf(rng):
    iso = random_iso_basis(line_tree(16, 4), 2, rng)
    leaf = iso.tree.leaves()[1]
    leaf_matrix = {**iso.leaf_matrix, leaf: 2.0 * iso.leaf_matrix[leaf]}
    with pytest.raises(ValueError, match=f"cluster {leaf}:"):
        ClusterBasis(iso.tree, leaf_matrix, iso.transfer, isometric=True)


def test_transfer_shape_mismatch_names_the_cluster(rng):
    b = random_basis(line_tree(16, 4), 2, rng)
    son = b.tree.sons(b.tree.root)[1]
    transfer = {**b.transfer, son: np.ones((3, 2))}
    with pytest.raises(ValueError, match=f"cluster {son}: expected a 2 x 2 transfer"):
        ClusterBasis(b.tree, b.leaf_matrix, transfer)
    leaf = b.tree.leaves()[2]
    leaf_matrix = {**b.leaf_matrix, leaf: np.ones((3, 2))}
    with pytest.raises(ValueError, match=f"cluster {leaf}: expected a 4 x 2 leaf matrix"):
        ClusterBasis(b.tree, leaf_matrix, b.transfer)


def test_missing_leaf_matrix_or_transfer_names_the_cluster(rng):
    iso = random_iso_basis(line_tree(16, 4), 2, rng)
    leaf = iso.tree.leaves()[0]
    with pytest.raises(ValueError, match=f"cluster {leaf}: no leaf matrix given"):
        ClusterBasis(iso.tree, {}, iso.transfer)
    son = iso.tree.sons(iso.tree.root)[0]
    with pytest.raises(ValueError, match=f"cluster {son}: no transfer given"):
        ClusterBasis(iso.tree, iso.leaf_matrix, {})
    leaf_matrix = {i: m for i, m in iso.leaf_matrix.items() if i != iso.tree.leaves()[-1]}
    with pytest.raises(ValueError, match=f"cluster {iso.tree.leaves()[-1]}: no leaf matrix"):
        ClusterBasis(iso.tree, leaf_matrix, iso.transfer)


def ragged_basis(tree, rng, max_rank):
    """Random nested basis whose ranks vary from cluster to cluster."""
    rank = [
        int(rng.integers(1, min(max_rank, tree.size(i)) + 1)) for i in range(len(tree))
    ]
    leaf_matrix = {i: rng.standard_normal((tree.size(i), rank[i])) for i in tree.leaves()}
    transfer = {
        s: rng.standard_normal((rank[s], rank[i]))
        for i in range(len(tree))
        for s in tree.sons(i)
    }
    return ClusterBasis(tree, leaf_matrix, transfer)


def loop_forward(basis, data, member):
    """Forward transformation, one cluster at a time."""
    tree, off = basis.tree, basis.offsets
    for s in tree.postorder():
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
    rng = np.random.default_rng(seed)
    if kind == "induced":
        k, ka = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        return random_instance(int(rng.choice([16, 32, 64])), k, ka, 1.0, seed).plan.induced
    tree = random_tree(rng, int(rng.integers(8, 120)), int(rng.integers(1, 3)), 6)
    if kind == "uniform":
        smallest = min(map(tree.size, tree.leaves()))
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


def _assert_transfer_views(basis):
    seen = 0
    for group in basis.groups:
        assert np.shares_memory(group.stack, basis.transfer_store)
        for j, s in enumerate(group.clusters.tolist()):
            e = basis.transfer[s]
            assert e.shape == group.stack[j].shape
            assert e.ctypes.data == group.stack[j].ctypes.data
            assert e.ctypes.data == basis.transfer_store[basis.transfer_start[s] :].ctypes.data
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
        levels = [int(basis.tree.level[g.clusters[0]]) for g in basis.groups]
        assert levels == sorted(levels)
        for g in basis.groups:
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
    for i in tree.postorder():
        rows = sum(basis.rank_of(s) for s in tree.sons(i)) or tree.size(i)
        if rows < basis.rank_of(i):
            return i
    return None


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["ragged", "induced"]), seed=st.integers(0, 2**16))
def test_orthogonalize_varying_ranks(kind, seed):
    basis = _basis_of(kind, seed)
    short = _short_stack(basis)
    if short is not None:
        with pytest.raises(ValueError, match=f"cluster {short}: .* fewer than its rank"):
            orthogonalize(basis)
        return
    iso, change = orthogonalize(basis)  # flagged isometric: checked on construction
    assert iso.isometric and np.array_equal(iso.ptr, basis.ptr)
    for i in range(len(basis.tree)):
        v = basis.materialize(i)
        got = iso.materialize(i) @ change[i]
        assert np.max(np.abs(got - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
