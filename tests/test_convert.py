import numpy as np
import pytest

from h2vec import kernels

from h2vec.basis import (
    coarsening_factors,
    cross_gram_family,
    gram_family,
    nested_orthogonalize,
    orthogonalize,
    projection_factors,
)
from h2vec.convert import (
    CoordinateMap,
    ToleranceBudget,
    coarsen_pass,
    convert,
    materialize_induced,
)
from h2vec.h2matrix import build_block_tree, random_h2, to_dense
from h2vec.hvector import HVector, axpy, norm, refine, scale, to_dense as hv_dense
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_instance,
    random_iso_basis,
)
from h2vec.matvec import InducedHVector, multiply
from h2vec.tree import Subtree

import basis_reference
import matvec_reference as reference


@pytest.fixture(scope="module")
def setup():
    """Instance with square (rank-sized) leaves and conversion factors."""
    inst = random_instance(96, 3, 2, 1.0, seed=7, leaf_size=3)
    induced = inst.plan.induced
    zfac = projection_factors(induced, inst.input_basis)
    pfac = coarsening_factors(inst.input_basis)
    return inst, induced, zfac, pfac


def test_materialize_induced_nested(setup):
    inst, induced, _, _ = setup
    tree = inst.tree
    row = inst.matrix.row_basis
    _, rank = reference.layout(inst.plan)
    for i in range(len(tree.clusters)):
        # true per-cluster ranks; leaves hold copies of the row basis's matrices
        assert induced.rank_of(i) == rank[i]
        if tree.is_leaf(i):
            assert np.array_equal(induced.leaf_matrix[i], row.leaf_matrix[i])
        full = induced.materialize(i)
        offset = 0
        for s in tree.sons(i):
            rows = tree.sizes[s]
            lhs = full[offset : offset + rows]
            rhs = induced.materialize(s) @ induced.transfer[s]
            scale = max(1.0, np.max(np.abs(full)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale
            offset += rows


def test_materialize_induced_columns(setup):
    # every cluster: the leading columns are the row basis and every
    # slot holds the matrix block times the input basis of its column
    inst, induced, _, _ = setup
    dense = to_dense(inst.matrix)
    tree = inst.tree
    ka = inst.matrix.rank
    k = inst.input_basis.rank
    offsets, rank = reference.layout(inst.plan)
    slots = 0
    for i in range(len(tree.clusters)):
        u = induced.materialize(i)
        assert u.shape == (tree.sizes[i], rank[i])
        v = inst.matrix.row_basis.materialize(i)
        assert np.max(np.abs(u[:, :ka] - v)) <= 1e-11 * max(1.0, np.max(np.abs(v)))
        mine = sorted((o, s) for (t, s), o in offsets.items() if t == i)
        assert [o for o, _ in mine] == list(range(ka, rank[i], k))
        for o, s in mine:
            want = dense[tree.positions(i), tree.positions(s)] @ (
                inst.input_basis.materialize(s)
            )
            assert np.max(np.abs(u[:, o : o + k] - want)) <= 1e-11 * max(
                1.0, np.max(np.abs(want))
            )
            slots += 1
    assert slots == inst.plan.nonleaf_blocks.row.size > 0


@pytest.mark.parametrize(
    "n, k, ka, eta", [(96, 3, 2, 1.0), (256, 2, 3, 2.0), (128, 4, 1, 0.5)]
)
def test_materialize_induced_matches_loop_reference(n, k, ka, eta):
    inst = random_instance(n, k, ka, eta, seed=3)
    with kernels.count_flops() as stacked:
        induced = materialize_induced(inst.plan)
    with kernels.count_flops() as looped:
        want = reference.induced_transfers(inst.plan)
    assert stacked.total == looped.total
    assert induced.transfer.keys() == want.keys()
    for t2, e in want.items():
        assert induced.transfer[t2].shape == e.shape
        assert induced.transfer[t2].tobytes() == e.tobytes()


def test_materialize_induced_without_nonleaf_blocks(rng):
    # a single-block tree has no non-leaf blocks; the induced basis is
    # the row basis itself
    tree = line_tree(4, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    matrix = random_h2(bt, row, col, seed=0)
    iso = random_iso_basis(tree, 2, rng)
    from h2vec.matvec import build_plan

    plan = build_plan(matrix, iso)
    induced = materialize_induced(plan)
    assert induced.rank == 2
    assert np.max(np.abs(induced.materialize(0) - row.materialize(0))) <= 1e-13


def test_convert_same_basis_eps_zero(rng, setup):
    inst, _, _, pfac = setup
    iso = inst.input_basis
    zqq = projection_factors(iso, iso)
    x = random_hvector(iso, rng, steps=3)
    y, bound, report = convert(x, iso, zqq, pfac, ToleranceBudget(0.0))
    err = np.linalg.norm(hv_dense(y) - hv_dense(x))
    assert err <= 1e-11 * max(1.0, np.linalg.norm(hv_dense(x)))
    assert y.sub.count() == x.sub.count()
    assert err <= bound + 1e-11


def test_convert_same_basis_may_coarsen_redundancy(rng, setup):
    inst, _, _, pfac = setup
    iso = inst.input_basis
    zqq = projection_factors(iso, iso)
    x = HVector.from_leaves(iso, None, {iso.tree.root: rng.standard_normal(3)})
    dense0 = hv_dense(x)
    refine(x, iso.tree.root)  # redundant refinement, no information added
    y, bound, _ = convert(x, iso, zqq, pfac, ToleranceBudget(0.0))
    assert y.sub.count() == 1
    assert np.linalg.norm(hv_dense(y) - dense0) <= 1e-12


def test_convert_representable_at_root(rng, setup):
    # target basis built to contain the matrix row basis in its range;
    # induced coefficients supported on the row-basis block then commit
    # at the root with zero error, even though Z_root itself is nonzero
    inst, induced, _, _ = setup
    row = inst.matrix.row_basis
    tree = inst.tree
    leaf_matrix = {
        i: np.column_stack([row.leaf_matrix[i], rng.standard_normal(tree.sizes[i])])
        for i in tree.leaves()
    }
    transfer = {}
    for i in range(len(tree.clusters)):
        for s in tree.sons(i):
            e = np.zeros((3, 3))
            e[:2, :2] = row.transfer[s]
            e[2, 2] = 1.0 + rng.random()
            transfer[s] = e
    wide = basis_reference.mapping_basis(tree, leaf_matrix, transfer)
    target, _ = orthogonalize(wide)
    zfac = projection_factors(induced, target)
    pfac = coarsening_factors(target)
    assert np.max(np.abs(zfac[tree.root][target.rank_of(tree.root) :])) > 1e-6  # generically lossy
    xhat = np.zeros(induced.rank_of(tree.root))
    xhat[:2] = rng.standard_normal(2)
    x = HVector.from_leaves(induced, None, {tree.root: xhat})
    v = hv_dense(x)
    y, bound, _ = convert(x, target, zfac, pfac, ToleranceBudget(1e-8))
    assert y.sub.count() == 1
    assert np.linalg.norm(hv_dense(y) - v) <= 1e-10 * max(1.0, np.linalg.norm(v))


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_convert_sound_and_within_budget(eps, setup):
    inst, induced, zfac, pfac = setup
    rng = np.random.default_rng(int(-np.log10(eps)))
    from h2vec.hvector import scale

    for trial in range(10):
        x = random_hvector(inst.input_basis, rng, steps=int(rng.integers(0, 5)))
        y = multiply(inst.plan, x)
        nrm = np.linalg.norm(hv_dense(y))
        if nrm == 0.0:
            continue
        scale(y, 1.0 / nrm)
        dense_y = hv_dense(y)
        out, bound, report = convert(y, inst.input_basis, zfac, pfac, ToleranceBudget(eps))
        err = np.linalg.norm(hv_dense(out) - dense_y)
        assert err <= bound + 1e-12
        assert bound <= eps
        assert report.bound == bound


def test_convert_monotone_in_eps(setup):
    inst, induced, zfac, pfac = setup
    rng = np.random.default_rng(99)
    from h2vec.hvector import scale

    for trial in range(5):
        x = random_hvector(inst.input_basis, rng, steps=3)
        y = multiply(inst.plan, x)
        nrm = np.linalg.norm(hv_dense(y))
        scale(y, 1.0 / nrm)
        counts = []
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            out, _, _ = convert(y, inst.input_basis, zfac, pfac, ToleranceBudget(eps))
            counts.append(out.sub.count())
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


def test_convert_rejects_mismatched_factors(rng, setup):
    inst, induced, zfac, pfac = setup
    other = random_iso_basis(inst.tree, 3, rng)
    x = HVector(induced)
    with pytest.raises(ValueError, match="^projection factors belong to a different target basis$"):
        convert(x, other, zfac, coarsening_factors(other), ToleranceBudget(1e-6))
    # projection factors built for another pair of bases
    pairs = (
        (projection_factors(induced, other), "target"),
        (projection_factors(other, inst.input_basis), "source"),
        (projection_factors(other, other), "source"),
    )
    for wrong, role in pairs:
        with pytest.raises(ValueError, match=f"^projection factors belong to a different {role} basis$"):
            convert(x, inst.input_basis, wrong, pfac, ToleranceBudget(1e-6))
    with pytest.raises(ValueError, match="^merge factors belong to a different basis$"):
        convert(x, inst.input_basis, zfac, coarsening_factors(other), ToleranceBudget(1e-6))
    # factors of the wrong kind once raised AttributeError
    wrong_kinds = (
        (pfac, "merge factors"),
        (gram_family(inst.input_basis), "a Gram family"),
        (cross_gram_family(induced, inst.input_basis), "a cross-Gram family"),
        (None, "NoneType"),
    )
    for wrong, got in wrong_kinds:
        with pytest.raises(ValueError, match=f"^expected projection factors, got {got}$"):
            convert(x, inst.input_basis, wrong, pfac, ToleranceBudget(1e-6))


def test_convert_rejects_padded_coefficients(rng, setup):
    # a product padded to the largest induced rank, as an older layout
    # stored it, fails where it enters: per leaf, naming a cluster, or
    # as a flat array of the padded length
    inst, induced, zfac, pfac = setup
    x = random_hvector(inst.input_basis, rng, steps=2)
    y = multiply(inst.plan, x)
    padded = {
        i: np.concatenate([v, np.zeros(induced.rank - v.size)]) for i, v in y.coeff.items()
    }
    short = min(padded, key=induced.rank_of)
    assert induced.rank_of(short) < induced.rank
    with pytest.raises(ValueError, match="cluster [0-9]+: expected shape"):
        HVector.from_leaves(induced, y.sub, padded)
    flat = InducedHVector(inst.plan, y.sub, np.zeros(len(inst.tree.clusters) * induced.rank))
    with pytest.raises(ValueError, match="coefficients in one flat array"):
        convert(flat, inst.input_basis, zfac, pfac, ToleranceBudget(1e-6))


def test_convert_rejects_non_finite_coefficients(rng, setup):
    inst, induced, zfac, pfac = setup
    y = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=2))
    leaf = max(y.coeff)
    y.coeff[leaf][-1] = np.nan
    with pytest.raises(ValueError, match=f"cluster {leaf}: non-finite"):
        convert(y, inst.input_basis, zfac, pfac, ToleranceBudget(1e-6))


def test_coarsen_pass_recovers_refined_vector(rng, setup):
    inst, _, _, pfac = setup
    iso = inst.input_basis
    x = HVector.from_leaves(iso, None, {iso.tree.root: rng.standard_normal(3)})
    dense0 = hv_dense(x)
    for _ in range(4):
        leaves = [i for i in x.sub.leaves() if iso.tree.sons(i)]
        if not leaves:
            break
        refine(x, leaves[0])
    bound = coarsen_pass(x, pfac, ToleranceBudget(0.0))
    assert x.sub.count() == 1
    assert np.linalg.norm(hv_dense(x) - dense0) <= 1e-12
    assert bound <= 1e-12


def test_difference_coarsens_to_minimal(rng, setup):
    inst, _, _, pfac = setup
    iso = inst.input_basis
    gram = gram_family(iso)
    x = random_hvector(iso, rng, steps=4)
    y = x.copy()
    axpy(-1.0, x, y)  # exact zero vector on a refined subtree
    bound = coarsen_pass(y, pfac, ToleranceBudget(0.0))
    assert y.sub.count() == 1
    assert norm(y, gram) <= 1e-13
    assert bound == 0.0


def test_coarsen_pass_rejects_coefficients_off_the_subtree(rng, setup):
    # a coefficient at an interior cluster is refused where per-leaf
    # input enters; coarsen_pass checks the length of the flat array
    inst, _, _, pfac = setup
    x = random_hvector(inst.input_basis, rng, steps=3)
    interior = inst.tree.root
    coeff = {**x.coeff, interior: np.zeros(inst.input_basis.rank)}
    with pytest.raises(ValueError, match=f"cluster {interior}:"):
        HVector.from_leaves(inst.input_basis, x.sub, coeff)
    short = HVector(inst.input_basis, x.sub, x.data[:-1])
    with pytest.raises(ValueError, match="coefficients in one flat array"):
        coarsen_pass(short, pfac, ToleranceBudget(1e-3))


def test_coarsen_pass_rejects_non_finite_coefficients(rng, setup):
    inst, _, _, pfac = setup
    x = random_hvector(inst.input_basis, rng, steps=3)
    leaf = min(x.coeff)
    x.coeff[leaf][0] = np.inf
    with pytest.raises(ValueError, match=f"cluster {leaf}: non-finite"):
        coarsen_pass(x, pfac, ToleranceBudget(1e-3))


def test_coarsen_pass_idempotent(rng, setup):
    inst, _, _, pfac = setup
    iso = inst.input_basis
    x = random_hvector(iso, rng, steps=5)
    budget = ToleranceBudget(1e-3)
    coarsen_pass(x, pfac, budget)
    shape = sorted(x.sub.leaves())
    second = coarsen_pass(x, pfac, budget)
    assert sorted(x.sub.leaves()) == shape
    assert second == 0.0 or second <= 1e-3


def test_coarsen_pass_bound_is_valid(rng, setup):
    inst, _, _, pfac = setup
    iso = inst.input_basis
    for eps in (1e-2, 1e-4, 1e-6):
        x = random_hvector(iso, rng, steps=4)
        before = hv_dense(x)
        nrm = np.linalg.norm(before)
        bound = coarsen_pass(x, pfac, ToleranceBudget(eps * nrm))
        err = np.linalg.norm(hv_dense(x) - before)
        assert err <= bound + 1e-12 * nrm
        assert bound <= eps * nrm


def test_reported_local_errors_match_dense(rng, setup):
    # every committed or merged local error must equal its dense
    # counterpart recomputed from scratch
    inst, induced, zfac, pfac = setup
    iso = inst.input_basis
    tree = inst.tree
    x = random_hvector(inst.input_basis, rng, steps=3)
    y = multiply(inst.plan, x)
    dense_y = hv_dense(y)
    out, bound, report = convert(y, iso, zfac, pfac, ToleranceBudget(1e-6))
    for i, err in report.commit_errors.items():
        sl = tree.positions(i)
        q = iso.materialize(i)
        truth = np.linalg.norm(dense_y[sl] - q @ (q.T @ dense_y[sl]))
        assert abs(err - truth) <= 1e-11 * max(1.0, truth)


def test_tolerance_budget_rejects_negative_or_nan_eps():
    for eps in (-1.0, -1e-300, float("nan"), -float("inf")):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            ToleranceBudget(eps)
    for eps in (0.0, 1e-5, float("inf")):
        assert ToleranceBudget(eps).eps == eps


# (n, k, ka, seed, leaf_size): the first stacks short nowhere, the
# others do at most fathers of leaves, as the demo's induced basis does
NESTED_CASES = [(64, 1, 3, 1, None), (96, 3, 2, 7, 3), (128, 2, 3, 4, None), (300, 3, 3, 300, None)]


@pytest.fixture(scope="module", params=NESTED_CASES, ids=["-".join(map(str, c)) for c in NESTED_CASES])
def nested(request):
    """An instance, the nested basis of its induced basis with the
    map to it, and both paths' projection and merge factors."""
    n, k, ka, seed, leaf_size = request.param
    inst = random_instance(n, k, ka, 1.0, seed, leaf_size=leaf_size)
    iso = inst.input_basis
    basis, change = nested_orthogonalize(inst.plan.induced)
    oracle = projection_factors(inst.plan.induced, iso)
    return inst, CoordinateMap(change), projection_factors(basis, iso), oracle, coarsening_factors(iso)


def _products(inst, seed, count=6):
    """Products of random vectors on random subtrees, scaled to norm 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        y = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=int(rng.integers(0, 6))))
        nrm = np.linalg.norm(hv_dense(y))
        if nrm > 0.0:
            scale(y, 1.0 / nrm)
            yield y


def test_the_map_keeps_the_product(nested):
    inst, to_nested, _, _, _ = nested
    for y in _products(inst, 1):
        z = to_nested(y)
        assert z.basis is to_nested.factors.target and z.sub is not y.sub
        assert z.sub.leaves() == y.sub.leaves()
        want = hv_dense(y)
        assert np.linalg.norm(hv_dense(z) - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
def test_conversion_through_the_nested_basis_matches_the_induced_one(nested, eps):
    inst, to_nested, zfac, oracle, pfac = nested
    iso, tree, budget = inst.input_basis, inst.tree, ToleranceBudget(eps)
    for y in _products(inst, int(-np.log10(eps))):
        got, bound, report = convert(to_nested(y), iso, zfac, pfac, budget)
        want, want_bound, want_report = convert(y, iso, oracle, pfac, budget)
        assert got.sub.leaves() == want.sub.leaves()
        assert sorted(report.commit_errors) == sorted(want_report.commit_errors)
        assert sorted(report.merge_errors) == sorted(want_report.merge_errors)
        assert report.forced == want_report.forced
        live = got.leaf_entries()
        assert np.max(np.abs(got.data[live] - want.data[live])) <= 1e-12
        # both add up errors exact to round-off in the product's scale, 1
        assert abs(bound - want_bound) <= 1e-11 * want_bound + 1e-14
        # forced commits, at leaves too small for the product, exceed eps
        assert bound <= eps or report.forced
        assert np.linalg.norm(hv_dense(got) - hv_dense(y)) <= bound + 1e-12
        # the projection-error identity at every commit
        dense_y = hv_dense(y)
        for i, err in report.commit_errors.items():
            q, part = iso.materialize(i), dense_y[tree.positions(i)]
            truth = np.linalg.norm(part - q @ (q.T @ part))
            assert abs(err - truth) <= 1e-11 * max(1.0, truth)


def test_the_map_keeps_its_steps_per_leaf_mask(nested):
    inst, to_nested, _, _, _ = nested
    x = random_hvector(inst.input_basis, np.random.default_rng(5), steps=3)
    y = multiply(inst.plan, x)
    to_nested(y)
    steps = to_nested.steps
    to_nested(multiply(inst.plan, x))
    assert to_nested.steps is steps
    # the full subtree's product has other leaves, so other steps
    full = HVector(inst.input_basis, Subtree.from_interior(inst.tree, inst.tree.has_sons))
    to_nested(multiply(inst.plan, full))
    assert to_nested.steps is not steps
    assert sum(len(step.clusters) for step in to_nested.steps) == int(np.count_nonzero(~inst.tree.has_sons))


def test_the_map_refuses_a_family_of_another_basis(nested, rng):
    inst, to_nested, zfac, _, pfac = nested
    y = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=2))
    other = random_instance(inst.tree.n, 1, 1, 1.0, 11)
    _, change = nested_orthogonalize(other.plan.induced)
    with pytest.raises(ValueError, match="^coordinate factors belong to a different source basis$"):
        CoordinateMap(change)(y)
    with pytest.raises(ValueError, match="^coordinate factors belong to a different source basis$"):
        to_nested(HVector(inst.input_basis))
    for wrong, got in ((zfac, "projection factors"), (pfac, "merge factors"), (None, "NoneType")):
        with pytest.raises(ValueError, match=f"^expected coordinate factors, got {got}$"):
            CoordinateMap(wrong)(y)
