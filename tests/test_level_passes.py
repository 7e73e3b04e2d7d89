"""The level passes of vector algebra and conversion against the
recursive walks of ``algebra_reference``: equal subtrees, equal
decisions, equal counted flops and values equal up to round-off."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference as reference
from h2vec import kernels
from h2vec.basis import (
    coarsening_factors,
    cross_gram_family,
    gram_family,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from h2vec.convert import ToleranceBudget, coarsen_pass, convert
from h2vec.demo import full_subtree
from h2vec.hvector import HVector, axpy, coarsen, dot, from_dense, norm, to_dense
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_instance,
    random_iso_basis,
    random_subtree,
    random_tree,
)
from h2vec.matvec import multiply
from h2vec.tree import build_cluster_tree
from test_basis import ragged_basis

_property = settings(max_examples=30, deadline=None)
_shape = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 128),
    dim=st.integers(1, 2),
    rank=st.integers(1, 3),
)
# tolerances as fractions of the vector's norm; 0 keeps exact merges only
_fractions = st.sampled_from([0.0, 1e-10, 1e-6, 1e-3, 1e-1, 0.5])


def _tree(seed, n, dim, rank):
    """A random tree, a generator and a rank no leaf is too small for."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, n, dim, 2 * rank + 2)
    return tree, rng, min(rank, int(tree.sizes[~tree.has_sons].min()))


def _basis(kind, tree, rank, rng):
    if kind == "iso":
        return random_iso_basis(tree, rank, rng)
    if kind == "plain":
        return random_basis(tree, rank, rng)
    return ragged_basis(tree, rng, 3)


def _vector(basis, rng, steps):
    sub = random_subtree(basis.tree, rng, steps=steps)
    return HVector(basis, sub, rng.standard_normal(basis.ptr[-1]))


def _leaf_norm(x):
    return float(np.linalg.norm(x.data[x.leaf_entries()]))


def _assert_same_vector(got, want):
    assert got.sub.leaves() == want.sub.leaves()
    live = want.leaf_entries()
    scale = max(1e-300, np.max(np.abs(want.data[live]), initial=0.0))
    assert np.max(np.abs(got.data[live] - want.data[live]), initial=0.0) <= 1e-13 * scale


def _counted(call, *args):
    with kernels.count_flops() as counter:
        out = call(*args)
    return out, counter.total


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@_property
@given(
    **_shape,
    kind=st.sampled_from(["iso", "plain", "ragged"]),
    steps=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    alpha=st.floats(-2.0, 2.0),
)
def test_axpy_dot_norm_match_reference(seed, n, dim, rank, kind, steps, alpha):
    tree, rng, rank = _tree(seed, n, dim, rank)
    basis = _basis(kind, tree, rank, rng)
    gram = gram_family(basis)
    x, y = _vector(basis, rng, steps[0]), _vector(basis, rng, steps[1])
    got, want = y.copy(), y.copy()
    _, flops = _counted(axpy, alpha, x, got)
    _, ref_flops = _counted(reference.axpy, alpha, x, want)
    _assert_same_vector(got, want)
    assert flops == ref_flops
    for u, v in ((x, y), (y, x), (x, got), (got, got)):
        value, flops = _counted(dot, u, v, gram)
        ref, ref_flops = _counted(reference.dot, u, v, gram)
        assert flops == ref_flops
        scale = max(1.0, np.linalg.norm(to_dense(u)) * np.linalg.norm(to_dense(v)))
        assert abs(value - ref) <= 1e-13 * scale
    value, flops = _counted(norm, got, gram)
    ref, ref_flops = _counted(reference.norm, got, gram)
    assert flops == ref_flops
    assert abs(value - ref) <= 1e-13 * max(1.0, ref)
    assert abs(value - np.linalg.norm(to_dense(got))) <= 1e-12 * max(1.0, ref)


def _assert_within_bound(after, before, bound, eps, scale):
    err = float(np.linalg.norm(to_dense(after) - to_dense(before)))
    assert err <= bound + 1e-12 * max(1.0, scale)
    if eps is not None:
        assert bound <= eps + 1e-12 * max(1.0, scale)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@_property
@given(**_shape, steps=st.integers(0, 30), fraction=_fractions)
def test_coarsen_pass_matches_reference(seed, n, dim, rank, steps, fraction):
    tree, rng, rank = _tree(seed, n, dim, rank)
    iso = random_iso_basis(tree, rank, rng)
    factors = coarsening_factors(iso)
    x = random_hvector(iso, rng, steps=steps)
    if rng.random() < 0.5:
        # a vector that merges exactly in places: pushed down from a coarser one
        coarse = random_hvector(iso, rng, steps=steps // 3)
        axpy(1.0, coarse, x)
    scale = _leaf_norm(x)
    budget = ToleranceBudget(fraction * scale)
    got, want = x.copy(), x.copy()
    bound, flops = _counted(coarsen_pass, got, factors, budget)
    ref, ref_flops = _counted(reference.coarsen_pass, want, factors, budget)
    _assert_same_vector(got, want)
    assert flops == ref_flops
    assert abs(bound - ref) <= 1e-12 * max(1.0, scale)
    _assert_within_bound(got, x, bound, budget.eps, scale)
    _assert_within_bound(want, x, ref, budget.eps, scale)


def _conversion_case(kind, seed, n, dim, rank, steps):
    """(x, target, zfactors, pfactors) for one kind of source basis."""
    if kind == "induced":
        inst = random_instance(n, rank, int(seed % 3) + 1, 1.0, seed, dim=dim)
        rng = np.random.default_rng(seed)
        x = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=steps))
        target = inst.input_basis
    elif kind == "range":
        # the target spans the source: commits fit, and a coarse vector
        # refined to a finer subtree merges exactly
        tree, rng, rank = _tree(seed, n, dim, rank)
        source = random_basis(tree, rank, rng)
        target, _ = orthogonalize(source)
        x = _vector(source, rng, steps)
        if rng.random() < 0.5:
            x.data[:] = 0.0
        axpy(1.0, _vector(source, rng, steps // 3), x)
    else:
        tree, rng, rank = _tree(seed, n, dim, rank)
        target = random_iso_basis(tree, rank, rng)
        other = min(int(rng.integers(1, 4)), int(tree.sizes[~tree.has_sons].min()))
        source = random_iso_basis(tree, other, rng) if kind == "iso" else random_basis(tree, other, rng)
        x = _vector(source, rng, steps)
    return x, target, projection_factors(x.basis, target), coarsening_factors(target)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=60, deadline=None)
@given(
    **_shape,
    kind=st.sampled_from(["iso", "plain", "range", "induced"]),
    steps=st.integers(0, 30),
    fraction=_fractions,
)
def test_convert_matches_reference(seed, n, dim, rank, kind, steps, fraction):
    x, target, zf, pf = _conversion_case(kind, seed, n, dim, rank, steps)
    scale = _leaf_norm(x)
    budget = ToleranceBudget(fraction * scale)
    (y, bound, report), flops = _counted(convert, x, target, zf, pf, budget)
    (ry, ref, rreport), ref_flops = _counted(reference.convert, x, target, zf, pf, budget)
    _assert_same_vector(y, ry)
    assert flops == ref_flops
    assert report.commit_errors.keys() == rreport.commit_errors.keys()
    assert report.merge_errors.keys() == rreport.merge_errors.keys()
    assert sorted(report.forced) == sorted(rreport.forced)
    assert abs(bound - ref) <= 1e-12 * max(1.0, scale)
    assert report.bound == bound
    # the bound stays inside eps unless a tree leaf had to commit anyway
    eps = budget.eps if not report.forced else None
    _assert_within_bound(y, x, bound, eps, scale)
    _assert_within_bound(ry, x, ref, eps, scale)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=40, deadline=None)
@given(
    **{**_shape, "n": st.integers(8, 48)},
    kind=st.sampled_from(["iso", "plain", "range", "induced"]),
    steps=st.integers(0, 20),
    fraction=st.sampled_from([1e-6, 1e-3, 1e-2, 0.1, 0.5]),
)
def test_convert_reports_its_error_and_leaves_no_merge_that_fits(seed, n, dim, rank, kind, steps, fraction):
    x, target, zf, pf = _conversion_case(kind, seed, n, dim, rank, steps)
    eps = fraction * _leaf_norm(x)
    y, bound, report = convert(x, target, zf, pf, ToleranceBudget(eps))
    tree, dense, out = target.tree, to_dense(x), to_dense(y)
    err = float(np.linalg.norm(out - dense))
    scale = max(1.0, float(np.linalg.norm(dense)))
    # below 1e-13 of the vector, the dense expansions' rounding dominates
    if err > 1e-13 * scale:
        assert abs(bound - err) <= 1e-10 * err
    if report.forced:
        return
    assert err <= eps + 1e-12 * scale
    # every cluster whose sons are all leaves was a candidate on its
    # level and did not fit what was left then, no less than now
    leaves = set(y.sub.leaves())
    for i in range(len(tree)):
        sons = tree.sons(i)
        if sons and i not in leaves and i in y.sub and leaves.issuperset(sons):
            q, part = target.materialize(i), out[tree.positions(i)]
            gap = float(np.sum((part - q @ (q.T @ part)) ** 2))
            assert err * err + gap >= eps * eps * (1.0 - 1e-9) - 1e-24 * scale * scale


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@_property
@given(**_shape, kind=st.sampled_from(["iso", "plain", "ragged"]), steps=st.integers(0, 40))
def test_to_dense_matches_reference(seed, n, dim, rank, kind, steps):
    tree, rng, rank = _tree(seed, n, dim, rank)
    x = _vector(_basis(kind, tree, rank, rng), rng, steps)
    want = reference.to_dense(x)
    assert np.max(np.abs(to_dense(x) - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("steps", [0, 5, 200])
def test_to_dense_of_induced_vectors_matches_reference(steps):
    inst = random_instance(96, 3, 2, 1.0, seed=steps)
    rng = np.random.default_rng(steps)
    y = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=steps))
    want = reference.to_dense(y)
    assert np.max(np.abs(to_dense(y) - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_leaf_groups_stack_every_leaf_once(rng):
    basis = ragged_basis(random_tree(rng, 200, 2, 8), rng, 3)
    tree = basis.tree
    seen = []
    for group in basis.leaf_matrix.groups:
        for j, t in enumerate(group.clusters.tolist()):
            assert np.shares_memory(basis.leaf_matrix[t], group.stack)
            assert np.array_equal(group.stack[j], basis.leaf_matrix[t])
            assert group.source[j].tolist() == list(range(basis.ptr[t], basis.ptr[t + 1]))
            assert group.target[j].tolist() == list(range(tree.n)[tree.positions(t)])
            seen.append(t)
    assert sorted(seen) == sorted(tree.leaves())


def test_factors_are_views_into_stacks(rng, small_iso):
    source = random_basis(small_iso.tree, 2, rng)
    zf = projection_factors(source, small_iso)
    pf = coarsening_factors(small_iso)
    for group in zf.groups:
        k = group.target.shape[1]
        for j, i in enumerate(group.clusters.tolist()):
            assert np.shares_memory(zf[i], group.stack)
            assert np.array_equal(group.stack[j], zf[i])
            assert k == small_iso.rank_of(i)
            assert group.source[j].tolist() == list(range(source.ptr[i], source.ptr[i + 1]))
    for group in pf.groups:
        for j, i in enumerate(group.clusters.tolist()):
            assert np.shares_memory(pf[i], group.stack)
            assert pf[i].ctypes.data == group.stack[j].ctypes.data
    with pytest.raises(TypeError):
        zf[0] = np.zeros((2, 2))


@pytest.mark.parametrize("entry", ["coarsen", "coarsen_pass", "convert", "dot", "norm"])
def test_families_refuse_each_other(rng, entry):
    iso = random_iso_basis(line_tree(64, 4), 3, rng)
    x = random_hvector(iso, rng, steps=4)
    gram, merge, budget = gram_family(iso), coarsening_factors(iso), ToleranceBudget(1.0)
    calls = {
        "coarsen": lambda: coarsen(x, iso.tree.root, gram),
        "coarsen_pass": lambda: coarsen_pass(x, gram, budget),
        "convert": lambda: convert(x, iso, projection_factors(iso, iso), gram, budget),
        "dot": lambda: dot(x, x, merge),
        "norm": lambda: norm(x, merge),
    }
    got = "merge factors" if entry in ("dot", "norm") else "a Gram family"
    with pytest.raises(ValueError, match=f"expected .*, got {got}"):
        calls[entry]()


_KINDS = {
    "merge": "merge factors",
    "gram": "a Gram family",
    "cross": "a cross-Gram family",
    "stacked": "projection factors",
    "transfer": "ClusterMatrices",
}


@pytest.mark.parametrize(
    ("entry", "wrong"),
    [
        (entry, wrong)
        for entry in ("dot", "norm", "coarsen", "coarsen_pass", "convert")
        for wrong in _KINDS
        if wrong != ("gram" if entry in ("dot", "norm") else "merge")
    ],
)
def test_wrong_kind_is_named(rng, entry, wrong):
    # a projection stack was once called "a Gram family"
    iso = random_iso_basis(line_tree(64, 4), 3, rng)
    x = random_hvector(iso, rng, steps=4)
    zf, budget = projection_factors(iso, iso), ToleranceBudget(1.0)
    factors = {
        "merge": coarsening_factors(iso),
        "gram": gram_family(iso),
        "cross": cross_gram_family(iso, iso),
        "stacked": zf,
        "transfer": iso.transfer,
    }[wrong]
    calls = {
        "dot": lambda: dot(x, x, factors),
        "norm": lambda: norm(x, factors),
        "coarsen": lambda: coarsen(x, iso.tree.root, factors),
        "coarsen_pass": lambda: coarsen_pass(x, factors, budget),
        "convert": lambda: convert(x, iso, zf, factors, budget),
    }
    expected = "a Gram family" if entry in ("dot", "norm") else "merge factors"
    with pytest.raises(ValueError, match=f"^expected {expected}, got {_KINDS[wrong]}$"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["coarsen_pass", "convert"])
def test_budget_must_be_a_tolerance_budget(rng, entry):
    iso = random_iso_basis(line_tree(64, 4), 3, rng)
    x = random_hvector(iso, rng, steps=4)
    before = x.data.copy()
    merge = coarsening_factors(iso)
    calls = {
        "coarsen_pass": lambda: coarsen_pass(x, merge, 1e-3),
        "convert": lambda: convert(x, iso, projection_factors(iso, iso), merge, 1e-3),
    }
    with pytest.raises(ValueError, match="budget must be a ToleranceBudget, got float"):
        calls[entry]()
    assert np.array_equal(x.data, before)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_merge_factors_of_another_basis_are_refused():
    pts = np.random.default_rng(0).random((2000, 2))
    tree = build_cluster_tree(pts, 64)
    iso, _ = orthogonalize(polynomial_basis(tree, pts, 2))
    other, _ = orthogonalize(polynomial_basis(tree, pts[:, ::-1] ** 2, 2))
    assert iso.rank == other.rank == 9
    p = pts[tree.perm]
    x, _ = from_dense(np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]), iso, full_subtree(tree))
    wrong = coarsening_factors(other)
    with pytest.raises(ValueError, match="merge factors belong to a different basis"):
        coarsen_pass(x, wrong, ToleranceBudget(1.0))
    with pytest.raises(ValueError, match="merge factors belong to a different basis"):
        convert(x, iso, projection_factors(iso, iso), wrong, ToleranceBudget(1.0))
    with pytest.raises(ValueError, match="merge factors belong to a different basis"):
        coarsen(x, tree.by_level[-2][0], wrong)
    # with its own factors the pass keeps error <= bound
    before = to_dense(x)
    bound = coarsen_pass(x, coarsening_factors(iso), ToleranceBudget(1.0))
    assert np.linalg.norm(to_dense(x) - before) <= bound <= 1.0
