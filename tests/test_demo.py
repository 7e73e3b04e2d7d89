import dataclasses
import math
import re
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from h2vec import hvector
from h2vec.basis import projection_factors
from h2vec.convert import ToleranceBudget, coarsen_pass, convert
from h2vec.demo import (
    PoissonDemo,
    _leaf_layout,
    cell_bounds,
    corner_concentration,
    full_subtree,
    partition_areas,
    write_partition_svg,
)
from h2vec.h2matrix import to_dense
from h2vec.hvector import from_dense
from h2vec.instances import random_instance
from h2vec.matvec import multiply
from h2vec.tree import Subtree

from conftest import compress_dense, dense_inverse, dense_stencil, leaf_ranges_tile
from demo_reference import dense_sweep, interleaved_run


def leaf_matrix(demo):
    """L: the leaf matrices of the demo's basis, block-diagonal, with
    their columns in the tree position order of the leaves."""
    tree = demo.tree
    leaves = sorted(tree.leaves(), key=lambda i: tree.begin[i])
    blocks = [demo.iso.leaf_matrix[i] for i in leaves]
    out = np.zeros((tree.n, sum(v.shape[1] for v in blocks)))
    at = 0
    for i, v in zip(leaves, blocks):
        out[tree.positions(i), at : at + v.shape[1]] = v
        at += v.shape[1]
    return out


def reachable_arrays(root):
    """Every ndarray reachable from root through instance attributes,
    containers and array bases."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, (str, bytes, int, float, type)):
            continue
        elif isinstance(obj, Mapping):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


@pytest.fixture(scope="module")
def demo():
    return PoissonDemo(grid=16, degree=1, eta=1.0)


@pytest.fixture(scope="module")
def run(demo):
    return demo.run(1e-5, steps=8)


def test_cell_bounds_tile_unit_interval():
    for grid in (8, 16, 64):
        c = cell_bounds(grid)
        assert c[0] == 0.0 and c[-1] == 1.0
        assert np.all(np.diff(c) > 0)
        assert c[grid // 2 - 1] == 0.5


def test_partition_areas_sum_to_lshape(demo, run):
    areas = partition_areas(demo.tree, run.final_leaves, demo.problem)
    assert abs(sum(areas.values()) - 0.75) <= 1e-9


def test_partition_covers_with_full_tree(demo):
    areas = partition_areas(demo.tree, demo.tree.leaves(), demo.problem)
    assert abs(sum(areas.values()) - 0.75) <= 1e-9


def test_bound_dominates_true_difference(demo):
    # long enough for the unclamped bound to pass 2 (at step 32)
    run = demo.run(1e-5, steps=40)
    for step in run.steps:
        assert step.true_diff <= step.cum_bound + 1e-12
        assert step.cum_bound <= 2.0


def test_eigenvalue_agreement(run):
    last = run.steps[-1]
    assert abs(last.nu_hier - last.nu_dense) <= 10.0 * 1e-5 * abs(last.nu_dense)


def test_flops_and_seconds_recorded(run):
    for step in run.steps:
        assert step.flops.get("coupling", 0) > 0
        assert set(step.seconds) == {"dense", "matvec", "convert", "vector", "check"}
        assert all(v >= 0.0 for v in step.seconds.values())


def test_conversion_report_recorded(run):
    for step in run.steps:
        assert step.commits >= 1 and step.merges >= 0 and step.forced >= 0
        # a binary tree: every merge turns two committed leaves into one
        assert step.tx == 2 * (step.commits - step.merges) - 1


def test_svg_output(tmp_path, demo, run):
    path = tmp_path / "partition.svg"
    write_partition_svg(path, demo.tree, run.final_leaves, demo.problem)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<rect") >= demo.tree.n  # one cell per point plus outlines


def test_corner_concentration_returns_pair(demo, run):
    near, far = corner_concentration(demo.tree, run.final_leaves, demo.problem)
    assert np.isfinite(near) or np.isfinite(far)


def test_full_subtree(demo):
    tree = demo.tree
    sub = full_subtree(tree)
    assert sub.count() == len(tree.clusters)
    # the same subtree as expanding every cluster that has sons
    walked = Subtree(tree)
    for i in range(len(tree.clusters)):
        if tree.sons(i):
            walked.expand(i)
    assert sub.leaves() == walked.leaves()
    assert np.array_equal(sub.leaf_mask(), walked.leaf_mask())
    assert np.array_equal(sub.interior_mask(), walked.interior_mask())
    assert leaf_ranges_tile(tree, sub.leaves())


def test_setup_matches_the_dense_inverse_oracle(demo):
    perm = demo.tree.perm
    inverse = np.linalg.inv(dense_stencil(demo.problem))[np.ix_(perm, perm)]
    _, error, _ = compress_dense(inverse, demo.iso, demo.iso, demo.block_tree)
    assert abs(demo.compression_error - error) <= 1e-12 * error
    # the operator in its leaf form reproduces the expanded matrix
    want = to_dense(demo.matrix)
    ell = leaf_matrix(demo)
    got = ell @ demo.leaf_operator @ ell.T
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("grid, degree", [(16, 1), (32, 3)])
def test_couplings_match_the_compressed_dense_inverse(grid, degree):
    demo = PoissonDemo(grid=grid, degree=degree)
    perm = demo.tree.perm
    inverse = dense_inverse(demo.problem)[np.ix_(perm, perm)]
    want, error, _ = compress_dense(inverse, demo.iso, demo.iso, demo.block_tree)
    assert want.coupling.shape == demo.matrix.coupling.shape
    diff = np.sum((demo.matrix.coupling - want.coupling) ** 2)
    total = np.sum(want.coupling * want.coupling)
    assert math.sqrt(diff) <= 1e-14 * math.sqrt(total)
    assert abs(demo.compression_error - error) <= 1e-11 * error


@pytest.mark.filterwarnings("ignore:leaf_size raised")
def test_leaf_layout_matches_the_walk_over_leaves(demo):
    # the loops the arrays replaced: leaves in position order, then
    # each interior cluster spans its first to its last son
    for basis in (demo.iso, random_instance(300, 2, 3, 1.0, 5).plan.induced):
        tree, rank = basis.tree, np.diff(basis.ptr)
        span, at = {}, 0
        for i in sorted(tree.leaves(), key=lambda i: tree.begin[i]):
            span[i] = (at, at + int(rank[i]))
            at += int(rank[i])
        for i in tree.post_order.tolist():
            sons = tree.sons(i)
            if sons:
                span[i] = (span[sons[0]][0], span[sons[-1]][1])
        entries, first, end = _leaf_layout(basis)
        assert list(zip(first.tolist(), end.tolist())) == [span[i] for i in range(len(tree))]
        for g, e in zip(basis.leaf_matrix.groups, entries):
            assert e[:, :, 0].tolist() == [list(range(*span[i])) for i in g.clusters.tolist()]


def test_op_norm_bounds_the_spectral_norm(demo):
    full = to_dense(demo.matrix)
    spectral = np.linalg.norm(full, 2)
    assert spectral <= demo.op_norm <= np.linalg.norm(demo.leaf_operator)
    assert abs(np.linalg.norm(demo.leaf_operator, 2) - spectral) <= 1e-14 * spectral


def test_apply_matches_the_expansion(demo):
    full = to_dense(demo.matrix)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(demo.tree.n)
        want = full @ x
        assert np.linalg.norm(demo.apply(x) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(160,), (162,), (161, 1), (1, 161), ()])
def test_apply_rejects_a_vector_of_another_shape(demo, shape):
    assert demo.tree.n == 161
    with pytest.raises(ValueError, match=r"expected a vector of shape \(161,\)"):
        demo.apply(np.ones(shape))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_apply_rejects_non_finite_entries(demo, value):
    x = np.ones(demo.tree.n)
    x[5] = value
    with pytest.raises(ValueError, match="non-finite"):
        demo.apply(x)


@pytest.mark.parametrize("degree", [1, 3])
def test_dense_sweep_matches_the_n_by_n_sweep(degree):
    demo = PoissonDemo(grid=16, degree=degree)
    full = to_dense(demo.matrix)
    n = demo.tree.n
    assert demo.leaf_operator.shape[0] < n
    start = np.ones(n) / math.sqrt(n)
    for (nu, x), (nu_ref, x_ref) in zip(
        dense_sweep(demo.apply, start, 20), dense_sweep(full.__matmul__, start, 20)
    ):
        assert abs(nu - nu_ref) <= 1e-14 * abs(nu_ref)
        assert np.abs(x - x_ref).max() <= 1e-14
    run = demo.run(1e-5, steps=20)
    want = interleaved_run(demo, 1e-5, 20, dense_step=full.__matmul__)
    assert run.start_bound == want.start_bound
    dense = {"nu_dense", "true_diff", "cum_bound", "seconds"}
    names = [f.name for f in dataclasses.fields(run.steps[0]) if f.name not in dense]
    for got, ref in zip(run.steps, want.steps):
        assert abs(got.nu_dense - ref.nu_dense) <= 1e-14 * abs(ref.nu_dense)
        assert abs(got.true_diff - ref.true_diff) <= 1e-14
        assert abs(got.cum_bound - ref.cum_bound) <= 1e-13 * ref.cum_bound
        for name in names:
            assert getattr(got, name) == getattr(ref, name), (got.step, name)
    assert run.final_leaves == want.final_leaves


@pytest.mark.parametrize("eps", [1e-5, 1e-8])
def test_run_matches_the_interleaved_schedule(demo, eps):
    run = demo.run(eps, steps=20)
    want = interleaved_run(demo, eps, steps=20)
    assert (run.eps, run.start_bound) == (want.eps, want.start_bound)
    assert len(run.steps) == len(want.steps) == 20
    names = [f.name for f in dataclasses.fields(run.steps[0]) if f.name != "seconds"]
    for got, ref in zip(run.steps, want.steps):
        for name in names:
            assert getattr(got, name) == getattr(ref, name), (got.step, name)
        assert set(got.seconds) == set(ref.seconds)
    assert run.final_leaves == want.final_leaves
    assert run.final_tx == want.final_tx


@pytest.mark.parametrize("degree", [-1, 1.5, 3.0, True, "3", None])
def test_demo_refuses_a_degree_that_is_not_a_non_negative_integer(degree):
    # -1 once surfaced as a leaf_size of 0, 1.5 as one of 25.0, and True
    # built a rank-4 demo
    with pytest.raises(ValueError, match=f"^degree must be an integer of at least 0, got {re.escape(repr(degree))}$"):
        PoissonDemo(grid=16, degree=degree)


def test_demo_takes_a_numpy_integer_degree(demo):
    other = PoissonDemo(grid=16, degree=np.int64(1))
    assert other.iso.rank == demo.iso.rank == 4
    assert np.array_equal(other.leaf_operator, demo.leaf_operator)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_conversion_through_the_nested_basis_matches_the_induced_one(eps):
    # the demo's own products, which merge and commit above the leaves,
    # converted through the nested basis and, as before, through the
    # induced basis's projection factors
    demo = PoissonDemo(grid=32)
    oracle = projection_factors(demo.plan.induced, demo.iso)
    budget = ToleranceBudget(eps)
    n = demo.tree.n
    xh, _ = from_dense(np.ones(n) / math.sqrt(n), demo.iso, full_subtree(demo.tree))
    coarsen_pass(xh, demo.pfactors, budget)
    merges = 0
    for _ in range(8):
        product = multiply(demo.plan, xh)
        mapped = demo.to_nested(product)
        dense = hvector.to_dense(product)
        assert np.linalg.norm(hvector.to_dense(mapped) - dense) <= 1e-11 * np.linalg.norm(dense)
        got, bound, report = convert(mapped, demo.iso, demo.zfactors, demo.pfactors, budget)
        want, want_bound, want_report = convert(product, demo.iso, oracle, demo.pfactors, budget)
        assert got.sub.leaves() == want.sub.leaves()
        assert sorted(report.commit_errors) == sorted(want_report.commit_errors)
        assert sorted(report.merge_errors) == sorted(want_report.merge_errors)
        assert report.forced == want_report.forced == []
        live = got.leaf_entries()
        scale = np.linalg.norm(dense)
        assert np.max(np.abs(got.data[live] - want.data[live])) <= 1e-12 * scale
        # both add up errors exact to round-off in the product's scale
        assert abs(bound - want_bound) <= 1e-11 * want_bound + 1e-14 * scale
        assert np.linalg.norm(hvector.to_dense(got) - dense) <= bound + 1e-12 * scale
        for i, err in report.commit_errors.items():
            q, part = demo.iso.materialize(i), dense[demo.tree.positions(i)]
            truth = np.linalg.norm(part - q @ (q.T @ part))
            assert abs(err - truth) <= 1e-11 * max(scale, truth)
        merges += len(report.merge_errors)
        xh = got
        hvector.scale(xh, 1.0 / hvector.norm(xh))
    # at eps 1e-8 the conversions keep every leaf of these products
    assert merges > 0 or eps == 1e-8


@pytest.mark.parametrize("steps", [0, -1, 2.5, "3", True, None])
def test_run_rejects_a_step_count_below_one(demo, steps):
    with pytest.raises(ValueError, match="steps must be a positive count"):
        demo.run(1e-5, steps=steps)


def test_setup_peak_memory(demo):
    # the module's demo has warmed up imports and caches; at grid 64 the
    # stores set-up keeps (the induced basis, its nested basis with the
    # coordinate and projection factors, the leaf operator and the
    # couplings) take about 49 MB and the traced peak is about 51 MB,
    # under the 69 MB of one n x n array:
    # so set-up never holds one (at grid 32 the stores alone take about
    # as much as an n x n array, so it would not show)
    tracemalloc.start()
    try:
        big = PoissonDemo(grid=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = big.tree.n
    assert peak < 8 * n * n


def test_demo_holds_no_array_of_n_squared_entries():
    demo = PoissonDemo(grid=32)
    n = demo.tree.n
    assert not hasattr(demo, "dense_op")
    sizes = [a.size for a in reachable_arrays(demo)]
    assert demo.leaf_operator.size in sizes
    assert max(sizes) < n * n


def test_dense_guard():
    # refused after the cluster tree, before the stencil blocks: those
    # alone take about 167 MB, the points and the tree about 5 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="48641 unknowns need a leaf operator of order 16384"):
            PoissonDemo(grid=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
