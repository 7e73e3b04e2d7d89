import numpy as np
import pytest

from h2vec.demo import (
    PoissonDemo,
    cell_bounds,
    corner_concentration,
    full_subtree,
    partition_areas,
    write_partition_svg,
)
from h2vec.h2matrix import compress_dense, to_dense
from h2vec.tree import Subtree


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
    # long enough for the unclamped bound to pass 2 (at step 34)
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
    assert sub.check_partition() is None


def test_setup_matches_the_dense_inverse_oracle(demo):
    perm = demo.tree.perm
    inverse = np.linalg.inv(demo.problem.matrix)[np.ix_(perm, perm)]
    _, error, _ = compress_dense(inverse, demo.iso, demo.iso, demo.block_tree)
    assert abs(demo.compression_error - error) <= 1e-12 * error
    assert np.array_equal(demo.dense_op, to_dense(demo.matrix))


def test_dense_guard():
    with pytest.raises(ValueError):
        PoissonDemo(grid=128)
