import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

spec = importlib.util.spec_from_file_location(
    "compare_digests", Path(__file__).resolve().parent.parent / "tools" / "compare_digests.py"
)
compare_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_digests)


def test_equal_runs_have_no_differences():
    run = {("matvec4096", 1): ["a", "b", "c"], ("poisson64", 1): ["p"]}
    assert compare_digests.compare(run, {key: list(d) for key, d in run.items()}) == []


def test_every_differing_or_missing_case_is_listed_in_order():
    parent = {("algebra128", 2): ["x", "y", "z"], ("matvec4096", 1): ["a", "b"], ("poisson64", 3): ["p"]}
    change = {("algebra128", 2): ["x", "Y"], ("matvec4096", 1): ["a", "b"], ("poisson64", 1): ["p"]}
    assert compare_digests.compare(parent, change) == [
        ("algebra128", 2, 1, "y", "Y"),
        ("algebra128", 2, 2, "z", None),
        ("poisson64", 1, 0, None, "p"),
        ("poisson64", 3, 0, "p", None),
    ]


def test_value_differences_give_the_largest_absolute_and_relative_gap():
    parent = [1.0, 2.0, 0.0, 4.0, np.nan]
    change = [1.0, 2.0 + 1e-15, -3e-17, 3.0, np.nan]
    assert compare_digests.value_differences(parent, change) == (
        "3 of 5 hashed floats differ, by at most 1 absolute and 1 relative (float 2: 0 against -3e-17)"
    )
    close = compare_digests.value_differences([1.0, 4.0], [1.0, 4.0 * (1.0 + 2.0**-50)])
    assert close == (
        "1 of 2 hashed floats differ, by at most 3.55e-15 absolute and 8.88e-16 relative (float 1: 4 against 4)"
    )
    assert compare_digests.value_differences([np.nan, np.inf], [1.0, -np.inf]) == (
        "2 of 2 hashed floats differ, by at most inf absolute and inf relative (float 0: nan against 1)"
    )
    assert compare_digests.value_differences(parent, parent) == "hashed floats equal"
    assert compare_digests.value_differences([1.0, 2.0], [1.0]) == "2 against 1 floats hashed"


def test_recorded_floats_are_those_the_digest_hashed():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("digested_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    steps = [
        SimpleNamespace(step=j, nu_dense=2.0 + j, nu_hier=2.5 + j, conv_bound=1e-6, cum_bound=2e-6,
                        true_diff=1e-7, tx=10 + j, ty=11 + j, flops={"product": 100 * j})
        for j in (1, 2)
    ]
    out = SimpleNamespace(eps=1e-5, start_bound=0.0, steps=steps, final_leaves=[3, 4])
    digest = workloads.Poisson64(1).digest(out)
    hashed = compare_digests.record_hashed(workloads)
    assert workloads.Poisson64(1).digest(out) == digest
    assert np.concatenate(hashed).tolist() == [
        1e-5, 0.0,
        1.0, 3.0, 3.5, 1e-6, 2e-6, 1e-7, 11.0, 12.0,
        2.0, 4.0, 4.5, 1e-6, 2e-6, 1e-7, 12.0, 13.0,
    ]
