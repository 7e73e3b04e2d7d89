import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


LOWER = {"better": "lower", "bound": 0.25}


def _side(setup_s, attempted, failed):
    return {"setup_s": setup_s, "clusters": 7.0, "attempted": attempted, "failed": failed}


def test_summary_has_inclusive_quartiles_and_lower_counts():
    parent = [0.40, 0.42, 0.41, 0.39, 0.43]
    change = [0.30, 0.44, 0.29, 0.31, 0.28]
    pairs = [
        {"seed": k, "parent": _side(p, 100, 0), "change": _side(c, 50 + 10 * k, k % 2)}
        for k, (p, c) in enumerate(zip(parent, change))
    ]
    summary = bench_pairs.summarize(pairs, {"setup_s": LOWER, "clusters": LOWER})
    assert summary["parent"]["setup_s"] == pytest.approx({"median": 0.41, "q1": 0.40, "q3": 0.42})
    assert summary["change"]["setup_s"]["median"] == pytest.approx(0.30)
    assert summary["setup_s_lower_in"] == 4
    assert summary["clusters_lower_in"] == 0
    assert summary["pairs"] == 5
    # shares over all attempted operations, not a mean of per-pair shares
    assert summary["parent"]["failed_share"] == 0.0
    assert summary["change"]["failed_share"] == pytest.approx(2 / 350)


def _pairs(parent, change):
    return [
        {"seed": k, "parent": {"m": p, "attempted": 1, "failed": 0}, "change": {"m": c, "attempted": 1, "failed": 0}}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


def _verdicts(parent, change, better="lower", bound=0.25):
    summary = bench_pairs.summarize(_pairs(parent, change), {"m": {"better": better, "bound": bound}})
    return summary["gain"]["m"], summary["within_bound"]["m"]


def test_gain_needs_nine_of_ten_pairs_and_a_median_beyond_the_parent_spread():
    parent = [9.0, 9.5, 9.6, 9.8, 10.0, 10.0, 10.2, 10.4, 10.5, 11.0]
    lower = [p - 1.0 for p in parent]
    summary = bench_pairs.summarize(_pairs(parent, lower), {"m": LOWER})
    assert summary["parent"]["m"] == pytest.approx({"median": 10.0, "q1": 9.65, "q3": 10.35})
    assert _verdicts(parent, lower) == (True, True)
    # nine pairs lower still gains; eight do not
    assert _verdicts(parent, lower[:9] + [parent[9] + 1.0])[0]
    assert not _verdicts(parent, lower[:8] + [p + 1.0 for p in parent[8:]])[0]
    # lower in every pair, but by less than the parent's quartile spread
    assert _verdicts(parent, [p - 0.5 for p in parent]) == (False, True)
    # for a metric better higher, the same values read the other way
    assert _verdicts(lower, parent, better="higher")[0]
    assert not _verdicts(parent, lower, better="higher")[0]


def test_within_bound_compares_the_medians_with_the_bound():
    parent = [1.0] * 10
    assert _verdicts(parent, [1.25] * 10) == (False, True)
    assert _verdicts(parent, [1.25] * 9 + [9.0]) == (False, True)
    assert _verdicts(parent, [1.2501] * 10) == (False, False)
    assert _verdicts(parent, [1.0] * 10, bound=0.0) == (False, True)
    # better higher: no more than the bound below the parent's median
    assert _verdicts(parent, [0.75] * 10, better="higher") == (False, True)
    assert _verdicts(parent, [0.7499] * 10, better="higher") == (False, False)
