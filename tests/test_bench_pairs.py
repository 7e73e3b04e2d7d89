import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_has_inclusive_quartiles_and_lower_counts():
    parent = [0.40, 0.42, 0.41, 0.39, 0.43]
    change = [0.30, 0.44, 0.29, 0.31, 0.28]
    pairs = [
        {"seed": k, "parent": {"setup_s": p, "clusters": 7.0}, "change": {"setup_s": c, "clusters": 7.0}}
        for k, (p, c) in enumerate(zip(parent, change))
    ]
    summary = bench_pairs.summarize(pairs, {"setup_s": "lower", "clusters": "lower"})
    assert summary["parent"]["setup_s"] == pytest.approx({"median": 0.41, "q1": 0.40, "q3": 0.42})
    assert summary["change"]["setup_s"]["median"] == pytest.approx(0.30)
    assert summary["setup_s_lower_in"] == 4
    assert summary["clusters_lower_in"] == 0
    assert summary["pairs"] == 5
