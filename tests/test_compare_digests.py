import importlib.util
from pathlib import Path

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
