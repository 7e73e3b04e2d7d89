import importlib
import math
import os
import re
import warnings

import numpy as np
import pytest

from h2vec import basis as basis_module
from h2vec import hvector, kernels, selftest
from h2vec import tree as tree_module
from h2vec.cli import main
from h2vec.h2matrix import H2Matrix, to_dense
from h2vec.selftest import run_selftest

# h2vec.convert is also the name of the package's convert function
convert_module = importlib.import_module("h2vec.convert")


def test_selftest_passes():
    assert run_selftest(seed=0, verbose=False) == 0


@pytest.mark.parametrize("seed", range(4))
def test_selftest_emits_no_warning(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_selftest(seed=seed, verbose=False) == 0


def test_selftest_detects_corrupted_coupling(monkeypatch):
    # the product suite's dense reference expands the matrix with one
    # coupling matrix changed, so its oracles must disagree
    def corrupted(m):
        coupling = m.coupling.copy()
        coupling[0] += 0.5  # the first leaf block's
        return to_dense(H2Matrix(m.block_tree, m.row_basis, m.col_basis, coupling))

    monkeypatch.setattr(selftest, "to_dense", corrupted)
    assert run_selftest(seed=0, verbose=False) > 0


def _failed_suites(capsys):
    run_selftest(seed=0)
    lines = capsys.readouterr().out.splitlines()
    return {line[:18].strip() for line in lines if line.endswith("FAILED")}


def test_selftest_kernels_detects_a_miscounted_flop(monkeypatch, capsys):
    tally = kernels.tally
    monkeypatch.setattr(kernels, "tally", lambda n: tally(2 * n))
    assert "kernels" in _failed_suites(capsys)


def test_selftest_tree_detects_a_misplaced_point(monkeypatch, capsys):
    # the first and the last position trade their points
    def swapped(*args):
        built = assemble(*args)
        built.perm[[0, -1]] = built.perm[[-1, 0]]
        return built

    assemble = tree_module._assemble
    monkeypatch.setattr(tree_module, "_assemble", swapped)
    assert "tree" in _failed_suites(capsys)


def test_selftest_basis_detects_a_perturbed_transfer(monkeypatch, capsys):
    def perturbed(basis):
        iso, change = nested_orthogonalize(basis)
        iso.transfer.store[0] += 1e-3
        return iso, change

    nested_orthogonalize = basis_module.nested_orthogonalize
    monkeypatch.setattr(basis_module, "nested_orthogonalize", perturbed)
    assert "basis" in _failed_suites(capsys)


def test_selftest_hvector_detects_a_wrong_merge_error(monkeypatch, capsys):
    def inflated(x, i, factors):
        merged, error, size = merge(x, i, factors)
        return merged, 1.01 * error, size

    merge = hvector.merge
    monkeypatch.setattr(hvector, "merge", inflated)
    assert "hvector" in _failed_suites(capsys)


def test_selftest_convert_detects_an_understated_bound(monkeypatch, capsys):
    ascent = convert_module._ascent
    monkeypatch.setattr(convert_module, "_ascent", lambda *args: 0.5 * ascent(*args))
    assert "convert" in _failed_suites(capsys)


def test_selftest_convert_detects_the_triangle_bound(monkeypatch, capsys):
    # the triangle recursion acc(t) = merge(t) + sqrt(sum of the sons'
    # acc squared), which convert reported before its error ledger,
    # bounds the error but exceeds it where a merge lies above others
    def triangle(x, target, *args):
        y, _, report = convert(x, target, *args)

        def acc(t):
            if t in report.commit_errors:
                return report.commit_errors[t]
            return report.merge_errors[t] + math.sqrt(sum(acc(s) ** 2 for s in target.tree.sons(t)))

        return y, math.sqrt(sum(acc(t) ** 2 for t in y.sub.leaves())), report

    convert = selftest.convert
    monkeypatch.setattr(selftest, "convert", triangle)
    assert "convert" in _failed_suites(capsys)


def test_selftest_deterministic(capsys):
    run_selftest(seed=3)
    first = capsys.readouterr().out
    run_selftest(seed=3)
    second = capsys.readouterr().out
    assert first == second


def test_cli_selftest_exit_code():
    assert main(["selftest", "--seed", "1"]) == 0


def _strip_stamp(text, drop_last_column=False):
    lines = text.splitlines()
    assert lines[0].startswith("#")
    lines = lines[1:]
    if drop_last_column:
        lines = [",".join(ln.split(",")[:-1]) for ln in lines]
    return "\n".join(lines)


def test_cli_bench_matvec(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "matvec",
            "--sizes",
            "64,128",
            "--k",
            "2",
            "--ka",
            "2",
            "--eta",
            "1.0",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[1].startswith("n,tx,ty,csp")
    assert len(lines) > 3
    # deterministic except for the timestamped header line
    out2 = tmp_path / "bench2.csv"
    main(
        [
            "bench", "matvec", "--sizes", "64,128", "--k", "2", "--ka", "2",
            "--eta", "1.0", "--seed", "0", "--out", str(out2),
        ]
    )
    # byte-identical except the timestamp line and the wall-time column
    assert _strip_stamp(text, drop_last_column=True) == _strip_stamp(
        out2.read_text(), drop_last_column=True
    )


def test_cli_demo_poisson(tmp_path):
    prefix = str(tmp_path / "demo")
    code = main(
        [
            "demo",
            "poisson",
            "--grid",
            "16",
            "--degree",
            "1",
            "--eta",
            "1.0",
            "--eps",
            "1e-5",
            "--steps",
            "5",
            "--out-prefix",
            prefix,
        ]
    )
    assert code == 0
    for suffix in ("-runtime.csv", "-clusters.csv", "-eigen.csv", "-partition.svg"):
        assert os.path.exists(prefix + suffix)
    with open(prefix + "-runtime.csv") as handle:
        runtime = handle.read().splitlines()
    assert runtime[1].endswith(
        "seconds_dense,seconds_matvec,seconds_convert,seconds_vector,seconds_check"
    )
    assert len(runtime) == 2 + 5
    with open(prefix + "-clusters.csv") as handle:
        clusters = handle.read().splitlines()
    assert clusters[1] == "step,tx,ty,commits,merges,forced"
    assert len(clusters) == 2 + 5
    with open(prefix + "-eigen.csv") as handle:
        eigen = handle.read().splitlines()
    assert eigen[1].startswith("step,")
    assert len(eigen) == 2 + 5
    # floats carry 17 significant digits
    cell = eigen[2].split(",")[1]
    assert re.match(r"-?\d\.\d{10,}", cell) or "e" in cell


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cli_demo_rejects_a_step_count_below_one(tmp_path, capsys, steps):
    prefix = str(tmp_path / "demo")
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "demo", "poisson", "--grid", "16", "--degree", "1",
                "--steps", steps, "--out-prefix", prefix,
            ]
        )
    assert exit_info.value.code == 2
    assert "expected a positive count" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--grid", "15", "expected an even grid of at least 4"),
        ("--grid", "2", "expected an even grid of at least 4"),
        ("--grid", "x", "bad grid"),
        ("--eps", "-1e-5", "expected a non-negative tolerance"),
        ("--eps", "nan", "expected a non-negative tolerance"),
        ("--eps", "x", "bad tolerance"),
        ("--eta", "nan", "expected a finite, non-negative eta"),
        ("--eta", "-1", "expected a finite, non-negative eta"),
        ("--eta", "x", "bad eta"),
        ("--degree", "-1", "expected a non-negative degree"),
        ("--degree", "1.5", "bad degree"),
    ],
)
def test_cli_demo_rejects_bad_grid_or_eps(tmp_path, capsys, option, value, message):
    prefix = str(tmp_path / "demo")
    with pytest.raises(SystemExit) as exit_info:
        main(["demo", "poisson", "--degree", "1", f"{option}={value}", "--out-prefix", prefix])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--k", "0", "expected a positive rank"),
        ("--k", "x", "bad rank"),
        ("--ka", "-1", "expected a positive rank"),
        ("--sizes", "0", "expected a positive size"),
        ("--sizes", "64,-8", "expected a positive size"),
        ("--sizes", "64,x", "bad size"),
        ("--sizes", ",", "empty size list"),
        ("--eta", "nan", "expected a finite, non-negative eta"),
        ("--eta", "-1", "expected a finite, non-negative eta"),
        ("--eta", "inf", "expected a finite, non-negative eta"),
    ],
)
def test_cli_bench_rejects_bad_arguments(tmp_path, capsys, option, value, message):
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "matvec", f"{option}={value}", "--out", str(out)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sizes", "8", "--k", "16"], "error: ranks must lie between 1 and n = 8"),
        (["--sizes", "2"], "error: ranks must lie between 1 and n = 2"),
    ],
)
def test_cli_bench_reports_a_refused_setup(tmp_path, capsys, argv, message):
    code = main(["bench", "matvec", *argv, "--out", str(tmp_path / "bench.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bench", "demo"])
def test_cli_refuses_a_missing_output_folder_before_setup(tmp_path, capsys, command):
    # the demo once ran its whole solve before failing to write
    path = str(tmp_path / "missing" / "out")
    argv = {
        "bench": ["bench", "matvec", "--sizes", "64", "--out", path],
        "demo": ["demo", "poisson", "--grid", "16", "--degree", "1", "--out-prefix", path],
    }[command]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no directory {tmp_path / 'missing'}") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "grid, degree, message",
    [
        ("256", "3", "error: 48641 unknowns need a leaf operator of order 16384 (2147 MB)"),
        ("16", "10", "error: cluster 0: leaf evaluation matrix is rank deficient"),
    ],
)
def test_cli_demo_reports_a_refused_setup(tmp_path, capsys, grid, degree, message):
    prefix = str(tmp_path / "demo")
    code = main(["demo", "poisson", "--grid", grid, "--degree", degree, "--out-prefix", prefix])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# the documented columns of each CSV, in order (README, "Command line")
RUNTIME_COLUMNS = [
    "step", "flops_forward", "flops_coupling", "flops_backward", "flops_convert",
    "seconds_dense", "seconds_matvec", "seconds_convert", "seconds_vector", "seconds_check",
]
CLUSTERS_COLUMNS = ["step", "tx", "ty", "commits", "merges", "forced"]
EIGEN_COLUMNS = [
    "step", "nu_dense", "nu_hier", "lambda_min_estimate", "conv_bound", "cum_bound", "true_diff",
]
BENCH_COLUMNS = [
    "n", "tx", "ty", "csp", "max_rank",
    "flops_forward", "flops_coupling", "flops_backward", "flops_total", "seconds",
]


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _assert_round_trip(cells, values):
    # floats carry 17 significant digits, so they read back exactly;
    # counts are written as integers
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        if isinstance(value, (float, np.floating)):
            assert float(cell) == value, (cell, value)
        else:
            assert int(cell) == value, (cell, value)


def test_cli_demo_csvs_round_trip(tmp_path, monkeypatch):
    from h2vec.demo import PoissonDemo

    def kept(self, *args, **kwargs):
        runs.append(run(self, *args, **kwargs))
        return runs[-1]

    runs, run = [], PoissonDemo.run
    monkeypatch.setattr(PoissonDemo, "run", kept)
    assert main(["demo", "poisson", "--grid", "16", "--steps", "4", "--out-prefix", str(tmp_path / "demo")]) == 0
    (steps,) = [r.steps for r in runs]
    tables = {
        "runtime": (RUNTIME_COLUMNS, lambda s: [
            s.step, *(s.flops.get(p, 0) for p in ("forward", "coupling", "backward", "convert")),
            *(s.seconds[p] for p in ("dense", "matvec", "convert", "vector", "check")),
        ]),
        "clusters": (CLUSTERS_COLUMNS, lambda s: [s.step, s.tx, s.ty, s.commits, s.merges, s.forced]),
        "eigen": (EIGEN_COLUMNS, lambda s: [
            s.step, s.nu_dense, s.nu_hier, 1.0 / s.nu_hier, s.conv_bound, s.cum_bound, s.true_diff,
        ]),
    }
    for name, (columns, values) in tables.items():
        header, rows = _read_csv(tmp_path / f"demo-{name}.csv")
        assert header == columns
        assert len(rows) == len(steps) == 4
        for cells, s in zip(rows, steps):
            _assert_round_trip(cells, values(s))


def test_cli_bench_csv_round_trips(tmp_path, monkeypatch):
    from h2vec import cli

    def kept(*args):
        results.append(bench(*args))
        return results[-1]

    results, bench = [], cli.bench_matvec
    monkeypatch.setattr(cli, "bench_matvec", kept)
    out = tmp_path / "bench.csv"
    assert main(["bench", "matvec", "--sizes", "32,64", "--out", str(out)]) == 0
    (result,) = results
    # rows as mappings from column to value, or as tuples under a header
    rows = [list(r.values()) for r in result] if isinstance(result, list) else result[1]
    header, cells = _read_csv(out)
    assert header == BENCH_COLUMNS
    assert len(cells) == len(rows) > 2
    for line, values in zip(cells, rows):
        _assert_round_trip(line, values)
