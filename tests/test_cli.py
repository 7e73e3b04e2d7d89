import os
import re
import warnings

import pytest

from h2vec import selftest
from h2vec.cli import main
from h2vec.h2matrix import H2Matrix, to_dense
from h2vec.selftest import run_selftest


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
