import os
import re
import warnings

import pytest

from h2vec.cli import main
from h2vec.selftest import run_selftest


def test_selftest_passes():
    assert run_selftest(seed=0, verbose=False) == 0


@pytest.mark.parametrize("seed", range(4))
def test_selftest_emits_no_warning(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_selftest(seed=seed, verbose=False) == 0


def test_selftest_detects_corrupted_coupling():
    assert run_selftest(seed=0, corrupt_coupling=True, verbose=False) > 0


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
