"""Repeat benchmark runs and summarise their spread; run from the repository root.

    python3 perfbench/stability.py --workloads poisson64,algebra128 --seeds 1-10
    python3 perfbench/stability.py --seeds 1-10 --out perfbench/baseline.json

Runs perfbench/run.py once per workload and seed, one run at a time,
with the run length of BENCHMARK.json.  For each end-to-end metric it
reports the median and the first and third quartiles of the runs (as
`statistics.quantiles(values, n=4)` gives them) and the distance
between the quartiles as a share of the median, next to the metric's
bound.  With --out it writes these figures, every run's values and the
metadata of the first run as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        bad = [r for _, r in runs if not r["correct"]]
        if bad:
            raise RuntimeError(f"{workload}: {len(bad)} runs failed their checks")
        report.setdefault("meta", runs[0][0])
        rows = {}
        for name, bound in bounds.items():
            row = summarise([r["metrics"][name]["value"] for _, r in runs])
            row["bound"] = bound
            rows[name] = row
            flag = "" if row["spread"] <= bound / 3 else "  <-- above bound/3"
            print(
                f"{workload:11s} {name:12s} median {row['median']:12.6g}  "
                f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  "
                f"spread {row['spread']:.4f}  bound {bound}{flag}",
                flush=True,
            )
        report["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
