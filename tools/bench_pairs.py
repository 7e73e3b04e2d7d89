"""Alternating parent/change benchmark pairs, written as BENCH_<workload>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --workload algebra128 --pairs 10 --seed 601

Each side is the committed tree of its revision (``--change``, default
HEAD, and ``--parent``, default its first parent), exported with
``git archive`` into a temporary directory, so uncommitted files take
no part and ``meta.git_sha`` reads null.  Pair k runs

    python3 perfbench/run.py --workload W --seed S+k --seconds T --trace 0

with T the run_seconds of the change's BENCHMARK.json, once on each
side, one run at a time; the parent runs first in even pairs and the
change in odd ones.  The file records, per side, the
median and quartiles (inclusive method) of every end-to-end metric of
BENCHMARK.json, how many pairs the change was lower in for each metric
that is better lower, every pair's values, and the first pair's full
output.  Exits non-zero, writing nothing, if a run fails or reports a
wrong output.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(sha, into):
    """Extract the tree of commit sha into the directory into."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into, filter="data")


def run(tree, command):
    """One benchmark run in the exported tree: its output lines, parsed."""
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} in {tree} failed:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines or not lines[-1].get("correct"):
        sys.exit(f"{' '.join(command)} in {tree} reported a wrong output:\n{done.stdout}")
    return lines


def summarize(pairs, metrics):
    summary = {}
    for side in ("parent", "change"):
        summary[side] = {}
        for name in metrics:
            values = [p[side][name] for p in pairs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            summary[side][name] = {"median": median, "q1": q1, "q3": q3}
    for name, better in metrics.items():
        if better == "lower":
            summary[f"{name}_lower_in"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
    summary["pairs"] = len(pairs)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--parent", default=None, help="default: the change's first parent")
    parser.add_argument("--machine", default=f"{os.cpu_count()}-CPU {platform.machine()} host")
    parser.add_argument("--note", default="each side ran in a git archive export of its commit, so meta.git_sha reads null")
    parser.add_argument("--out", default=None, help="default: BENCH_<workload>.json in the repository root")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    change = git("rev-parse", f"{args.change}^{{commit}}")
    parent = git("rev-parse", f"{args.parent or change + '^'}^{{commit}}")
    spec = json.loads(git("show", f"{change}:BENCHMARK.json"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    template = f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds {spec['run_seconds']:g} --trace 0"
    pairs, output = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        export(parent, trees["parent"])
        export(change, trees["change"])
        for k in range(args.pairs):
            seed = args.seed + k
            command = template.replace(" S ", f" {seed} ").split()
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            lines = {side: run(trees[side], command) for side in order}
            pair = {"seed": seed, "first": order[0]}
            for side in ("parent", "change"):
                result = lines[side][-1]
                pair[side] = {name: result["metrics"][name]["value"] for name in metrics}
                pair[side].update(correct=result["correct"], failed=result["failed"])
            pairs.append(pair)
            if output is None:
                output = {"seed": seed, "parent": lines["parent"], "change": lines["change"]}
            print(json.dumps(pair), flush=True)
    bench = {
        "command": template,
        "machine": f"{args.machine}, one run at a time, parent and change alternating which runs first",
        "note": args.note,
        "parent_sha": parent,
        "change_sha": change,
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
        "output": output,
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
