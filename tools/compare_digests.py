"""Compare the output digests of two commits, case by case.

Run from the repository root:

    python3 tools/compare_digests.py --seeds 1 2 3

Each side is the committed tree of its revision (``--change``, default
HEAD, and ``--parent``, default its first parent), exported with
``git archive`` as tools/bench_pairs.py exports it.  In each export, one
child process per side imports that tree's perfbench/workloads.py and,
for each of its three workloads and every seed, generates the inputs,
sets the program up and runs every case once, recording the `digest`
of each output.  Prints one line per workload,
seed and case whose digests differ, or whose case is missing on one
side, and exits non-zero if there is any, or if a child fails.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, git  # noqa: E402

WORKLOADS = ("poisson64", "matvec4096", "algebra128")


def collect(tree, seeds):
    """The digests of every case of the three workloads for the given
    seeds, run on the sources under tree: one JSON line per workload
    and seed."""
    sys.path[:0] = [str(Path(tree, "src")), str(tree)]
    from perfbench.workloads import WORKLOADS as defined

    for name in WORKLOADS:
        for seed in seeds:
            workload = defined[name](seed)
            inputs = workload.generate()
            state = workload.setup(inputs)
            digests = [workload.digest(workload.op(state, case)) for case in workload.cases(state, inputs)]
            print(json.dumps({"workload": name, "seed": seed, "digests": digests}), flush=True)


def compare(parent, change):
    """Differences between two runs, each a mapping from (workload,
    seed) to its list of digests by case: a list of (workload, seed,
    case, parent digest, change digest), with None for a missing one."""
    differ = []
    for key in sorted(parent.keys() | change.keys()):
        ours, theirs = parent.get(key, []), change.get(key, [])
        for case in range(max(len(ours), len(theirs))):
            a = ours[case] if case < len(ours) else None
            b = theirs[case] if case < len(theirs) else None
            if a != b:
                differ.append((*key, case, a, b))
    return differ


def digests_of(tree, seeds):
    command = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree)]
    command += ["--seeds", *map(str, seeds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"collecting digests in {tree} failed:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {(line["workload"], line["seed"]): line["digests"] for line in lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--parent", default=None, help="default: the change's first parent")
    parser.add_argument("--collect", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(args.collect, args.seeds)
        return
    change = git("rev-parse", f"{args.change}^{{commit}}")
    parent = git("rev-parse", f"{args.parent or change + '^'}^{{commit}}")
    runs = {}
    with tempfile.TemporaryDirectory(prefix="compare_digests_") as scratch:
        for side, sha in (("parent", parent), ("change", change)):
            tree = Path(scratch, side)
            export(sha, tree)
            runs[side] = digests_of(tree, args.seeds)
    differ = compare(runs["parent"], runs["change"])
    for workload, seed, case, a, b in differ:
        print(f"{workload} seed {seed} case {case}: parent {a} change {b}")
    cases = sum(len(d) for d in runs["change"].values())
    print(f"{len(differ)} of {cases} digests differ between {parent[:7]} and {change[:7]}")
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
