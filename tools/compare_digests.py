"""Compare the output digests of two commits, case by case.

Run from the repository root:

    python3 tools/compare_digests.py --seeds 1 2 3

Each side is the committed tree of its revision (``--change``, default
HEAD, and ``--parent``, default its first parent), exported with
``git archive`` as tools/bench_pairs.py exports it.  In each export, one
child process per side imports that tree's perfbench/workloads.py and,
for each of its three workloads and every seed, generates the inputs,
sets the program up and runs every case once, recording the `digest`
of each output and the floats it hashed (every array passed to
`perfbench.workloads._digest_floats`, which the child wraps).  Prints
one line per workload, seed and case whose digests differ, or whose
case is missing on one side, with the largest absolute and relative
differences of the hashed floats, and exits non-zero if there is any,
or if a child fails.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, git  # noqa: E402

WORKLOADS = ("poisson64", "matvec4096", "algebra128")


def record_hashed(workloads):
    """Wrap the _digest_floats of the given workloads module, which its
    digests call, so that it also appends each array it hashes, flat,
    to the list returned; the digests stay as they were."""
    hashed = []
    digest_floats = workloads._digest_floats

    def recording(h, values):
        hashed.append(np.asarray(values, dtype=np.float64).ravel())
        digest_floats(h, values)

    workloads._digest_floats = recording
    return hashed


def collect(tree, seeds):
    """The digests of every case of the three workloads for the given
    seeds, run on the sources under tree, and per case the floats each
    digest hashed, in order: one JSON line per workload and seed."""
    sys.path[:0] = [str(Path(tree, "src")), str(tree)]
    from perfbench import workloads

    hashed = record_hashed(workloads)
    for name in WORKLOADS:
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            inputs = workload.generate()
            state = workload.setup(inputs)
            digests, values = [], []
            for case in workload.cases(state, inputs):
                out = workload.op(state, case)
                hashed.clear()
                digests.append(workload.digest(out))
                values.append(np.concatenate(hashed).tolist())
            line = {"workload": name, "seed": seed, "digests": digests, "values": values}
            print(json.dumps(line), flush=True)


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


def value_differences(a, b):
    """One line on how the floats two digests hashed differ: their
    counts when those differ, else how many values differ, the largest
    absolute difference, and the largest relative one, |a - b| /
    max(|a|, |b|) per value, with its position and its two values, as
    a relative difference near 1 may lie between two round-off-level
    values.  Two NaNs count as equal; a NaN beside another value, or
    two infinities of opposite signs, differ by inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return f"{a.size} against {b.size} floats hashed"
    differ = np.flatnonzero((a != b) & ~(np.isnan(a) & np.isnan(b)))
    if not differ.size:
        return "hashed floats equal"
    with np.errstate(invalid="ignore"):
        gap = np.nan_to_num(np.abs(a - b)[differ], nan=np.inf)
        rel = np.nan_to_num(gap / np.maximum(np.abs(a), np.abs(b))[differ], nan=np.inf)
    j = differ[np.argmax(rel)]
    return (f"{differ.size} of {a.size} hashed floats differ, by at most {gap.max():.3g} absolute "
            f"and {rel.max():.3g} relative (float {j}: {a[j]:.6g} against {b[j]:.6g})")


def digests_of(tree, seeds):
    """The digests, and the floats they hashed, of every case, run in a
    child on the sources under tree: two mappings from (workload, seed)
    to a list by case."""
    command = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree)]
    command += ["--seeds", *map(str, seeds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"collecting digests in {tree} failed:\n{done.stderr}")
    digests, values = {}, {}
    for text in done.stdout.splitlines():
        if text.startswith("{"):
            line = json.loads(text)
            key = (line["workload"], line["seed"])
            digests[key], values[key] = line["digests"], line["values"]
    return digests, values


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
    runs, values = {}, {}
    with tempfile.TemporaryDirectory(prefix="compare_digests_") as scratch:
        for side, sha in (("parent", parent), ("change", change)):
            tree = Path(scratch, side)
            export(sha, tree)
            runs[side], values[side] = digests_of(tree, args.seeds)
    differ = compare(runs["parent"], runs["change"])
    for workload, seed, case, a, b in differ:
        line = f"{workload} seed {seed} case {case}: parent {a} change {b}"
        if a is not None and b is not None:
            key = (workload, seed)
            line += "; " + value_differences(values["parent"][key][case], values["change"][key][case])
        print(line)
    cases = sum(len(d) for d in runs["change"].values())
    print(f"{len(differ)} of {cases} digests differ between {parent[:7]} and {change[:7]}")
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
