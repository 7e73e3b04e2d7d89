"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload poisson64 --seed 1 --seconds 15 --trace 0

The workloads are listed in BENCHMARK.json and defined in
workloads.py.  One run generates the workload's inputs from the seed,
sets the program up, runs operations for the given number of seconds
and checks every output outside the timed region.  It prints one line
of run metadata and then, as the last line, the result object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` no wrapper is installed and the metrics are the
end-to-end metrics; set-up runs several times and its median is
reported, and set-up and op times are scaled to a nominal machine
speed (see `Reference`).  With ``--trace 1`` set-up runs once under the tracer,
and operations alternate between untraced and traced on the same
inputs; the traced outputs must equal the untraced ones exactly, and
the metrics are the per-layer metrics.  Either way operations run in
whole passes over the workload's cases, so every case counts equally.
"""

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up runs at least this often and for at least this long in all
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
MIN_OPS = 3
# OpenBLAS's idle worker threads spin for a while after a BLAS call
SETTLE_S = 0.25
BURST = 5


class Ledger:
    """Attempted and failed operations, with one kept output per case.

    The first output of each case is kept for the oracle.  Every later
    output of that case, traced or not, must have the same digest.
    """

    def __init__(self, workload):
        self.workload = workload
        self.kept = {}
        self.ok = Counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, index, call):
        """Run call() -> (output, seconds); None when it raised."""
        self.attempted += 1
        try:
            out, seconds = call()
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=4))
            return None
        digest = self.workload.digest(out)
        if index not in self.kept:
            self.kept[index] = (out, digest)
        elif digest != self.kept[index][1]:
            self.failed += 1
            self.errors.append(f"case {index}: output differs from its first run")
            return None
        self.ok[index] += 1
        return out, seconds

    def check(self, state, cases):
        """Run the oracle once per case; a failing case fails all its ops."""
        for index, (out, _) in sorted(self.kept.items()):
            try:
                errors = self.workload.check(state, cases[index], out)
            except Exception:
                errors = [traceback.format_exc(limit=4)]
            if errors:
                self.failed += self.ok[index]
                self.errors += [f"case {index}: {e}" for e in errors]


def _plain(workload, state, case):
    t0 = time.perf_counter()
    out = workload.op(state, case)
    return out, time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Reference:
    """A fixed loop of checked small products over a dict of a few
    thousand arrays, shaped like the library's inner loops, that never
    changes with the program.

    Timed between set-ups and between ops, it tracks how fast the
    machine runs this kind of code at the moment.  `scale` turns a wall time into the time on a
    nominal machine where the loop takes 5 ms, using the loop's times
    just before and just after: a slower program reads higher, while a
    slower machine slows both and reads the same.
    """

    nominal = 0.005
    size = 4096
    steps = 1000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = {i: rng.standard_normal((3, 3)) for i in range(self.size)}
        self.vecs = {i: rng.standard_normal(3) for i in range(self.size)}

    @staticmethod
    def _matvec(a, x):
        a = np.asarray(a, dtype=float)
        x = np.asarray(x, dtype=float)
        if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} x {x.shape}")
        return a @ x

    def __call__(self):
        t0 = time.perf_counter()
        acc = {}
        for i in range(self.steps):
            j = (i * 2654435761) % self.size
            y = self._matvec(self.mats[j], self.vecs[j])
            acc[j] = y + acc.get(j ^ 1, y)
        return time.perf_counter() - t0

    def scale(self, seconds, before, after):
        return seconds * self.nominal / math.sqrt(before * after)

    def burst(self):
        """Median of several loop times, taken once BLAS's worker
        threads have gone idle."""
        time.sleep(SETTLE_S)
        return statistics.median(self() for _ in range(BURST))


def running(k, cases, deadline):
    """Whether the op loop goes on: it ends only after a whole pass."""
    return k < MIN_OPS or k % len(cases) or time.perf_counter() < deadline


def measure(workload, seconds):
    """Untraced run: end-to-end metrics, with set-up and op times
    scaled to the nominal machine of `Reference`; the wall times go to
    the metadata.

    Set-ups follow the machine's speed about half as strongly as the
    loop does (see NOTES.md), so a set-up time is scaled by the square
    root of the loop's ratio: the geometric mean of its wall time and
    its time at nominal speed.
    """
    inputs = workload.generate()
    reference = Reference()
    setups = []
    scaled_setups = []
    state = None
    before = reference.burst()
    setup_refs = [before]
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(inputs)
        setups.append(time.perf_counter() - t0)
        after = reference.burst()
        setup_refs.append(after)
        nominal = reference.scale(setups[-1], before, after)
        scaled_setups.append(math.sqrt(setups[-1] * nominal))
        before = after
    cases = workload.cases(state, inputs)
    ledger = Ledger(workload)
    times = []
    scaled = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    before = reference()
    refs = [before]
    k = 0
    while running(k, cases, deadline):
        case = cases[k % len(cases)]
        got = ledger.attempt(k % len(cases), lambda: _plain(workload, state, case))
        after = reference()
        refs.append(after)
        if got is not None:
            times.append(got[1])
            scaled.append(reference.scale(got[1], before, after))
        before = after
        k += 1
    # read before the oracles, which may hold dense references
    rss = peak_rss_mb()
    ledger.check(state, cases)
    if not times:
        raise RuntimeError("every operation failed:\n" + "\n".join(ledger.errors[:3]))
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "op_ms_p50": 1e3 * statistics.median(scaled),
        "peak_rss_mb": rss,
        # one value per distinct case, so the count repeats for a seed
        "clusters": statistics.fmean(workload.clusters(out) for out, _ in ledger.kept.values()),
    }
    wall = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_p90": 1e3 * float(np.percentile(times, 90)),
    }
    info = {
        "wall": wall,
        "samples": len(times),
        "setup_s_runs": setups,
        "op_s": times,
        "setup_reference_s": setup_refs,
        "reference_s": refs,
    }
    return ledger, metrics, info


def measure_traced(workload, seconds, names):
    """Traced run: per-layer metrics, and traced outputs checked
    against untraced ones on the same inputs."""
    from tracing import Tracer, layer_metrics

    inputs = workload.generate()
    tracer = Tracer()
    gc.collect()
    with tracer.installed():
        with tracer.root("setup"):
            state = workload.setup(inputs)
    cases = workload.cases(state, inputs)
    ledger = Ledger(workload)
    plain_s = []
    traced_s = []
    inner = []

    def traced(case, k):
        with tracer.installed():
            with tracer.root("op", op=k) as span:
                out = workload.op(state, case)
        return out, span.duration

    gc.collect()
    deadline = time.perf_counter() + seconds
    k = 0
    while running(k, cases, deadline):
        index = k % len(cases)
        case = cases[index]
        order = ["plain", "traced"] if k % 2 == 0 else ["traced", "plain"]
        for kind in order:
            if kind == "plain":
                got = ledger.attempt(index, lambda: _plain(workload, state, case))
                if got is not None:
                    plain_s.append(got[1])
            else:
                got = ledger.attempt(index, lambda: traced(case, k))
                if got is not None:
                    traced_s.append(got[1])
                    inner += workload.inner_flops(got[0])
        k += 1
    ledger.check(state, cases)
    if not plain_s or not traced_s:
        raise RuntimeError("every operation failed:\n" + "\n".join(ledger.errors[:3]))
    metrics = layer_metrics(tracer, names, inner, plain_s, traced_s)
    info = {"samples": len(traced_s), "untraced_samples": len(plain_s)}
    return ledger, metrics, info


def _openblas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _blas_threads():
    """Thread count OpenBLAS reports, or the environment's request."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload, args, info, ledger):
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "params": workload.params,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "failed_frac": ledger.failed / ledger.attempted,
        "errors": ledger.errors[:5],
    }
    meta.update(info)
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "h2vec" / "__init__.py").is_file():
        print(f"error: no h2vec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        ledger, values, info = measure_traced(workload, args.seconds, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        ledger, values, info = measure(workload, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"meta": metadata(workload, args, info, ledger)}))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
