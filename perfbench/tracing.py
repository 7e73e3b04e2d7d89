"""Layer tracing from outside the library.

A `Tracer` swaps wrappers in for the public functions of the h2vec
modules while it is installed, and puts every original back when it
is removed.  Two kinds of wrapper exist:

* span wrappers record name, start, end, the enclosing span and the
  counted flops spent inside (as deltas of one outer flop counter);
* count wrappers only count calls (and, for the dense kernels, the
  bytes of their operands and results computed from array sizes).
  They are used where a call happens tens of thousands of times per
  operation, so that no span is kept per kernel call.

Flop counters in h2vec nest and only the innermost one receives
tallies.  The tracer therefore opens exactly one counter, outside
everything the program does, and never opens one around a call: a
counter opened by a wrapper would starve the counters the program
opens itself (the Poisson demo keeps per-step flops that way).
"""

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions are wrapped, in the order of the layers.
MODULES = (
    "tree",
    "basis",
    "h2matrix",
    "matvec",
    "convert",
    "hvector",
    "kernels",
    "poisson",
    "demo",
    "instances",
)

# Flop-counting infrastructure: wrapping it would measure the tracer.
SKIP = {"kernels.count_flops", "kernels.phase", "kernels.tally"}

# Public functions called once per cluster or block: counted, no span.
COUNTED = {"hvector.refine"}

# Methods wrapped on their class: (module, class, method, metric name, kind).
METHODS = (
    ("tree", "Subtree", "expand", "tree.Subtree.expand", "count"),
    ("tree", "Subtree", "contract", "tree.Subtree.contract", "count"),
    ("kernels", "ReflectorStack", "apply_adjoint", "kernels.apply_adjoint", "count"),
    ("demo", "PoissonDemo", "run", "demo.run", "span"),
)

_F8 = 8  # bytes per float64


def _size(a):
    # ``.size`` first: np.size would cost more than the kernel call
    try:
        return a.size
    except AttributeError:
        return np.size(a)


def _bytes_matvec(args, result):
    return _F8 * (_size(args[0]) + _size(args[1]) + _size(result))


def _bytes_axpy(args, result):
    return _F8 * (_size(args[1]) + _size(args[2]) + _size(result))


def _bytes_vdot(args, result):
    return _F8 * (_size(args[0]) + _size(args[1]))


def _bytes_apply_adjoint(args, result):
    return _F8 * (_size(args[1]) + _size(result))


# Bytes computed from operand and result sizes (not measured traffic).
KERNEL_BYTES = {
    "kernels.matvec": _bytes_matvec,
    "kernels.matmul": _bytes_matvec,
    "kernels.axpy": _bytes_axpy,
    "kernels.vdot": _bytes_vdot,
    "kernels.apply_adjoint": _bytes_apply_adjoint,
}


def induced_rank_sumsq(basis):
    """Sum over clusters of rank squared, read from the stored matrices.

    A leaf's rank is its leaf matrix's column count; an interior
    cluster's rank is the column count of its sons' transfers.  This
    reads true per-cluster ranks as well as padded uniform ones.
    """
    tree = basis.tree
    total = 0
    for i in range(len(tree.clusters)):
        if tree.is_leaf(i):
            r = basis.leaf_matrix[i].shape[1]
        else:
            r = basis.transfer[tree.sons(i)[0]].shape[1]
        total += r * r
    return total


def _hook_multiply(span, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    span.extra = {"tx": x.sub.count(), "ty": result.sub.count()}


def _hook_convert(span, args, kwargs, result):
    budget = args[4] if len(args) > 4 else kwargs["budget"]
    report = result[2]
    span.extra = {
        "commits": len(report.commit_errors),
        "merges": len(report.merge_errors),
        "forced": len(report.forced),
        "bound_over_eps": report.bound / budget.eps if budget.eps > 0 else 0.0,
    }


def _hook_materialize_induced(span, args, kwargs, result):
    span.extra = {"rank_sumsq": induced_rank_sumsq(result)}


# Values read from what a traced call returns.
HOOKS = {
    "matvec.multiply": _hook_multiply,
    "convert.convert": _hook_convert,
    "convert.materialize_induced": _hook_materialize_induced,
}


class Span:
    """One timed call: name, parent index, stage, op, times and flops."""

    __slots__ = ("name", "parent", "stage", "op", "start", "end", "flops", "phases", "extra")

    def __init__(self, name, parent, stage, op, start=0.0, end=0.0):
        self.name = name
        self.parent = parent
        self.stage = stage
        self.op = op
        self.start = start
        self.end = end
        self.flops = 0
        self.phases = {}
        self.extra = None

    @property
    def duration(self):
        return self.end - self.start


def _covered(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a = max(a, cursor)
        b = min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)
    ]


class Tracer:
    """Spans and call counts for the h2vec layers, kept in memory.

    Use `installed()` around the calls to trace and `root()` to mark
    the benchmark's own stages (set-up, one operation).  Counts are
    kept per stage; spans carry their stage and operation index.
    """

    def __init__(self):
        self.spans = []
        self.counts = {None: defaultdict(int)}
        self.bytes = {None: 0}
        self._stage_counts = self.counts[None]
        self.counter = None
        self.stage = None
        self.op = None
        self._open = []
        self._saved = []

    # -- recording -------------------------------------------------

    def _push(self, name):
        parent = self._open[-1] if self._open else None
        span = Span(name, parent, self.stage, self.op)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def root(self, stage, op=None):
        """Span one benchmark stage; calls inside become its children."""
        self.stage = stage
        self.op = op
        counts = self.counts.setdefault(stage, defaultdict(int))
        self.bytes.setdefault(stage, 0)
        self._stage_counts = counts
        span = self._push("bench." + stage)
        f0 = self.counter.total if self.counter is not None else 0
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if self.counter is not None:
                span.flops = self.counter.total - f0
            self.stage = None
            self.op = None
            self._stage_counts = self.counts[None]

    def span_wrapper(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = tracer.counter
            f0 = counter.total
            p0 = dict(counter.phases)
            tracer._stage_counts[name] += 1
            span = tracer._push(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                span.flops = counter.total - f0
                span.phases = {
                    k: v - p0.get(k, 0)
                    for k, v in counter.phases.items()
                    if v != p0.get(k, 0)
                }
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        tracer = self
        nbytes = KERNEL_BYTES.get(name)
        if nbytes is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._stage_counts[name] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._stage_counts[name] += 1
                tracer.bytes[tracer.stage] += nbytes(args, result)
                return result

        return wrapper

    # -- installing wrappers ---------------------------------------

    def _targets(self):
        """(name, kind, owner, attribute) for everything to wrap."""
        targets = []
        for short in MODULES:
            mod = importlib.import_module("h2vec." + short)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if name in SKIP or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                kind = "count" if short == "kernels" or name in COUNTED else "span"
                targets.append((name, kind, mod, attr))
        for short, cls_name, method, name, kind in METHODS:
            cls = getattr(importlib.import_module("h2vec." + short), cls_name)
            targets.append((name, kind, cls, method))
        return targets

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        loaded = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "h2vec" or key.startswith("h2vec."))
        ]
        try:
            for name, kind, owner, attr in self._targets():
                original = owner.__dict__[attr]
                make = self.span_wrapper if kind == "span" else self.count_wrapper
                wrapper = make(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                # replace every binding of the function, including
                # names imported into other h2vec modules
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            self._patch(np.linalg, "inv", self.span_wrapper("demo.dense_inverse", np.linalg.inv))
        except BaseException:
            self._restore()
            raise

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library and open the one outer flop counter."""
        from h2vec import kernels

        self._install()
        try:
            with kernels.count_flops() as counter:
                self.counter = counter
                yield self
        finally:
            self.counter = None
            self._restore()

    # -- summaries -------------------------------------------------

    def calls(self, stage, name):
        return self.counts.get(stage, {}).get(name, 0)

    def setup_coverage(self):
        """Share of set-up time covered by direct children of the
        set-up roots (the library calls the benchmark made)."""
        roots = [i for i, s in enumerate(self.spans) if s.name == "bench.setup"]
        total = sum(self.spans[i].duration for i in roots)
        covered = 0.0
        for i in roots:
            root = self.spans[i]
            kids = [(s.start, s.end) for s in self.spans if s.parent == i]
            covered += _covered(kids, root.start, root.end)
        return covered / total if total > 0 else 0.0


# Phases the program counts with a counter of its own (the Poisson demo
# wraps product and conversion in one per step), and the span they
# belong to.  The outer counter sees none of these flops.
PHASE_OWNER = {
    "forward": "matvec.multiply",
    "coupling": "matvec.multiply",
    "backward": "matvec.multiply",
    "convert": "convert.convert",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer, names, inner_flops, plain_s, traced_s):
    """Per-layer values from a traced run.

    Suffixes fix the meaning: ``.s`` is seconds per set-up and
    ``.flops`` flops per set-up for set-up functions, or per call for
    functions called in operations; ``.ms_p50`` is the median call in
    milliseconds, ``.calls`` calls per operation and ``.self_s`` the
    median self time per operation.  A layer that is never called
    reads 0.  `inner_flops` lists the per-call phase dicts that the
    program counted itself; `plain_s` and `traced_s` are the untraced
    and traced operation times of the same run.
    """
    ops = len(traced_s)
    setups = max(1, sum(1 for s in tracer.spans if s.name == "bench.setup"))
    stage = {"setup": defaultdict(list), "op": defaultdict(list)}
    for s in tracer.spans:
        if s.stage in stage:
            stage[s.stage][s.name].append(s)
    setup_spans, op_spans = stage["setup"], stage["op"]
    inner = defaultdict(int)
    for d in inner_flops:
        for phase, flops in d.items():
            inner[phase] += flops

    def owned(base):
        return sum(v for p, v in inner.items() if PHASE_OWNER.get(p) == base)

    def per_call(base, total):
        calls = len(op_spans[base])
        return total / calls if calls else 0.0

    def extras(base, key):
        return [s.extra[key] for s in op_spans[base] if s.extra]

    own = self_times(tracer.spans)
    plain = _median(plain_s)
    kernel_flops = (sum(s.flops for s in op_spans["bench.op"]) + sum(inner.values())) / ops
    rank_sumsq = [s.extra["rank_sumsq"] for s in setup_spans["convert.materialize_induced"]]
    special = {
        "kernels.flops": kernel_flops,
        "kernels.bytes_computed": tracer.bytes.get("op", 0) / ops,
        "kernels.mflops": kernel_flops / plain / 1e6 if plain > 0 else 0.0,
        "matvec.tx": _mean(extras("matvec.multiply", "tx")),
        "matvec.ty": _mean(extras("matvec.multiply", "ty")),
        "convert.commits": _mean(extras("convert.convert", "commits")),
        "convert.merges": _mean(extras("convert.convert", "merges")),
        "convert.forced": _mean(extras("convert.convert", "forced")),
        "convert.bound_over_eps": max(extras("convert.convert", "bound_over_eps"), default=0.0),
        "convert.induced_rank_sumsq": sum(rank_sumsq) / setups,
        "trace.overhead_frac": _median(traced_s) / plain - 1.0 if plain > 0 else 0.0,
        "trace.setup_coverage": tracer.setup_coverage(),
    }
    values = {}
    for name in names:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = tracer.calls("op", name[: -len(".calls")]) / ops
        elif name.endswith(".ms_p50"):
            base = name[: -len(".ms_p50")]
            value = 1e3 * _median([s.duration for s in op_spans[base]])
        elif name.endswith(".self_s"):
            base = name[: -len(".self_s")]
            per_op = defaultdict(float)
            for i, s in enumerate(tracer.spans):
                if s.stage == "op" and s.name == base:
                    per_op[s.op] += own[i]
            value = _median(list(per_op.values()))
        elif ".flops." in name:
            base, phase = name.split(".flops.")
            total = sum(s.phases.get(phase, 0) for s in op_spans[base])
            if PHASE_OWNER.get(phase) == base:
                total += inner[phase]
            value = per_call(base, total)
        elif name.endswith(".flops"):
            base = name[: -len(".flops")]
            if op_spans[base]:
                value = per_call(base, sum(s.flops for s in op_spans[base]) + owned(base))
            else:
                value = sum(s.flops for s in setup_spans[base]) / setups
        elif name.endswith(".s"):
            base = name[: -len(".s")]
            value = sum(s.duration for s in setup_spans[base]) / setups
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
        values[name] = float(value)
    return values
