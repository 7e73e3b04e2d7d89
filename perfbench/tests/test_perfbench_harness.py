"""Self-tests of the benchmark harness (not of the library)."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert _same(cls(7).generate(), cls(7).generate())


@pytest.mark.parametrize("name", ["matvec4096", "algebra128"])
def test_other_seed_other_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert not _same(cls(7).generate(), cls(8).generate())


def _bindings():
    """Every attribute of the h2vec modules and wrapped classes, plus
    numpy.linalg.inv, as (owner, name) -> object."""
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "h2vec" or key.startswith("h2vec."):
            for attr, value in vars(mod).items():
                snap[(key, attr)] = value
    for short, cls_name, method, _, _ in tracing.METHODS:
        cls = getattr(sys.modules["h2vec." + short], cls_name)
        snap[(cls_name, method)] = cls.__dict__[method]
    snap[("numpy.linalg", "inv")] = np.linalg.inv
    return snap


class SmallMatvec(workloads.Matvec4096):
    params = dict(workloads.Matvec4096.params, n=128, vectors=2)


def _small_matvec():
    w = SmallMatvec(seed=3)
    inputs = w.generate()
    state = w.setup(inputs)
    return w, state, w.cases(state, inputs)[0]


def test_wrappers_are_restored_after_a_traced_run():
    w, state, x = _small_matvec()
    before = _bindings()
    tracer = tracing.Tracer()
    matvec = sys.modules["h2vec.matvec"]
    with tracer.installed():
        assert matvec.multiply is not before[("h2vec.matvec", "multiply")]
        with tracer.root("op", op=0):
            w.op(state, x)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.calls("op", "kernels.matvec") > 0


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_traced_outputs_equal_untraced_outputs():
    w = SmallMatvec(seed=5)
    names = ["matvec.multiply.ms_p50", "kernels.matvec.calls", "matvec.multiply.flops.backward"]
    ledger, metrics, info = run.measure_traced(w, 0.0, names)
    assert ledger.failed == 0 and ledger.attempted == 2 * info["samples"]
    assert metrics["kernels.matvec.calls"] > 0
    assert metrics["matvec.multiply.flops.backward"] > 0


def _span(name, parent, start, end):
    return tracing.Span(name, parent, "op", 0, start, end)


def test_self_time_is_duration_minus_covered_by_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 0, 3.0, 6.0),  # overlaps a: covered once
        _span("a.child", 1, 2.0, 3.0),
        _span("c", 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0])
