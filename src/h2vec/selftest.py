"""Quick oracle suites over all modules, used by the command line.

Each suite runs a handful of randomized checks at small sizes against
independent dense computations and returns (passed, failed, messages).
"""

import warnings

import numpy as np

from . import hvector, kernels
from .basis import (
    coarsening_factors,
    gram_family,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from .convert import ToleranceBudget, convert
from .h2matrix import to_dense
from .instances import (
    line_tree,
    random_hvector,
    random_instance,
    random_iso_basis,
    random_tree,
)
from .matvec import induced_to_dense, multiply
from .tree import validate_tree

__all__ = ["run_selftest"]


class _Suite:
    def __init__(self, name):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.messages.append(message)


def _suite_kernels(seed):
    suite = _Suite("kernels")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((9, 4))
    stack, r = kernels.triangularize(a)
    rebuilt = stack.thin_q() @ r
    suite.check(np.max(np.abs(rebuilt - a)) < 1e-12, "qr reconstruction")
    suite.check(np.min(np.diagonal(r)) >= 0.0, "non-negative diagonal")
    x = rng.standard_normal(9)
    y = stack.apply_adjoint(x)
    suite.check(
        abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-13 * np.linalg.norm(x),
        "orthogonal transform preserves norms",
    )
    with kernels.count_flops() as counter:
        kernels.matvec(np.zeros((5, 7)), np.zeros(7))
    suite.check(counter.total == 35, "matvec flop count")
    # one stack on each of the kernel's branches, einsum and @
    ok = True
    for size in (3, 16):
        a = rng.standard_normal((6, size, size))
        v = rng.standard_normal((6, size))
        out = kernels.matvec(a, v)
        for j in range(6):
            error = np.abs(out[j] - a[j] @ v[j])
            ok &= bool(np.all(error <= 1e-15 * (np.abs(a[j]) @ np.abs(v[j]))))
    suite.check(ok, "stacked matvec matches separate products")
    a = rng.standard_normal((3, 9, 4))
    (q, r), ones = kernels.qr_stack(a), [kernels.triangularize(one) for one in a]
    ok = all(np.array_equal(q[j], s.q) and np.array_equal(r[j], rj) for j, (s, rj) in enumerate(ones))
    suite.check(ok, "stacked qr matches one-matrix qr")
    return suite


def _suite_tree(seed):
    suite = _Suite("tree")
    rng = np.random.default_rng(seed)
    for trial in range(5):
        n, leaf_size = int(rng.integers(20, 200)), int(rng.integers(3, 12))
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            tree = random_tree(rng, n, 2, leaf_size)
        suite.check(validate_tree(tree) is None, f"random tree {trial} valid")
        # a raised leaf size is checked here rather than left to warn
        ok = len(raised) == (tree.leaf_size != leaf_size) and tree.leaf_size >= leaf_size
        suite.check(ok, f"random tree {trial} leaf size {leaf_size} -> {tree.leaf_size}")
    tree = line_tree(8, 2)
    suite.check(len(tree.clusters) == 7, "8-point line tree has 7 clusters")
    return suite


def _suite_basis(seed):
    suite = _Suite("basis")
    rng = np.random.default_rng(seed)
    tree = line_tree(16, 4)
    points = np.linspace(0.0, 1.0, 16)
    b = polynomial_basis(tree, points, 1)
    for i in range(len(tree.clusters)):
        for s in tree.sons(i):
            lhs = b.materialize(i)[tree.begin[s] - tree.begin[i] :][: tree.sizes[s]]
            rhs = b.materialize(s) @ b.transfer[s]
            suite.check(np.max(np.abs(lhs - rhs)) < 1e-12, f"nested at {s}")
    iso, change = orthogonalize(b)
    for i in tree.leaves():
        g = iso.materialize(i).T @ iso.materialize(i)
        suite.check(np.max(np.abs(g - np.eye(b.rank))) < 1e-12, f"isometric {i}")
    gram = gram_family(b)
    root = tree.root
    dense = b.materialize(root)
    suite.check(
        np.max(np.abs(gram[root] - dense.T @ dense)) < 1e-10, "gram recursion"
    )
    # b is not isometric: its norm multiplies through the Gram family
    x = random_hvector(b, rng, steps=2)
    want = float(np.linalg.norm(hvector.to_dense(x)))
    suite.check(abs(hvector.norm(x, gram) - want) < 1e-11 * max(1.0, want), "norm through gram")
    return suite


def _suite_hvector(seed):
    suite = _Suite("hvector")
    rng = np.random.default_rng(seed)
    tree = line_tree(32, 4)
    iso = random_iso_basis(tree, 3, rng)
    factors = coarsening_factors(iso)
    for trial in range(5):
        x = random_hvector(iso, rng, steps=3)
        dense = hvector.to_dense(x)
        y = random_hvector(iso, rng, steps=2)
        dy = hvector.to_dense(y)
        hvector.axpy(0.5, x, y)
        suite.check(
            np.max(np.abs(hvector.to_dense(y) - (dy + 0.5 * dense))) < 1e-12,
            f"axpy exact {trial}",
        )
        # iso is isometric: dot and norm make no Gram products
        dy = hvector.to_dense(y)
        got, want = hvector.dot(x, y), float(dense @ dy)
        suite.check(abs(got - want) < 1e-11 * max(1.0, abs(want)), f"dot {trial}")
        got, want = hvector.norm(y), float(np.linalg.norm(dy))
        suite.check(abs(got - want) < 1e-11 * max(1.0, want), f"norm {trial}")
    x = random_hvector(iso, rng, steps=4)
    leaves = [i for i in x.sub.leaves()]
    fathers = {f for f in range(len(tree.clusters)) for s in tree.sons(f) if s in leaves}
    for f in sorted(fathers):
        if all(x.sub.is_leaf(s) for s in tree.sons(f)):
            before = hvector.to_dense(x)
            err = hvector.coarsen(x, f, factors)
            sl = tree.positions(f)
            proj = before.copy()
            proj[sl] = iso.materialize(f) @ x.coeff[f]
            truth = np.linalg.norm(before[sl] - proj[sl])
            suite.check(abs(err - truth) <= 1e-11 * max(1.0, truth), f"merge error {f}")
            break
    return suite


def _suite_h2(seed):
    suite = _Suite("h2matrix/matvec")
    rng = np.random.default_rng(seed)
    inst = random_instance(96, 3, 2, 1.0, seed)
    dense = to_dense(inst.matrix)
    full = len(inst.tree.clusters)
    # the last trial refines fully so every leaf block participates
    for trial, target in enumerate([None, None, None, None, full]):
        steps = int(rng.integers(0, 6)) if target is None else None
        x = random_hvector(inst.input_basis, rng, steps=steps, target=target)
        y = multiply(inst.plan, x)
        got = induced_to_dense(y, dense)
        want = dense @ hvector.to_dense(x)
        scale = max(1.0, float(np.linalg.norm(want)))
        suite.check(
            np.linalg.norm(got - want) < 1e-11 * scale, f"product exact {trial}"
        )
        suite.check(
            y.sub.count() <= inst.csp * x.sub.count(), f"subtree bound {trial}"
        )
    return suite


def _suite_convert(seed):
    suite = _Suite("convert")
    rng = np.random.default_rng(seed)
    # rank-sized leaves keep the deepest-level projections exact
    inst = random_instance(96, 3, 2, 1.0, seed + 1, leaf_size=3)
    zfac = projection_factors(inst.plan.induced, inst.input_basis)
    pfac = coarsening_factors(inst.input_basis)
    for trial, eps in enumerate((1e-4, 1e-6, 1e-8)):
        x = random_hvector(inst.input_basis, rng, steps=3)
        y = multiply(inst.plan, x)
        target = hvector.to_dense(y)
        nrm = float(np.linalg.norm(target))
        hvector.scale(y, 1.0 / nrm)
        target = target / nrm
        converted, bound, _ = convert(
            y, inst.input_basis, zfac, pfac, ToleranceBudget(eps)
        )
        err = float(np.linalg.norm(hvector.to_dense(converted) - target))
        suite.check(err <= bound + 1e-12, f"bound sound {trial}")
        suite.check(bound <= eps, f"bound under budget {trial}")
    return suite


def run_selftest(seed=0, verbose=True):
    """Run all suites; returns the number of failed checks."""
    suites = [
        _suite_kernels(seed),
        _suite_tree(seed),
        _suite_basis(seed),
        _suite_hvector(seed),
        _suite_h2(seed),
        _suite_convert(seed),
    ]
    failed = 0
    for suite in suites:
        failed += suite.failed
        if verbose:
            status = "ok" if suite.failed == 0 else "FAILED"
            print(f"{suite.name:18s} {suite.passed:3d} passed "
                  f"{suite.failed:3d} failed  {status}")
            for message in suite.messages:
                print(f"    {message}")
    return failed
