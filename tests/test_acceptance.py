"""Acceptance suite: one test per criterion, printing a verdict line.

Criteria 8 and 9 share one grid-64 problem setup through a module-scope
fixture; everything else builds its own seeded instances.
"""

import numpy as np
import pytest

from h2vec import kernels
from h2vec.basis import (
    coarsening_factors,
    gram_family,
    projection_factors,
)
from h2vec.convert import ToleranceBudget, coarsen_pass, convert
from h2vec.demo import PoissonDemo, corner_concentration, partition_areas
from h2vec.h2matrix import to_dense
from h2vec.hvector import (
    axpy,
    dot,
    norm,
    refine,
    scale,
    to_dense as hv_dense,
)
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_instance,
    random_iso_basis,
)
from h2vec.matvec import induced_to_dense, multiply

from conftest import merge_sons, prefix_subtree


@pytest.fixture(scope="module")
def poisson_demo():
    return PoissonDemo(grid=64, degree=3, eta=1.0)


def test_criterion_1_and_5_matvec_exactness_and_bounds():
    """Criteria 1+5: product exact to 1e-11; tree and rank bounds hold."""
    schedule = [(64, 40), (128, 25), (256, 15), (512, 10), (1024, 6), (2048, 4)]
    trials = 0
    worst = 0.0
    seed = 0
    for n, count in schedule:
        for _ in range(count):
            seed += 1
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 9))
            ka = int(rng.integers(1, 9))
            eta = float(rng.choice([0.5, 1.0, 2.0]))
            inst = random_instance(n, k, ka, eta, seed=seed)
            dense = to_dense(inst.matrix)
            x = random_hvector(
                inst.input_basis, rng, steps=int(rng.integers(0, 12))
            )
            y = multiply(inst.plan, x)
            got = induced_to_dense(y, dense)
            want = dense @ hv_dense(x)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-11, f"seed {seed}: relative error {rel:.3e}"
            # criterion 5, asserted exactly on every run
            assert y.sub.count() <= inst.csp * x.sub.count()
            bound = ka + inst.csp * k
            assert np.all(np.diff(inst.plan.ptr) <= bound)
            trials += 1
    assert trials >= 100
    print(f"\nACCEPT 1 matvec exactness: PASS ({trials} trials, worst rel {worst:.2e})")
    print("ACCEPT 5 tree/rank bounds: PASS (asserted on every criterion-1 run)")


def test_criterion_2_coarsening_error_theorem():
    """Criterion 2: reported merge error equals the dense projection error."""
    trials = 0
    worst = 0.0
    for seed in range(110):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([16, 32, 64]))
        k = int(rng.integers(1, 5))
        tree = line_tree(n, max(k, 2) * 2)
        iso = random_iso_basis(tree, k, rng)
        factors = coarsening_factors(iso)
        interior = [i for i in range(len(tree.clusters)) if tree.sons(i)]
        i = interior[rng.integers(len(interior))]
        sons = tree.sons(i)
        coeffs = [rng.standard_normal(k) for _ in sons]
        dense = np.concatenate(
            [iso.materialize(s) @ c for s, c in zip(sons, coeffs)]
        )
        q = iso.materialize(i)
        truth = np.linalg.norm(dense - q @ (q.T @ dense))
        _, got, _ = merge_sons(iso, i, coeffs, factors)
        rel = abs(got - truth) / max(truth, 1e-30)
        worst = max(worst, rel)
        assert rel <= 1e-11, f"seed {seed}: relative deviation {rel:.3e}"
        trials += 1
    assert trials >= 100
    print(f"\nACCEPT 2 coarsening-error identity: PASS ({trials} trials, worst rel {worst:.2e})")


def test_criterion_3_projection_error_theorem():
    """Criterion 3: ||Z x|| equals the dense projection error, every cluster."""
    trials = 0
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.choice([16, 32, 48]))
        kv = int(rng.integers(1, 5))
        kq = int(rng.integers(1, 5))
        tree = line_tree(n, 2 * max(kv, kq, 2))
        source = random_basis(tree, kv, rng)
        target = random_iso_basis(tree, kq, rng)
        factors = projection_factors(source, target)
        for i in range(len(tree.clusters)):
            xhat = rng.standard_normal(kv)
            v = source.materialize(i) @ xhat
            q = target.materialize(i)
            truth = np.linalg.norm(v - q @ (q.T @ v))
            got = np.linalg.norm(factors[i][target.rank_of(i) :] @ xhat)
            rel = abs(got - truth) / max(truth, 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-11, f"seed {seed} cluster {i}: deviation {rel:.3e}"
        trials += 1
    # true-rank induced bases as sources: ranks vary from cluster to
    # cluster; leaves hold twice the target rank, so no error is zero
    for seed in range(20):
        rng = np.random.default_rng(1500 + seed)
        n = int(rng.choice([48, 96]))
        inst = random_instance(n, 3, int(rng.integers(1, 4)), 1.0, seed=seed)
        source = inst.plan.induced
        target = inst.input_basis
        factors = projection_factors(source, target)
        for i in range(len(inst.tree.clusters)):
            v = source.materialize(i)
            q = target.materialize(i)
            xhat = rng.standard_normal(source.rank_of(i))
            truth = np.linalg.norm(v @ xhat - q @ (q.T @ (v @ xhat)))
            r = target.rank_of(i)
            got = np.linalg.norm(factors[i][r:] @ xhat)
            rel = abs(got - truth) / max(truth, 1e-30)
            worst = max(worst, rel)
            assert rel <= 1e-11, f"induced seed {seed} cluster {i}: deviation {rel:.3e}"
            dense_cross = q.T @ v
            scale_ = max(1.0, np.max(np.abs(dense_cross)))
            assert np.max(np.abs(factors[i][:r] - dense_cross)) <= 1e-11 * scale_
        trials += 1
    assert trials >= 100
    print(f"\nACCEPT 3 projection-error identity: PASS ({trials} trials, worst rel {worst:.2e})")


def test_criterion_4_complexity_scaling():
    """Criterion 4: product flops double when the subtree count doubles.

    Measured on level-uniform subtrees, doubling pairs inside the sweep
    range; counts below ~31 clusters sit in the pre-asymptotic regime
    where per-cluster block participation is still growing.
    """
    inst = random_instance(4096, 3, 3, 1.0, seed=5)
    rng = np.random.default_rng(0)
    measured = []
    for level in range(2, 10):
        sub = prefix_subtree(inst.tree, level)
        x = random_hvector(inst.input_basis, rng, sub=sub)
        with kernels.count_flops() as counter:
            multiply(inst.plan, x)
        measured.append((x.sub.count(), counter.total))
    ratios = []
    for (m1, f1), (m2, f2) in zip(measured, measured[1:]):
        if 31 <= m1 and m2 <= 512 + 1:
            assert 1.9 <= m2 / m1 <= 2.1
            ratio = f2 / f1
            ratios.append((m1, m2, ratio))
            assert 1.6 <= ratio <= 2.5, f"flops({m2})/flops({m1}) = {ratio:.2f}"
    assert len(ratios) >= 4
    shown = ", ".join(f"{a}->{b}:{r:.2f}" for a, b, r in ratios)
    print(f"\nACCEPT 4 linear flop scaling: PASS ({shown})")


def test_criterion_6_conversion_soundness():
    """Criterion 6: dense error <= reported bound <= eps; monotone trees."""
    eps_grid = (1e-4, 1e-6, 1e-8)
    trials = 0
    # induced-basis sources over square-leaf instances
    for seed in range(40):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.choice([48, 96, 192]))
        ka = int(rng.integers(1, 4))
        inst = random_instance(n, 3, ka, float(rng.choice([0.5, 1.0])), seed=seed,
                               leaf_size=3)
        zfac = projection_factors(inst.plan.induced, inst.input_basis)
        pfac = coarsening_factors(inst.input_basis)
        for _ in range(2):
            x = random_hvector(inst.input_basis, rng, steps=int(rng.integers(0, 5)))
            y = multiply(inst.plan, x)
            dense_y = hv_dense(y)
            nrm = np.linalg.norm(dense_y)
            if nrm == 0.0:
                continue
            scale(y, 1.0 / nrm)
            dense_y = dense_y / nrm
            counts = []
            for eps in eps_grid:
                out, bound, _ = convert(
                    y, inst.input_basis, zfac, pfac, ToleranceBudget(eps)
                )
                err = np.linalg.norm(hv_dense(out) - dense_y)
                assert err <= bound + 1e-12, f"seed {seed}: {err:.3e} > {bound:.3e}"
                assert bound <= eps, f"seed {seed}: bound {bound:.3e} > eps {eps}"
                counts.append(out.sub.count())
                trials += 1
            assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    # basis-to-basis sources on square-leaf trees
    for seed in range(30):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.choice([48, 96]))
        tree = line_tree(n, 3)
        kv = int(rng.integers(1, 4))
        source = random_basis(tree, kv, rng)
        target = random_iso_basis(tree, 3, rng)
        zfac = projection_factors(source, target)
        pfac = coarsening_factors(target)
        x = random_hvector(source, rng, steps=int(rng.integers(0, 6)))
        dense_x = hv_dense(x)
        nrm = np.linalg.norm(dense_x)
        if nrm == 0.0:
            continue
        scale(x, 1.0 / nrm)
        dense_x = dense_x / nrm
        counts = []
        for eps in eps_grid:
            out, bound, _ = convert(x, target, zfac, pfac, ToleranceBudget(eps))
            err = np.linalg.norm(hv_dense(out) - dense_x)
            assert err <= bound + 1e-12
            assert bound <= eps
            counts.append(out.sub.count())
            trials += 1
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    assert trials >= 200
    print(f"\nACCEPT 6 conversion soundness: PASS ({trials} conversions)")


def test_criterion_6_soundness_where_conversions_discard():
    """Criterion 6 at tolerances that make conversions commit above the
    leaves and merge: dense error <= reported bound <= eps, and most
    bounds are non-zero, so the inequalities are exercised."""
    trials, discarding = 0, 0
    for seed in range(12):
        rng = np.random.default_rng(5000 + seed)
        inst = random_instance(96, 3, 2, 1.0, seed, leaf_size=3)
        target = inst.input_basis
        pfac = coarsening_factors(target)
        induced = projection_factors(inst.plan.induced, target)
        source = random_basis(inst.tree, int(rng.integers(1, 4)), rng)
        direct = projection_factors(source, target)
        x = random_hvector(target, rng, steps=int(rng.integers(0, 5)))
        cases = [(multiply(inst.plan, x), induced),
                 (random_hvector(source, rng, steps=int(rng.integers(0, 6))), direct)]
        for y, zfac in cases:
            dense_y = hv_dense(y)
            nrm = np.linalg.norm(dense_y)
            if nrm == 0.0:
                continue
            scale(y, 1.0 / nrm)
            dense_y = dense_y / nrm
            counts = []
            for eps in (0.5, 0.1):
                out, bound, _ = convert(y, target, zfac, pfac, ToleranceBudget(eps))
                err = np.linalg.norm(hv_dense(out) - dense_y)
                assert err <= bound + 1e-12, f"seed {seed}: {err:.3e} > {bound:.3e}"
                assert bound <= eps, f"seed {seed}: bound {bound:.3e} > eps {eps}"
                counts.append(out.sub.count())
                trials += 1
                discarding += bound > 0.0
            assert counts[1] >= counts[0]
    assert trials >= 40 and discarding >= trials // 2, f"{discarding} of {trials} bounds non-zero"
    print(f"\nACCEPT 6 conversion soundness, large eps: PASS ({discarding} of {trials} bounds non-zero)")


def test_criterion_7_algebra_suite():
    """Criterion 7: vector algebra matches dense oracles to 1e-12."""
    checks = 0
    for seed in range(40):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.choice([32, 64, 128]))
        k = int(rng.integers(1, 5))
        tree = line_tree(n, 2 * max(k, 2))
        iso = random_iso_basis(tree, k, rng)
        gram = gram_family(iso)
        x = random_hvector(iso, rng, steps=int(rng.integers(0, 8)))
        y = random_hvector(iso, rng, steps=int(rng.integers(0, 8)))
        alpha = float(rng.standard_normal())
        dx, dy = hv_dense(x), hv_dense(y)
        scale_ = max(1.0, np.linalg.norm(dx) + np.linalg.norm(dy))
        # refine keeps the value
        refinable = [i for i in x.sub.leaves() if tree.sons(i)]
        if refinable:
            refine(x, refinable[0])
            assert np.max(np.abs(hv_dense(x) - dx)) <= 1e-12 * scale_
        # dot and norm against dense
        got = dot(x, y, gram)
        want = float(dx @ dy)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want), scale_**2)
        assert abs(norm(x, gram) - np.linalg.norm(dx)) <= 1e-12 * scale_
        # axpy against dense
        axpy(alpha, x, y)
        assert np.max(np.abs(hv_dense(y) - (dy + alpha * dx))) <= 1e-12 * scale_
        checks += 1
    # x - x merges back to the minimal subtree with zero error
    rng = np.random.default_rng(77)
    tree = line_tree(64, 4)
    iso = random_iso_basis(tree, 3, rng)
    gram = gram_family(iso)
    pfac = coarsening_factors(iso)
    x = random_hvector(iso, rng, steps=6)
    y = x.copy()
    axpy(-1.0, x, y)
    bound = coarsen_pass(y, pfac, ToleranceBudget(0.0))
    assert y.sub.count() == 1
    assert norm(y, gram) <= 1e-13
    assert bound == 0.0
    print(f"\nACCEPT 7 algebra suite: PASS ({checks} randomized rounds + zero-sum merge)")


def test_criterion_8_poisson_demo(poisson_demo):
    """Criterion 8: grid-64 inverse iteration tracks dense within bounds."""
    demo = poisson_demo
    eps = 1e-5
    run = demo.run(eps, steps=20)
    assert len(run.steps) == 20
    for step in run.steps:
        assert step.true_diff <= step.cum_bound + 1e-12, (
            f"step {step.step}: {step.true_diff:.3e} > {step.cum_bound:.3e}"
        )
    last = run.steps[-1]
    assert abs(last.nu_hier - last.nu_dense) <= 10.0 * eps * abs(last.nu_dense)
    areas = partition_areas(demo.tree, run.final_leaves, demo.problem)
    assert abs(sum(areas.values()) - 0.75) <= 1e-9
    near, far = corner_concentration(demo.tree, run.final_leaves, demo.problem)
    assert np.isfinite(near) and np.isfinite(far)
    assert near < far, f"near-corner leaves not smaller: {near:.3e} vs {far:.3e}"
    print(
        f"\nACCEPT 8 inverse-iteration demo: PASS (n={demo.tree.n}, "
        f"eigen rel diff {abs(last.nu_hier - last.nu_dense) / abs(last.nu_dense):.2e}, "
        f"final clusters {last.tx}, leaf area near corner {near:.3e} vs {far:.3e})"
    )


def test_criterion_9_accuracy_vs_clusters(poisson_demo):
    """Criterion 9: cluster counts grow monotonically as eps shrinks,
    to the final counts of the grid-64 demo."""
    demo = poisson_demo
    eps_grid = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
    counts = []
    for eps in eps_grid:
        run = demo.run(eps, steps=20)
        counts.append(run.final_tx)
    assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:])), counts
    assert counts == [21, 53, 89, 101, 121], counts
    curve = ", ".join(f"eps={e:.0e}: {c}" for e, c in zip(eps_grid, counts))
    print(f"\nACCEPT 9 accuracy-vs-clusters trend: PASS ({curve})")
