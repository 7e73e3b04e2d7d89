"""The interleaved inverse-iteration schedule: the reference for the demo.

``interleaved_run`` takes one dense step and then one hierarchical step
at a time, as ``PoissonDemo.run`` did before it ran the dense sweep
first.  With the demo's own dense step the arithmetic is the same in
either order, so every field of every step but the wall times, and the
final leaves, must agree exactly with the library's run.  Given another
dense step, such as the n x n product with the expanded matrix, only
the dense fields may move, by round-off.  ``dense_sweep`` is the dense
iteration alone, with its iterates.
"""

import math
import time

import numpy as np

from h2vec import hvector, kernels
from h2vec.convert import ToleranceBudget, coarsen_pass, convert
from h2vec.demo import DemoRun, DemoStep, full_subtree
from h2vec.hvector import from_dense
from h2vec.matvec import multiply


def dense_sweep(dense_step, start, steps):
    """Dense inverse iteration: per step (Rayleigh quotient, iterate)."""
    out = []
    xd = start
    for _ in range(steps):
        yd = dense_step(xd)
        nu_dense = float(np.einsum("i,i->", xd, yd))
        xd = yd / math.sqrt(np.einsum("i,i->", yd, yd))
        out.append((nu_dense, xd))
    return out


def interleaved_run(demo, eps, steps, dense_step=None):
    """Dense and hierarchical inverse iteration, one step of each in
    turn; dense_step is demo.apply unless given."""
    dense_step = demo.apply if dense_step is None else dense_step
    n = demo.tree.n
    budget = ToleranceBudget(eps)
    start = np.ones(n) / math.sqrt(n)
    xd = start.copy()
    xh, projected = from_dense(start, demo.iso, full_subtree(demo.tree))
    # the projection's error is orthogonal to the merges' errors
    start_error = math.hypot(projected, coarsen_pass(xh, demo.pfactors, budget))
    run = DemoRun(eps=eps, start_bound=start_error)
    delta = start_error
    for step in range(1, steps + 1):
        t0 = time.perf_counter()
        yd = dense_step(xd)
        nu_dense = float(np.einsum("i,i->", xd, yd))
        norm_yd = math.sqrt(np.einsum("i,i->", yd, yd))
        xd = yd / norm_yd
        t1 = time.perf_counter()
        with kernels.count_flops() as counter:
            product = multiply(demo.plan, xh)
            t2 = time.perf_counter()
            with kernels.phase("convert"):
                yh, conv_bound, report = convert(
                    demo.to_nested(product), demo.iso, demo.zfactors, demo.pfactors, budget
                )
            t3 = time.perf_counter()
        nu_hier = hvector.dot(xh, yh) / hvector.dot(xh, xh)
        norm_yh = hvector.norm(yh)
        hvector.scale(yh, 1.0 / norm_yh)
        xh = yh
        t4 = time.perf_counter()
        delta = min(2.0, 2.0 * (demo.op_norm * delta + conv_bound) / norm_yd)
        diff = hvector.to_dense(xh) - xd
        true_diff = math.sqrt(np.einsum("i,i->", diff, diff))
        t5 = time.perf_counter()
        run.steps.append(
            DemoStep(
                step=step,
                nu_dense=nu_dense,
                nu_hier=nu_hier,
                conv_bound=conv_bound,
                cum_bound=delta,
                true_diff=true_diff,
                tx=xh.sub.count(),
                ty=product.sub.count(),
                commits=len(report.commit_errors),
                merges=len(report.merge_errors),
                forced=len(report.forced),
                flops=dict(counter.phases),
                seconds={
                    "dense": t1 - t0,
                    "matvec": t2 - t1,
                    "convert": t3 - t2,
                    "vector": t4 - t3,
                    "check": t5 - t4,
                },
            )
        )
    run.final_leaves = xh.sub.leaves()
    return run
