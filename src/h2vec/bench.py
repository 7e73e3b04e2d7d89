"""Scaling benchmark: product cost against active subtree size."""

import datetime
import time

import numpy as np

from . import kernels
from .instances import random_hvector, random_instance, random_subtree
from .matvec import multiply

__all__ = ["bench_matvec", "write_csv"]


def write_csv(path, header, rows, comment):
    """CSV with one timestamped comment line; floats carry 17 digits."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as handle:
        handle.write(f"# {comment} generated {stamp}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                format(v, ".17g") if isinstance(v, float) else str(v) for v in row
            ]
            handle.write(",".join(cells) + "\n")


def bench_matvec(sizes, k, ka, eta, seed):
    """Measure product flops and wall time over growing subtrees.

    For every problem size, subtrees with roughly doubling cluster
    counts are generated and multiplied; one row per run reports the
    counts split by phase.
    """
    header = [
        "n",
        "tx",
        "ty",
        "csp",
        "max_rank",
        "flops_forward",
        "flops_coupling",
        "flops_backward",
        "flops_total",
        "seconds",
    ]
    rows = []
    for n in sizes:
        inst = random_instance(n, k, ka, eta, seed)
        rng = np.random.default_rng(seed + n)
        full = len(inst.tree.clusters)
        target = 8
        targets = []
        while target <= full:
            targets.append(target)
            target *= 2
        if not targets or targets[-1] != full:
            targets.append(full)
        for target in targets:
            sub = random_subtree(inst.tree, rng, target=target)
            x = random_hvector(inst.input_basis, rng, sub=sub)
            t0 = time.perf_counter()
            with kernels.count_flops() as counter:
                y = multiply(inst.plan, x)
            seconds = time.perf_counter() - t0
            rows.append(
                (
                    n,
                    x.sub.count(),
                    y.sub.count(),
                    inst.csp,
                    inst.plan.induced.rank,
                    counter.phases.get("forward", 0),
                    counter.phases.get("coupling", 0),
                    counter.phases.get("backward", 0),
                    counter.total,
                    float(seconds),
                )
            )
    return header, rows
