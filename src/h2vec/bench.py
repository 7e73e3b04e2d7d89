"""Scaling benchmark: product cost against active subtree size."""

import datetime
import time

import numpy as np

from . import kernels
from .instances import random_hvector, random_instance, random_subtree
from .matvec import multiply

__all__ = ["bench_matvec", "write_csv"]


def write_csv(path, rows, comment):
    """CSV with one timestamped comment line; floats carry 17 digits.

    Each row is a dict from column name to value, all with the first
    row's columns in its order, which makes the header.
    """
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w") as handle:
        handle.write(f"# {comment} generated {stamp}\n")
        handle.write(",".join(rows[0]) + "\n")
        for row in rows:
            cells = [format(v, ".17g") if isinstance(v, float) else str(v) for v in row.values()]
            handle.write(",".join(cells) + "\n")


def bench_matvec(sizes, k, ka, eta, seed):
    """Measure product flops and wall time over growing subtrees.

    For every problem size, subtrees with roughly doubling cluster
    counts are generated and multiplied; one row per run, a dict from
    column name to value, reports the counts split by phase.
    """
    rows = []
    for n in sizes:
        inst = random_instance(n, k, ka, eta, seed)
        rng = np.random.default_rng(seed + n)
        full = len(inst.tree.clusters)
        # 8, 16, 32, ... below the full tree's count, then the full tree
        targets = [8 << j for j in range(full.bit_length()) if 8 << j < full] + [full]
        for target in targets:
            sub = random_subtree(inst.tree, rng, target=target)
            x = random_hvector(inst.input_basis, rng, sub=sub)
            t0 = time.perf_counter()
            with kernels.count_flops() as counter:
                y = multiply(inst.plan, x)
            seconds = time.perf_counter() - t0
            rows.append(
                {"n": n, "tx": x.sub.count(), "ty": y.sub.count(), "csp": inst.csp, "max_rank": inst.plan.induced.rank}
                | {f"flops_{p}": counter.phases.get(p, 0) for p in ("forward", "coupling", "backward")}
                | {"flops_total": counter.total, "seconds": float(seconds)}
            )
    return rows
