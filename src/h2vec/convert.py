"""Adaptive basis conversion with exact error control.

Converting a hierarchical vector into a different (isometric) basis
descends the source subtree: where the exact projection error fits the
local budget the projected coefficient is committed, otherwise the
coefficient is pushed to the sons and the descent continues.  On the
way back up, sons are merged again whenever the exact merge error
keeps the accumulated bound inside the local budget.

The local budget at a cluster holding a fraction f of all indices is
eps * sqrt(f): committed leaves have disjoint supports, so the global
error is bounded by eps.  Accumulated bounds follow the recursion
acc(t) = local(t) + sqrt(sum of son acc squared), an upper bound for
the true error by the triangle inequality along refinement chains and
Pythagoras across disjoint supports.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .basis import ClusterBasis
from .hvector import HVector, merge

__all__ = [
    "ToleranceBudget",
    "ConversionReport",
    "materialize_induced",
    "convert",
    "coarsen_pass",
]


@dataclass
class ToleranceBudget:
    """Global tolerance with per-cluster split and round-off floor.

    rel_floor widens acceptance tests by a tiny multiple of the local
    coefficient norm so that exact representations (errors at round-off
    level) are recognized even for eps = 0; accumulated bounds always
    use the true computed errors, never the floor.
    """

    eps: float
    rel_floor: float = 1e-12

    def limit(self, size, total, scale):
        """Acceptance limit at a cluster holding `size` of `total`
        indices whose coefficient has norm `scale`."""
        return max(self.eps * math.sqrt(size / total), self.rel_floor * scale)


@dataclass
class ConversionReport:
    """Per-cluster exact local errors committed during one conversion."""

    commit_errors: dict = field(default_factory=dict)
    merge_errors: dict = field(default_factory=dict)
    forced: list = field(default_factory=list)
    bound: float = 0.0
    cluster_count: int = 0

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["cluster", "kind", "error"])
            for i, e in sorted(self.commit_errors.items()):
                writer.writerow([i, "commit", f"{e:.17g}"])
            for i, e in sorted(self.merge_errors.items()):
                writer.writerow([i, "merge", f"{e:.17g}"])
            writer.writerow(["total", "bound", f"{self.bound:.17g}"])
            writer.writerow(["total", "clusters", self.cluster_count])


def materialize_induced(plan):
    """Explicit nested basis realizing the induced layout of a plan.

    Cluster t has the true rank plan.rank[t]: the row basis in the
    leading columns, then one block of input-basis columns per
    non-leaf block (t, s), at plan.offsets[(t, s)].  Leaves own no
    such blocks, so the leaf matrices are the row basis's own.  The
    transfer of a son t2 of t is plan.rank[t2] x plan.rank[t]; it
    assembles the row transfer, the coupling and cross-gram products
    of the son leaf blocks, and the input transfers into the son's
    slots.  The transfers are written into fresh stacks, one per group
    of plan.groups, and the basis holds views into them, so they are
    stored once.  rank is the largest of the cluster ranks.
    """
    mat = plan.matrix
    bt = mat.block_tree
    row_tree = bt.row_tree
    col_tree = bt.col_tree
    ka = mat.rank
    k = plan.input_basis.rank
    leaf_matrix = {t: mat.row_basis.leaf_matrix[t] for t in row_tree.leaves()}
    # cross[s2] times the input transfer of s2, shared by all blocks (t2, s2)
    pushed = {
        s2: kernels.matmul(plan.cross[s2], f)
        for s2, f in plan.input_basis.transfer.items()
    }
    transfer = {}
    for group in plan.groups:
        group.transfer = np.zeros(group.son_target.shape + group.father_target.shape[1:])
        for e, t2, t in zip(group.transfer, group.sons.tolist(), group.fathers.tolist()):
            e[:ka, :ka] = mat.row_basis.transfer[t2]
            for s in plan.nonleaf_cols[t]:
                o = plan.offsets[(t, s)]
                for s2 in col_tree.sons(s):
                    bid = bt.by_pair[(t2, s2)]
                    if bt.blocks[bid].is_leaf:
                        e[:ka, o : o + k] += kernels.matmul(
                            mat.coupling[bid], pushed[s2]
                        )
                    else:
                        o2 = plan.offsets[(t2, s2)]
                        e[o2 : o2 + k, o : o + k] = plan.input_basis.transfer[s2]
            transfer[t2] = e
    rank = max(plan.rank.values())
    return ClusterBasis(row_tree, rank, leaf_matrix, transfer, isometric=False)


def _ascent(y, pfactors, budget, merge_errors):
    """The merge step of convert and coarsen_pass, as ascend(i, acc).

    Merges the sons of i into i when all are subtree leaves of y and
    the exact merge error plus their accumulated bound acc fits the
    local budget; returns the bound at i.
    """
    tree = y.basis.tree

    def ascend(i, acc):
        if not all(y.sub.is_leaf(s) for s in tree.sons(i)):
            return acc
        merged, merge_err, scale = merge(y, i, pfactors)
        candidate = merge_err + acc
        if candidate <= budget.limit(tree.size(i), tree.n, scale):
            for s in tree.sons(i):
                del y.coeff[s]
            y.sub.contract(i)
            y.coeff[i] = merged
            merge_errors[i] = merge_err
            return candidate
        return acc

    return ascend


def convert(x, target, zfactors, pfactors, budget):
    """Approximate x in a different isometric basis, adaptively.

    Parameters
    ----------
    x : HVector over the source basis (a product result qualifies).
    target : isometric ClusterBasis on the same tree.
    zfactors : ProjectionFactors for (source, target).
    pfactors : merge factors of the target basis.
    budget : ToleranceBudget.

    Returns
    -------
    (y, bound, report) : the converted vector, the accumulated error
    bound acc(root) (an upper bound for the true Euclidean error), and
    the per-cluster report of exact local errors.
    """
    if zfactors.source is not x.basis or zfactors.target is not target:
        raise ValueError("projection factors do not match source/target bases")
    if not target.isometric:
        raise ValueError("target basis must be isometric")
    x.validate()
    tree = target.tree
    y = HVector(target)
    report = ConversionReport()
    ascend = _ascent(y, pfactors, budget, report.merge_errors)

    def descend(i, xhat):
        # xhat: the source coefficient at i, or None above x's leaves
        if xhat is None and x.sub.is_leaf(i):
            xhat = x.coeff[i]
        if xhat is not None:
            err = float(np.linalg.norm(kernels.matvec(zfactors.z[i], xhat)))
            fits = err <= budget.limit(tree.size(i), tree.n, float(np.linalg.norm(xhat)))
            if fits or tree.is_leaf(i):
                y.coeff[i] = kernels.matvec(zfactors.cross[i], xhat)
                report.commit_errors[i] = err
                if not fits:
                    report.forced.append(i)
                return err
        y.sub.expand(i)
        y.coeff.pop(i, None)
        acc = 0.0
        for s in tree.sons(i):
            son = None if xhat is None else kernels.matvec(x.basis.transfer[s], xhat)
            acc += descend(s, son) ** 2
        return ascend(i, math.sqrt(acc))

    bound = descend(tree.root, None)
    report.bound = bound
    report.cluster_count = y.sub.count()
    return y, bound, report


def coarsen_pass(y, pfactors, budget):
    """Greedy bottom-up merging of an isometric hierarchical vector.

    Merges sons wherever the accumulated exact error stays inside the
    local budget; a second pass changes nothing.  Returns the total
    bound acc(root).
    """
    if not y.basis.isometric:
        raise ValueError("coarsening requires an isometric basis")
    y.validate()
    tree = y.basis.tree
    ascend = _ascent(y, pfactors, budget, {})

    def walk(i):
        if y.sub.is_leaf(i):
            return 0.0
        acc = 0.0
        for s in tree.sons(i):
            acc += walk(s) ** 2
        return ascend(i, math.sqrt(acc))

    return walk(tree.root)
