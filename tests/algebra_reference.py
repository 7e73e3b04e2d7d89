"""Recursive vector algebra and conversion: the reference for the level passes.

The walks visit one cluster at a time and make one small counted
product each, charging the same flops as the level passes of
``h2vec.hvector`` and ``h2vec.convert``.  Tests compare the library
against them: equal subtrees, equal commit, merge and forced cluster
sets, equal counted flops and coefficients and bounds equal up to
round-off.  A cluster's son coefficients are stacked in son order,
as the level passes stack them.
``to_dense`` expands each subtree leaf by its materialized basis
matrix, the oracle for the library's one backward pass and stacked
leaf products; it counts other flops.
"""

import math

import numpy as np

from h2vec import kernels
from h2vec.convert import MARGIN, REL_FLOOR, ConversionReport
from h2vec.hvector import HVector, merge, refine


def axpy(alpha, x, y):
    """y <- y + alpha*x, refining y where x is deeper."""
    tree, transfer, off = x.basis.tree, x.basis.transfer, x.basis.offsets
    xdata, ydata = x.data, y.data

    def add_leaf(i, z):
        if y.sub.is_leaf(i):
            a, b = off[i], off[i + 1]
            ydata[a:b] = kernels.axpy(1.0, z, ydata[a:b])
        else:
            for s in tree.sons(i):
                add_leaf(s, kernels.matvec(transfer[s], z))

    def add(i):
        if x.sub.is_leaf(i):
            add_leaf(i, alpha * xdata[off[i] : off[i + 1]])
        else:
            if y.sub.is_leaf(i):
                refine(y, i)
            for s in tree.sons(i):
                add(s)

    add(tree.root)


def dot(x, y, gram=None):
    """Inner product, pushing the shallower side down to common leaves;
    on an isometric basis V_t^T V_t = I, so no Gram product is made."""
    tree, transfer, off = x.basis.tree, x.basis.transfer, x.basis.offsets

    def dot_leaf(i, z, w):
        if w.sub.is_leaf(i):
            wi = w.data[off[i] : off[i + 1]]
            return kernels.vdot(z, wi if x.basis.isometric else kernels.matvec(gram[i], wi))
        total = 0.0
        for s in tree.sons(i):
            total += dot_leaf(s, kernels.matvec(transfer[s], z), w)
        return total

    def descend(i):
        if x.sub.is_leaf(i):
            return dot_leaf(i, x.data[off[i] : off[i + 1]], y)
        if y.sub.is_leaf(i):
            return dot_leaf(i, y.data[off[i] : off[i + 1]], x)
        return sum(descend(s) for s in tree.sons(i))

    return descend(tree.root)


def norm(x, gram=None):
    return float(np.sqrt(max(dot(x, x, gram), 0.0)))


def to_dense(x):
    """Expand each subtree leaf by its materialized basis matrix."""
    tree = x.basis.tree
    out = np.zeros(tree.n)
    for i, c in x.coeff.items():
        out[tree.positions(i)] = x.basis.materialize(i) @ c
    return out


def _cut(y, charged, pfactors, budget, merge_errors):
    """The merges over the subtree y.sub, level by level from the
    deepest: every cluster whose sons are all leaves is a candidate and
    is merged, charging its exact merge error squared (0 at round-off
    level), in order of that charge, ties by cluster number, for as
    long as the running sum fits what the leaves' charged errors leave
    of the budget; a charge of 0 always fits.  charged maps y.sub's
    leaves to their squared errors, 0 at round-off level; y.sub and
    y.data are updated and the applied merges' errors are added to
    merge_errors."""
    tree, off = y.basis.tree, y.basis.offsets
    limit = budget.eps / (1.0 + 2.0 * MARGIN)
    left = limit * limit - math.fsum(charged.values())
    for ids in reversed(tree.by_level):
        found = []
        for i in ids.tolist():
            if i in y.sub and not y.sub.is_leaf(i) and all(y.sub.is_leaf(s) for s in tree.sons(i)):
                merged, error, scale = merge(y, i, pfactors)
                found.append((0.0 if error <= REL_FLOOR * scale else error * error, i, merged, error))
        spent = 0.0
        for cost, i, merged, error in sorted(found, key=lambda f: f[:2]):
            if spent + cost > max(left, 0.0):
                break
            spent += cost
            y.sub.contract(i)
            y.data[off[i] : off[i + 1]] = merged
            merge_errors[i] = error
        left -= spent


def convert(x, target, zfactors, pfactors, budget):
    """Depth-first descent, then the cut; returns (y, bound, report)."""
    tree = target.tree
    y = HVector(target)
    xoff, yoff = x.basis.offsets, target.offsets
    report = ConversionReport()
    charged = {}

    def descend(i, xhat):
        # xhat: the source coefficient at i, or None above x's leaves
        if xhat is None and x.sub.is_leaf(i):
            xhat = x.data[xoff[i] : xoff[i + 1]]
        if xhat is not None:
            r = target.rank_of(i)
            err = float(np.linalg.norm(kernels.matvec(zfactors[i][r:], xhat)))
            scale = float(np.linalg.norm(xhat))
            fits = err <= budget.limit(tree.sizes[i], tree.n, scale)
            if fits or tree.is_leaf(i):
                y.data[yoff[i] : yoff[i + 1]] = kernels.matvec(zfactors[i][:r], xhat)
                report.commit_errors[i] = err
                charged[i] = 0.0 if err <= REL_FLOOR * scale else err * err
                if not fits:
                    report.forced.append(i)
                return
        y.sub.expand(i)
        for s in tree.sons(i):
            descend(s, None if xhat is None else kernels.matvec(x.basis.transfer[s], xhat))

    descend(tree.root, None)
    _cut(y, charged, pfactors, budget, report.merge_errors)
    errors = list(report.commit_errors.values()) + list(report.merge_errors.values())
    report.bound = math.sqrt(sum(e * e for e in errors)) * (1.0 + MARGIN)
    return y, report.bound, report


def coarsen_pass(y, pfactors, budget):
    """The cut over y's own subtree, whose leaves carry no error;
    returns the bound."""
    merge_errors = {}
    _cut(y, dict.fromkeys(y.sub.leaves(), 0.0), pfactors, budget, merge_errors)
    return math.sqrt(sum(e * e for e in merge_errors.values())) * (1.0 + MARGIN)
