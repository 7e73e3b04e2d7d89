"""Recursive vector algebra and conversion: the reference for the level passes.

The walks visit one cluster at a time and make one small counted
product each, charging the same flops as the level passes of
``h2vec.hvector`` and ``h2vec.convert``.  Tests compare the library
against them: equal subtrees, equal commit, merge and forced cluster
sets, equal counted flops and coefficients and bounds equal up to
round-off.  The merge candidates of a cluster and the bound it
accumulates are taken in son order, as the level passes take them.
``to_dense`` expands each subtree leaf by its materialized basis
matrix, the oracle for the library's one backward pass and stacked
leaf products; it counts other flops.
"""

import math

import numpy as np

from h2vec import kernels
from h2vec.convert import ConversionReport
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


def dot(x, y, gram):
    """Inner product, pushing the shallower side down to common leaves."""
    tree, transfer, off = x.basis.tree, x.basis.transfer, x.basis.offsets

    def dot_leaf(i, z, w):
        if w.sub.is_leaf(i):
            return kernels.vdot(z, kernels.matvec(gram[i], w.data[off[i] : off[i + 1]]))
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


def norm(x, gram):
    return float(np.sqrt(max(dot(x, x, gram), 0.0)))


def to_dense(x):
    """Expand each subtree leaf by its materialized basis matrix."""
    tree = x.basis.tree
    out = np.zeros(tree.n)
    for i, c in x.coeff.items():
        out[tree.positions(i)] = x.basis.materialize(i) @ c
    return out


def _ascent(y, pfactors, budget, merge_errors):
    """ascend(i, acc): merge the sons of i into i when all are subtree
    leaves of y and the merge error plus acc fits the local budget;
    returns the bound at i."""
    tree, off = y.basis.tree, y.basis.offsets

    def ascend(i, acc):
        if not all(y.sub.is_leaf(s) for s in tree.sons(i)):
            return acc
        merged, merge_err, scale = merge(y, i, pfactors)
        candidate = merge_err + acc
        if candidate <= budget.limit(tree.size(i), tree.n, scale):
            y.sub.contract(i)
            y.data[off[i] : off[i + 1]] = merged
            merge_errors[i] = merge_err
            return candidate
        return acc

    return ascend


def convert(x, target, zfactors, pfactors, budget):
    """Depth-first descent and ascent; returns (y, bound, report)."""
    tree = target.tree
    y = HVector(target)
    xoff, yoff = x.basis.offsets, target.offsets
    report = ConversionReport()
    ascend = _ascent(y, pfactors, budget, report.merge_errors)

    def descend(i, xhat):
        # xhat: the source coefficient at i, or None above x's leaves
        if xhat is None and x.sub.is_leaf(i):
            xhat = x.data[xoff[i] : xoff[i + 1]]
        if xhat is not None:
            r = target.rank_of(i)
            err = float(np.linalg.norm(kernels.matvec(zfactors[i][r:], xhat)))
            fits = err <= budget.limit(tree.size(i), tree.n, float(np.linalg.norm(xhat)))
            if fits or tree.is_leaf(i):
                y.data[yoff[i] : yoff[i + 1]] = kernels.matvec(zfactors[i][:r], xhat)
                report.commit_errors[i] = err
                if not fits:
                    report.forced.append(i)
                return err
        y.sub.expand(i)
        acc = 0.0
        for s in tree.sons(i):
            son = None if xhat is None else kernels.matvec(x.basis.transfer[s], xhat)
            acc += descend(s, son) ** 2
        return ascend(i, math.sqrt(acc))

    bound = descend(tree.root, None)
    report.bound = bound
    return y, bound, report


def coarsen_pass(y, pfactors, budget):
    """Post-order merging; returns the bound at the root."""
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
