"""Recursive H2 product: the reference for the level-batched passes.

The walk visits one cluster or block at a time and makes one small
counted product each, charging the same flops per phase as the
batched passes of ``h2vec.matvec``.  Tests compare the library's
product against it: equal subtrees, equal per-phase flop counts and
coefficients equal up to round-off.  The slot layout and the induced
transfers are rebuilt here from the block tree alone, by the loops the
plan's index arrays replace.
"""

import numpy as np

from h2vec import kernels
from h2vec.hvector import HVector
from h2vec.matvec import InducedHVector
from h2vec.tree import Subtree


def layout(plan):
    """Slot offsets and induced ranks, read from the block tree alone.

    Returns (offsets, rank): offsets[(t, s)] is where the slot of the
    non-leaf block (t, s) starts in t's accumulator, the matrix rank
    plus one input rank per earlier non-leaf block of row t, and
    rank[t] is the length of that accumulator.
    """
    bt = plan.matrix.block_tree
    k = plan.input_basis.rank
    rank = {t: plan.matrix.rank for t in range(len(bt.row_tree))}
    offsets = {}
    for b in bt.blocks:
        if not b.is_leaf:
            offsets[(b.row, b.col)] = rank[b.row]
            rank[b.row] += k
    return offsets, rank


def induced_transfers(plan):
    """The induced transfers by a loop over sons and blocks.

    One counted product per (son, leaf block) pair, in the order the
    per-son assembly adds them, so the result is bit-identical to the
    stacked tiles of ``materialize_induced`` and costs the same flops.
    """
    mat = plan.matrix
    bt = mat.block_tree
    father = bt.row_tree.father
    ka, k = mat.rank, plan.input_basis.rank
    offsets, rank = layout(plan)
    slots = {}
    for (t, s), o in offsets.items():
        slots.setdefault(t, []).append((s, o))
    by_pair = {(b.row, b.col): b for b in bt.blocks}
    pushed = {
        s2: kernels.matmul(plan.cross[s2], f)
        for s2, f in plan.input_basis.transfer.items()
    }
    transfer = {}
    for t2, row_transfer in mat.row_basis.transfer.items():
        t = int(father[t2])
        e = np.zeros((rank[t2], rank[t]))
        e[:ka, :ka] = row_transfer
        for s, o in slots.get(t, []):
            for s2 in bt.col_tree.sons(s):
                b = by_pair[(t2, s2)]
                if b.is_leaf:
                    product = kernels.matmul(mat.coupling[b.index], pushed[s2])
                    e[:ka, o : o + k] += product
                else:
                    o2 = offsets[(t2, s2)]
                    e[o2 : o2 + k, o : o + k] = plan.input_basis.transfer[s2]
        transfer[t2] = e
    return transfer


def forward(x, plan, out):
    """Bottom-up pass computing W_s^T x|_s for every subtree member."""
    tree = x.basis.tree
    col_transfer = plan.matrix.col_basis.transfer

    def walk(s):
        if x.sub.is_leaf(s):
            out[s] = kernels.matvec(plan.cross[s], x.coeff[s])
            return
        acc = np.zeros(plan.matrix.rank)
        for s2 in tree.sons(s):
            walk(s2)
            acc = kernels.axpy(1.0, kernels.matvec(col_transfer[s2].T, out[s2]), acc)
        out[s] = acc

    walk(tree.root)


def coupling(x, plan, xbar, sub, bars):
    """Collect all block contributions, refining the result subtree."""
    bt = plan.matrix.block_tree
    row_tree = bt.row_tree
    k = plan.input_basis.rank
    offsets, rank = layout(plan)

    def walk(bid):
        b = bt.blocks[bid]
        t, s = b.row, b.col
        if b.is_leaf:
            bars[t][: plan.matrix.rank] += kernels.matvec(
                plan.matrix.coupling[bid], xbar[s]
            )
        elif x.sub.is_leaf(s):
            o = offsets[(t, s)]
            bars[t][o : o + k] = kernels.axpy(1.0, x.coeff[s], bars[t][o : o + k])
        else:
            if sub.is_leaf(t):
                sub.expand(t)
                for t2 in row_tree.sons(t):
                    bars[t2] = np.zeros(rank[t2])
            for sid in b.sons:
                walk(sid)

    walk(bt.root)


def standard_backward(basis, sub, bars):
    """Distribute accumulators over a subtree via plain transfers.

    bars maps every member i of sub to a float vector of length
    basis.rank_of(i); the result is the hierarchical vector collecting
    all contributions at the leaves.  The accumulators are consumed:
    they are updated in place and become the leaf coefficients.
    """
    tree = basis.tree
    out = HVector(basis, sub.copy(), {})

    def walk(t):
        if sub.is_leaf(t):
            out.coeff[t] = bars[t]
            return
        for t2 in tree.sons(t):
            bars[t2] += kernels.matvec(basis.transfer[t2], bars[t])
            kernels.tally(bars[t2].size)
            walk(t2)

    walk(tree.root)
    return out


def multiply(plan, x):
    """The product by the recursive walk, with the library's phases."""
    row_tree = plan.matrix.block_tree.row_tree
    xbar = {}
    with kernels.phase("forward"):
        forward(x, plan, xbar)
    sub = Subtree(row_tree)
    bars = {row_tree.root: np.zeros(layout(plan)[1][row_tree.root])}
    with kernels.phase("coupling"):
        coupling(x, plan, xbar, sub, bars)
    with kernels.phase("backward"):
        y = standard_backward(plan.induced, sub, bars)
    return InducedHVector(plan, y.sub, y.coeff)
