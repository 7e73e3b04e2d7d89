"""Recursive H2 products: the references for the level-batched passes.

The walks visit one cluster or block at a time and make one small
counted product each.  ``multiply`` collects the block contributions
into the induced accumulators and distributes them by the dense
induced transfers; it is the value oracle.  ``factored_multiply``
walks the factored model of ``h2vec.matvec``: the input is refined
to the column clusters the result reads, and the row basis alone
carries the accumulators down; it charges the same flops per phase
as the batched passes.  Tests compare the library's product against
both: equal subtrees, coefficients equal up to round-off and equal
per-phase flop counts.  The slot layout and the induced transfers are
rebuilt here from the block tree alone, by the loops the plan's index
arrays replace.
"""

import numpy as np

from h2vec import kernels
from h2vec.hvector import HVector, refine
from h2vec.matvec import InducedHVector
from h2vec.tree import Subtree


def block_sons(bt):
    """sons[j]: the son blocks of block j, in numbering order."""
    sons = [[] for _ in range(len(bt))]
    for j, p in enumerate(bt.parent.tolist()):
        if p >= 0:
            sons[p].append(j)
    return sons


def leaf_couplings(matrix):
    """The coupling matrices by block number: the stack is in leaf-block
    order."""
    return dict(zip(matrix.block_tree.leaves(), matrix.coupling))


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
    for t, s in zip(bt.row[~bt.leaf].tolist(), bt.col[~bt.leaf].tolist()):
        offsets[(t, s)] = rank[t]
        rank[t] += k
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
    by_pair = {pair: j for j, pair in enumerate(zip(bt.row.tolist(), bt.col.tolist()))}
    couplings = leaf_couplings(mat)
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
                if bt.leaf[b]:
                    product = kernels.matmul(couplings[b], pushed[s2])
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
            acc = acc + kernels.matvec(col_transfer[s2].T, out[s2])
            kernels.tally(acc.size)
        out[s] = acc

    walk(tree.root)


def coupling(x, plan, xbar, sub, bars):
    """Collect all block contributions, refining the result subtree."""
    bt = plan.matrix.block_tree
    row_tree = bt.row_tree
    k = plan.input_basis.rank
    offsets, rank = layout(plan)
    sons = block_sons(bt)
    couplings = leaf_couplings(plan.matrix)

    def walk(bid):
        t, s = int(bt.row[bid]), int(bt.col[bid])
        if bt.leaf[bid]:
            bars[t][: plan.matrix.rank] += kernels.matvec(couplings[bid], xbar[s])
        elif x.sub.is_leaf(s):
            o = offsets[(t, s)]
            bars[t][o : o + k] += x.coeff[s]
            kernels.tally(k)
        else:
            if sub.is_leaf(t):
                sub.expand(t)
                for t2 in row_tree.sons(t):
                    bars[t2] = np.zeros(rank[t2])
            for sid in sons[bid]:
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
    leaves = {}

    def walk(t):
        if sub.is_leaf(t):
            leaves[t] = bars[t]
            return
        for t2 in tree.sons(t):
            bars[t2] += kernels.matvec(basis.transfer[t2], bars[t])
            kernels.tally(bars[t2].size)
            walk(t2)

    walk(tree.root)
    return HVector.from_leaves(basis, sub.copy(), leaves)


def multiply(plan, x):
    """The product by the recursive walk through the dense induced
    transfers, the value oracle."""
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
    return InducedHVector(plan, y.sub, y.data)


def result_subtree(plan, x):
    """The subtree of the product with x: a row is interior when a
    non-leaf block joins it with an interior column of x."""
    bt = plan.matrix.block_tree
    sub = Subtree(bt.row_tree)
    sons = block_sons(bt)

    def grow(bid):
        t, s = int(bt.row[bid]), int(bt.col[bid])
        if not bt.leaf[bid] and s in x.sub and not x.sub.is_leaf(s):
            if sub.is_leaf(t):
                sub.expand(t)
            for sid in sons[bid]:
                grow(sid)

    grow(bt.root)
    return sub


def coupling_sums(matrix, sub, xbar):
    """The coupling of the factored model, one leaf block at a time.

    Walks the block tree down to the leaves of the result's subtree
    sub; every leaf block on the way adds S_b xbar[s], one counted
    product, into its row's sum.  xbar has one row per column cluster.
    Returns the sums by row cluster, in the order the walk first
    reaches each row.
    """
    bt = matrix.block_tree
    sons = block_sons(bt)
    couplings = leaf_couplings(matrix)
    sums = {}

    def walk(bid):
        t, s = int(bt.row[bid]), int(bt.col[bid])
        if bt.leaf[bid]:
            product = kernels.matvec(couplings[bid], xbar[s])
            sums[t] = sums[t] + product if t in sums else product
        elif not sub.is_leaf(t):
            for sid in sons[bid]:
                walk(sid)

    walk(bt.root)
    return sums


def factored_multiply(plan, x):
    """The product by the factored model, one block at a time.

    The result's subtree comes first: a row is interior when a
    non-leaf block joins it with an interior column of x.  A leaf
    block whose row lies in that subtree adds S_b xbar_s into its
    row's accumulator; below x's leaves xbar_s is cross[s] times the
    input refined down to s.  A non-leaf block at a leaf row of the
    result hands the refined input at its column to its slot; parking
    an input leaf's coefficient is charged to the coupling.  The
    refinement and its cross products are charged to the forward pass.
    """
    bt = plan.matrix.block_tree
    col_tree = bt.col_tree
    ka, k = plan.matrix.rank, plan.input_basis.rank
    sub = result_subtree(plan, x)
    sons = block_sons(bt)
    xbar = {}
    with kernels.phase("forward"):
        forward(x, plan, xbar)
    refined = x.copy()
    off = plan.input_basis.offsets

    def pushed(s):
        if s not in refined.sub:
            f = int(col_tree.father[s])
            pushed(f)
            if refined.sub.is_leaf(f):
                refine(refined, f)
        return refined.data[off[s] : off[s + 1]]

    bars = {t: np.zeros(ka) for t in sub.members()}
    slots = {}
    couplings = leaf_couplings(plan.matrix)

    def walk(bid):
        t, s = int(bt.row[bid]), int(bt.col[bid])
        if bt.leaf[bid]:
            if s not in xbar:
                with kernels.phase("forward"):
                    xbar[s] = kernels.matvec(plan.cross[s], pushed(s))
            bars[t] += kernels.matvec(couplings[bid], xbar[s])
            return
        if x.sub.is_leaf(s):
            kernels.tally(k)
        if sub.is_leaf(t):
            with kernels.phase("forward"):
                slots[(t, s)] = pushed(s)
        else:
            for sid in sons[bid]:
                walk(sid)

    with kernels.phase("coupling"):
        walk(bt.root)
    with kernels.phase("backward"):
        lead = standard_backward(plan.matrix.row_basis, sub, bars)
    offsets, rank = layout(plan)
    coeff = {}
    for t in sub.leaves():
        coeff[t] = np.zeros(rank[t])
        coeff[t][:ka] = lead.coeff[t]
    for (t, s), v in slots.items():
        coeff[t][offsets[(t, s)] : offsets[(t, s)] + k] = v
    y = HVector.from_leaves(plan.induced, sub, coeff)
    return InducedHVector(plan, y.sub, y.data)
