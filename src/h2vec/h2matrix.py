"""Block trees with geometric admissibility and H2 matrices.

A block tree partitions the product of two index sets; its leaves are
either admissible (well-separated bounding boxes) or pairs of tree
leaves.  It is held as arrays, one entry per block, and built one
level of block pairs at a time.  In the simplified format used here
every leaf block carries a coupling matrix, so an H2 matrix consists
of a block tree, a row and a column cluster basis of one rank k, and
one k x k coupling matrix per leaf block, held as one (L, k, k) stack
in leaf-block order.  Leaf blocks of full-rank leaf bases are
represented exactly, admissible blocks up to the compression error of
the bases.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockTree",
    "H2Matrix",
    "build_block_tree",
    "sparsity_constant",
    "random_h2",
    "to_dense",
]


@dataclass(eq=False)
class BlockTree:
    """Blocks as arrays, numbered depth first from the root block 0.

    Block j pairs the row cluster row[j] with the column cluster
    col[j], and parent[j] is its parent block (-1 at the root).
    admissible[j] marks a well-separated pair and leaf[j] a block
    without sons: an admissible one or one with a leaf cluster.  A
    block's sons pair each son of its row with each son of its column,
    the row's son slowest.
    """

    row_tree: object
    col_tree: object
    row: np.ndarray
    col: np.ndarray
    parent: np.ndarray
    admissible: np.ndarray
    leaf: np.ndarray
    root = 0

    def __len__(self):
        return self.row.size

    def leaves(self):
        """Leaf blocks in numbering order."""
        return np.flatnonzero(self.leaf).tolist()


def build_block_tree(row_tree, col_tree, eta):
    """Split block pairs level by level from the root pair, stopping
    at admissible pairs and at pairs with a leaf cluster.

    A pair is admissible when the larger bounding-box diameter is at
    most eta times the box distance.  Both trees must be level uniform
    with equal depth so that leaf pairs align.  Raises ValueError
    unless eta is finite and non-negative; 0 makes no pair admissible.
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"eta must be finite and non-negative, got {eta}")
    if row_tree.depth != col_tree.depth:
        raise ValueError(f"tree depths differ: {row_tree.depth} vs {col_tree.depth}")
    row_count, col_count = np.diff(row_tree.son_ptr), np.diff(col_tree.son_ptr)
    # per level: the blocks' clusters, parents (numbered level by level),
    # tests, and paths, the son numbers that lead to them from the root
    row, col, parent, path = [[row_tree.root]], [[col_tree.root]], [[-1]], [np.zeros((1, 0), dtype=np.intp)]
    admissible, leaf, start = [], [], 0
    while len(row[-1]):
        t, s = np.asarray(row[-1]), np.asarray(col[-1])
        gap = np.maximum(row_tree.box_min[t] - col_tree.box_max[s], col_tree.box_min[s] - row_tree.box_max[t])
        gap = np.maximum(gap, 0.0)
        diam = np.maximum(row_tree.diameter[t], col_tree.diameter[s])
        # vecdot rounds as the dot product of one gap with itself does
        admissible.append(diam <= eta * np.sqrt(np.vecdot(gap, gap)))
        leaf.append(admissible[-1] | ~row_tree.has_sons[t] | ~col_tree.has_sons[s])
        split = np.flatnonzero(~leaf[-1])
        t, s = t[split], s[split]
        # son pair q of a block pairs row son q // c with column son q % c
        per = row_count[t] * col_count[s]
        q = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
        c = np.repeat(col_count[s], per)
        row.append(row_tree.son_ids[np.repeat(row_tree.son_ptr[t], per) + q // c])
        col.append(col_tree.son_ids[np.repeat(col_tree.son_ptr[s], per) + q % c])
        parent.append(np.repeat(start + split, per))
        path.append(np.column_stack([path[-1][np.repeat(split, per)], q]))
        start += len(leaf[-1])
    # depth-first order sorts the paths, a parent's (padded with -1) first
    path = np.concatenate([np.pad(p, ((0, 0), (0, len(path) - p.shape[1])), constant_values=-1) for p in path])
    order = np.lexsort(path.T[::-1])
    parent = np.append(-1, np.argsort(order)[np.concatenate(parent)[order[1:]]])
    row, col, admissible, leaf = (np.concatenate(a)[order] for a in (row, col, admissible, leaf))
    return BlockTree(row_tree, col_tree, row, col, parent, admissible, leaf)


def sparsity_constant(bt):
    """Largest number of blocks any single cluster participates in."""
    return int(max(np.bincount(bt.row).max(), np.bincount(bt.col).max()))


class H2Matrix:
    """Block tree + row/column bases + one coupling matrix per leaf block.

    coupling is one float64 array of shape (L, k, k): the coupling
    matrices of the L leaf blocks in block_tree.leaves() order, with k
    the one rank of both bases at every cluster.  The checks raise
    ValueError in this order: a basis on another tree or of varying
    rank, bases of different ranks, a stack of another type or shape,
    then the first leaf block, by its block number, whose matrix is not
    finite.
    """

    def __init__(self, block_tree, row_basis, col_basis, coupling):
        bt = block_tree
        for name, basis, tree in (("row", row_basis, bt.row_tree), ("column", col_basis, bt.col_tree)):
            if basis.tree is not tree:
                raise ValueError(f"{name} basis does not match the block tree")
            if np.any(np.diff(basis.ptr) != basis.rank):
                raise ValueError(f"{name} basis: an H2 matrix needs one rank at every cluster")
        if row_basis.rank != col_basis.rank:
            raise ValueError("row and column bases must share one rank")
        k = row_basis.rank
        shape = (int(np.count_nonzero(bt.leaf)), k, k)
        array = isinstance(coupling, np.ndarray)
        if not (array and coupling.dtype == np.float64 and coupling.shape == shape):
            got = f"{coupling.dtype} array of shape {coupling.shape}" if array else type(coupling).__name__
            raise ValueError(f"expected a float64 coupling stack of shape {shape} in leaf-block order, got {got}")
        finite = np.isfinite(coupling).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"block {np.flatnonzero(bt.leaf)[finite.argmin()]}: non-finite coupling matrix")
        self.block_tree = block_tree
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.coupling = coupling

    @property
    def rank(self):
        return self.row_basis.rank

    @property
    def shape(self):
        return (self.block_tree.row_tree.n, self.block_tree.col_tree.n)


def random_h2(bt, row_basis, col_basis, seed, scale=1.0):
    """H2 matrix with seeded uniform coupling entries in [-scale, scale],
    drawn in leaf-block order."""
    rng = np.random.default_rng(seed)
    k = row_basis.rank
    # one draw: the same stream as one (k, k) draw per leaf block
    draws = scale * rng.uniform(-1.0, 1.0, size=(int(np.count_nonzero(bt.leaf)), k, k))
    return H2Matrix(bt, row_basis, col_basis, draws)


def to_dense(m):
    """Expand every leaf block; result is in tree position order."""
    bt, out = m.block_tree, np.zeros(m.shape)
    # each cluster's basis matrix materialized once
    row, col = functools.cache(m.row_basis.materialize), functools.cache(m.col_basis.materialize)
    leaves = bt.leaves()
    for c, t, s in zip(m.coupling, bt.row[leaves].tolist(), bt.col[leaves].tolist()):
        out[bt.row_tree.positions(t), bt.col_tree.positions(s)] = row(t) @ c @ col(s).T
    return out
