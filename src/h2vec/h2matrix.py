"""Block trees with geometric admissibility and H2 matrices.

A block tree partitions the product of two index sets; its leaves are
either admissible (well-separated bounding boxes) or pairs of tree
leaves.  It is held as arrays, one entry per block, and built one
level of block pairs at a time.  In the simplified format used here
every leaf block carries a coupling matrix, so an H2 matrix consists
of a block tree, a row and a column cluster basis, and one coupling
matrix per leaf block.  Leaf blocks of full-rank leaf bases are
represented exactly, admissible blocks up to the compression error of
the bases.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "BlockTree",
    "H2Matrix",
    "build_block_tree",
    "sparsity_constant",
    "compress_dense",
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


def _son_lists(tree):
    """(sons, first, count): cluster i's sons, in order, are sons[first[i]:][:count[i]]."""
    sons = np.concatenate(tree.by_level)[1:]
    sons = sons[np.argsort(tree.father[sons], kind="stable")]
    count = np.bincount(tree.father[sons], minlength=len(tree))
    return sons, np.cumsum(count) - count, count


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
    (row_sons, row_first, row_count), (col_sons, col_first, col_count) = map(_son_lists, (row_tree, col_tree))
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
        row.append(row_sons[np.repeat(row_first[t], per) + q // c])
        col.append(col_sons[np.repeat(col_first[s], per) + q % c])
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
    """Block tree + row/column bases + per-leaf-block coupling matrices.

    coupling maps each leaf block (t, s), by its number, to a finite
    r_t x r_s matrix.  The check makes three passes and raises
    ValueError at the first that fails: it names the first leaf block
    whose coupling matrix is missing or of another shape, then the
    first leaf block whose matrix is not finite, then the first other
    block given one.
    """

    def __init__(self, block_tree, row_basis, col_basis, coupling):
        if row_basis.rank != col_basis.rank:
            raise ValueError("row and column bases must share one rank")
        if row_basis.tree is not block_tree.row_tree:
            raise ValueError("row basis does not match the block tree")
        if col_basis.tree is not block_tree.col_tree:
            raise ValueError("column basis does not match the block tree")
        bt, leaves = block_tree, block_tree.leaves()
        shapes = zip(np.diff(row_basis.ptr)[bt.row[leaves]].tolist(), np.diff(col_basis.ptr)[bt.col[leaves]].tolist())
        for idx, shape in zip(leaves, shapes):
            if np.shape(coupling.get(idx)) != shape:
                got = f"shape {np.shape(coupling[idx])}" if idx in coupling else "none"
                raise ValueError(f"block {idx}: expected a {shape[0]} x {shape[1]} coupling matrix, got {got}")
        if not np.isfinite(np.concatenate([coupling[idx] for idx in leaves], axis=None)).all():
            idx = next(idx for idx in leaves if not np.isfinite(coupling[idx]).all())
            raise ValueError(f"block {idx}: non-finite coupling matrix")
        extra = set(coupling).difference(leaves)
        if extra:
            raise ValueError(f"block {min(extra)}: not a leaf block, but given a coupling matrix")
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


def _leaf_blocks(bt, row_basis, col_basis):
    """Yield (idx, rows, cols, V_t, W_s) per leaf block (t, s): the
    block's positions and its row and column basis matrices, each
    materialized once per cluster."""
    row_mat, col_mat, leaves = {}, {}, bt.leaves()
    for idx, t, s in zip(leaves, bt.row[leaves].tolist(), bt.col[leaves].tolist()):
        if t not in row_mat:
            row_mat[t] = row_basis.materialize(t)
        if s not in col_mat:
            col_mat[s] = col_basis.materialize(s)
        yield idx, bt.row_tree.positions(t), bt.col_tree.positions(s), row_mat[t], col_mat[s]


def compress_dense(a, row_basis, col_basis, bt):
    """Project a dense matrix (tree position order) onto the H2 format.

    Coupling matrices are the two-sided orthogonal projections of the
    leaf blocks.  Returns (matrix, error, expansion): the expansion is
    the matrix's dense form, equal to `to_dense(matrix)`, filled block
    by block, and the error is the Frobenius norm of its difference
    with the input, summed up over the blocks.
    """
    if not (row_basis.isometric and col_basis.isometric):
        raise ValueError("compression requires isometric bases")
    a = np.asarray(a, dtype=float)
    shape = (bt.row_tree.n, bt.col_tree.n)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    coupling = {}
    expansion = np.zeros(shape)
    sumsq = 0.0
    for idx, rows, cols, v, w in _leaf_blocks(bt, row_basis, col_basis):
        block = a[rows, cols]
        coupling[idx] = kernels.matmul(v.T, kernels.matmul(block, w))
        # the same products as to_dense, so the expansions agree exactly
        expanded = v @ coupling[idx] @ w.T
        expansion[rows, cols] = expanded
        diff = (block - expanded).ravel()
        sumsq += float(diff @ diff)
    return H2Matrix(bt, row_basis, col_basis, coupling), math.sqrt(sumsq), expansion


def random_h2(bt, row_basis, col_basis, seed, scale=1.0):
    """H2 matrix with seeded uniform coupling entries in [-scale, scale]."""
    rng = np.random.default_rng(seed)
    leaves, k = bt.leaves(), row_basis.rank
    # one draw: the same stream as one (k, k) draw per leaf block
    draws = scale * rng.uniform(-1.0, 1.0, size=(len(leaves), k, k))
    return H2Matrix(bt, row_basis, col_basis, dict(zip(leaves, draws)))


def to_dense(m):
    """Expand every leaf block; result is in tree position order."""
    out = np.zeros(m.shape)
    for idx, rows, cols, v, w in _leaf_blocks(m.block_tree, m.row_basis, m.col_basis):
        out[rows, cols] = v @ m.coupling[idx] @ w.T
    return out
