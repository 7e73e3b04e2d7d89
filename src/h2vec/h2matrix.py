"""Block trees with geometric admissibility and H2 matrices.

A block tree partitions the product of two index sets; its leaves are
either admissible (well-separated bounding boxes) or pairs of tree
leaves.  In the simplified format used here every leaf block carries a
coupling matrix, so an H2 matrix consists of a block tree, a row and a
column cluster basis, and one coupling matrix per leaf block.  Leaf
blocks of full-rank leaf bases are represented exactly, admissible
blocks up to the compression error of the bases.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "Block",
    "BlockTree",
    "H2Matrix",
    "build_block_tree",
    "sparsity_constant",
    "compress_dense",
    "random_h2",
    "to_dense",
]


@dataclass
class Block:
    index: int
    row: int
    col: int
    sons: tuple
    admissible: bool

    @property
    def is_leaf(self):
        return not self.sons


class BlockTree:
    def __init__(self, row_tree, col_tree, blocks, eta):
        self.row_tree = row_tree
        self.col_tree = col_tree
        self.blocks = blocks
        self.eta = eta
        self.root = 0

    def __len__(self):
        return len(self.blocks)

    def leaves(self):
        return [b.index for b in self.blocks if b.is_leaf]


def build_block_tree(row_tree, col_tree, eta):
    """Descend from the root pair, stopping at admissible or leaf pairs.

    A pair is admissible when the larger bounding-box diameter is at
    most eta times the box distance.  Both trees must be level uniform
    with equal depth so that leaf pairs align.  Raises ValueError
    unless eta is finite and non-negative; 0 makes no pair admissible.
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"eta must be finite and non-negative, got {eta}")
    if row_tree.depth != col_tree.depth:
        raise ValueError(
            f"tree depths differ: {row_tree.depth} vs {col_tree.depth}"
        )
    blocks = []

    def admissible(t, s):
        diam = max(row_tree.diameter(t), col_tree.diameter(s))
        gap = _box_distance(row_tree, t, col_tree, s)
        return diam <= eta * gap

    def descend(t, s):
        idx = len(blocks)
        blocks.append(None)
        adm = admissible(t, s)
        if adm or (row_tree.is_leaf(t) and col_tree.is_leaf(s)):
            blocks[idx] = Block(idx, t, s, (), adm)
            return idx
        sons = tuple(
            descend(t2, s2)
            for t2 in row_tree.sons(t)
            for s2 in col_tree.sons(s)
        )
        blocks[idx] = Block(idx, t, s, sons, False)
        return idx

    descend(row_tree.root, col_tree.root)
    return BlockTree(row_tree, col_tree, blocks, eta)


def _box_distance(row_tree, t, col_tree, s):
    a = row_tree.clusters[t]
    b = col_tree.clusters[s]
    gap = np.maximum(0.0, np.maximum(a.box_min - b.box_max, b.box_min - a.box_max))
    # np.linalg.norm computes sqrt(gap . gap) as well, at a higher call cost
    return math.sqrt(gap.dot(gap))


def sparsity_constant(bt):
    """Largest number of blocks any single cluster participates in."""
    rows = {}
    cols = {}
    for b in bt.blocks:
        rows[b.row] = rows.get(b.row, 0) + 1
        cols[b.col] = cols.get(b.col, 0) + 1
    return max(max(rows.values()), max(cols.values()))


class H2Matrix:
    """Block tree + row/column bases + per-leaf-block coupling matrices."""

    def __init__(self, block_tree, row_basis, col_basis, coupling):
        if row_basis.rank != col_basis.rank:
            raise ValueError("row and column bases must share one rank")
        if row_basis.tree is not block_tree.row_tree:
            raise ValueError("row basis does not match the block tree")
        if col_basis.tree is not block_tree.col_tree:
            raise ValueError("column basis does not match the block tree")
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
    row_mat = {}
    col_mat = {}
    for idx in bt.leaves():
        b = bt.blocks[idx]
        if b.row not in row_mat:
            row_mat[b.row] = row_basis.materialize(b.row)
        if b.col not in col_mat:
            col_mat[b.col] = col_basis.materialize(b.col)
        rows = bt.row_tree.positions(b.row)
        cols = bt.col_tree.positions(b.col)
        yield idx, rows, cols, row_mat[b.row], col_mat[b.col]


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
    k = row_basis.rank
    coupling = {}
    for idx in bt.leaves():
        coupling[idx] = scale * rng.uniform(-1.0, 1.0, size=(k, k))
    return H2Matrix(bt, row_basis, col_basis, coupling)


def to_dense(m):
    """Expand every leaf block; result is in tree position order."""
    out = np.zeros(m.shape)
    for idx, rows, cols, v, w in _leaf_blocks(m.block_tree, m.row_basis, m.col_basis):
        out[rows, cols] = v @ m.coupling[idx] @ w.T
    return out
