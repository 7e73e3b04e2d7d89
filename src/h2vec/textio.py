"""Line-based text serialization for trees, bases, vectors and matrices.

All floating-point values are written with 17 significant digits,
which round-trips IEEE doubles exactly; dump -> load -> dump is
byte-identical.
"""

import numpy as np

from .basis import ClusterBasis
from .h2matrix import H2Matrix
from .hvector import HVector
from .matvec import InducedHVector
from .tree import Cluster, ClusterTree, Subtree

__all__ = [
    "dump_tree",
    "load_tree",
    "dump_basis",
    "load_basis",
    "dump_hvector",
    "load_hvector",
    "dump_induced_hvector",
    "load_induced_hvector",
    "dump_h2matrix",
    "load_h2matrix",
]


def _fmt(x):
    return format(float(x), ".17g")


def _matrix_lines(m):
    m = np.atleast_2d(m)
    yield f"{m.shape[0]} {m.shape[1]}"
    for row in m:
        yield " ".join(_fmt(v) for v in row)


def _read_matrix(lines, pos):
    rows, cols = (int(v) for v in lines[pos].split())
    data = np.zeros((rows, cols))
    for r in range(rows):
        data[r] = [float(v) for v in lines[pos + 1 + r].split()]
    return data, pos + 1 + rows


def dump_tree(tree):
    lines = [
        "h2vec-tree 1",
        f"n {tree.n} dim {tree.dim} leaf_size {tree.leaf_size}",
        f"clusters {len(tree.clusters)}",
    ]
    for c in tree.clusters:
        sons = " ".join(str(s) for s in c.sons)
        box = " ".join(_fmt(v) for v in c.box_min) + " " + " ".join(
            _fmt(v) for v in c.box_max
        )
        lines.append(f"cluster {c.index} {c.level} {c.begin} {c.end} [{sons}] {box}")
    lines.append("perm " + " ".join(str(int(p)) for p in tree.perm))
    return "\n".join(lines) + "\n"


def load_tree(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0] != "h2vec-tree 1":
        raise ValueError("not a tree dump")
    head = lines[1].split()
    n, dim, leaf_size = int(head[1]), int(head[3]), int(head[5])
    count = int(lines[2].split()[1])
    clusters = []
    for ln in lines[3 : 3 + count]:
        body = ln.split(None, 5)[1:]
        index, level, begin, end = (int(v) for v in body[:4])
        rest = body[4]
        close = rest.index("]")
        sons = tuple(int(v) for v in rest[1:close].split())
        nums = [float(v) for v in rest[close + 1 :].split()]
        box_min = np.array(nums[:dim])
        box_max = np.array(nums[dim:])
        clusters.append(Cluster(index, level, begin, end, sons, box_min, box_max))
    perm = np.array([int(v) for v in lines[3 + count].split()[1:]], dtype=np.intp)
    return ClusterTree(clusters, perm, dim, leaf_size)


def dump_basis(basis):
    lines = [
        "h2vec-basis 1",
        f"rank {basis.rank} isometric {int(basis.isometric)}",
    ]
    for i in sorted(basis.leaf_matrix):
        lines.append(f"leaf {i}")
        lines.extend(_matrix_lines(basis.leaf_matrix[i]))
    for i in sorted(basis.transfer):
        lines.append(f"transfer {i}")
        lines.extend(_matrix_lines(basis.transfer[i]))
    return "\n".join(lines) + "\n"


def load_basis(text, tree):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0] != "h2vec-basis 1":
        raise ValueError("not a basis dump")
    head = lines[1].split()
    rank, isometric = int(head[1]), bool(int(head[3]))
    leaf_matrix = {}
    transfer = {}
    pos = 2
    while pos < len(lines):
        kind, idx = lines[pos].split()
        mat, pos = _read_matrix(lines, pos + 1)
        if kind == "leaf":
            leaf_matrix[int(idx)] = mat
        else:
            transfer[int(idx)] = mat
    return ClusterBasis(tree, rank, leaf_matrix, transfer, isometric)


def _dump_leaves(header, x):
    lines = [header]
    for i in x.sub.leaves():
        lines.append(f"leaf {i} " + " ".join(_fmt(v) for v in x.coeff[i]))
    return "\n".join(lines) + "\n"


def _load_leaves(text, header, tree):
    """Subtree and leaf coefficients of a dump made by _dump_leaves."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0] != header:
        raise ValueError(f"not a {header.split()[0]} dump")
    coeff = {}
    for ln in lines[1:]:
        parts = ln.split()
        coeff[int(parts[1])] = np.array([float(v) for v in parts[2:]])
    return _subtree_from_leaves(tree, list(coeff)), coeff


def dump_hvector(x):
    return _dump_leaves("h2vec-hvector 1", x)


def load_hvector(text, basis):
    sub, coeff = _load_leaves(text, "h2vec-hvector 1", basis.tree)
    return HVector(basis, sub, coeff)


def _subtree_from_leaves(tree, leaf_ids):
    wanted = set(leaf_ids)
    sub = Subtree(tree)

    def walk(i):
        if i in wanted:
            return
        sub.expand(i)
        for s in tree.sons(i):
            walk(s)

    walk(tree.root)
    return sub


def dump_induced_hvector(y):
    """Leaf list plus partitioned coefficients of a product result."""
    return _dump_leaves("h2vec-induced 1", y)


def load_induced_hvector(text, plan):
    sub, coeff = _load_leaves(text, "h2vec-induced 1", plan.induced.tree)
    y = InducedHVector(plan, sub, coeff)
    y.validate()
    return y


def dump_h2matrix(m):
    lines = [
        "h2vec-h2matrix 1",
        f"rank {m.rank} eta {_fmt(m.block_tree.eta)} blocks {len(m.block_tree.blocks)}",
    ]
    for b in m.block_tree.blocks:
        sons = " ".join(str(s) for s in b.sons)
        lines.append(
            f"block {b.index} {b.row} {b.col} {int(b.admissible)} [{sons}]"
        )
    for idx in m.block_tree.leaves():
        lines.append(f"coupling {idx}")
        lines.extend(_matrix_lines(m.coupling[idx]))
    return "\n".join(lines) + "\n"


def load_h2matrix(text, row_basis, col_basis):
    from .h2matrix import Block, BlockTree

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0] != "h2vec-h2matrix 1":
        raise ValueError("not an h2 matrix dump")
    head = lines[1].split()
    eta = float(head[3])
    count = int(head[5])
    blocks = []
    for ln in lines[2 : 2 + count]:
        body = ln.split(None, 5)[1:]
        index, row, col, adm = (int(v) for v in body[:4])
        rest = body[4]
        sons = tuple(int(v) for v in rest[1 : rest.index("]")].split())
        blocks.append(Block(index, row, col, sons, bool(adm)))
    bt = BlockTree(row_basis.tree, col_basis.tree, blocks, eta)
    coupling = {}
    pos = 2 + count
    while pos < len(lines):
        idx = int(lines[pos].split()[1])
        mat, pos = _read_matrix(lines, pos + 1)
        coupling[idx] = mat
    return H2Matrix(bt, row_basis, col_basis, coupling)
