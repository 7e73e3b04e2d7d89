"""Seeded random instances: trees, nested bases, vectors, matrices.

Random nested bases are built directly from random leaf matrices and
random transfer matrices, so nestedness holds by construction and the
expansion serves as an exact dense reference.
"""

from dataclasses import dataclass

import numpy as np

from .basis import ClusterBasis, orthogonalize
from .h2matrix import build_block_tree, random_h2, sparsity_constant
from .hvector import HVector
from .matvec import build_plan
from .tree import Subtree, _assemble, _bisection, build_cluster_tree

__all__ = [
    "line_tree",
    "random_tree",
    "random_basis",
    "random_iso_basis",
    "random_subtree",
    "random_hvector",
    "RandomInstance",
    "random_instance",
]


def line_tree(n, leaf_size):
    """Tree over n equispaced points on the unit interval."""
    return build_cluster_tree(np.linspace(0.0, 1.0, n), leaf_size)


def random_tree(rng, n, dim, leaf_size):
    return build_cluster_tree(rng.random((n, dim)), leaf_size)


def random_basis(tree, rank, rng):
    """Random nested basis of the given rank.

    Leaf matrices are Gaussian plus twice the identity in the leading
    rows, which keeps them comfortably full rank; transfers are
    Gaussian.  One draw gives the leaf matrices, stacked in leaf order,
    and one draw the transfers, by father and then by son.
    """
    leaves = np.flatnonzero(~tree.has_sons)
    sizes = tree.sizes[leaves]
    small = np.flatnonzero(sizes < rank)
    if small.size:
        raise ValueError(f"leaf {leaves[small[0]]} smaller than rank {rank}")
    v = rng.standard_normal((sizes.sum(), rank))
    ends = np.cumsum(sizes)
    v[(ends - sizes)[:, None] + np.arange(rank), np.arange(rank)] += 2.0
    sons = np.flatnonzero(tree.father >= 0)
    transfers = np.empty((sons.size, rank, rank))
    transfers[np.argsort(tree.father[sons], kind="stable")] = rng.standard_normal(transfers.shape)
    return ClusterBasis(tree, np.full(len(tree), rank), v, transfers, isometric=False)


def random_iso_basis(tree, rank, rng):
    iso, _ = orthogonalize(random_basis(tree, rank, rng))
    return iso


def random_subtree(tree, rng, target=None, steps=None):
    """Grow a subtree by expanding random refinable leaves.

    Stops once the member count reaches `target` (or after `steps`
    expansions); saturates at the full tree.  Each expansion draws one
    of the refinable leaves, kept in depth-first order: the expanded
    leaf's place goes to those of its sons that have sons.
    """
    sub = Subtree(tree)
    candidates = [tree.root] if tree.sons(tree.root) else []
    done = 0
    while candidates:
        if target is not None and sub.count() >= target:
            break
        if steps is not None and done >= steps:
            break
        at = int(rng.integers(len(candidates)))
        i = candidates[at]
        sub.expand(i)
        candidates[at : at + 1] = [s for s in tree.sons(i) if tree.sons(s)]
        done += 1
    return sub


def random_hvector(basis, rng, sub=None, target=None, steps=None):
    if sub is None:
        sub = random_subtree(basis.tree, rng, target=target, steps=steps)
    coeff = {i: rng.standard_normal(basis.rank) for i in sub.leaves()}
    return HVector.from_leaves(basis, sub.copy(), coeff)


@dataclass
class RandomInstance:
    """Bundle for matvec experiments: matrix, plan and input basis."""

    tree: object
    input_basis: object
    matrix: object
    plan: object
    csp: int


def random_instance(n, k, ka, eta, seed, dim=1, leaf_size=None):
    """Random H2 matrix over a geometric tree plus a matching plan.

    Raises ValueError unless both ranks are positive and at most n.
    """
    if min(k, ka) < 1 or n < max(k, ka):
        raise ValueError(f"ranks must lie between 1 and n = {n}, got k = {k} and ka = {ka}")
    rng = np.random.default_rng(seed)
    points = np.linspace(0.0, 1.0, n)[:, None] if dim == 1 else rng.random((n, dim))
    rank = max(k, ka)
    if leaf_size is None:
        # midpoint bisection can cut leaves below the rank: the tree is that
        # of the smallest leaf size from 2 * rank up whose leaves all hold
        # the rank, whose leaves are the deepest such level of one bisection
        levels, size = _bisection(points, 2 * rank)
        sizes = [np.diff(edges) for _, edges, _, _ in levels]
        depth = max(d for d, s in enumerate(sizes) if s.min() >= rank)
        size = size if depth == len(levels) - 1 else int(sizes[depth].max())
        tree = _assemble(points, levels[: depth + 1], size)
    else:
        tree = build_cluster_tree(points, leaf_size)
    input_basis = random_iso_basis(tree, k, rng)
    row_basis = random_basis(tree, ka, rng)
    col_basis = random_basis(tree, ka, rng)
    bt = build_block_tree(tree, tree, eta)
    matrix = random_h2(bt, row_basis, col_basis, seed=int(rng.integers(2**31)))
    plan = build_plan(matrix, input_basis)
    return RandomInstance(tree, input_basis, matrix, plan, sparsity_constant(bt))
