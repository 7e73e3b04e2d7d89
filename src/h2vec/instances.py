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
from .tree import Subtree, build_cluster_tree

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
    Gaussian.
    """
    leaf_matrix = {}
    transfer = {}
    for i in tree.leaves():
        size = tree.size(i)
        if size < rank:
            raise ValueError(f"leaf {i} smaller than rank {rank}")
        v = rng.standard_normal((size, rank))
        v[:rank] += 2.0 * np.eye(rank)
        leaf_matrix[i] = v
    for i in range(len(tree.clusters)):
        for s in tree.sons(i):
            transfer[s] = rng.standard_normal((rank, rank))
    return ClusterBasis(tree, leaf_matrix, transfer, isometric=False)


def random_iso_basis(tree, rank, rng):
    iso, _ = orthogonalize(random_basis(tree, rank, rng))
    return iso


def random_subtree(tree, rng, target=None, steps=None):
    """Grow a subtree by expanding random refinable leaves.

    Stops once the member count reaches `target` (or after `steps`
    expansions); saturates at the full tree.
    """
    sub = Subtree(tree)
    done = 0
    while True:
        if target is not None and sub.count() >= target:
            break
        if steps is not None and done >= steps:
            break
        candidates = [i for i in sub.leaves() if tree.sons(i)]
        if not candidates:
            break
        sub.expand(candidates[rng.integers(len(candidates))])
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
    points = np.linspace(0.0, 1.0, n) if dim == 1 else rng.random((n, dim))
    rank = max(k, ka)
    tree = build_cluster_tree(points, 2 * rank if leaf_size is None else leaf_size)
    # midpoint bisection can cut leaves below the rank: grow the default
    while leaf_size is None and min(map(tree.size, tree.leaves())) < rank:
        tree = build_cluster_tree(points, tree.leaf_size + 1)
    input_basis = random_iso_basis(tree, k, rng)
    row_basis = random_basis(tree, ka, rng)
    col_basis = random_basis(tree, ka, rng)
    bt = build_block_tree(tree, tree, eta)
    matrix = random_h2(bt, row_basis, col_basis, seed=int(rng.integers(2**31)))
    plan = build_plan(matrix, input_basis)
    return RandomInstance(tree, input_basis, matrix, plan, sparsity_constant(bt))
