import numpy as np
import pytest

from h2vec.instances import line_tree
from h2vec.tree import (
    Cluster,
    ClusterTree,
    Subtree,
    build_cluster_tree,
    validate_tree,
)


def test_line_eight_points_leaf_two():
    tree = line_tree(8, 2)
    assert len(tree.clusters) == 7
    assert tree.depth == 2
    assert all(tree.size(i) == 2 for i in tree.leaves())
    assert validate_tree(tree) is None


def test_unit_square_corners_singletons():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tree = build_cluster_tree(pts, 1)
    leaves = tree.leaves()
    assert len(leaves) == 4
    assert all(tree.size(i) == 1 for i in leaves)
    assert tree.depth == 2


@pytest.mark.parametrize("seed", range(100))
def test_random_trees_validate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    dim = int(rng.integers(1, 4))
    leaf_size = int(rng.integers(1, 10))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tree = build_cluster_tree(rng.random((n, dim)), leaf_size)
    assert validate_tree(tree) is None
    levels = {tree.clusters[i].level for i in tree.leaves()}
    assert len(levels) == 1


def test_builder_rejects_bad_input():
    with pytest.raises(ValueError):
        build_cluster_tree(np.zeros((0, 2)), 2)
    with pytest.raises(ValueError):
        build_cluster_tree(np.ones((3, 1)), 0)
    with pytest.raises(ValueError):
        build_cluster_tree(np.array([[np.inf]]), 1)


def test_permutation_ranges_contiguous():
    rng = np.random.default_rng(3)
    tree = build_cluster_tree(rng.random((37, 2)), 4)
    seen = np.zeros(37, dtype=int)
    for i in tree.leaves():
        seen[tree.indices(i)] += 1
    assert np.all(seen == 1)


def _hand_tree(ranges):
    clusters = []
    for idx, (level, begin, end, sons) in enumerate(ranges):
        clusters.append(
            Cluster(idx, level, begin, end, tuple(sons), np.zeros(1), np.ones(1))
        )
    return ClusterTree(clusters, np.arange(ranges[0][2]), 1, 1)


def test_validator_catches_overlap():
    tree = _hand_tree([(0, 0, 4, (1, 2)), (1, 0, 3, ()), (1, 2, 4, ())])
    assert "overlap" in validate_tree(tree)


def test_validator_catches_missing_index():
    tree = _hand_tree([(0, 0, 4, (1, 2)), (1, 0, 1, ()), (1, 2, 4, ())])
    assert "miss" in validate_tree(tree)


def test_validator_catches_mixed_leaf_levels():
    tree = _hand_tree(
        [(0, 0, 4, (1, 2)), (1, 0, 2, (3, 4)), (1, 2, 4, ()), (2, 0, 1, ()), (2, 1, 2, ())]
    )
    assert "levels" in validate_tree(tree)


def test_minimal_subtree_and_count():
    tree = line_tree(8, 2)
    sub = Subtree(tree)
    assert sub.count() == 1
    assert sub.leaves() == [tree.root]
    assert sub.is_leaf(tree.root)


def test_expand_contract_inverse():
    tree = line_tree(8, 2)
    sub = Subtree(tree)
    sub.expand(tree.root)
    assert sub.count() == 3
    assert sorted(tree.size(i) for i in sub.leaves()) == [4, 4]
    sub.contract(tree.root)
    assert sub.count() == 1
    assert sub.leaves() == [tree.root]


def test_expand_all_then_contract_all():
    tree = line_tree(16, 2)
    sub = Subtree(tree)
    order = []
    frontier = [tree.root]
    while frontier:
        i = frontier.pop()
        if tree.sons(i):
            sub.expand(i)
            order.append(i)
            frontier.extend(tree.sons(i))
    assert sub.count() == len(tree.clusters)
    assert sub.check_partition() is None
    for i in reversed(order):
        sub.contract(i)
    assert sub.count() == 1


def test_full_binary_subtree_count():
    tree = line_tree(8, 1)
    sub = Subtree(tree)
    stack = [tree.root]
    while stack:
        i = stack.pop()
        if tree.sons(i):
            sub.expand(i)
            stack.extend(tree.sons(i))
    assert sub.count() == 15  # full binary tree of depth 3


def test_partition_after_random_walk(rng):
    tree = line_tree(64, 4)
    sub = Subtree(tree)
    for _ in range(200):
        expandable = [i for i in sub.leaves() if tree.sons(i)]
        contractible = [
            i
            for i in sub.members()
            if not sub.is_leaf(i) and all(sub.is_leaf(s) for s in tree.sons(i))
        ]
        if expandable and (not contractible or rng.random() < 0.6):
            sub.expand(expandable[rng.integers(len(expandable))])
        elif contractible:
            sub.contract(contractible[rng.integers(len(contractible))])
        assert sub.check_partition() is None


def test_from_interior_rebuilds_subtree(rng):
    from h2vec.instances import random_subtree

    tree = line_tree(64, 4)
    for steps in (0, 1, 5, 40):
        sub = random_subtree(tree, rng, steps=steps)
        again = Subtree.from_interior(tree, sub.interior_mask())
        assert again.leaves() == sub.leaves()
        assert again.members() == sub.members()
        assert again.count() == sub.count()
    interior = np.zeros(len(tree.clusters), dtype=bool)
    interior[tree.sons(tree.root)[0]] = True  # father not interior
    with pytest.raises(ValueError, match="do not form a subtree"):
        Subtree.from_interior(tree, interior)
    interior = np.array([bool(tree.sons(i)) for i in range(len(tree.clusters))])
    Subtree.from_interior(tree, interior)  # the full subtree
    interior[tree.leaves()[0]] = True  # a tree leaf cannot be interior
    with pytest.raises(ValueError, match="do not form a subtree"):
        Subtree.from_interior(tree, interior)


def test_subtree_precondition_errors():
    tree = line_tree(8, 2)
    sub = Subtree(tree)
    with pytest.raises(ValueError):
        sub.contract(tree.root)
    sub.expand(tree.root)
    with pytest.raises(ValueError):
        sub.expand(tree.root)
    leaf = tree.leaves()[0]
    with pytest.raises(ValueError):
        sub.expand(leaf)  # not a member leaf of the subtree


@pytest.mark.parametrize("cluster", [-1, 15, 100])
def test_subtree_rejects_a_cluster_outside_the_tree(cluster):
    tree = line_tree(32, 4)
    sub = Subtree.from_interior(tree, tree.has_sons)
    assert sub.count() == len(tree) == 15
    for query in (sub.__contains__, sub.is_leaf, sub.expand, sub.contract):
        with pytest.raises(ValueError, match=f"cluster {cluster}: not in the tree"):
            query(cluster)
    assert 14 in sub and sub.is_leaf(14)


@pytest.mark.parametrize("entries", [3, 14, 16, 40])
def test_from_interior_rejects_a_mask_of_another_length(entries):
    tree = line_tree(32, 4)
    with pytest.raises(ValueError, match=rf"mask of 15 entries, got shape \({entries},\)"):
        Subtree.from_interior(tree, np.ones(entries, dtype=bool))
    with pytest.raises(ValueError, match="mask of 15 entries"):
        Subtree.from_interior(tree, tree.has_sons[None, :])


def test_leaf_size_raised_when_needed():
    pts = np.array([0.0, 0.4, 1.0])
    with pytest.warns(UserWarning):
        tree = build_cluster_tree(pts, 1)
    assert validate_tree(tree) is None
    assert tree.leaf_size > 1
