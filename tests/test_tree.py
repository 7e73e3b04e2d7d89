import warnings

import numpy as np
import pytest
import tree_reference

from h2vec.instances import line_tree, random_instance, random_subtree
from h2vec.tree import (
    ClusterTree,
    Subtree,
    build_cluster_tree,
    validate_tree,
)

from conftest import leaf_ranges_tile


def test_line_eight_points_leaf_two():
    tree = line_tree(8, 2)
    assert len(tree.clusters) == 7
    assert tree.depth == 2
    assert all(tree.sizes[i] == 2 for i in tree.leaves())
    assert validate_tree(tree) is None


def test_unit_square_corners_singletons():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tree = build_cluster_tree(pts, 1)
    leaves = tree.leaves()
    assert len(leaves) == 4
    assert all(tree.sizes[i] == 1 for i in leaves)
    assert tree.depth == 2


@pytest.mark.parametrize("seed", range(100))
def test_random_trees_validate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    dim = int(rng.integers(1, 4))
    leaf_size = int(rng.integers(1, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tree = build_cluster_tree(rng.random((n, dim)), leaf_size)
    assert validate_tree(tree) is None
    assert np.unique(tree.level[tree.leaves()]).size == 1


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


def _hand_tree(ranges, perm=None):
    father = [-1] * len(ranges)
    for idx, (_, _, _, sons) in enumerate(ranges):
        for s in sons:
            father[s] = idx
    level, begin, end, _ = zip(*ranges)
    m = len(ranges)
    perm = np.arange(ranges[0][2]) if perm is None else perm
    return ClusterTree(level, father, begin, end, perm, 1, 1, np.zeros((m, 1)), np.ones((m, 1)))


def test_validator_accepts_a_hand_built_tree():
    assert validate_tree(_hand_tree([(0, 0, 4, (1, 2)), (1, 0, 2, ()), (1, 2, 4, ())])) is None


def test_validator_catches_overlap():
    tree = _hand_tree([(0, 0, 4, (1, 2)), (1, 0, 3, ()), (1, 2, 4, ())])
    assert "overlap" in validate_tree(tree)


def test_validator_catches_missing_index():
    tree = _hand_tree([(0, 0, 4, (1, 2)), (1, 0, 1, ()), (1, 2, 4, ())])
    assert "miss" in validate_tree(tree)


def test_validator_catches_a_perm_that_is_no_permutation():
    ranges = [(0, 0, 4, (1, 2)), (1, 0, 2, ()), (1, 2, 4, ())]
    for perm in ([0, 0, 1, 2], [1, 2, 3, 4], [0, 1, 2, -1]):
        assert validate_tree(_hand_tree(ranges, perm)) == "perm is not a permutation of 0 to 3"


def test_validator_catches_a_root_off_level_zero():
    tree = _hand_tree([(1, 0, 4, (1, 2)), (2, 0, 2, ()), (2, 2, 4, ())])
    assert validate_tree(tree) == "root is on level 1 instead of 0"


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
    assert tree.sizes[sub.leaves()].tolist() == [4, 4]
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
    assert leaf_ranges_tile(tree, sub.leaves())
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
        assert leaf_ranges_tile(tree, sub.leaves())


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


@pytest.mark.parametrize("cluster", [-1, 15, 100, 1.5, 2.0, np.float64(3.0), True, False, "3", None])
def test_subtree_rejects_a_cluster_outside_the_tree(cluster):
    tree = line_tree(32, 4)
    sub = Subtree.from_interior(tree, tree.has_sons)
    assert sub.count() == len(tree) == 15
    for query in (sub.__contains__, sub.is_leaf, sub.expand, sub.contract):
        with pytest.raises(ValueError, match=f"cluster {cluster}: not in the tree"):
            query(cluster)
    assert 14 in sub and sub.is_leaf(14) and sub.is_leaf(np.int64(14))


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


def _point_set(seed):
    """Seeded points of one of four kinds: random, with duplicate
    coordinates, all equal, or collinear in 2-D."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 300)), int(rng.integers(1, 4))
    kind = seed % 4
    if kind == 1:
        return np.round(rng.random((n, dim)) * rng.integers(1, 4))
    if kind == 2:
        return np.tile(rng.random(dim), (n, 1))
    if kind == 3:
        t = rng.random(n)
        return np.stack((1.0 + 2.0 * t, 3.0 * t - 1.0), axis=1)
    return rng.random((n, dim))


def _build_both(points, leaf_size):
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        tree = build_cluster_tree(points, leaf_size)
    with warnings.catch_warnings(record=True) as theirs:
        warnings.simplefilter("always")
        oracle, padded = tree_reference.build_cluster_tree(points, leaf_size)
    assert [str(w.message) for w in ours] == [str(w.message) for w in theirs]
    assert np.array_equal(tree.perm, oracle.perm)
    assert tree.leaf_size == oracle.leaf_size
    assert set(_ranges(tree)) == set(_ranges(oracle))
    if not padded:
        assert _ranges(tree) == _ranges(oracle)
        assert list(map(tree.sons, range(len(tree)))) == list(map(oracle.sons, range(len(oracle))))
    return tree, oracle


def _ranges(tree):
    """(level, begin, end) of every cluster, in index order."""
    return list(zip(tree.level.tolist(), tree.begin.tolist(), (tree.begin + tree.sizes).tolist()))


@pytest.mark.parametrize("seed", range(120))
def test_builder_matches_recursive_reference(seed):
    points = _point_set(seed)
    leaf_size = 1 + seed % 11
    tree, oracle = _build_both(points, leaf_size)
    assert validate_tree(tree) is None
    at = {r: j for j, r in enumerate(_ranges(oracle))}
    for i, r in enumerate(_ranges(tree)):
        assert np.array_equal(tree.box_min[i], oracle.box_min[at[r]])
        assert np.array_equal(tree.box_max[i], oracle.box_max[at[r]])


def test_builder_raises_leaf_size_once_on_random_points():
    points = np.random.default_rng(0).random((4096, 2))
    tree, _ = _build_both(points, 6)
    assert tree.leaf_size == 19


def _built_trees():
    yield line_tree(64, 4)
    yield line_tree(100, 6)  # shallow leaves on level 3 split further
    yield random_instance(256, 3, 3, 1.0, 0).tree
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(8):
            yield build_cluster_tree(_point_set(seed), 1 + seed)


def test_built_trees_are_numbered_depth_first():
    for tree in _built_trees():
        assert len(tree) == 2 ** (tree.depth + 1) - 1
        level = tree.level.tolist()
        for i in range(len(tree)):
            if level[i] < tree.depth:
                assert tree.sons(i) == (i + 1, i + 2 ** (tree.depth - level[i]))
            else:
                assert tree.sons(i) == ()
        starts = tree.begin[tree.leaves()].tolist()
        assert starts == sorted(starts)
        full = Subtree.from_interior(tree, tree.has_sons)
        assert full.members() == list(range(len(tree)))


def _walked(tree, pre):
    """Pre- or post-order by a depth-first walk, sons in son order."""
    order, stack = [], [(tree.root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded != pre:
            order.append(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((s, False) for s in reversed(tree.sons(node)))
    return order


def _reference_trees():
    """The built trees, then trees of the recursive builder, which
    numbers padded clusters after the others, so not depth first."""
    yield from _built_trees()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(8):
            yield tree_reference.build_cluster_tree(_point_set(seed), 2 + seed)[0]


def _cluster_loops(tree, father):
    """sons from the father input, then level, father, sizes, has_sons
    and by_level from sons(i), one cluster at a time."""
    sons = [[] for _ in father]
    for i, f in enumerate(father):
        if f >= 0:
            sons[f].append(i)
    level, father, sizes = [0] * len(tree), [-1] * len(tree), [0] * len(tree)
    for i in _walked(tree, pre=True):
        for s in tree.sons(i):
            level[s], father[s] = level[i] + 1, i
    by_level = [[tree.root]] + [[] for _ in range(max(level))]
    for i in range(len(tree)):
        if tree.sons(i):
            by_level[level[i] + 1].extend(tree.sons(i))
    # a leaf reaches to the next leaf in position order, a father's
    # sons tile its positions
    leaves = sorted((b, i) for i, b in enumerate(tree.begin.tolist()) if not tree.sons(i))
    for (b, i), (e, _) in zip(leaves, leaves[1:] + [(tree.n, None)]):
        sizes[i] = e - b
    for i in _walked(tree, pre=False):
        if tree.sons(i):
            sizes[i] = sum(sizes[s] for s in tree.sons(i))
    has_sons = [bool(tree.sons(i)) for i in range(len(tree))]
    return [tuple(s) for s in sons], level, father, sizes, has_sons, by_level


def test_tree_arrays_match_per_cluster_loops():
    for tree in _reference_trees():
        # both builders hand the tree an intp father array, which it keeps
        father_input = tree.father.tolist()
        sons, level, father, sizes, has_sons, by_level = _cluster_loops(tree, father_input)
        assert [tree.sons(i) for i in range(len(tree))] == sons
        assert tree.level.tolist() == level
        assert tree.sizes.tolist() == sizes
        assert tree.has_sons.tolist() == has_sons
        assert tree.father.tolist() == father
        assert [ids.tolist() for ids in tree.by_level] == by_level
        assert tree.post_order.tolist() == _walked(tree, pre=False)
        assert tree.pre_order.tolist() == _walked(tree, pre=True)
        assert tree.clusters.tolist() == list(range(len(tree)))
        for fixed in (tree.son_ptr, tree.son_ids, tree.pre_order, tree.post_order, tree.clusters):
            assert not fixed.flags.writeable


def _walked_members(sub):
    """Subtree members by a stack walk, sons in son order."""
    out, stack = [], [sub.tree.root]
    while stack:
        i = stack.pop()
        out.append(i)
        if not sub.is_leaf(i):
            stack.extend(reversed(sub.tree.sons(i)))
    return out


def test_members_and_leaves_equal_a_stack_walk(rng):
    for tree in _reference_trees():
        for steps in (0, 1, 3, 10, 40, len(tree)):
            sub = random_subtree(tree, rng, steps=steps)
            walked = _walked_members(sub)
            assert sub.members() == walked
            assert sub.leaves() == [i for i in walked if sub.is_leaf(i)]
            assert leaf_ranges_tile(tree, sub.leaves())


def test_builder_refuses_points_without_coordinates():
    for leaf_size in (2, 9):
        with pytest.raises(ValueError, match=r"no coordinates: shape \(5, 0\)"):
            build_cluster_tree(np.zeros((5, 0)), leaf_size)


@pytest.mark.parametrize("leaf_size", [True, False, 2.5, 2.0, "4", None, 0, -3])
def test_builder_refuses_a_leaf_size_that_is_not_a_positive_integer(leaf_size):
    with pytest.raises(ValueError, match=f"got {leaf_size!r}"):
        build_cluster_tree(np.linspace(0.0, 1.0, 8), leaf_size)


def test_builder_accepts_a_numpy_integer_leaf_size():
    tree = build_cluster_tree(np.linspace(0.0, 1.0, 8), np.int64(2))
    assert tree.leaf_size == 2 and tree.depth == 2
