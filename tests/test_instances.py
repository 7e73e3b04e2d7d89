"""Random instances and subtrees against the per-cluster loops they replace."""

import numpy as np
import pytest

import basis_reference
from h2vec import basis
from h2vec.basis import orthogonalize
from h2vec.h2matrix import build_block_tree, random_h2
from h2vec.instances import line_tree, random_basis, random_instance, random_subtree, random_tree
from h2vec.tree import Subtree, build_cluster_tree


def loop_instance(n, k, ka, eta, seed, dim):
    """The tree, input basis, matrix and stacked cross Gram matrices of
    random_instance(n, k, ka, eta, seed, dim=dim), by the loops: the
    tree rebuilt with the next leaf size until no leaf holds fewer
    indices than the larger rank, the bases drawn one matrix at a time,
    and the cross Gram matrices one cluster at a time."""
    rng = np.random.default_rng(seed)
    points = np.linspace(0.0, 1.0, n) if dim == 1 else rng.random((n, dim))
    rank = max(k, ka)
    tree = build_cluster_tree(points, 2 * rank)
    while tree.sizes[~tree.has_sons].min() < rank:
        tree = build_cluster_tree(points, tree.leaf_size + 1)
    input_basis, _ = orthogonalize(basis_reference.random_basis(tree, k, rng))
    row_basis = basis_reference.random_basis(tree, ka, rng)
    col_basis = basis_reference.random_basis(tree, ka, rng)
    matrix = random_h2(build_block_tree(tree, tree, eta), row_basis, col_basis, seed=int(rng.integers(2**31)))
    cross = np.array(list(basis_reference.cross_gram_family(col_basis, input_basis).values()))
    return tree, input_basis, matrix, cross


def _assert_same_basis(got, want):
    assert np.array_equal(got.ptr, want.ptr)
    assert np.array_equal(got.transfer.store, want.transfer.store)
    assert len(got.leaf_matrix.groups) == len(want.leaf_matrix.groups)
    for g, w in zip(got.leaf_matrix.groups, want.leaf_matrix.groups):
        assert np.array_equal(g.clusters, w.clusters)
        assert np.array_equal(g.stack, w.stack)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [64, 300, 4096])
@pytest.mark.parametrize("seed", range(5))
def test_random_instance_matches_the_loops(seed, n, dim):
    inst = random_instance(n, 3, 3, 1.0, seed, dim=dim)
    tree, input_basis, matrix, cross = loop_instance(n, 3, 3, 1.0, seed, dim)
    assert np.array_equal(inst.tree.perm, tree.perm)
    assert inst.tree.leaf_size == tree.leaf_size
    assert np.array_equal(inst.tree.begin, tree.begin)
    assert np.array_equal(inst.tree.sizes, tree.sizes)
    _assert_same_basis(inst.input_basis, input_basis)
    _assert_same_basis(inst.matrix.row_basis, matrix.row_basis)
    _assert_same_basis(inst.matrix.col_basis, matrix.col_basis)
    assert np.array_equal(inst.matrix.coupling, matrix.coupling)
    assert np.array_equal(inst.plan.cross, cross)


@pytest.mark.parametrize("rank", [1, 3, 5])
def test_random_basis_matches_the_loop(rank):
    tree = line_tree(300, 12)  # leaves of 9 and of 10 indices
    got, rng = random_basis(tree, rank, np.random.default_rng(7)), np.random.default_rng(7)
    _assert_same_basis(got, basis_reference.random_basis(tree, rank, rng))


def test_random_basis_names_the_first_short_leaf():
    tree = line_tree(40, 6)
    first = next(i for i in tree.leaves() if tree.sizes[i] < 6)
    for draw in (basis_reference.random_basis, random_basis):
        with pytest.raises(ValueError, match=f"^leaf {first} smaller than rank 6$"):
            draw(tree, 6, np.random.default_rng(0))


def loop_subtree(tree, rng, target=None, steps=None):
    """random_subtree(tree, rng, target, steps), listing the refinable
    leaves afresh before every expansion."""
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


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@pytest.mark.parametrize("steps", [None, 0, 1, 7, 60])
@pytest.mark.parametrize("target", [None, 1, 8, 100, 255, 10**6])
def test_random_subtree_matches_the_loop(target, steps, monkeypatch):
    expanded = []
    expand = Subtree.expand
    monkeypatch.setattr(Subtree, "expand", lambda sub, i: expanded.append(i) or expand(sub, i))
    trees = [line_tree(512, 4), random_tree(np.random.default_rng(3), 300, 2, 5)]
    for tree in trees:
        for seed in range(3):
            runs = []
            for grow in (random_subtree, loop_subtree):
                rng = np.random.default_rng(seed)
                expanded.clear()
                sub = grow(tree, rng, target=target, steps=steps)
                runs.append((sub.leaves(), sub.count(), list(expanded), rng.integers(2**31)))
            assert runs[0] == runs[1]


def test_random_instance_builds_no_per_cluster_mapping(monkeypatch):
    # set-up runs on the stores: no mapping of per-cluster views is built
    built = []
    views = basis.ClusterMatrices.views.func
    monkeypatch.setattr(basis.ClusterMatrices, "views", property(lambda self: built.append(self) or views(self)))
    inst = random_instance(300, 3, 3, 1.0, 0)
    assert built == []
    # a read of a basis's per-cluster mapping builds one
    inst.plan.induced.leaf_matrix[inst.tree.leaves()[0]]
    assert built == [inst.plan.induced.leaf_matrix]
