import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from h2vec import kernels
from h2vec.basis import coarsening_factors, gram_family
from h2vec.hvector import (
    HVector,
    axpy,
    coarsen,
    dot,
    from_dense,
    norm,
    refine,
    scale,
    to_dense,
)
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_iso_basis,
    random_subtree,
)
from h2vec.tree import Subtree

import basis_reference
from conftest import prefix_subtree


def test_refine_keeps_dense_value(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=2)
    before = to_dense(x)
    target = [i for i in x.sub.leaves() if small_iso.tree.sons(i)][0]
    refine(x, target)
    assert np.max(np.abs(to_dense(x) - before)) <= 1e-13
    assert set(x.coeff) == set(x.sub.leaves())


def test_refine_zero_coefficients(small_iso):
    x = HVector(small_iso)
    refine(x, small_iso.tree.root)
    assert all(np.all(v == 0.0) for v in x.coeff.values())


def test_refine_constant_scaling():
    tree = line_tree(8, 2)
    from h2vec.basis import polynomial_basis

    b = polynomial_basis(tree, np.linspace(0, 1, 8), 0)
    x = HVector.from_leaves(b, None, {tree.root: np.array([3.0])})
    before = to_dense(x)
    refine(x, tree.root)
    assert np.max(np.abs(to_dense(x) - before)) <= 1e-14


def test_refine_errors(small_iso):
    x = HVector(small_iso)
    leaf = small_iso.tree.leaves()[0]
    with pytest.raises(ValueError):
        refine(x, leaf)  # not a subtree leaf
    stack = [small_iso.tree.root]
    while stack:
        i = stack.pop()
        if small_iso.tree.sons(i) and x.sub.is_leaf(i):
            refine(x, i)
            stack.extend(small_iso.tree.sons(i))
    with pytest.raises(ValueError):
        refine(x, small_iso.tree.leaves()[0])  # bottom reached


@pytest.mark.parametrize("where", ["end", "negative", "fraction", "bool"])
def test_cluster_outside_the_tree_is_refused(rng, small_iso, where):
    # -1 once read the flags of the last cluster, len(tree) and 1.5
    # raised IndexError
    tree, factors = small_iso.tree, coarsening_factors(small_iso)
    i = {"end": len(tree), "negative": -1, "fraction": 1.5, "bool": True}[where]
    x = random_hvector(small_iso, rng, steps=3)
    before, members = x.data.copy(), x.sub.members()
    with pytest.raises(ValueError, match=f"cluster {i}: not in the tree"):
        refine(x, i)
    with pytest.raises(ValueError, match=f"cluster {i}: not in the tree"):
        coarsen(x, i, factors)
    assert np.array_equal(x.data, before) and x.sub.members() == members


def test_coarsen_round_trip(rng, small_iso):
    factors = coarsening_factors(small_iso)
    x = HVector.from_leaves(small_iso, None, {small_iso.tree.root: rng.standard_normal(3)})
    before = to_dense(x)
    coeff0 = x.coeff[small_iso.tree.root].copy()
    refine(x, small_iso.tree.root)
    err = coarsen(x, small_iso.tree.root, factors)
    assert err <= 1e-13
    assert np.max(np.abs(x.coeff[small_iso.tree.root] - coeff0)) <= 1e-13
    assert np.max(np.abs(to_dense(x) - before)) <= 1e-13


def test_coarsen_analytic_rank_one():
    tree = line_tree(2, 1)
    s = 1.0 / np.sqrt(2.0)
    iso = basis_reference.mapping_basis(
        tree,
        {i: np.ones((1, 1)) for i in tree.leaves()},
        {i: np.array([[s]]) for i in tree.leaves()},
        isometric=True,
    )
    factors = coarsening_factors(iso)
    x = HVector.from_leaves(iso, None, {tree.root: np.zeros(1)})
    refine(x, tree.root)
    sons = tree.sons(tree.root)
    x.coeff[sons[0]][:] = 1.0
    x.coeff[sons[1]][:] = -1.0
    err = coarsen(x, tree.root, factors)
    assert abs(err - np.sqrt(2.0)) <= 1e-14
    assert abs(x.coeff[tree.root][0]) <= 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_coarsen_error_matches_dense(seed):
    rng = np.random.default_rng(seed)
    tree = line_tree(32, 4)
    iso = random_iso_basis(tree, 3, rng)
    factors = coarsening_factors(iso)
    x = random_hvector(iso, rng, steps=5)
    candidates = [
        i
        for i in range(len(tree.clusters))
        if tree.sons(i)
        and i in x.sub
        and all(x.sub.is_leaf(s) for s in tree.sons(i))
    ]
    if not candidates:
        pytest.skip("no mergeable cluster in this draw")
    i = candidates[rng.integers(len(candidates))]
    before = to_dense(x)
    err = coarsen(x, i, factors)
    sl = tree.positions(i)
    q = iso.materialize(i)
    truth = np.linalg.norm(before[sl] - q @ (q.T @ before[sl]))
    assert abs(err - truth) <= 1e-11 * max(1.0, truth)


def test_coarsen_is_optimal_projection(rng, small_iso):
    factors = coarsening_factors(small_iso)
    tree = small_iso.tree
    x = random_hvector(small_iso, rng, steps=4)
    candidates = [
        i
        for i in range(len(tree.clusters))
        if tree.sons(i) and i in x.sub and all(x.sub.is_leaf(s) for s in tree.sons(i))
    ]
    i = candidates[0]
    before = to_dense(x)
    err = coarsen(x, i, factors)
    sl = tree.positions(i)
    q = small_iso.materialize(i)
    for _ in range(100):
        candidate = rng.standard_normal(3)
        assert err <= np.linalg.norm(before[sl] - q @ candidate) + 1e-12


def test_axpy_self_cancellation(rng, small_iso):
    gram = gram_family(small_iso)
    x = random_hvector(small_iso, rng, steps=3)
    y = x.copy()
    axpy(-1.0, x, y)
    assert norm(y, gram) <= 1e-13 * norm(x, gram)


def test_axpy_dense_oracle_mixed_trees(rng, small_iso):
    x = random_hvector(small_iso, rng, target=len(small_iso.tree.clusters))
    y = HVector.from_leaves(small_iso, None, {small_iso.tree.root: rng.standard_normal(3)})
    want = to_dense(y) + 0.7 * to_dense(x)
    axpy(0.7, x, y)
    assert np.max(np.abs(to_dense(y) - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_axpy_alpha_zero(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=4)
    y = random_hvector(small_iso, rng, steps=1)
    want = to_dense(y)
    axpy(0.0, x, y)
    assert np.max(np.abs(to_dense(y) - want)) <= 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_axpy_exactness_property(seed):
    rng = np.random.default_rng(seed)
    tree = line_tree(32, 4)
    iso = random_iso_basis(tree, 2, rng)
    x = random_hvector(iso, rng, steps=int(rng.integers(0, 6)))
    y = random_hvector(iso, rng, steps=int(rng.integers(0, 6)))
    alpha = float(rng.standard_normal())
    want = to_dense(y) + alpha * to_dense(x)
    axpy(alpha, x, y)
    scale_ = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(to_dense(y) - want)) <= 1e-12 * scale_
    # the x subtree is now contained in y's
    for i in x.sub.members():
        assert i in y.sub


def test_axpy_flop_scaling(rng):
    tree = line_tree(1024, 4)
    iso = random_iso_basis(tree, 3, rng)
    ops = []
    for level in (4, 5, 6, 7):
        sub = prefix_subtree(tree, level)
        x = random_hvector(iso, rng, sub=sub)
        y = random_hvector(iso, rng, sub=sub)
        with kernels.count_flops() as counter:
            axpy(1.0, x, y)
        ops.append((x.sub.count() + y.sub.count(), counter.total))
    for (m1, f1), (m2, f2) in zip(ops, ops[1:]):
        assert m2 >= 1.9 * m1
        assert 1.7 <= f2 / f1 <= 2.4


def test_axpy_rejects_mismatched_bases(rng):
    tree = line_tree(8, 2)
    a = random_iso_basis(tree, 2, rng)
    b = random_iso_basis(tree, 2, rng)
    with pytest.raises(ValueError):
        axpy(1.0, HVector(a), HVector(b))


def test_dot_zero(rng, small_iso):
    gram = gram_family(small_iso)
    x = random_hvector(small_iso, rng, steps=2)
    z = HVector(small_iso)
    assert dot(x, z, gram) == 0.0


def test_dot_leaf_at_root_isometric(rng, small_iso):
    gram = gram_family(small_iso)
    x = HVector.from_leaves(small_iso, None, {small_iso.tree.root: rng.standard_normal(3)})
    y = HVector.from_leaves(small_iso, None, {small_iso.tree.root: rng.standard_normal(3)})
    got = dot(x, y, gram)
    want = float(x.coeff[0] @ y.coeff[0])
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize(
    ("seed", "isometric"),
    [(seed, False) for seed in range(20)] + [(seed, True) for seed in range(20)],
    ids=[str(seed) for seed in range(20)] + [f"iso-{seed}" for seed in range(20)],
)
def test_dot_dense_oracle(seed, isometric):
    # an isometric basis takes no Gram family: its leaf work is one masked dot
    rng = np.random.default_rng(seed)
    tree = line_tree(32, 4)
    basis = (random_iso_basis if isometric else random_basis)(tree, 3, rng)
    gram = None if isometric else gram_family(basis)
    x = random_hvector(basis, rng, target=len(tree.clusters))
    y = random_hvector(basis, rng, steps=int(rng.integers(0, 4)))
    got = dot(x, y, gram)
    want = float(to_dense(x) @ to_dense(y))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert abs(dot(y, x, gram) - got) <= 1e-13 * max(1.0, abs(got))


def test_dot_refuses_another_basis_gram_family():
    # the other basis's Gram family once gave -101.86 for -465.70; on an
    # isometric basis, where no Gram product is made, it is refused too
    rng = np.random.default_rng(0)
    tree = line_tree(64, 4)
    for make in (random_basis, random_iso_basis):
        basis, other = make(tree, 3, rng), make(tree, 3, rng)
        x = random_hvector(basis, rng, steps=4)
        y = random_hvector(basis, rng, steps=6)
        wrong = gram_family(other)
        with pytest.raises(ValueError, match="Gram family belongs to a different basis"):
            dot(x, y, wrong)
        with pytest.raises(ValueError, match="Gram family belongs to a different basis"):
            norm(x, wrong)
        gram = gram_family(basis)
        assert gram.source is basis and gram.target is basis
        want = float(to_dense(x) @ to_dense(y))
        assert abs(dot(x, y, gram) - want) <= 1e-12 * max(1.0, abs(want))


def test_dot_and_norm_need_the_gram_family_off_isometric_bases(rng):
    basis = random_basis(line_tree(32, 4), 3, rng)
    x = random_hvector(basis, rng, steps=3)
    with pytest.raises(ValueError, match=r"needs its Gram family, gram_family\(basis\)"):
        dot(x, x)
    with pytest.raises(ValueError, match=r"needs its Gram family, gram_family\(basis\)"):
        norm(x)


def test_isometric_dot_charges_one_multiply_add_per_leaf_entry(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=3)
    before, gram = x.data.copy(), gram_family(small_iso)
    # a Gram family given is checked, not multiplied
    for call in (lambda: dot(x, x), lambda: norm(x), lambda: dot(x, x.copy()), lambda: norm(x, gram)):
        with kernels.count_flops() as counter:
            call()
        assert counter.total == int(np.count_nonzero(x.leaf_entries()))
    assert np.array_equal(x.data, before)


def test_dot_leaves_both_operands_as_they_were(rng, small_iso):
    # the shallower operand is pushed down in a copy, never in place
    x = random_hvector(small_iso, rng, steps=1)
    y = random_hvector(small_iso, rng, steps=4)
    saved = [(v.sub.leaves(), v.data.copy()) for v in (x, y)]
    dot(x, y)
    dot(y, x)
    for (leaves, data), v in zip(saved, (x, y)):
        assert v.sub.leaves() == leaves
        assert np.array_equal(v.data, data)


def test_norm_examples(rng, small_iso):
    gram = gram_family(small_iso)
    assert norm(HVector(small_iso), gram) == 0.0
    x = HVector.from_leaves(small_iso, None, {small_iso.tree.root: np.array([3.0, 4.0, 0.0])})
    assert abs(norm(x, gram) - 5.0) <= 1e-13
    y = random_hvector(small_iso, rng, steps=3)
    assert abs(norm(y, gram) - np.linalg.norm(to_dense(y))) <= 1e-12 * max(
        1.0, norm(y, gram)
    )


def test_scale(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=2)
    want = -2.5 * to_dense(x)
    scale(x, -2.5)
    assert np.max(np.abs(to_dense(x) - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_scale_and_axpy_refuse_a_non_finite_factor(rng, small_iso, alpha):
    x = random_hvector(small_iso, rng, steps=2)
    y = random_hvector(small_iso, rng, steps=3)
    before = x.data.copy(), y.data.copy()
    with pytest.raises(ValueError, match="expected a finite factor"):
        scale(x, alpha)
    with pytest.raises(ValueError, match="expected a finite factor"):
        axpy(alpha, x, y)
    assert np.array_equal(x.data, before[0]) and np.array_equal(y.data, before[1])


def test_from_dense_round_trip(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=3)
    v = to_dense(x)
    back, err = from_dense(v, small_iso, x.sub)
    assert err <= 1e-13 * max(1.0, np.linalg.norm(v))
    for i in x.coeff:
        assert np.max(np.abs(back.coeff[i] - x.coeff[i])) <= 1e-13


def test_from_dense_orthogonal_vector(rng, small_iso):
    tree = small_iso.tree
    q = small_iso.materialize(tree.root)
    v = rng.standard_normal(tree.n)
    v -= q @ (q.T @ v)
    hv, err = from_dense(v, small_iso)  # minimal subtree
    assert np.max(np.abs(hv.coeff[tree.root])) <= 1e-12 * np.linalg.norm(v)
    assert abs(err - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


def test_from_dense_exact_on_square_leaves(rng, square_leaf_iso):
    tree = square_leaf_iso.tree
    sub = Subtree(tree)
    stack = [tree.root]
    while stack:
        i = stack.pop()
        if tree.sons(i):
            sub.expand(i)
            stack.extend(tree.sons(i))
    v = rng.standard_normal(tree.n)
    hv, err = from_dense(v, square_leaf_iso, sub)
    assert err <= 1e-12 * np.linalg.norm(v)
    assert np.max(np.abs(to_dense(hv) - v)) <= 1e-12


def test_from_dense_requires_isometric(rng):
    tree = line_tree(8, 2)
    b = random_basis(tree, 2, rng)
    with pytest.raises(ValueError):
        from_dense(np.zeros(8), b)


def test_from_dense_rejects_bad_input(rng, small_iso):
    tree = small_iso.tree
    with pytest.raises(ValueError, match="different trees"):
        from_dense(np.zeros(tree.n), small_iso, Subtree(line_tree(tree.n, 4)))
    for bad in (np.nan, np.inf):
        v = rng.standard_normal(tree.n)
        v[5] = bad
        with pytest.raises(ValueError, match="position 5: non-finite"):
            from_dense(v, small_iso)


def test_hvector_refuses_a_subtree_of_another_tree(rng):
    # such a vector once reached dot, norm, axpy, scale and to_dense and
    # failed there, on operands that could not be broadcast together
    basis = random_iso_basis(line_tree(64, 4), 3, rng)
    sub = random_subtree(line_tree(32, 4), rng, steps=3)
    with pytest.raises(ValueError, match="subtree and basis live on different trees"):
        HVector(basis, sub)
    with pytest.raises(ValueError, match="subtree and basis live on different trees"):
        HVector.from_leaves(basis, sub, {})


def test_from_leaves_names_the_cluster(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=3)
    leaf = max(x.coeff)
    coeff = {i: v.copy() for i, v in x.coeff.items()}
    coeff[leaf][2] = np.inf
    with pytest.raises(ValueError, match=f"cluster {leaf}: non-finite"):
        HVector.from_leaves(small_iso, x.sub, coeff)
    for wrong in (x.coeff[leaf][:2], np.append(x.coeff[leaf], 0.5)):
        coeff[leaf] = wrong
        with pytest.raises(ValueError, match=f"cluster {leaf}: expected shape \\(3,\\)"):
            HVector.from_leaves(small_iso, x.sub, coeff)
    del coeff[leaf]
    with pytest.raises(ValueError, match=f"cluster {leaf}: coefficients off"):
        HVector.from_leaves(small_iso, x.sub, coeff)
    # a key below a subtree leaf
    upper = min(i for i in x.coeff if small_iso.tree.sons(i))
    son = small_iso.tree.sons(upper)[0]
    with pytest.raises(ValueError, match=f"cluster {son}: coefficients off"):
        HVector.from_leaves(small_iso, x.sub, {**x.coeff, son: np.zeros(3)})


def test_coeff_is_a_read_only_mapping_of_views(rng, small_iso):
    x = random_hvector(small_iso, rng, steps=3)
    ptr = small_iso.ptr
    assert list(x.coeff) == sorted(x.sub.leaves())
    assert len(x.coeff) == len(x.sub.leaves())
    for i, v in x.coeff.items():
        assert v.base is x.data and v.size == small_iso.rank_of(i) == ptr[i + 1] - ptr[i]
    with pytest.raises(KeyError):
        x.coeff[small_iso.tree.root]
    with pytest.raises(TypeError):
        x.coeff[small_iso.tree.root] = np.zeros(3)


def test_non_integer_keys_are_missing_from_coefficients_and_views(rng, small_iso):
    # Mapping.__contains__ answers False only on KeyError, and a dict
    # would find cluster 2 under the key 2.0 and cluster 1 under True
    x = random_hvector(small_iso, rng, steps=3)
    views = (small_iso.leaf_matrix, small_iso.transfer, gram_family(small_iso))
    for mapping in (x.coeff, *views):
        first = next(iter(mapping))
        for key in (1.5, "3", None, float(first), True, False):
            assert key not in mapping
            with pytest.raises(KeyError):
                mapping[key]
        assert first in mapping and np.int64(first) in mapping


_property = settings(max_examples=40, deadline=None)
_instance = dict(
    n=st.integers(4, 64),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    steps=st.integers(0, 12),
)


def _iso_and_rng(n, rank, seed):
    tree = line_tree(n, 2 * rank)
    assume(tree.sizes[~tree.has_sons].min() >= rank)
    rng = np.random.default_rng(seed)
    return random_iso_basis(tree, rank, rng), rng


@_property
@given(**_instance)
def test_refine_then_coarsen_restores_coefficients(n, rank, seed, steps):
    iso, rng = _iso_and_rng(n, rank, seed)
    x = random_hvector(iso, rng, steps=steps)
    refinable = [i for i in x.coeff if iso.tree.sons(i)]
    assume(refinable)
    i = refinable[rng.integers(len(refinable))]
    before = {j: v.copy() for j, v in x.coeff.items()}
    refine(x, i)
    err = coarsen(x, i, coarsening_factors(iso))
    assert err <= 1e-13 * max(1.0, np.linalg.norm(before[i]))
    assert x.coeff.keys() == before.keys()
    for j, v in before.items():
        assert np.max(np.abs(x.coeff[j] - v)) <= 1e-13 * max(1.0, np.max(np.abs(v)))


@_property
@given(**_instance, alpha=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0))
def test_axpy_and_dot_are_bilinear(n, rank, seed, steps, alpha, beta):
    iso, rng = _iso_and_rng(n, rank, seed)
    gram = gram_family(iso)
    x, z, y, u = (random_hvector(iso, rng, steps=steps + j) for j in range(4))
    w = y.copy()
    axpy(alpha, x, w)
    axpy(beta, z, w)
    want = to_dense(y) + alpha * to_dense(x) + beta * to_dense(z)
    assert np.max(np.abs(to_dense(w) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    got = dot(w, u, gram)
    split = dot(y, u, gram) + alpha * dot(x, u, gram) + beta * dot(z, u, gram)
    size = norm(u, gram) * (norm(y, gram) + abs(alpha) * norm(x, gram) + abs(beta) * norm(z, gram))
    assert abs(got - split) <= 1e-12 * max(1.0, size)
    assert abs(dot(u, w, gram) - got) <= 1e-12 * max(1.0, size)


@_property
@given(**_instance)
def test_writing_through_a_copy_leaves_the_original(n, rank, seed, steps):
    iso, rng = _iso_and_rng(n, rank, seed)
    x = random_hvector(iso, rng, steps=steps)
    data, members = x.data.copy(), x.sub.members()
    c = x.copy()
    for v in c.coeff.values():
        v += 1.0
    refinable = [i for i in c.coeff if iso.tree.sons(i)]
    if refinable:
        refine(c, refinable[0])
    assert np.array_equal(x.data, data)
    assert x.sub.members() == members
