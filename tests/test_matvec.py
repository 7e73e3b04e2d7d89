import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2vec import kernels
from h2vec.h2matrix import H2Matrix, build_block_tree, random_h2, to_dense
from h2vec.hvector import HVector, axpy, refine, to_dense as hv_dense
from h2vec.instances import (
    line_tree,
    random_basis,
    random_hvector,
    random_instance,
    random_iso_basis,
    random_subtree,
)
from h2vec.basis import BatchLastGroup, ClusterBasis, MatrixGroup, run_steps
from h2vec.matvec import _forward, _pattern, build_plan, induced_to_dense, multiply

import matvec_reference as reference
from conftest import prefix_subtree


@pytest.fixture(scope="module")
def inst():
    return random_instance(96, 3, 2, 1.0, seed=7)


@pytest.fixture(scope="module")
def dense(inst):
    return to_dense(inst.matrix)


def test_plan_single_leaf_root_block(rng):
    tree = line_tree(1, 1)
    row = random_basis(tree, 1, rng)
    col = random_basis(tree, 1, rng)
    bt = build_block_tree(tree, tree, 1.0)
    matrix = random_h2(bt, row, col, seed=0)
    iso = random_iso_basis(tree, 1, rng)
    plan = build_plan(matrix, iso)
    assert plan.nonleaf_blocks.row.size == 0
    assert plan.ptr.tolist() == [0, 1]


def test_plan_nonleaf_root_block(rng):
    tree = line_tree(8, 2)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    matrix = random_h2(bt, row, col, seed=0)
    iso = random_iso_basis(tree, 2, rng)
    plan = build_plan(matrix, iso)
    root = tree.root
    assert not bt.leaf[bt.root]
    # the root block is the first non-leaf block and the only one of its row
    blocks = plan.nonleaf_blocks
    assert np.count_nonzero(blocks.row == root) == 1
    assert (blocks.row[0], blocks.col[0]) == (root, root)
    assert blocks.parent[0] == blocks.row.size
    assert blocks.target[0].tolist() == [plan.ptr[root] + 2, plan.ptr[root] + 3]
    assert plan.ptr[root + 1] - plan.ptr[root] == 2 + 2


@pytest.mark.parametrize("n, k, ka", [(8, 16, 3), (8, 3, 9), (64, 0, 3), (64, 3, -1)])
def test_random_instance_rejects_ranks_out_of_range(n, k, ka):
    # a rank above n once grew the leaf size forever
    with pytest.raises(ValueError, match=f"ranks must lie between 1 and n = {n}"):
        random_instance(n, k, ka, 1.0, 0)


def test_build_plan_rejects_varying_ranks(inst):
    # the induced basis has per-cluster ranks; the product needs uniform ones
    with pytest.raises(ValueError, match="input basis: the product needs one rank"):
        build_plan(inst.matrix, inst.plan.induced)


def test_induced_copy_keeps_plan(rng, inst, dense):
    y = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=4))
    before = induced_to_dense(y, dense)
    z = y.copy()
    assert z.plan is inst.plan and z.basis is inst.plan.induced
    assert np.array_equal(induced_to_dense(z, dense), before)
    z.data[:] = 1.0
    z.sub.expand(next(i for i in z.sub.leaves() if inst.tree.sons(i)))
    assert np.array_equal(induced_to_dense(y, dense), before)


def test_plan_rank_bound(inst):
    bound = inst.matrix.rank + inst.csp * inst.input_basis.rank
    assert np.all(np.diff(inst.plan.ptr) <= bound)


def test_plan_layout_matches_block_tree(inst):
    # the flat layout agrees with the slots read from the block tree
    plan = inst.plan
    offsets, rank = reference.layout(plan)
    assert np.diff(plan.ptr).tolist() == [rank[t] for t in range(len(inst.tree))]
    blocks = plan.nonleaf_blocks
    for t, s, target in zip(blocks.row.tolist(), blocks.col.tolist(), blocks.target):
        o = plan.ptr[t] + offsets[(t, s)]
        assert target.tolist() == list(range(o, o + inst.input_basis.rank))
    for t, target in zip(plan.leaf_blocks.row.tolist(), plan.leaf_blocks.target):
        o = plan.ptr[t]
        assert target.tolist() == list(range(o, o + inst.matrix.rank))
    # every block but the root block points at the block of the fathers
    father = inst.tree.father
    for kind in (plan.leaf_blocks, blocks):
        below = kind.parent < blocks.row.size
        assert np.array_equal(blocks.row[kind.parent[below]], father[kind.row[below]])
        assert np.array_equal(blocks.col[kind.parent[below]], father[kind.col[below]])
    assert np.count_nonzero(plan.leaf_blocks.parent == blocks.row.size) == 0
    assert np.flatnonzero(blocks.parent == blocks.row.size).tolist() == [0]


def test_forward_zero(inst):
    x = HVector(inst.input_basis)
    y = multiply(inst.plan, x)
    assert np.max(np.abs(induced_to_dense(y))) == 0.0


def test_forward_identity_cross_when_same_basis(rng):
    tree = line_tree(16, 4)
    iso = random_iso_basis(tree, 2, rng)
    row = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    matrix = random_h2(bt, row, iso, seed=1)  # column basis == input basis
    plan = build_plan(matrix, iso)
    assert plan.cross.shape == (len(tree.clusters), 2, 2)
    assert np.max(np.abs(plan.cross - np.eye(2))) <= 1e-12


def test_forward_matches_dense_per_cluster(rng, inst):
    x = random_hvector(inst.input_basis, rng, steps=4)
    dense_x = hv_dense(x)
    ref = {}
    reference.forward(x, inst.plan, ref)
    leaf = x.sub.leaf_mask()
    coeff = np.zeros((len(leaf), inst.input_basis.rank))
    for i, c in x.coeff.items():
        coeff[i] = c
    out = _forward(inst.plan, coeff, _pattern(inst.plan, x.sub))
    tree = inst.tree
    col = inst.matrix.col_basis
    for s in range(len(tree.clusters)):
        if s not in x.sub:
            assert not np.any(out[s])
            continue
        want = col.materialize(s).T @ dense_x[tree.positions(s)]
        scale = 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(ref[s] - want)) <= scale
        assert np.max(np.abs(out[s] - want)) <= scale


def test_coupling_minimal_input_stays_minimal(rng):
    tree = line_tree(8, 2)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    matrix = random_h2(bt, row, col, seed=0)
    iso = random_iso_basis(tree, 2, rng)
    plan = build_plan(matrix, iso)
    x = HVector.from_leaves(iso, None, {tree.root: rng.standard_normal(2)})
    y = multiply(plan, x)
    assert y.sub.count() == 1
    got = induced_to_dense(y)
    want = to_dense(matrix) @ hv_dense(x)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_single_block_product(rng):
    tree = line_tree(4, 4)
    row = random_basis(tree, 2, rng)
    col = random_basis(tree, 2, rng)
    bt = build_block_tree(tree, tree, 1.0)
    assert len(bt) == 1
    matrix = random_h2(bt, row, col, seed=0)
    iso = random_iso_basis(tree, 2, rng)
    plan = build_plan(matrix, iso)
    x = random_hvector(iso, rng)
    y = multiply(plan, x)
    want = to_dense(matrix) @ hv_dense(x)
    assert np.max(np.abs(induced_to_dense(y) - want)) <= 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_multiply_exactness(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([32, 64, 96, 128]))
    k = int(rng.integers(1, 5))
    ka = int(rng.integers(1, 5))
    eta = float(rng.choice([0.5, 1.0, 2.0]))
    inst = random_instance(n, k, ka, eta, seed=seed)
    dense = to_dense(inst.matrix)
    x = random_hvector(inst.input_basis, rng, steps=int(rng.integers(0, 8)))
    y = multiply(inst.plan, x)
    got = induced_to_dense(y, dense)
    want = dense @ hv_dense(x)
    assert np.linalg.norm(got - want) <= 1e-11 * max(1e-30, np.linalg.norm(want))
    assert y.sub.count() <= inst.csp * x.sub.count()
    bound = ka + inst.csp * k
    assert np.all(np.diff(inst.plan.ptr) <= bound)


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@pytest.mark.parametrize("seed", range(10))
def test_multiply_exactness_2d(seed):
    inst = random_instance(300, 2, 3, 2.0, seed, dim=2)
    assert inst.tree.sizes[~inst.tree.has_sons].min() >= 3
    rng = np.random.default_rng(seed)
    x = random_hvector(inst.input_basis, rng, steps=int(rng.integers(0, 12)))
    dense = to_dense(inst.matrix)
    want = dense @ hv_dense(x)
    y = multiply(inst.plan, x)
    scale = 1e-11 * max(1e-30, np.linalg.norm(want))
    assert np.linalg.norm(induced_to_dense(y, dense) - want) <= scale
    assert np.linalg.norm(hv_dense(y) - want) <= scale


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    k=st.integers(1, 4),
    ka=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    steps=st.integers(0, 30),
)
def test_product_coefficients_share_one_buffer(n, k, ka, seed, steps):
    inst = random_instance(n, k, ka, 1.0, seed=seed)
    plan = inst.plan
    assert plan.ptr is plan.induced.ptr
    x = random_hvector(inst.input_basis, np.random.default_rng(seed), steps=steps)
    y = multiply(plan, x)
    assert y.data.shape == (plan.ptr[-1],)
    for i, v in y.coeff.items():
        assert v.base is y.data and np.shares_memory(v, y.data)
        assert v.size == plan.ptr[i + 1] - plan.ptr[i]


def test_multiply_linearity(rng, inst, dense):
    x1 = random_hvector(inst.input_basis, rng, steps=3)
    x2 = random_hvector(inst.input_basis, rng, steps=5)
    alpha = 0.37
    combo = x2.copy()
    axpy(alpha, x1, combo)
    lhs = induced_to_dense(multiply(inst.plan, combo), dense)
    rhs = alpha * induced_to_dense(
        multiply(inst.plan, x1), dense
    ) + induced_to_dense(multiply(inst.plan, x2), dense)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * max(1.0, np.linalg.norm(rhs))


def test_multiply_rejects_wrong_basis(rng, inst):
    other = random_iso_basis(inst.tree, 3, rng)
    x = HVector(other)
    with pytest.raises(ValueError):
        multiply(inst.plan, x)


def test_multiply_rejects_coefficients_off_the_subtree(rng, inst):
    # per-leaf input is checked where it enters, naming the cluster; the
    # product itself only sees the flat array and checks its length
    x = random_hvector(inst.input_basis, rng, steps=2)
    leaf = x.sub.leaves()[0]
    coeff = {i: v.copy() for i, v in x.coeff.items()}
    padded = {**coeff, leaf: np.concatenate([coeff[leaf], [0.0]])}
    with pytest.raises(ValueError, match=f"cluster {leaf}:"):
        HVector.from_leaves(inst.input_basis, x.sub, padded)
    missing = {i: v for i, v in coeff.items() if i != leaf}
    with pytest.raises(ValueError, match=f"cluster {leaf}:"):
        HVector.from_leaves(inst.input_basis, x.sub, missing)
    extra = {**coeff, inst.tree.root: np.zeros(inst.input_basis.rank)}
    with pytest.raises(ValueError, match=f"cluster {inst.tree.root}:"):
        HVector.from_leaves(inst.input_basis, x.sub, extra)
    wrong = HVector(inst.input_basis, x.sub, np.append(x.data, 0.0))
    with pytest.raises(ValueError, match="coefficients in one flat array"):
        multiply(inst.plan, wrong)


def test_multiply_rejects_non_finite_coefficients(rng, inst):
    x = random_hvector(inst.input_basis, rng, steps=3)
    leaf = x.sub.leaves()[-1]
    x.coeff[leaf][1] = np.nan
    with pytest.raises(ValueError, match=f"cluster {leaf}: non-finite"):
        multiply(inst.plan, x)


def _parked_blocks(plan, x):
    """Non-leaf blocks the product visits whose column is an input leaf."""
    bt = plan.matrix.block_tree
    sons = reference.block_sons(bt)
    count = 0
    stack = [bt.root]
    while stack:
        b = stack.pop()
        if bt.leaf[b]:
            continue
        if x.sub.is_leaf(int(bt.col[b])):
            count += 1
        else:
            stack.extend(sons[b])
    return count


def _assert_matches_reference(plan, x):
    """The product against the dense-induced recursion, for its values,
    and against the factored recursion, for its values and its flops."""
    with kernels.count_flops() as batched:
        y = multiply(plan, x)
    with kernels.count_flops() as walked:
        factored = reference.factored_multiply(plan, x)
    want = reference.multiply(plan, x)
    assert batched.phases == walked.phases
    scale = max(np.max(np.abs(v)) for v in want.coeff.values())
    for other in (want, factored):
        assert y.sub.leaves() == other.sub.leaves()
        assert y.sub.count() == other.sub.count()
        assert y.coeff.keys() == other.coeff.keys()
        for i, v in other.coeff.items():
            assert np.max(np.abs(y.coeff[i] - v), initial=0.0) <= 1e-13 * scale
    y.validate()
    return y


@pytest.mark.parametrize("seed", range(6))
def test_multiply_matches_reference_on_partial_subtrees(seed):
    rng = np.random.default_rng(seed)
    k, ka, eta = 1 + seed % 4, 1 + seed % 3, (0.5, 1.0, 2.0)[seed % 3]
    inst = random_instance(128, k, ka, eta, seed=seed)
    x = random_hvector(inst.input_basis, rng, steps=int(rng.integers(3, 12)))
    assert x.sub.count() < len(inst.tree.clusters)
    assert _parked_blocks(inst.plan, x) > 0
    _assert_matches_reference(inst.plan, x)


def test_multiply_matches_reference_on_full_subtree(rng, inst):
    x = random_hvector(inst.input_basis, rng, sub=prefix_subtree(inst.tree, inst.tree.depth))
    assert x.sub.count() == len(inst.tree.clusters)
    assert _parked_blocks(inst.plan, x) == 0
    _assert_matches_reference(inst.plan, x)


def test_multiply_matches_reference_on_minimal_subtree(rng, inst):
    x = HVector.from_leaves(inst.input_basis, None, {inst.tree.root: rng.standard_normal(3)})
    y = _assert_matches_reference(inst.plan, x)
    assert y.sub.count() == 1


def test_multiply_matches_reference_on_zero_vector(rng, inst):
    zero = HVector(inst.input_basis, sub=random_subtree(inst.tree, rng, steps=5))
    with kernels.count_flops() as batched:
        y = multiply(inst.plan, zero)
    with kernels.count_flops() as walked:
        reference.factored_multiply(inst.plan, zero)
    want = reference.multiply(inst.plan, zero)
    assert y.sub.leaves() == want.sub.leaves()
    assert batched.phases == walked.phases
    assert all(not np.any(v) for v in y.coeff.values())


def test_multiply_matches_reference_on_single_block_tree(rng):
    tree = line_tree(4, 4)
    bt = build_block_tree(tree, tree, 1.0)
    matrix = random_h2(bt, random_basis(tree, 2, rng), random_basis(tree, 2, rng), seed=0)
    plan = build_plan(matrix, random_iso_basis(tree, 2, rng))
    x = random_hvector(plan.input_basis, rng)
    _assert_matches_reference(plan, x)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([16, 32, 48, 64, 96]),
    k=st.integers(1, 4),
    ka=st.integers(1, 4),
    eta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**16),
    steps=st.integers(0, 60),
)
def test_product_equals_dense_result(n, k, ka, eta, seed, steps):
    inst = random_instance(n, k, ka, eta, seed=seed)
    rng = np.random.default_rng(seed)
    x = random_hvector(inst.input_basis, rng, steps=steps)
    dense = to_dense(inst.matrix)
    want = dense @ hv_dense(x)
    got = induced_to_dense(multiply(inst.plan, x), dense)
    assert np.linalg.norm(got - want) <= 1e-11 * max(1e-30, np.linalg.norm(want))


def _bars_and_buffer(plan, sub, bars):
    """Copy per-member accumulators into a flat buffer laid out by plan.ptr."""
    buf = np.zeros(plan.ptr[-1])
    for i in sub.members():
        buf[plan.ptr[i] : plan.ptr[i + 1]] = bars[i]
    return buf


def test_standard_backward_zero(rng, inst):
    basis = inst.plan.induced
    sub = random_subtree(inst.tree, rng, steps=3)
    bars = {i: np.zeros(basis.rank_of(i)) for i in sub.members()}
    buf = _bars_and_buffer(inst.plan, sub, bars)
    out = reference.standard_backward(basis, sub, bars)
    assert np.max(np.abs(hv_dense(out))) == 0.0
    basis.backward(buf, sub.interior_mask())
    assert np.max(np.abs(buf)) == 0.0


def test_standard_backward_matches_dense(rng, inst):
    basis = inst.plan.induced
    sub = random_subtree(inst.tree, rng, steps=4)
    bars = {i: rng.standard_normal(basis.rank_of(i)) for i in sub.members()}
    buf = _bars_and_buffer(inst.plan, sub, bars)
    tree = inst.tree
    want = np.zeros(tree.n)
    for i in sub.members():
        want[tree.positions(i)] += basis.materialize(i) @ bars[i]
    scale = 1e-11 * max(1.0, np.max(np.abs(want)))
    out = reference.standard_backward(basis, sub, bars)  # consumes bars
    assert np.max(np.abs(hv_dense(out) - want)) <= scale
    # the batched pass, on the same accumulators, gives the same leaves
    basis.backward(buf, sub.interior_mask())
    for i in sub.leaves():
        got = buf[inst.plan.ptr[i] : inst.plan.ptr[i + 1]]
        assert np.max(np.abs(got - out.coeff[i])) <= 1e-13 * max(
            1.0, np.max(np.abs(out.coeff[i]))
        )


def test_induced_basis_expansion_matches_slot_expansion(rng, inst, dense):
    for _ in range(5):
        x = random_hvector(inst.input_basis, rng, steps=int(rng.integers(0, 6)))
        y = multiply(inst.plan, x)
        assert y.basis is inst.plan.induced
        y1 = induced_to_dense(y, dense)
        y2 = hv_dense(y)
        scale = max(1.0, np.max(np.abs(y1)))
        assert np.max(np.abs(y1 - y2)) <= 1e-11 * scale


def test_induced_to_dense_v_only_coefficients(rng, inst, dense):
    # with only the leading block populated the expansion reduces to the
    # row-basis hierarchical expansion
    x = random_hvector(inst.input_basis, rng, steps=2)
    y = multiply(inst.plan, x)
    ka = inst.matrix.rank
    for i, v in y.coeff.items():
        v[ka:] = 0.0
    got = induced_to_dense(y, dense)
    tree = inst.tree
    want = np.zeros(tree.n)
    for i in y.sub.leaves():
        want[tree.positions(i)] = inst.matrix.row_basis.materialize(i) @ y.coeff[i][:ka]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_multiply_never_runs_the_induced_backward(rng, monkeypatch):
    inst = random_instance(128, 3, 2, 1.0, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("the product ran the induced backward")

    monkeypatch.setattr(inst.plan.induced, "backward", refuse)
    x = random_hvector(inst.input_basis, rng, steps=8)
    assert _parked_blocks(inst.plan, x) > 0
    dense = to_dense(inst.matrix)
    want = dense @ hv_dense(x)
    got = induced_to_dense(multiply(inst.plan, x), dense)
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_multiply_flop_ratio_linear():
    inst = random_instance(2048, 3, 3, 1.0, seed=5)
    rng = np.random.default_rng(0)
    results = []
    for level in (5, 6, 7, 8):
        sub = prefix_subtree(inst.tree, level)
        x = random_hvector(inst.input_basis, rng, sub=sub)
        with kernels.count_flops() as counter:
            multiply(inst.plan, x)
        results.append((x.sub.count(), counter.total))
    for (m1, f1), (m2, f2) in zip(results, results[1:]):
        assert 1.9 <= m2 / m1 <= 2.1
        assert 1.6 <= f2 / f1 <= 2.5


def test_zero_vector_coupling_flops_negligible(rng, inst):
    # a zero vector lives on the minimal subtree, so coupling reduces to
    # parking one coefficient; compare with a refined random input
    zero = HVector(inst.input_basis)
    with kernels.count_flops() as fz:
        multiply(inst.plan, zero)
    x = random_hvector(inst.input_basis, rng, target=len(inst.tree.clusters))
    with kernels.count_flops() as fx:
        multiply(inst.plan, x)
    assert fz.phases.get("coupling", 0) <= 0.05 * fx.phases["coupling"]


def test_rank_doubling_quadruples_flops():
    # same tree and subtree, both ranks doubled: every kernel is
    # quadratic in the ranks, so the count grows by about four
    totals = []
    for k, ka in ((2, 2), (4, 4)):
        inst = random_instance(512, k, ka, 1.0, seed=9, leaf_size=8)
        rng = np.random.default_rng(4)
        sub = prefix_subtree(inst.tree, 5)
        x = random_hvector(inst.input_basis, rng, sub=sub)
        with kernels.count_flops() as counter:
            multiply(inst.plan, x)
        totals.append(counter.total)
    assert 3.0 <= totals[1] / totals[0] <= 5.0


def _fresh_product(inst, x):
    """The product on a newly built plan, with its flops per phase."""
    plan = build_plan(inst.matrix, inst.input_basis)
    with kernels.count_flops() as counter:
        y = multiply(plan, x)
    return y, counter.phases


def _assert_same_product(plan, inst, x):
    with kernels.count_flops() as counter:
        y = multiply(plan, x)
    want, phases = _fresh_product(inst, x)
    assert counter.phases == phases
    assert y.sub.leaves() == want.sub.leaves()
    assert np.array_equal(y.data, want.data)
    return y


def test_pattern_reuse_matches_fresh_plans(rng):
    inst = random_instance(128, 3, 2, 1.0, seed=11)
    plan = build_plan(inst.matrix, inst.input_basis)
    a = random_subtree(inst.tree, rng, steps=6)
    b = random_subtree(inst.tree, rng, steps=12)
    assert a.interior_mask().tobytes() != b.interior_mask().tobytes()
    patterns = []
    for sub in (a, a, b, a):
        x = random_hvector(inst.input_basis, rng, sub=sub)
        y = _assert_same_product(plan, inst, x)
        patterns.append(plan.pattern)
        # the result owns its subtree and its coefficients
        assert not np.shares_memory(y.data, x.data)
        leaf = next(i for i in y.sub.leaves() if inst.tree.sons(i))
        refine(y, leaf)
        y.data[:] = 7.0
    assert patterns[1] is patterns[0]
    assert patterns[2] is not patterns[1] and patterns[3] is not patterns[0]


def test_pattern_of_a_root_only_input(rng):
    inst = random_instance(128, 3, 2, 1.0, seed=12)
    plan = build_plan(inst.matrix, inst.input_basis)
    x = HVector.from_leaves(inst.input_basis, None, {inst.tree.root: rng.standard_normal(3)})
    y = _assert_same_product(plan, inst, x)
    # no row of the result has leaf blocks: no coupling step, no product
    assert plan.pattern.coupling == [] and y.sub.count() == 1
    y.data[:] = 0.0
    _assert_same_product(plan, inst, x)
    with kernels.count_flops() as counter:
        multiply(plan, x)
    # the coupling only parks the root coefficient in its slot
    assert counter.phases["coupling"] == 3


def test_pattern_of_a_full_input_views_the_coupling_stack(rng):
    inst = random_instance(128, 3, 2, 1.0, seed=13)
    plan = build_plan(inst.matrix, inst.input_basis)
    full = prefix_subtree(inst.tree, inst.tree.depth)
    for _ in range(2):
        x = random_hvector(inst.input_basis, rng, sub=full)
        _assert_same_product(plan, inst, x)
        # every row with leaf blocks is in the result: each group is the
        # plan's own, batch-last, viewed whole
        coupling = plan.pattern.coupling
        assert len(coupling) == len(plan.coupling) > 1
        for mine, group in zip(coupling, plan.coupling):
            assert isinstance(mine, BatchLastGroup) and isinstance(group, BatchLastGroup)
            for name in ("clusters", "stack", "source", "target"):
                view, array = getattr(mine, name), getattr(group, name)
                assert view is not array and view.shape == array.shape
                assert view.ctypes.data == array.ctypes.data
        # so is each transfer group's twin the row basis's backward pass reads
        twins = [g.last for g in inst.matrix.row_basis.transfer.groups]
        assert all(isinstance(twin, BatchLastGroup) for twin in twins)
        for step in plan.pattern.backward:
            assert isinstance(step, BatchLastGroup)
            assert any(step.stack.ctypes.data == twin.stack.ctypes.data for twin in twins)


def test_pattern_arrays_are_read_only(rng):
    inst = random_instance(128, 3, 2, 1.0, seed=14)
    plan = build_plan(inst.matrix, inst.input_basis)
    multiply(plan, random_hvector(inst.input_basis, rng, steps=8))
    pattern = plan.pattern
    arrays = [v for v in vars(pattern).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 4
    steps = [*pattern.push, pattern.cross, *pattern.forward, *pattern.coupling, *pattern.backward]
    assert pattern.push and pattern.forward and pattern.coupling and pattern.backward
    arrays += [v for step in steps for v in vars(step).values() if v is not None]
    arrays += [v for v in vars(pattern.sub).values() if isinstance(v, np.ndarray)]
    for array in arrays:
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
    # the plan's and the bases' own arrays, and the twins', stay writable
    # behind the views
    bases = (inst.matrix.row_basis, inst.matrix.col_basis, inst.input_basis)
    groups = [*plan.coupling, *(g for b in bases for g in b.transfer.groups)]
    for group in groups + [g.last for g in groups if g.last is not None]:
        assert group.stack.flags.writeable and group.source.flags.writeable
        assert group.target.flags.writeable and group.clusters.flags.writeable


def _batch_first(group):
    """A group's stack and source laid out batch-first, as views."""
    if isinstance(group, BatchLastGroup):
        return group.stack.transpose(2, 0, 1), group.source.T
    return group.stack, group.source


def _row_couplings(plan):
    """The plan's coupling matrices, one per leaf block in row order,
    read back from its per-row stacks, and the blocks' columns."""
    ka = plan.matrix.rank
    per_row = {}
    for group in plan.coupling:
        stacks, sources = _batch_first(group)
        c = stacks.shape[2] // ka
        assert stacks.shape[1:] == (ka, c * ka) and sources.shape == (len(group.clusters), c * ka)
        for t, stack, source in zip(group.clusters.tolist(), stacks, sources):
            per_row[t] = [(stack[:, j * ka : (j + 1) * ka], source[j * ka] // ka) for j in range(c)]
    blocks = [block for t in sorted(per_row) for block in per_row[t]]
    return np.array([m for m, _ in blocks]), np.array([s for _, s in blocks])


def test_a_plan_is_a_snapshot_of_its_matrix(rng):
    inst = random_instance(128, 3, 2, 1.0, seed=15)
    m, plan, bt = inst.matrix, inst.plan, inst.matrix.block_tree
    # the stacks hold each row's blocks side by side, rows and blocks in
    # the row order of the leaf blocks
    by_row = np.argsort(bt.row[bt.leaf], kind="stable")
    stacked, cols = _row_couplings(plan)
    assert np.array_equal(stacked, m.coupling[by_row])
    assert np.array_equal(cols, plan.leaf_blocks.col)
    assert np.array_equal(plan.leaf_blocks.number, by_row)
    assert np.all(np.diff(plan.leaf_blocks.row) >= 0)
    kept = build_plan(H2Matrix(bt, m.row_basis, m.col_basis, m.coupling.copy()), inst.input_basis)
    m.coupling[...] = 1.0
    assert np.array_equal(_row_couplings(plan)[0], _row_couplings(kept)[0])
    assert np.array_equal(plan.induced.transfer.store, kept.induced.transfer.store)
    x = random_hvector(inst.input_basis, rng, steps=8)
    y, want = multiply(plan, x), multiply(kept, x)
    assert y.sub.leaves() == want.sub.leaves()
    assert np.array_equal(y.data, want.data)


def test_a_product_on_a_known_subtree_does_only_arithmetic(rng, monkeypatch):
    inst = random_instance(128, 3, 2, 1.0, seed=16)
    plan = build_plan(inst.matrix, inst.input_basis)
    sub = random_subtree(inst.tree, rng, steps=10)
    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            # a kernel call is counted by the phase it runs in
            key = (kernels._COUNTER.get()._phase, name) if name == "matvec" else name
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(ClusterBasis, "forward_steps"), (ClusterBasis, "backward_steps"),
                        (MatrixGroup, "pick"), (kernels, "matvec"), (np, "ascontiguousarray")]:
        counted(owner, name)
    x, again = (random_hvector(inst.input_basis, rng, sub=sub) for _ in range(2))
    calls.clear()
    with kernels.count_flops():
        multiply(plan, x)
    assert calls["forward_steps"] == 1 and calls["backward_steps"] == 2 and calls["pick"] > 0
    # at these ranks every step the pattern keeps but the push is batch-last
    p = plan.pattern
    assert all(isinstance(step, BatchLastGroup) for step in [p.cross, *p.forward, *p.coupling, *p.backward])
    calls.clear()
    with kernels.count_flops():
        y = multiply(plan, again)
    # no step builder, no gather: only the stacked products
    assert set(calls) <= {("forward", "matvec"), ("coupling", "matvec"), ("backward", "matvec")}
    assert 0 < calls[("coupling", "matvec")] == len(plan.pattern.coupling) <= len(plan.coupling)
    assert calls[("backward", "matvec")] == len(plan.pattern.backward)
    push, forward = len(plan.pattern.push), len(plan.pattern.forward)
    assert calls[("forward", "matvec")] == push + 1 + forward
    assert y.sub.leaves() == plan.pattern.sub.leaves()


@pytest.mark.filterwarnings("ignore:leaf_size raised")
@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    n=st.sampled_from([64, 128, 200]),
    k=st.integers(1, 4),
    ka=st.integers(1, 4),
    eta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["partial", "root", "full"]),
    steps=st.integers(0, 40),
)
def test_row_coupling_sums_equal_block_sums(dim, n, k, ka, eta, seed, kind, steps):
    inst = random_instance(n, k, ka, eta, seed, dim=dim)
    plan, tree = inst.plan, inst.tree
    # the rows are ragged: one group per count of leaf blocks, up to csp
    counts = [_batch_first(g)[0].shape[2] // ka for g in plan.coupling]
    # batch-last exactly where the matrices are tiny
    assert all(isinstance(g, BatchLastGroup) == (c * ka * ka <= kernels.TINY_ENTRIES)
               for g, c in zip(plan.coupling, counts))
    assert counts == sorted(set(counts)) and 1 <= counts[-1] <= inst.csp
    rows = np.concatenate([g.clusters for g in plan.coupling])
    assert np.array_equal(np.sort(rows), np.unique(plan.leaf_blocks.row))
    rng = np.random.default_rng(seed)
    if kind == "root":
        x = HVector.from_leaves(inst.input_basis, None, {tree.root: rng.standard_normal(k)})
    elif kind == "full":
        x = random_hvector(inst.input_basis, rng, sub=prefix_subtree(tree, tree.depth))
    else:
        x = random_hvector(inst.input_basis, rng, steps=steps)
    pattern = _pattern(plan, x.sub)
    xbar = rng.standard_normal((len(tree), ka))
    got = np.zeros((len(tree), ka))
    with kernels.count_flops() as stacked:
        run_steps(xbar.reshape(-1), pattern.coupling, add=False, out=got.reshape(-1))
    sub = reference.result_subtree(plan, x)
    assert sub.leaves() == pattern.sub.leaves()
    with kernels.count_flops() as walked:
        want = reference.coupling_sums(inst.matrix, sub, xbar)
    assert stacked.total == walked.total
    assert sorted(want) == sorted(t for g in pattern.coupling for t in g.clusters.tolist())
    # the rounding scale of each entry: the sum of its terms' magnitudes
    m = inst.matrix
    magnitude = H2Matrix(m.block_tree, m.row_basis, m.col_basis, np.abs(m.coupling))
    scale = reference.coupling_sums(magnitude, sub, np.abs(xbar))
    for t, v in want.items():
        assert np.all(np.abs(got[t] - v) <= 1e-14 * scale[t])
    outside = np.ones(len(tree), dtype=bool)
    outside[list(want)] = False
    assert not np.any(got[outside])
