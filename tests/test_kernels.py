import numpy as np
import pytest

from h2vec import kernels
from h2vec.instances import line_tree, random_iso_basis


def _qr(a):
    """Thin QR of one matrix by qr_stack: (q, r)."""
    q, r = kernels.qr_stack(np.asarray(a, dtype=float)[None])
    return q[0], r[0]


def _complete(a):
    """ReflectorStack of the complete orthogonal factor of a QR of a."""
    return kernels.ReflectorStack(np.linalg.qr(a, mode="complete")[0], a.shape[1])


def test_identity_columns_triangularize_to_identity():
    a = np.eye(3)[:, :2]
    q, r = _qr(a)
    assert np.allclose(r, np.eye(2), atol=1e-15)
    assert np.allclose(q, a, atol=1e-15)


def test_column_norm_single_column():
    _, r = _qr(np.array([[3.0], [4.0]]))
    assert abs(r[0, 0] - 5.0) < 1e-14


def test_reconstruction_oracle(rng):
    a = rng.standard_normal((6, 3))
    q, r = _qr(a)
    rebuilt = q @ r
    assert np.max(np.abs(rebuilt - a)) <= 1e-13
    assert np.min(np.diagonal(r)) >= 0.0


@pytest.mark.parametrize("seed", range(20))
def test_reconstruction_many_shapes(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    n = int(rng.integers(1, m + 1))
    a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
    q, r = _qr(a)
    scale = max(1.0, np.max(np.abs(a)))
    assert np.max(np.abs(q @ r - a)) <= 1e-12 * scale
    assert np.min(np.diagonal(r)) >= 0.0


def test_isometric_input_reproduces_itself(rng):
    q = np.linalg.qr(rng.standard_normal((9, 4)))[0]
    thin, r = _qr(q)
    assert np.max(np.abs(r - np.eye(4))) <= 1e-12
    assert np.max(np.abs(thin - q)) <= 1e-12


def test_apply_adjoint_range_membership(rng):
    q = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    stack = _complete(q)
    y = rng.standard_normal(3)
    out = stack.apply_adjoint(q @ y)
    assert np.max(np.abs(out[3:])) <= 1e-13


def test_apply_adjoint_preserves_norm(rng):
    a = rng.standard_normal((12, 5))
    stack = _complete(a)
    x = rng.standard_normal(12)
    assert abs(np.linalg.norm(stack.apply_adjoint(x)) - np.linalg.norm(x)) <= (
        1e-13 * np.linalg.norm(x)
    )


def test_factor_is_orthogonal(rng):
    for shape in [(1, 1), (7, 3), (12, 12), (5, 0), (3, 7)]:
        q, _ = _qr(rng.standard_normal(shape))
        k = min(shape)
        assert q.shape == (shape[0], k)
        assert np.max(np.abs(q.T @ q - np.eye(k)), initial=0.0) <= 1e-13


@pytest.mark.parametrize("shape", [(5, 7, 3), (4, 6, 6), (3, 9, 0), (1, 4, 2), (0, 5, 2)])
def test_qr_stack_is_qr_per_slice(rng, shape):
    a = rng.standard_normal(shape)
    with kernels.count_flops() as counter:
        q, r = kernels.qr_stack(a)
    for j in range(shape[0]):
        with kernels.count_flops() as one:
            qj, rj = kernels.qr_stack(a[j : j + 1])
        assert counter.total == shape[0] * one.total
        assert np.array_equal(q[j], qj[0])
        assert np.array_equal(r[j], rj[0])


@pytest.mark.parametrize("shape", [(5, 7, 3), (4, 6, 6), (3, 4, 9), (2, 1, 5), (3, 9, 0), (0, 5, 2)])
def test_thin_qr_stack_factors_any_shape(rng, shape):
    a = rng.standard_normal(shape)
    b, m, n = shape
    k = min(m, n)
    with kernels.count_flops() as counter:
        q, r = kernels.qr_stack(a)
    assert q.shape == (b, m, k) and r.shape == (b, k, n)
    assert counter.total == b * (m * n * k + m * k * n)
    assert np.max(np.abs(q @ r - a), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(a), initial=0.0))
    assert np.max(np.abs(q.transpose(0, 2, 1) @ q - np.eye(k)), initial=0.0) <= 1e-13
    assert np.all(np.tril(r, -1) == 0.0) and np.all(np.diagonal(r, axis1=1, axis2=2) >= 0.0)


def test_qr_stack_rejects_bad_input():
    for bad in (np.nan, np.inf):
        a = np.ones((3, 4, 2))
        a[2, 1, 0] = bad
        with pytest.raises(ValueError, match="^non-finite entries in input$"):
            kernels.qr_stack(a)
    with pytest.raises(ValueError, match="^expected a stack of matrices$"):
        kernels.qr_stack(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="^non-finite entries in input$"):
        kernels.triangular_factor(np.array([[1.0, np.inf]]))


def _complement(q):
    """Trailing columns of the orthogonal factor of an isometric q."""
    return _complete(q).apply_adjoint(np.eye(q.shape[0]))[q.shape[1] :].T


def test_complement_identity_small():
    p = _complement(np.eye(2)[:, :1])
    assert np.allclose(np.abs(p[:, 0]), [0.0, 1.0], atol=1e-15)


def test_complement_2d():
    s = 1.0 / np.sqrt(2.0)
    p = _complement(np.array([[s], [s]])).ravel()
    assert np.allclose(np.abs(p), [s, s], atol=1e-14)
    assert abs(p[0] + p[1]) <= 1e-14  # orthogonal to the input column


def test_complement_dense_identities(rng):
    q = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    p = _complement(q)
    assert np.max(np.abs(p.T @ p - np.eye(5))) <= 1e-12
    assert np.max(np.abs(p.T @ q)) <= 1e-12
    assert np.max(np.abs(q @ q.T + p @ p.T - np.eye(8))) <= 1e-12


def test_qr_flop_tallies(rng):
    a = rng.standard_normal((9, 4))
    with kernels.count_flops() as counter:
        _qr(a)
    assert counter.total == 9 * 4 * (4 + 4)
    with kernels.count_flops() as counter:
        kernels.triangular_factor(a)
    assert counter.total == 9 * 4 * 4
    with kernels.count_flops() as counter:
        kernels.triangular_factor(a.T)
    assert counter.total == 4 * 9 * 4
    stack = _complete(a)
    with kernels.count_flops() as counter:
        stack.apply_adjoint(rng.standard_normal(9))
    assert counter.total == 9 * 9
    with kernels.count_flops() as counter:
        stack.apply_adjoint(rng.standard_normal((9, 3)))
    assert counter.total == 9 * 9 * 3


def test_orthogonalized_leaves_hold_no_larger_array(rng):
    # a view into a QR's factors would keep them alive as long as the
    # basis: the leaf store holds exactly the entries of the leaf matrices
    tree = line_tree(64, 8)
    iso = random_iso_basis(tree, 3, rng)
    owners = set()
    for leaf in tree.leaves():
        owner = iso.leaf_matrix[leaf]
        while owner.base is not None:
            owner = owner.base
        owners.add(id(owner))
    assert len(owners) == 1
    assert owner.size == sum(iso.leaf_matrix[leaf].size for leaf in tree.leaves())


def test_matvec_identity():
    x = np.array([1.0, -2.0])
    assert np.allclose(kernels.matvec(np.eye(2), x), x)


def test_counter_exact_for_matvec_and_matmul(rng):
    a = rng.standard_normal((4, 7))
    x = rng.standard_normal(7)
    b = rng.standard_normal((7, 5))
    with kernels.count_flops() as counter:
        kernels.matvec(a, x)
    assert counter.total == 4 * 7
    with kernels.count_flops() as counter:
        kernels.matmul(a, b)
    assert counter.total == 4 * 7 * 5
    with kernels.count_flops() as counter:
        kernels.axpy(2.0, x, x)
    assert counter.total == 7


def test_stacked_matmul_matches_separate_products(rng):
    a = rng.standard_normal((6, 4, 7))
    b = rng.standard_normal((6, 7, 5))
    with kernels.count_flops() as counter:
        out = kernels.matmul(a, b)
    assert counter.total == 6 * 4 * 7 * 5
    for j in range(6):
        assert np.array_equal(out[j], kernels.matmul(a[j], b[j]))
    with pytest.raises(ValueError):
        kernels.matmul(a, b[:5])
    with pytest.raises(ValueError):
        kernels.matmul(a, b[0])


STACK_SHAPES = [(3, 3), (4, 3), (8, 8), (9, 9), (16, 16), (64, 3)]


def assert_matches_separate_products(a, x, out):
    # einsum and BLAS may sum in another order: compare within the
    # rounding scale |a[j]| |x[j]| rather than bit for bit
    assert out.shape == a.shape[:2]
    for j in range(len(a)):
        scale = np.abs(a[j]) @ np.abs(x[j])
        assert np.all(np.abs(out[j] - a[j] @ x[j]) <= 1e-15 * scale)


@pytest.mark.parametrize("shape", STACK_SHAPES)
def test_stacked_matvec_matches_separate_products(rng, shape):
    # 3 x 3 to 8 x 8 take the einsum branch, 9 x 9 and up the @ branch
    a = rng.standard_normal((40, *shape))
    x = rng.standard_normal((40, shape[1]))
    with kernels.count_flops() as counter:
        out = kernels.matvec(a, x)
    assert counter.total == a.size
    assert_matches_separate_products(a, x, out)


@pytest.mark.parametrize("shape", [(3, 3), (16, 16)])
def test_stacked_matvec_of_a_transposed_view(rng, shape):
    # a non-contiguous operand on each branch
    a = rng.standard_normal((25, *shape[::-1])).transpose(0, 2, 1)
    assert not a.flags.c_contiguous
    x = rng.standard_normal((25, shape[1]))
    with kernels.count_flops() as counter:
        out = kernels.matvec(a, x)
    assert counter.total == a.size
    assert_matches_separate_products(a, x, out)


@pytest.mark.parametrize("shape", [(3, 3), (16, 16)])
def test_empty_stacked_matvec(shape):
    with kernels.count_flops() as counter:
        out = kernels.matvec(np.zeros((0, *shape)), np.zeros((0, shape[1])))
    assert out.shape == (0, shape[0])
    assert counter.total == 0


@pytest.mark.parametrize("shape", [(3, 3), (16, 16)])
def test_stacked_matvec_shape_mismatch(shape):
    a = np.zeros((5, *shape))
    with pytest.raises(ValueError, match="matvec shape mismatch"):
        kernels.matvec(a, np.zeros((4, shape[1])))
    with pytest.raises(ValueError, match="matvec shape mismatch"):
        kernels.matvec(a, np.zeros((5, shape[1] + 1)))
    with pytest.raises(ValueError, match="matvec shape mismatch"):
        kernels.matvec(a, np.zeros(shape[1]))


@pytest.mark.parametrize("b", [1, 2, 513])
def test_batch_last_matvec_matches_matvec(rng, b):
    # every shape of at most TINY_ENTRIES entries with sides up to 8
    shapes = [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= kernels.TINY_ENTRIES]
    assert len(shapes) == 64
    for m, n in shapes:
        a = rng.standard_normal((b, m, n))
        x = rng.standard_normal((b, n))
        with kernels.count_flops() as first:
            want = kernels.matvec(a, x)
        with kernels.count_flops() as counter:
            out = kernels.matvec(np.ascontiguousarray(a.transpose(1, 2, 0)), np.ascontiguousarray(x.T), batch_last=True)
        assert counter.total == first.total == b * m * n
        assert out.shape == (m, b)
        # each entry within 1e-15 of its sum of term magnitudes
        scale = np.einsum("bij,bj->bi", np.abs(a), np.abs(x))
        assert np.all(np.abs(out.T - want) <= 1e-15 * scale)


def test_batch_last_matvec_shape_mismatch():
    a = np.zeros((3, 4, 5))
    for x in (np.zeros((4, 6)), np.zeros((3, 5)), np.zeros(4), np.zeros((4, 5, 1))):
        with pytest.raises(ValueError, match="matvec shape mismatch"):
            kernels.matvec(a, x, batch_last=True)
    # a batch-first stack and vectors are refused too
    with pytest.raises(ValueError, match="matvec shape mismatch"):
        kernels.matvec(np.zeros((3, 4, 5)), np.zeros((3, 5)), batch_last=True)
    with pytest.raises(ValueError, match="matvec shape mismatch"):
        kernels.matvec(np.zeros((4, 5)), np.zeros(5), batch_last=True)


def test_counter_phases_and_reset():
    with kernels.count_flops() as counter:
        with kernels.phase("one"):
            kernels.vdot(np.ones(3), np.ones(3))
        with kernels.phase("two"):
            kernels.vdot(np.ones(5), np.ones(5))
    assert counter.phases == {"one": 3, "two": 5}
    counter.reset()
    assert counter.total == 0 and counter.phases == {}


def test_shape_mismatch_errors():
    with pytest.raises(ValueError):
        kernels.matvec(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        kernels.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kernels.axpy(1.0, np.zeros(2), np.zeros(3))


def test_triple_product_associativity(rng):
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 6))
    c = rng.standard_normal((6, 3))
    left = kernels.matmul(kernels.matmul(a, b), c)
    right = kernels.matmul(a, kernels.matmul(b, c))
    assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))


def test_triangular_factor_shapes(rng):
    wide = rng.standard_normal((2, 5))
    r = kernels.triangular_factor(wide)
    assert r.shape == (2, 5)
    assert np.max(np.abs(r.T @ r - wide.T @ wide)) <= 1e-12
    empty = kernels.triangular_factor(np.zeros((0, 4)))
    assert empty.shape == (0, 4)
