"""Quick oracle suites over all modules, used by the command line.

The kernels suite checks the stacked kernels on random matrices.  Each
other suite checks one module on one small random instance against
dense matrices and vectors expanded here, and every suite returns a
list of (ok, message) pairs, one per check.
"""

import numpy as np

from . import hvector, kernels
from .basis import coarsening_factors, gram_family, orthogonalize, projection_factors
from .convert import ToleranceBudget, convert
from .h2matrix import to_dense
from .instances import random_hvector, random_instance
from .matvec import induced_to_dense, multiply

__all__ = ["run_selftest"]


def _close(got, want, tol=1e-11):
    """Equal within tol relative to the largest entry of want, or 1."""
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.subtract(got, want)))) <= tol * scale


def _expand(basis):
    """Every cluster's dense matrix V_t: the leaf matrix at a leaf, and
    above it the stack of V_s E_s over the sons s."""
    tree, dense = basis.tree, {}
    for i in tree.post_order.tolist():
        sons = tree.sons(i)
        dense[i] = np.vstack([dense[s] @ basis.transfer[s] for s in sons]) if sons else basis.leaf_matrix[i]
    return dense


def _dense_vector(x, dense):
    """The vector x represents: V_s x_s at the positions of each leaf s."""
    v = np.zeros(x.basis.tree.n)
    for s in x.sub.leaves():
        v[x.basis.tree.positions(s)] = dense[s] @ x.coeff[s]
    return v


def _suite_kernels(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 9, 4))
    q, r = kernels.qr_stack(a)
    ones = [kernels.qr_stack(one[None]) for one in a]
    checks = [
        (np.max(np.abs(q @ r - a)) < 1e-12, "qr reconstruction"),
        (np.min(np.diagonal(r, axis1=1, axis2=2)) >= 0.0, "non-negative diagonal"),
        (np.max(np.abs(q.transpose(0, 2, 1) @ q - np.eye(4))) < 1e-13, "orthonormal columns"),
        (
            all(np.array_equal(q[j], qj[0]) and np.array_equal(r[j], rj[0]) for j, (qj, rj) in enumerate(ones)),
            "stacked qr matches one-matrix qr",
        ),
    ]
    with kernels.count_flops() as counter:
        kernels.matvec(np.zeros((5, 7)), np.zeros(7))
    checks.append((counter.total == 35, "matvec flop count"))
    # one stack on each of the kernel's branches, einsum and @
    ok = True
    for size in (3, 16):
        a = rng.standard_normal((6, size, size))
        v = rng.standard_normal((6, size))
        out = kernels.matvec(a, v)
        for j in range(6):
            error = np.abs(out[j] - a[j] @ v[j])
            ok &= bool(np.all(error <= 1e-15 * (np.abs(a[j]) @ np.abs(v[j]))))
    checks.append((ok, "stacked matvec matches separate products"))
    return checks


def _suite_tree(tree, points):
    # member[i, p]: position p lies in cluster i
    p = np.arange(tree.n)
    member = (tree.begin[:, None] <= p) & (p < (tree.begin + tree.sizes)[:, None])
    sons = np.zeros(member.shape, dtype=int)
    np.add.at(sons, tree.father[1:], member[1:])
    leaves, at = ~tree.has_sons, points[tree.perm]
    inside = (np.all((tree.box_min[i] <= at[m]) & (at[m] <= tree.box_max[i])) for i, m in enumerate(member))
    return [
        (np.array_equal(np.sort(tree.perm), p), "perm is a permutation"),
        (np.array_equal(sons[tree.has_sons], member[tree.has_sons]), "sons partition their father"),
        (np.array_equal(member[leaves].sum(0), np.ones(tree.n)), "leaves partition the positions"),
        (np.unique(tree.level[leaves]).size == 1, "leaves on one level"),
        (tree.sizes[leaves].max() <= tree.leaf_size, "leaves within the leaf size"),
        (all(inside), "boxes hold their points"),
    ]


def _suite_basis(inst):
    # the input basis is isometric; the row basis is not
    basis = inst.matrix.row_basis
    iso, change = orthogonalize(basis)
    given, v, q, gram = _expand(inst.input_basis), _expand(basis), _expand(iso), gram_family(basis)
    return [
        (all(_close(m.T @ m, np.eye(m.shape[1])) for m in given.values()), "isometric input basis"),
        (all(_close(m.T @ m, np.eye(m.shape[1])) for m in q.values()), "orthogonalize: isometric"),
        (all(_close(q[i] @ change[i], v[i]) for i in v), "orthogonalize: same ranges"),
        (all(_close(gram[i], v[i].T @ v[i]) for i in v), "gram family"),
    ]


def _suite_hvector(inst, rng, factors):
    tree, dense = inst.tree, _expand(inst.input_basis)
    x = random_hvector(inst.input_basis, rng, steps=3)
    y = random_hvector(inst.input_basis, rng, steps=2)
    dx = _dense_vector(x, dense)
    dy = _dense_vector(y, dense) + 0.5 * dx
    hvector.axpy(0.5, x, y)
    checks = [
        (_close(hvector.to_dense(x), dx), "to_dense"),
        (_close(_dense_vector(y, dense), dy), "axpy"),
        (_close(hvector.dot(x, y), dx @ dy), "dot"),
        (_close(hvector.norm(y), np.linalg.norm(dy)), "norm"),
    ]
    # merge the first cluster whose sons are all leaves: the merged
    # coefficient is V_f^T x|_f and the error the distance to its range
    f = next(i for i in x.sub.members() if not x.sub.is_leaf(i) and all(map(x.sub.is_leaf, tree.sons(i))))
    part = dx[tree.positions(f)]
    merged = dense[f].T @ part
    error = hvector.coarsen(x, f, factors)
    checks.append((_close(x.coeff[f], merged), f"merged coefficient at {f}"))
    checks.append((_close(error, np.linalg.norm(part - dense[f] @ merged)), f"merge error at {f}"))
    return checks


def _suite_h2(inst, rng):
    dense = to_dense(inst.matrix)
    checks = []
    # the full subtree makes every leaf block take part
    for target in (None, len(inst.tree)):
        x = random_hvector(inst.input_basis, rng, steps=None if target else 3, target=target)
        y = multiply(inst.plan, x)
        want = dense @ hvector.to_dense(x)
        got = induced_to_dense(y, dense)
        tx = x.sub.count()
        checks.append((np.linalg.norm(got - want) < 1e-11 * max(1.0, np.linalg.norm(want)), f"product exact, tx {tx}"))
        checks.append((y.sub.count() <= inst.csp * tx, f"subtree bound, tx {tx}"))
    return checks


def _suite_convert(inst, rng, factors):
    # rank-sized leaves keep the deepest-level projections exact; at
    # eps 0.5 and 0.1 the conversion commits above the leaves (and at
    # some seeds merges), at 1e-8 it keeps every leaf; the vector has
    # norm 1
    zfac = projection_factors(inst.plan.induced, inst.input_basis)
    y = multiply(inst.plan, random_hvector(inst.input_basis, rng, steps=3))
    hvector.scale(y, 1.0 / np.linalg.norm(hvector.to_dense(y)))
    target = hvector.to_dense(y)
    checks = []
    for eps in (0.5, 0.1, 1e-8):
        converted, bound, _ = convert(y, inst.input_basis, zfac, factors, ToleranceBudget(eps))
        err = float(np.linalg.norm(hvector.to_dense(converted) - target))
        checks.append((err <= bound + 1e-12, f"bound sound at eps {eps:g}"))
        checks.append((bound <= eps, f"bound under budget at eps {eps:g}"))
        # the bound is the true error, but for the dense expansions' rounding
        checks.append((abs(bound - err) <= 1e-10 * err + 1e-13, f"bound exact at eps {eps:g}"))
    return checks


def run_selftest(seed=0, verbose=True):
    """Run all suites; returns the number of failed checks."""
    inst = random_instance(96, 3, 2, 1.0, seed, leaf_size=3)
    rng = np.random.default_rng(seed)
    factors = coarsening_factors(inst.input_basis)
    suites = [
        ("kernels", _suite_kernels(seed)),
        ("tree", _suite_tree(inst.tree, np.linspace(0.0, 1.0, inst.tree.n)[:, None])),
        ("basis", _suite_basis(inst)),
        ("hvector", _suite_hvector(inst, rng, factors)),
        ("h2matrix/matvec", _suite_h2(inst, rng)),
        ("convert", _suite_convert(inst, rng, factors)),
    ]
    failed = 0
    for name, checks in suites:
        messages = [message for ok, message in checks if not ok]
        failed += len(messages)
        if verbose:
            status = "FAILED" if messages else "ok"
            print(f"{name:18s} {len(checks) - len(messages):3d} passed {len(messages):3d} failed  {status}")
            for message in messages:
                print(f"    {message}")
    return failed
