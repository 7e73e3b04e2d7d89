"""The three benchmark workloads.

Each workload turns a seed into inputs (`generate`, plain NumPy, no
library call), builds the program state from them (`setup`, timed),
lists the distinct operation inputs (`cases`, untimed) and runs one
operation (`op`, timed).  `check` is the oracle for one operation's
output; it runs outside the timed region.  `digest` reduces an output
to bytes, so that repeated operations on the same case, and traced
against untraced runs, can be compared exactly.

Library functions are always called through their module
(``hvector.axpy``, not a name imported from it), so that the tracer's
wrappers see the calls.
"""

import hashlib
import importlib
from dataclasses import dataclass

import numpy as np

from h2vec import basis, demo, h2matrix, hvector, instances, matvec, tree

# h2vec re-exports the function `convert` under its module's name
convert = importlib.import_module("h2vec.convert")


def _digest_floats(h, values):
    h.update(np.asarray(values, dtype=np.float64).tobytes())


def _digest_vector(h, v):
    """Leaves and leaf coefficients of an HVector or InducedHVector."""
    leaves = v.sub.leaves()
    h.update(np.asarray(leaves, dtype=np.int64).tobytes())
    for i in leaves:
        _digest_floats(h, v.coeff[i])


def lshape_points(grid):
    """Interior grid points of the unit square minus [1/2, 1]^2,
    numbered row by row as the library's Poisson problem numbers them."""
    half = grid // 2
    j, i = np.mgrid[1:grid, 1:grid]
    keep = ~((i >= half) & (j >= half))
    return np.column_stack([i[keep], j[keep]]).astype(float) / grid


class Poisson64:
    """The paper's application: inverse iteration on the L-shape."""

    name = "poisson64"

    params = dict(grid=64, degree=3, eta=1.0, eps=1e-5, steps=20)

    def __init__(self, seed):
        self.seed = seed

    def generate(self):
        # the demo fixes its start vector; the seed selects nothing here
        return {}

    def setup(self, inputs):
        p = self.params
        return demo.PoissonDemo(grid=p["grid"], degree=p["degree"], eta=p["eta"])

    def cases(self, state, inputs):
        return [None]

    def op(self, state, case):
        return state.run(eps=self.params["eps"], steps=self.params["steps"])

    def digest(self, out):
        h = hashlib.sha256()
        _digest_floats(h, [out.eps, out.start_bound])
        for s in out.steps:
            _digest_floats(
                h, [s.step, s.nu_dense, s.nu_hier, s.conv_bound, s.cum_bound,
                    s.true_diff, s.tx, s.ty]
            )
            h.update(repr(sorted(s.flops.items())).encode())
        h.update(np.asarray(out.final_leaves, dtype=np.int64).tobytes())
        return h.hexdigest()

    def check(self, state, case, out):
        eps = self.params["eps"]
        errors = []
        for s in out.steps:
            if not s.true_diff <= s.cum_bound + 1e-12:
                errors.append(f"step {s.step}: true diff {s.true_diff:.3e} > bound {s.cum_bound:.3e}")
        last = out.steps[-1]
        if not abs(last.nu_hier - last.nu_dense) <= 10.0 * eps * abs(last.nu_dense):
            errors.append(f"eigenvalues differ: {last.nu_hier!r} vs {last.nu_dense!r}")
        areas = demo.partition_areas(state.tree, out.final_leaves, state.problem)
        if not abs(sum(areas.values()) - 0.75) <= 1e-9:
            errors.append(f"partition area {sum(areas.values())!r} != 0.75")
        return errors

    def clusters(self, out):
        return out.final_tx

    def inner_flops(self, out):
        """Per-step phase flops the demo counted with its own counter."""
        return [s.flops for s in out.steps]


class Matvec4096:
    """The product alone, on a random H2 matrix and a full-subtree input."""

    name = "matvec4096"

    params = dict(n=4096, k=3, ka=3, eta=1.0, vectors=3)

    def __init__(self, seed):
        self.seed = seed
        self._dense = None

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        p = self.params
        return {
            "instance_seed": self.seed,
            "vectors": rng.standard_normal((p["vectors"], p["n"])),
        }

    def setup(self, inputs):
        p = self.params
        return instances.random_instance(
            p["n"], p["k"], p["ka"], p["eta"], inputs["instance_seed"]
        )

    def cases(self, state, inputs):
        full = demo.full_subtree(state.tree)
        return [
            hvector.from_dense(v, state.input_basis, full)[0] for v in inputs["vectors"]
        ]

    def op(self, state, x):
        return matvec.multiply(state.plan, x)

    def digest(self, out):
        h = hashlib.sha256()
        _digest_vector(h, out)
        return h.hexdigest()

    def check(self, state, x, out):
        if self._dense is None:
            self._dense = h2matrix.to_dense(state.matrix)
        dense = self._dense
        ref = dense @ hvector.to_dense(x)
        got = matvec.induced_to_dense(out, dense)
        rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
        if not rel <= 1e-11:
            return [f"product differs from dense by {rel:.3e} relative"]
        return []

    def clusters(self, out):
        return out.sub.count()

    def inner_flops(self, out):
        return []


@dataclass
class AlgebraState:
    tree: object
    iso2: object
    iso3: object
    gram: object
    pf2: object
    pf3: object
    zf: object
    budget: object
    pool: list


@dataclass
class AlgebraOut:
    dot: float
    norm: float
    merged: object
    merge_bound: float
    converted: object
    convert_bound: float


class Algebra128:
    """Vector algebra, merging and basis conversion; no product."""

    name = "algebra128"

    params = dict(grid=128, leaf_size=64, eps=1e-5, pool=8, degrees=[2, 3])

    def __init__(self, seed):
        self.seed = seed

    def generate(self):
        """Points, a pool of smooth vectors and the operation list.

        Pool vector p is a trig product with fixed frequencies (so every
        seed gives vectors of like smoothness) and seeded phases, plus a
        seeded multiple of the corner singularity r^(2/3) sin(2θ/3) of
        the re-entrant corner (θ measured from the cut edge).
        """
        rng = np.random.default_rng([self.seed, 2])
        pts = lshape_points(self.params["grid"])
        x, y = pts[:, 0], pts[:, 1]
        r = np.hypot(x - 0.5, y - 0.5)
        theta = np.mod(np.arctan2(y - 0.5, x - 0.5) - 0.5 * np.pi, 2.0 * np.pi)
        corner = r ** (2.0 / 3.0) * np.sin(2.0 * theta / 3.0)
        size = self.params["pool"]
        pool = np.empty((size, pts.shape[0]))
        for p in range(size):
            kx, ky = 1 + p % 3, 1 + (p // 3) % 2
            phx, phy = rng.uniform(0.0, 2.0 * np.pi, 2)
            v = np.sin(kx * np.pi * x + phx) * np.cos(ky * np.pi * y + phy)
            v = v + rng.uniform(0.5, 1.5) * corner
            pool[p] = v / np.linalg.norm(v)
        pairs = [(a, b) for a in range(size) for b in range(size) if a != b]
        order = rng.permutation(len(pairs))
        alphas = rng.uniform(-1.0, 1.0, len(pairs))
        ops = [(pairs[j][0], pairs[j][1], float(alpha)) for j, alpha in zip(order, alphas)]
        return {"points": pts, "pool": pool, "ops": ops}

    def setup(self, inputs):
        pts = inputs["points"]
        t = tree.build_cluster_tree(pts, self.params["leaf_size"])
        lo, hi = self.params["degrees"]
        iso2, _ = basis.orthogonalize(basis.polynomial_basis(t, pts, lo))
        iso3, _ = basis.orthogonalize(basis.polynomial_basis(t, pts, hi))
        gram = basis.gram_family(iso2)
        pf2 = basis.coarsening_factors(iso2)
        pf3 = basis.coarsening_factors(iso3)
        zf = basis.projection_factors(iso2, iso3)
        budget = convert.ToleranceBudget(self.params["eps"])
        full = demo.full_subtree(t)
        pool = []
        for v in inputs["pool"]:
            x, _ = hvector.from_dense(v[t.perm], iso2, full)
            convert.coarsen_pass(x, pf2, budget)
            pool.append(x)
        return AlgebraState(t, iso2, iso3, gram, pf2, pf3, zf, budget, pool)

    def cases(self, state, inputs):
        return inputs["ops"]

    def op(self, state, case):
        a, b, alpha = case
        x = state.pool[a]
        y = state.pool[b].copy()
        hvector.axpy(alpha, x, y)
        d = hvector.dot(x, y, state.gram)
        nrm = hvector.norm(y, state.gram)
        hvector.scale(y, 1.0 / nrm)
        merge_bound = convert.coarsen_pass(y, state.pf2, state.budget)
        z, convert_bound, _ = convert.convert(y, state.iso3, state.zf, state.pf3, state.budget)
        return AlgebraOut(d, nrm, y, merge_bound, z, convert_bound)

    def digest(self, out):
        h = hashlib.sha256()
        _digest_floats(h, [out.dot, out.norm, out.merge_bound, out.convert_bound])
        _digest_vector(h, out.merged)
        _digest_vector(h, out.converted)
        return h.hexdigest()

    def check(self, state, case, out):
        """Replay the operation step by step against dense vectors."""
        a, b, alpha = case
        eps = self.params["eps"]
        errors = []
        x = state.pool[a]
        y = state.pool[b].copy()
        xd = hvector.to_dense(x)
        yd = hvector.to_dense(y)
        hvector.axpy(alpha, x, y)
        want = yd + alpha * xd
        sumd = hvector.to_dense(y)
        scale = np.linalg.norm(yd) + abs(alpha) * np.linalg.norm(xd)
        if not np.linalg.norm(sumd - want) <= 1e-12 * scale:
            errors.append(f"axpy off by {np.linalg.norm(sumd - want):.3e}")
        d = hvector.dot(x, y, state.gram)
        if not abs(d - xd @ sumd) <= 1e-12 * np.linalg.norm(xd) * np.linalg.norm(sumd):
            errors.append(f"dot off by {abs(d - xd @ sumd):.3e}")
        nrm = hvector.norm(y, state.gram)
        if not abs(nrm - np.linalg.norm(sumd)) <= 1e-12 * np.linalg.norm(sumd):
            errors.append(f"norm off by {abs(nrm - np.linalg.norm(sumd)):.3e}")
        hvector.scale(y, 1.0 / nrm)
        before = hvector.to_dense(y)
        merge_bound = convert.coarsen_pass(y, state.pf2, state.budget)
        errors += _bound_errors("coarsen_pass", hvector.to_dense(y) - before, merge_bound, eps)
        before = hvector.to_dense(y)
        z, convert_bound, _ = convert.convert(y, state.iso3, state.zf, state.pf3, state.budget)
        errors += _bound_errors("convert", hvector.to_dense(z) - before, convert_bound, eps)
        replay = AlgebraOut(d, nrm, y, merge_bound, z, convert_bound)
        if self.digest(replay) != self.digest(out):
            errors.append("replayed operation differs from the timed one")
        return errors

    def clusters(self, out):
        return out.merged.sub.count()

    def inner_flops(self, out):
        return []


def _bound_errors(what, diff, bound, eps):
    err = float(np.linalg.norm(diff))
    out = []
    if not err <= bound + 1e-12:
        out.append(f"{what}: dense error {err:.3e} > bound {bound:.3e}")
    if not bound <= eps:
        out.append(f"{what}: bound {bound:.3e} > eps {eps:.1e}")
    return out


WORKLOADS = {w.name: w for w in (Poisson64, Matvec4096, Algebra128)}
