"""Inverse-iteration demo on the L-shaped Poisson problem.

The stencil, assembled as its grid-row blocks, is inverted through
its block-tridiagonal Cholesky factorization into one dense n x n
array (the problem sizes here stay in the low thousands), compressed
into an H2 matrix over a geometric cluster tree with orthogonalized
tensor-polynomial bases, and used to drive twenty steps of inverse
iteration twice: first with plain dense vectors, then with
hierarchical vectors (product in the induced basis, adaptive
conversion back, normalization).  Every conversion reports an exact
error bound, and the demo tracks a certified bound on the distance
between the two iterates.

Every leaf block of the compressed operator is stored through the
leaf bases, so the operator is exactly L M L^T, with L the isometric,
block-diagonal matrix of the leaf matrices and M = L^T A L of order
(#leaves * rank).  The dense steps apply it in that form; set-up keeps
M and no n x n array.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import hvector, kernels
from .basis import (
    coarsening_factors,
    gram_family,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from .convert import ToleranceBudget, coarsen_pass, convert
from .h2matrix import build_block_tree, compress_dense, sparsity_constant
from .hvector import from_dense
from .matvec import build_plan, multiply
from .poisson import assemble_lshape, block_tridiagonal_inverse
from .tree import Subtree, build_cluster_tree

__all__ = [
    "PoissonDemo",
    "DemoRun",
    "DemoStep",
    "full_subtree",
    "cell_bounds",
    "partition_areas",
    "corner_concentration",
    "write_partition_svg",
]


def full_subtree(tree):
    """The subtree holding every cluster of the tree."""
    return Subtree.from_interior(tree, tree.has_sons)


@dataclass
class DemoStep:
    step: int
    nu_dense: float
    nu_hier: float
    conv_bound: float
    cum_bound: float
    true_diff: float
    tx: int  # clusters in the iterate's subtree after the step
    ty: int  # clusters in the product subtree before conversion
    commits: int  # clusters where the conversion committed a projection
    merges: int  # clusters whose sons the conversion merged again
    forced: int  # commits at tree leaves whose error exceeded the budget
    flops: dict
    # wall time per part: "dense" (the dense step: L M L^T x, its
    # Rayleigh quotient and normalization), "matvec", "convert",
    # "vector" (Rayleigh quotient, norm and scale) and "check" (the
    # dense expansion and the true difference)
    seconds: dict


@dataclass
class DemoRun:
    eps: float
    start_bound: float
    steps: list = field(default_factory=list)
    final_leaves: list = field(default_factory=list)

    @property
    def final_tx(self):
        return self.steps[-1].tx


class PoissonDemo:
    """Shared heavy setup for inverse-iteration runs at one grid size."""

    def __init__(self, grid=64, degree=3, eta=1.0):
        self.grid = grid
        self.degree = degree
        self.eta = eta
        self.problem = assemble_lshape(grid)
        n = len(self.problem.points)
        if n > 5000:
            raise ValueError(f"{n} unknowns is too large for dense inversion here")
        # midpoint boxes near the boundary hold down to a quarter of
        # the largest leaf count; keep the smallest above the rank
        leaf_size = 4 * (degree + 1) ** 2
        self.tree = build_cluster_tree(self.problem.points, leaf_size)
        nodal = polynomial_basis(self.tree, self.problem.points, degree)
        self.iso, _ = orthogonalize(nodal)
        self.gram = gram_family(self.iso)
        self.block_tree = build_block_tree(self.tree, self.tree, eta)
        self.csp = sparsity_constant(self.block_tree)
        inverse = block_tridiagonal_inverse(self.problem.diagonal, self.problem.below)
        permuted = inverse[np.ix_(self.tree.perm, self.tree.perm)]
        del inverse
        self.matrix, self.compression_error, expansion = compress_dense(
            permuted, self.iso, self.iso, self.block_tree
        )
        del permuted
        self.plan = build_plan(self.matrix, self.iso)
        self.zfactors = projection_factors(self.plan.induced, self.iso)
        self.pfactors = coarsening_factors(self.iso)
        # valid upper bound for the spectral norm of the compressed operator
        absolute = np.abs(expansion)
        self.op_norm = min(
            float(np.linalg.norm(expansion)),
            math.sqrt(absolute.sum(axis=0).max() * absolute.sum(axis=1).max()),
        )
        del absolute
        # M = L^T A L, leaf coefficients in leaf-group order
        self.leaf_operator = _leaf_form(expansion, self.iso.leaf_groups)

    def apply(self, x):
        """The compressed operator times the vector x (tree position
        order), computed as L (M (L^T x)).  Raises ValueError unless x
        has shape (n,) and finite entries."""
        n = self.tree.n
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"expected a vector of shape ({n},), got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("vector has non-finite entries")
        groups = self.iso.leaf_groups
        coefficients = np.concatenate(
            [(g.stack.transpose(0, 2, 1) @ x[g.target][:, :, None]).ravel() for g in groups]
        )
        product = self.leaf_operator @ coefficients
        out = np.empty(n)
        at = 0
        for g in groups:
            b, _, r = g.stack.shape
            out[g.target] = (g.stack @ product[at : at + b * r].reshape(b, r, 1))[:, :, 0]
            at += b * r
        return out

    def run(self, eps, steps=20):
        """Run dense and hierarchical inverse iteration from one start.

        The dense iteration, through apply, runs to completion first, so
        that its operator is not streamed between every two hierarchical
        steps; the hierarchical loop then reads its Rayleigh quotients,
        norms and iterates.  Raises ValueError unless steps is positive.
        """
        if steps < 1:
            raise ValueError(f"steps must be a positive count, got {steps}")
        n = self.tree.n
        budget = ToleranceBudget(eps)
        start = np.ones(n) / math.sqrt(n)
        dense = []
        xd = start
        for _ in range(steps):
            t0 = time.perf_counter()
            yd = self.apply(xd)
            nu_dense = float(xd @ yd)
            norm_yd = float(np.linalg.norm(yd))
            xd = yd / norm_yd
            dense.append((nu_dense, norm_yd, xd, time.perf_counter() - t0))
        xh, start_error = from_dense(start, self.iso, full_subtree(self.tree))
        start_error += coarsen_pass(xh, self.pfactors, budget)
        run = DemoRun(eps=eps, start_bound=start_error)
        delta = start_error
        for step, (nu_dense, norm_yd, xd, dense_seconds) in enumerate(dense, 1):
            t1 = time.perf_counter()
            with kernels.count_flops() as counter:
                product = multiply(self.plan, xh)
                t2 = time.perf_counter()
                with kernels.phase("convert"):
                    yh, conv_bound, report = convert(
                        product, self.iso, self.zfactors, self.pfactors, budget
                    )
                t3 = time.perf_counter()
            nu_hier = hvector.dot(xh, yh, self.gram) / hvector.dot(
                xh, xh, self.gram
            )
            norm_yh = hvector.norm(yh, self.gram)
            hvector.scale(yh, 1.0 / norm_yh)
            xh = yh
            t4 = time.perf_counter()
            # normalization is 2-Lipschitz relative to the larger norm;
            # both iterates are unit vectors, so their distance is at most 2
            delta = min(2.0, 2.0 * (self.op_norm * delta + conv_bound) / norm_yd)
            true_diff = float(np.linalg.norm(hvector.to_dense(xh) - xd))
            t5 = time.perf_counter()
            run.steps.append(
                DemoStep(
                    step=step,
                    nu_dense=nu_dense,
                    nu_hier=nu_hier,
                    conv_bound=conv_bound,
                    cum_bound=delta,
                    true_diff=true_diff,
                    tx=xh.sub.count(),
                    ty=product.sub.count(),
                    commits=len(report.commit_errors),
                    merges=len(report.merge_errors),
                    forced=len(report.forced),
                    flops=dict(counter.phases),
                    seconds={
                        "dense": dense_seconds,
                        "matvec": t2 - t1,
                        "convert": t3 - t2,
                        "vector": t4 - t3,
                        "check": t5 - t4,
                    },
                )
            )
        run.final_leaves = xh.sub.leaves()
        return run


def _leaf_form(a, leaf_groups):
    """L^T a L for the block-diagonal matrix L of the leaf matrices of
    the given leaf groups, with the leaf coefficients in group order:
    L^T b is taken from row slices of b, first of a, then of (L^T a)^T."""
    leaves = [(t[0], v) for g in leaf_groups for t, v in zip(g.target, g.stack)]

    def project(b):
        return np.concatenate([v.T @ b[begin : begin + len(v)] for begin, v in leaves])

    return project(project(a).T).T


def cell_bounds(grid):
    """Per-axis cell boundaries assigning each interior point a cell.

    Boundaries sit halfway between neighbouring points except at the
    domain edges and at the re-entrant cut, which is pinned to 1/2 so
    that the cells of excluded points tile the cut-out square exactly.
    """
    c = np.empty(grid)
    c[0] = 0.0
    for i in range(1, grid - 1):
        c[i] = (i + 0.5) / grid
    c[grid // 2 - 1] = 0.5
    c[grid - 1] = 1.0
    return c


def partition_areas(tree, leaf_ids, problem):
    """Exact area owned by each leaf cluster; the total is 3/4."""
    c = cell_bounds(problem.grid)
    width = {i: c[i] - c[i - 1] for i in range(1, problem.grid)}
    areas = {}
    for leaf in leaf_ids:
        total = 0.0
        for p in tree.indices(leaf):
            i, j = problem.site[p]
            total += width[i] * width[j]
        areas[leaf] = total
    return areas


def corner_concentration(tree, leaf_ids, problem, radius=0.125):
    """Mean leaf area near the re-entrant corner vs. elsewhere.

    A leaf counts as near when its bounding box comes within `radius`
    of the corner (1/2, 1/2).  Returns (near_mean, far_mean); either
    may be nan when its group is empty.
    """
    areas = partition_areas(tree, leaf_ids, problem)
    corner = np.array([0.5, 0.5])
    near = []
    far = []
    for leaf in leaf_ids:
        cl = tree.clusters[leaf]
        gap = np.maximum(0.0, np.maximum(cl.box_min - corner, corner - cl.box_max))
        (near if np.linalg.norm(gap) <= radius else far).append(areas[leaf])
    near_mean = float(np.mean(near)) if near else float("nan")
    far_mean = float(np.mean(far)) if far else float("nan")
    return near_mean, far_mean


def write_partition_svg(path, tree, leaf_ids, problem, size=640):
    """Tile the L-shape with per-point cells colored by leaf cluster."""
    c = cell_bounds(problem.grid)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for rank, leaf in enumerate(leaf_ids):
        hue = (rank * 137.508) % 360.0
        fill = f"hsl({hue:.1f},70%,65%)"
        for p in tree.indices(leaf):
            i, j = problem.site[p]
            x0, x1 = c[i - 1], c[i]
            y0, y1 = c[j - 1], c[j]
            lines.append(
                f'<rect x="{x0 * size:.2f}" y="{(1.0 - y1) * size:.2f}" '
                f'width="{(x1 - x0) * size:.2f}" height="{(y1 - y0) * size:.2f}" '
                f'fill="{fill}"/>'
            )
    for rank, leaf in enumerate(leaf_ids):
        cl = tree.clusters[leaf]
        pts = problem.site[tree.indices(leaf)]
        xs = [c[i - 1] for i, _ in pts] + [c[i] for i, _ in pts]
        ys = [c[j - 1] for _, j in pts] + [c[j] for _, j in pts]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        lines.append(
            f'<rect x="{x0 * size:.2f}" y="{(1.0 - y1) * size:.2f}" '
            f'width="{(x1 - x0) * size:.2f}" height="{(y1 - y0) * size:.2f}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
