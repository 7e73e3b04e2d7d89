"""Inverse-iteration demo on the L-shaped Poisson problem.

The inverse of the stencil, assembled as its grid-row blocks, is
compressed into an H2 matrix over a geometric cluster tree with
orthogonalized tensor-polynomial bases, and used to drive twenty steps
of inverse iteration twice: first with plain dense vectors, then with
hierarchical vectors (product in the induced basis, adaptive
conversion back, normalization).  Set-up factors the induced basis by
nested_orthogonalize into an isometric basis at the ranks nestedness
allows (32 to 128 where the induced ranks reach 320 at grid 64), and
each step maps its product exactly into that basis's coordinates, by
one stacked product per group of the factors at the product's leaves,
and converts from there: the map and the conversion form the
"convert" phase.  Every conversion reports an exact error bound, and
the demo tracks a certified bound on the distance between the two
iterates.

Every leaf block of the compressed operator is stored through the
leaf bases, so the operator is exactly L M L^T, with L the isometric,
block-diagonal matrix of the leaf matrices and M of order
K = #leaves * rank.  Set-up never forms an n x n array: block solves
through the stencil's block Cholesky factor give M0 = L^T A^-1 L a few
leaves at a time; since V_t = L_t E_t, with E_t stacking the transfer
products from t's leaves up to t, the coupling of a leaf block (t, s)
is E_t^T M0[t, s] E_s (Börm, Efficient Numerical Methods for Non-local
Operators, 2010), and M takes M0's place, block by block.  M0 is
symmetric, so both are built from one triangle: the solves of the
leaves in the order of the lowest grid row they touch run through the
trailing blocks of the factor and give M0's blocks with the leaves of
later chunks only, and each pair of leaf blocks (t, s), (s, t) is
projected once.  The compression is a Frobenius-orthogonal
projection, so its error is sqrt(||A^-1||_F^2 - sum of the squared
coupling norms), with ||A^-1||_F^2 = trace((A^2)^-1) from the blocks,
computed on the first read of compression_error.  setup_seconds
keeps the wall time of each set-up stage.  The dense steps apply
the operator as L (M (L^T x)); set-up keeps M, of K^2 floats, and
refuses an order above MAX_LEAF_ORDER, from the points and the
cluster tree alone, before any stencil block is built.
"""

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hvector, kernels
from .basis import (
    coarsening_factors,
    nested_orthogonalize,
    orthogonalize,
    polynomial_basis,
    projection_factors,
)
from .convert import CoordinateMap, ToleranceBudget, coarsen_pass, convert
from .h2matrix import H2Matrix, build_block_tree, sparsity_constant
from .hvector import from_dense
from .matvec import build_plan, multiply
from .poisson import (
    assemble_lshape,
    block_cholesky,
    block_solve,
    inverse_square_trace,
    lshape_sites,
)
from .tree import Subtree, build_cluster_tree, _check_integer

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


# the leaf operator M holds K^2 floats for K = #leaves * rank: 537 MB
# at this order, 134 MB at grid 128 (K = 4,096), 2.1 GB at grid 256
MAX_LEAF_ORDER = 8192


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
    # Rayleigh quotient and normalization), "matvec", "convert" (the
    # map to the nested basis and the conversion), "vector" (Rayleigh
    # quotient, norm and scale) and "check" (the
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
    """Shared heavy setup for inverse-iteration runs at one grid size.

    grid is an even integer >= 4 and degree, the Legendre degree of the
    bases, an integer >= 0 (NumPy integers too, not bools), refused
    with ValueError otherwise.  setup_seconds maps each set-up stage, in
    order, to its wall time in seconds.
    """

    def __init__(self, grid=64, degree=3, eta=1.0):
        _check_integer(degree, "degree", 0)
        self.grid = grid
        self.degree = degree
        self.eta = eta
        self.setup_seconds = {}
        lap = _stopwatch(self.setup_seconds)
        _, points = lshape_sites(grid)
        rank = (degree + 1) ** 2
        # midpoint boxes near the boundary hold down to a quarter of
        # the largest leaf count; keep the smallest above the rank
        self.tree = build_cluster_tree(points, 4 * rank)
        order = len(self.tree.leaves()) * rank
        if order > MAX_LEAF_ORDER:
            raise ValueError(
                f"{self.tree.n} unknowns need a leaf operator of order {order} "
                f"({8 * order**2 / 1e6:.0f} MB), above the limit of order {MAX_LEAF_ORDER}"
            )
        lap("tree")
        # the stencil blocks only once the order is known to be allowed
        self.problem = assemble_lshape(grid)
        lap("stencil")
        nodal = polynomial_basis(self.tree, self.problem.points, degree)
        self.iso, _ = orthogonalize(nodal)
        lap("bases")
        self.block_tree = build_block_tree(self.tree, self.tree, eta)
        self.csp = sparsity_constant(self.block_tree)
        lap("block_tree")
        self._leaf_entries, first, end = _leaf_layout(self.iso)
        self.leaf_operator = _leaf_inverse(self.problem, self.iso, first, end)
        lap("leaf_inverse")
        coupling, self._coupling_sumsq = _project_in_place(self.leaf_operator, self.iso, self.block_tree, first, end)
        self.matrix = H2Matrix(self.block_tree, self.iso, self.iso, coupling)
        # an upper bound on the spectral norm of L M L^T: ||M||_F, as
        # each leaf block's region of M is E_t S E_s^T with E_t, E_s
        # orthonormal
        self.op_norm = math.sqrt(self._coupling_sumsq)
        lap("projection")
        self.plan = build_plan(self.matrix, self.iso)
        lap("plan")
        self.nested, change = nested_orthogonalize(self.plan.induced)
        self.to_nested = CoordinateMap(change)
        lap("nested")
        self.zfactors = projection_factors(self.nested, self.iso)
        lap("projection_factors")
        self.pfactors = coarsening_factors(self.iso)
        lap("merge_factors")

    @cached_property
    def compression_error(self):
        """The Frobenius norm of A^-1 less the compressed operator,
        computed on first read: the compression is a Frobenius-orthogonal
        projection of A^-1, so its square is ||A^-1||_F^2 less the sum
        of the squared coupling norms."""
        square = inverse_square_trace(self.problem.diagonal, self.problem.below)
        return math.sqrt(max(square - self._coupling_sumsq, 0.0))

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
        coefficients = np.empty(len(self.leaf_operator))
        for g, at in zip(self.iso.leaf_matrix.groups, self._leaf_entries):
            coefficients[at] = g.stack.transpose(0, 2, 1) @ x[g.target][:, :, None]
        product = self.leaf_operator @ coefficients
        out = np.empty(n)
        for g, at in zip(self.iso.leaf_matrix.groups, self._leaf_entries):
            out[g.target] = (g.stack @ product[at])[:, :, 0]
        return out

    def run(self, eps, steps=20):
        """Run dense and hierarchical inverse iteration from one start.

        The dense iteration, through apply, runs to completion first, so
        that its operator is not streamed between every two hierarchical
        steps; the hierarchical loop then reads its Rayleigh quotients,
        norms and iterates.  Raises ValueError unless steps is an integer
        >= 1 (a NumPy integer too, not a bool).
        """
        try:
            _check_integer(steps, "steps", 1)
        except ValueError:
            raise ValueError(f"steps must be a positive count, got {steps!r}") from None
        n = self.tree.n
        budget = ToleranceBudget(eps)
        start = np.ones(n) / math.sqrt(n)
        dense = []
        xd = start
        for _ in range(steps):
            t0 = time.perf_counter()
            yd = self.apply(xd)
            # NumPy's own sums, not BLAS (see hvector.from_dense)
            nu_dense = float(np.einsum("i,i->", xd, yd))
            norm_yd = math.sqrt(np.einsum("i,i->", yd, yd))
            xd = yd / norm_yd
            dense.append((nu_dense, norm_yd, xd, time.perf_counter() - t0))
        xh, projected = from_dense(start, self.iso, full_subtree(self.tree))
        # the projection's error is orthogonal to the merges' errors
        start_error = math.hypot(projected, coarsen_pass(xh, self.pfactors, budget))
        run = DemoRun(eps=eps, start_bound=start_error)
        delta = start_error
        for step, (nu_dense, norm_yd, xd, dense_seconds) in enumerate(dense, 1):
            t1 = time.perf_counter()
            with kernels.count_flops() as counter:
                product = multiply(self.plan, xh)
                t2 = time.perf_counter()
                with kernels.phase("convert"):
                    yh, conv_bound, report = convert(
                        self.to_nested(product), self.iso, self.zfactors, self.pfactors, budget
                    )
                t3 = time.perf_counter()
            nu_hier = hvector.dot(xh, yh) / hvector.dot(xh, xh)
            norm_yh = hvector.norm(yh)
            hvector.scale(yh, 1.0 / norm_yh)
            xh = yh
            t4 = time.perf_counter()
            # normalization is 2-Lipschitz relative to the larger norm;
            # both iterates are unit vectors, so their distance is at most 2
            delta = min(2.0, 2.0 * (self.op_norm * delta + conv_bound) / norm_yd)
            diff = hvector.to_dense(xh) - xd
            true_diff = math.sqrt(np.einsum("i,i->", diff, diff))
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


def _stopwatch(seconds):
    """A function that, called with a stage's name, records in seconds
    the wall time since the previous call, or since this one."""
    last = time.perf_counter()

    def lap(stage):
        nonlocal last
        now = time.perf_counter()
        seconds[stage] = now - last
        last = now

    return lap


def _leaf_layout(basis):
    """Leaf coefficients in tree position order: per leaf group the
    (b, r, 1) entries of its leaves, and per cluster the first and end
    entries of its leaves, which are contiguous in that order."""
    tree = basis.tree
    leaves = np.flatnonzero(~tree.has_sons)
    leaves = leaves[np.argsort(tree.begin[leaves])]
    at = np.concatenate([[0], np.cumsum(np.diff(basis.ptr)[leaves])])
    # the leaves of a cluster are those that begin in its positions
    first, end = at[np.searchsorted(tree.begin[leaves], (tree.begin, tree.begin + tree.sizes))]
    entries = [
        (first[g.clusters][:, None] + np.arange(g.stack.shape[2]))[:, :, None]
        for g in basis.leaf_matrix.groups
    ]
    return entries, first, end


def _leaf_inverse(problem, basis, first, end):
    """M0 = L^T A^-1 L, with L the block-diagonal matrix of the leaf
    matrices, leaf coefficients laid out by first and end, from one
    triangle.  The leaves run in the order of the lowest grid row they
    touch, about 256 leaf coefficients at a time.  A chunk's right-hand
    sides vanish above its first leaf's lowest row, so its block solve
    runs through the trailing blocks of the stencil's block Cholesky
    factor, those of the trailing Schur complement, and gives the rows
    of A^-1 L from there down, bit for bit as a full solve would.  Those
    rows give M0's blocks between the chunk's leaves and those of later
    chunks, written with their transposes.  Every leaf has the basis's
    rank r, so M0 is written as an array of r x r blocks, one per pair
    of leaves."""
    tree, r = basis.tree, basis.rank
    factor = block_cholesky(problem.diagonal, problem.below)
    starts = np.array([span.start for span in factor.spans])
    count = end[tree.root] // r
    m = np.empty((count, r, count, r))
    slot = first // r
    leaves = np.array(tree.leaves())
    # the grid row (block) of each leaf's first unknown in row-major order
    row = np.searchsorted(starts, [tree.indices(i).min() for i in leaves], side="right") - 1
    order = np.argsort(row, kind="stable")
    leaves, row = leaves[order].tolist(), row[order].tolist()
    later = np.zeros(len(tree), dtype=bool)
    later[leaves] = True
    step = max(1, 256 // r)
    for a in range(0, len(leaves), step):
        chunk = leaves[a : a + step]
        off = starts[row[a]]
        rhs = np.zeros((tree.n - off, len(chunk) * r))
        for at, i in enumerate(chunk):
            rhs[tree.indices(i) - off, at * r : (at + 1) * r] = basis.leaf_matrix[i]
        x = block_solve(factor.trailing(row[a]), rhs)
        del rhs
        q = slot[chunk]
        for g in basis.leaf_matrix.groups:
            here = later[g.clusters]
            if here.any():
                block = g.stack[here].transpose(0, 2, 1) @ x[tree.perm[g.target[here]] - off]
                block = block.reshape(-1, r, len(chunk), r)
                p = slot[g.clusters[here]]
                m[p[:, None], :, q, :] = block.transpose(0, 2, 1, 3)
                m[q[:, None], :, p, :] = block.transpose(2, 0, 3, 1)
        del x
        later[chunk] = False
    return m.reshape(count * r, count * r)


def _project_in_place(m, basis, block_tree, first, end):
    """Couplings S_ts = E_t^T M0[t, s] E_s of the leaf blocks, where
    V_t = L_t E_t, and the leaf operator M in place of M0: each leaf
    block's region of M0, read once, becomes E_t S_ts E_s^T.  M0 is
    symmetric, so each pair of blocks (t, s), (s, t) is projected once:
    S_st is S_ts^T, and M's region of (s, t) the transpose of that of
    (t, s).  Returns the couplings in leaf-block order and the sum of
    their squared Frobenius norms."""
    tree = basis.tree
    stacked = {}
    for i in tree.post_order.tolist():
        sons = tree.sons(i)
        if sons:
            stacked[i] = np.vstack([stacked[s] @ basis.transfer[s] for s in sons])
        else:
            stacked[i] = np.eye(basis.rank_of(i))
    leaves = block_tree.leaves()
    row, col = block_tree.row[leaves], block_tree.col[leaves]
    # the twin (s, t) of each leaf block (t, s), by its key in sorted order
    key = row * len(tree) + col
    order = np.argsort(key)
    twin = order[np.searchsorted(key, col * len(tree) + row, sorter=order)]
    coupling = np.empty((len(leaves), basis.rank, basis.rank))
    sumsq = 0.0
    for k, (t, s, w) in enumerate(zip(row.tolist(), col.tolist(), twin.tolist())):
        if t > s:
            continue
        region = (slice(first[t], end[t]), slice(first[s], end[s]))
        left, right = stacked[t], stacked[s]
        c = coupling[k] = left.T @ m[region] @ right
        m[region] = left @ c @ right.T
        if t == s:
            sumsq += float(np.vdot(c, c))
        else:
            coupling[w] = c.T
            m[first[s] : end[s], first[t] : end[t]] = m[region].T
            sumsq += 2.0 * float(np.vdot(c, c))
    return coupling, sumsq


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
    area = np.array([areas[leaf] for leaf in leaf_ids])
    gap = np.maximum(0.0, np.maximum(tree.box_min[leaf_ids] - 0.5, 0.5 - tree.box_max[leaf_ids]))
    near = np.sqrt(np.vecdot(gap, gap)) <= radius
    near_mean = float(np.mean(area[near])) if near.any() else float("nan")
    far_mean = float(np.mean(area[~near])) if not near.all() else float("nan")
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
