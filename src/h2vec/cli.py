"""Command-line driver: self tests, scaling benchmarks, Poisson demo."""

import argparse
import math
import os
import sys

from .bench import bench_matvec, write_csv

__all__ = ["main"]


def _checked(convert, what, valid, expected):
    """An argparse type: convert the text, then require valid(value)."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from exc
        if not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return value

    return parse


_positive_int = _checked(int, "count", lambda v: v >= 1, "a positive count")
_even_grid = _checked(int, "grid", lambda v: v >= 4 and v % 2 == 0, "an even grid of at least 4")
_tolerance = _checked(float, "tolerance", lambda v: v >= 0.0, "a non-negative tolerance")
_degree = _checked(int, "degree", lambda v: v >= 0, "a non-negative degree")
_rank = _checked(int, "rank", lambda v: v >= 1, "a positive rank")
_size = _checked(int, "size", lambda v: v >= 1, "a positive size")
_eta = _checked(float, "eta", lambda v: math.isfinite(v) and v >= 0.0, "a finite, non-negative eta")


def _parse_sizes(text):
    sizes = [_size(v) for v in text.split(",") if v.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def _check_folder(path):
    """Raise ValueError unless the folder an output path names exists."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"no directory {folder} to write {path} in")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="h2vec",
        description="hierarchical vectors over cluster trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_self = sub.add_parser("selftest", help="run all module oracle suites")
    p_self.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="run benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_mv = bench_sub.add_parser("matvec", help="product cost vs subtree size")
    p_mv.add_argument("--sizes", type=_parse_sizes, default=[64, 128, 256, 512])
    p_mv.add_argument("--k", type=_rank, default=3, help="vector basis rank")
    p_mv.add_argument("--ka", type=_rank, default=3, help="matrix basis rank")
    p_mv.add_argument("--eta", type=_eta, default=1.0)
    p_mv.add_argument("--seed", type=int, default=0)
    p_mv.add_argument("--out", required=True, help="output CSV path")

    p_demo = sub.add_parser("demo", help="run demos")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_poisson = demo_sub.add_parser("poisson", help="L-shape inverse iteration")
    p_poisson.add_argument("--grid", type=_even_grid, default=64)
    p_poisson.add_argument("--degree", type=_degree, default=3)
    p_poisson.add_argument("--eta", type=_eta, default=1.0)
    p_poisson.add_argument("--eps", type=_tolerance, default=1e-5)
    p_poisson.add_argument("--steps", type=_positive_int, default=20)
    p_poisson.add_argument("--out-prefix", required=True)
    return parser


def _run_demo(args):
    from .demo import PoissonDemo, corner_concentration, write_partition_svg

    try:
        _check_folder(args.out_prefix)
        demo = PoissonDemo(grid=args.grid, degree=args.degree, eta=args.eta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"grid {args.grid}: n={demo.tree.n}, depth={demo.tree.depth}, "
        f"csp={demo.csp}, compression error {demo.compression_error:.3e}"
    )
    stages = demo.setup_seconds
    print(
        f"set-up {sum(stages.values()):.3f} s: "
        + ", ".join(f"{stage} {seconds:.3f}" for stage, seconds in stages.items())
    )
    run = demo.run(args.eps, steps=args.steps)
    prefix = args.out_prefix

    # each CSV row maps its columns, in order, to the step's values
    write_csv(
        f"{prefix}-runtime.csv",
        [
            {"step": s.step}
            | {f"flops_{p}": s.flops.get(p, 0) for p in ("forward", "coupling", "backward", "convert")}
            | {f"seconds_{p}": float(s.seconds[p]) for p in ("dense", "matvec", "convert", "vector", "check")}
            for s in run.steps
        ],
        "h2vec demo poisson runtime",
    )
    write_csv(
        f"{prefix}-clusters.csv",
        [{c: getattr(s, c) for c in ("step", "tx", "ty", "commits", "merges", "forced")} for s in run.steps],
        "h2vec demo poisson clusters",
    )
    write_csv(
        f"{prefix}-eigen.csv",
        [
            {
                "step": s.step,
                "nu_dense": float(s.nu_dense),
                "nu_hier": float(s.nu_hier),
                "lambda_min_estimate": float(1.0 / s.nu_hier),
                "conv_bound": float(s.conv_bound),
                "cum_bound": float(s.cum_bound),
                "true_diff": float(s.true_diff),
            }
            for s in run.steps
        ],
        "h2vec demo poisson eigenvalues",
    )
    write_partition_svg(
        f"{prefix}-partition.svg", demo.tree, run.final_leaves, demo.problem
    )
    near, far = corner_concentration(demo.tree, run.final_leaves, demo.problem)
    last = run.steps[-1]
    print(
        f"after {len(run.steps)} steps: tx={last.tx}, "
        f"nu={last.nu_hier:.12e} (dense {last.nu_dense:.12e}), "
        f"bound {last.cum_bound:.3e}, true diff {last.true_diff:.3e}"
    )
    print(f"leaf areas near corner {near:.3e} vs elsewhere {far:.3e}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        from .selftest import run_selftest

        failed = run_selftest(seed=args.seed)
        return 1 if failed else 0
    if args.command == "bench":
        try:
            _check_folder(args.out)
            rows = bench_matvec(args.sizes, args.k, args.ka, args.eta, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        write_csv(args.out, rows, "h2vec bench matvec")
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0
    if args.command == "demo":
        return _run_demo(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
