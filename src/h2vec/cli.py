"""Command-line driver: self tests, scaling benchmarks, Poisson demo."""

import argparse
import sys

from .bench import bench_matvec, write_csv

__all__ = ["main"]


def _parse_sizes(text):
    try:
        sizes = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from exc
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


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
    p_mv.add_argument("--k", type=int, default=3, help="vector basis rank")
    p_mv.add_argument("--ka", type=int, default=3, help="matrix basis rank")
    p_mv.add_argument("--eta", type=float, default=1.0)
    p_mv.add_argument("--seed", type=int, default=0)
    p_mv.add_argument("--out", required=True, help="output CSV path")

    p_demo = sub.add_parser("demo", help="run demos")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_poisson = demo_sub.add_parser("poisson", help="L-shape inverse iteration")
    p_poisson.add_argument("--grid", type=int, default=64)
    p_poisson.add_argument("--degree", type=int, default=3)
    p_poisson.add_argument("--eta", type=float, default=1.0)
    p_poisson.add_argument("--eps", type=float, default=1e-5)
    p_poisson.add_argument("--steps", type=int, default=20)
    p_poisson.add_argument("--out-prefix", required=True)
    return parser


def _run_demo(args):
    from .demo import PoissonDemo, corner_concentration, write_partition_svg

    demo = PoissonDemo(grid=args.grid, degree=args.degree, eta=args.eta)
    print(
        f"grid {args.grid}: n={demo.tree.n}, depth={demo.tree.depth}, "
        f"csp={demo.csp}, compression error {demo.compression_error:.3e}"
    )
    run = demo.run(args.eps, steps=args.steps)
    prefix = args.out_prefix

    runtime_rows = [
        (
            s.step,
            s.flops.get("forward", 0),
            s.flops.get("coupling", 0),
            s.flops.get("backward", 0),
            s.flops.get("convert", 0),
            float(s.seconds["dense"]),
            float(s.seconds["matvec"]),
            float(s.seconds["convert"]),
            float(s.seconds["vector"]),
            float(s.seconds["check"]),
        )
        for s in run.steps
    ]
    write_csv(
        f"{prefix}-runtime.csv",
        [
            "step",
            "flops_forward",
            "flops_coupling",
            "flops_backward",
            "flops_convert",
            "seconds_dense",
            "seconds_matvec",
            "seconds_convert",
            "seconds_vector",
            "seconds_check",
        ],
        runtime_rows,
        "h2vec demo poisson runtime",
    )
    write_csv(
        f"{prefix}-clusters.csv",
        ["step", "tx", "ty", "commits", "merges", "forced"],
        [(s.step, s.tx, s.ty, s.commits, s.merges, s.forced) for s in run.steps],
        "h2vec demo poisson clusters",
    )
    write_csv(
        f"{prefix}-eigen.csv",
        [
            "step",
            "nu_dense",
            "nu_hier",
            "lambda_min_estimate",
            "conv_bound",
            "cum_bound",
            "true_diff",
        ],
        [
            (
                s.step,
                float(s.nu_dense),
                float(s.nu_hier),
                float(1.0 / s.nu_hier),
                float(s.conv_bound),
                float(s.cum_bound),
                float(s.true_diff),
            )
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
        header, rows = bench_matvec(
            args.sizes, args.k, args.ka, args.eta, args.seed
        )
        write_csv(args.out, header, rows, "h2vec bench matvec")
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0
    if args.command == "demo":
        return _run_demo(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
