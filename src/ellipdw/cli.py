"""Command-line entry point: compare, identities, and bench subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .config import parse_config
from .errors import ParseError, ValidationError
from .runner import bench_to_csv, run_bench, run_compare, run_identities


def _add_common(sub):
    sub.add_argument("--config", help="configuration document (YAML/JSON)")
    sub.add_argument("--output", choices=("json", "csv"), help="report format")
    sub.add_argument("--seed", type=int, help="override random seed")
    sub.add_argument("--tol", type=float, help="override residual tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipdw",
        description="Domain-wall partition function of the eight-vertex model "
                    "with a reflecting end: route comparison, identity suite, "
                    "and benchmarks.")
    subs = parser.add_subparsers(dest="command", required=True)

    comp = subs.add_parser("compare", help="evaluate routes and cross-check")
    _add_common(comp)
    comp.add_argument("--route", action="append", dest="routes",
                      help="route to run (repeatable)")

    ident = subs.add_parser("identities", help="run the named identity checks")
    _add_common(ident)

    bench = subs.add_parser("bench", help="time routes over an N sweep")
    _add_common(bench)
    bench.add_argument("--n-sweep", help="comma-separated sizes, e.g. 8,16,32")
    bench.add_argument("--route", action="append", dest="routes")
    return parser


def _load_config(args) -> str:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            return fh.read()
    return "{}"


def _sweep_entry(text: str):
    try:
        return int(text)
    except ValueError:
        return text  # left for parse_config to reject


def _overrides(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.output is not None:
        overrides["output"] = args.output
    if getattr(args, "routes", None):
        overrides["routes"] = args.routes
    if getattr(args, "n_sweep", None):
        overrides["n_sweep"] = [_sweep_entry(v) for v in args.n_sweep.split(",")]
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(_load_config(args), _overrides(args))
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command in ("compare", "bench") and not cfg.routes:
        print("config error: no route to run (routes is empty, or N is above "
              "every route's guard)", file=sys.stderr)
        return 2

    if args.command == "compare":
        report = run_compare(cfg)
        print(report.to_csv() if cfg.output == "csv" else report.to_json())
        return 0 if report.passed else 1

    if args.command == "identities":
        result = run_identities(cfg)
        if cfg.output == "csv":
            lines = ["name,max_residual,tolerance,pass"]
            for c in result["checks"]:
                lines.append(f"{c['name']},{c['max_residual']:.3e},"
                             f"{c['tolerance']:.1e},{c['pass']}")
            print("\n".join(lines))
            if "error" in result:
                print(f"error: {result['error']}", file=sys.stderr)
        else:
            print(json.dumps(result, indent=2))
        return 0 if result["pass"] else 1

    if args.command == "bench":
        if not cfg.n_sweep:
            print("config error: bench mode needs n_sweep (or --n-sweep)",
                  file=sys.stderr)
            return 2
        result = run_bench(cfg)
        print(bench_to_csv(result) if cfg.output == "csv"
              else json.dumps(result, indent=2))
        return 0 if result["pass"] else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
