"""Command-line interface.

    plocal analyze --group "sym:4" --prime 2 [flags]
    plocal parse-check "(1 2)(2 3)"
    plocal catalog

``analyze`` prints the JSON (or text) report on stdout.  Exit codes: 0 when
the overall verdict is pass or not-certified, 1 on any failing verdict, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import catalog_entries, parse_cycles
from .errors import PLocalError
from .pipeline import ALL_CHECKS, PipelineConfig, run_pipeline
from .report import emit_report


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plocal",
        description="Finite-scale p-local analysis of permutation groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run the verification pipeline")
    an.add_argument("--group", required=True, help='group spec, e.g. "sym:4"')
    an.add_argument("--prime", type=int, required=True)
    an.add_argument("--max-degree", type=int, default=PipelineConfig.max_degree,
                    help="homology truncation degree (default %(default)s)")
    an.add_argument("--max-limit-degree", type=int, default=PipelineConfig.max_limit_degree,
                    help="higher-limit truncation (default %(default)s)")
    an.add_argument("--cohomology-index-max", type=int,
                    default=PipelineConfig.cohomology_index_max,
                    help="largest cohomological index for coefficient functors")
    an.add_argument("--budget", type=int, default=PipelineConfig.budget,
                    help="basis-size budget per degree")
    an.add_argument("--order-bound", type=int, default=PipelineConfig.order_bound)
    an.add_argument("--check", default=None,
                    help="comma-separated subset of checks to run: "
                         + ",".join(ALL_CHECKS))
    an.add_argument("--format", choices=("json", "text"), default="json")
    an.add_argument("--no-timings", dest="timings", action="store_false", default=True)

    pc = sub.add_parser("parse-check", help="parse cycle notation and echo the result")
    pc.add_argument("cycles")
    pc.add_argument("--degree", type=int, default=None)

    sub.add_parser("catalog", help="list built-in group specs")
    return ap


def _cmd_analyze(args) -> int:
    checks = None
    if args.check is not None:
        checks = tuple(t.strip() for t in args.check.split(",") if t.strip())
    config = PipelineConfig(
        prime=args.prime,
        max_degree=args.max_degree,
        max_limit_degree=args.max_limit_degree,
        cohomology_index_max=args.cohomology_index_max,
        budget=args.budget,
        checks=checks,
        include_timings=args.timings,
        order_bound=args.order_bound,
    )
    report = run_pipeline(args.group, config)
    sys.stdout.write(emit_report(report, args.format))
    return report.exit_code


def _cmd_parse_check(args) -> int:
    perm = parse_cycles(args.cycles, degree=args.degree)
    images = " ".join(
        f"{i + 1}->{j + 1}" for i, j in enumerate(perm.images) if i != j
    )
    print(f"degree {perm.degree}")
    print(f"cycles {perm.cycle_string()}")
    print(f"order {perm.order()}")
    print(f"moved {images if images else '(none)'}")
    return 0


def _cmd_catalog(_args) -> int:
    for line in catalog_entries():
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "parse-check":
            return _cmd_parse_check(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
    except PLocalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
