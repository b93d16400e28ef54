"""Command-line interface.

    finstab run --config scenario.json --out results/
    finstab check --config scenario.json
    finstab suite [--list] [--filter GLOB]
"""
from __future__ import annotations

import argparse
import sys

from .model import ModelError
from .scenario import (EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, ConfigError,
                       check_scenario, load_scenario, run_scenario)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finstab",
        description="Finite-time stabilization lab for modal truncations of "
                    "bilinear and linear evolution systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    check_p = sub.add_parser("check", help="verify model structure and hypotheses")
    check_p.add_argument("--config", required=True, help="scenario JSON file")
    suite_p = sub.add_parser("suite", help="run the built-in acceptance scenarios")
    suite_p.add_argument("--list", action="store_true", dest="list_only",
                         help="list criteria without running")
    suite_p.add_argument("--filter", default="*", help="glob over criterion names")
    return parser


def _cmd_run(args) -> int:
    config = load_scenario(args.config)
    code, summary = run_scenario(config, args.out)
    for report in summary.get("checks", []):
        status = "pass" if report["passed"] else "FAIL"
        print(f"  [{status}] {report['name']}")
    diag = summary.get("diagnostics", {})
    if "rhs_calls" in diag:
        dt_range = (f"[{diag['dt_min_accepted']:.3g}, {diag['dt_max_accepted']:.3g}]"
                    if diag["steps"] else "none")
        print(f"  stepper: {diag['steps']} steps, {diag['rejections']} rejections, "
              f"{diag['rhs_calls']} RHS calls, accepted dt {dt_range}")
    settling = summary.get("settling_time")
    bound = summary.get("settling_bound")
    print(f"{summary['name']}: status={summary['status']} settling={settling} "
          f"bound={bound} -> {args.out}")
    return code


def _cmd_check(args) -> int:
    config = load_scenario(args.config)
    code, summary = check_scenario(config)
    for report in summary["checks"]:
        status = "pass" if report["passed"] else "FAIL"
        print(f"  [{status}] {report['name']}")
    dec = summary.get("decomposition")
    if dec is not None:
        print(f"  decomposition: dim W {dec['dim_w']}, dim W_perp {dec['dim_wperp']}, "
              f"{dec['route']} route")
    verdict = "all checks passed" if code == EXIT_OK else "checks FAILED"
    print(f"{summary['name']}: {verdict}")
    return code


def _cmd_suite(args) -> int:
    from . import suite

    if args.list_only:
        for name in suite.list_criteria():
            print(name)
        return EXIT_OK
    results = suite.run_criteria(args.filter)
    if not results:
        print(f"no criteria match {args.filter!r}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(suite.format_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_suite(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
