"""``repro-lint`` command line: lint, protocol checker, fault analysis.

Subcommands::

    repro-lint lint [PATHS...] [--root DIR]
        every lint rule over source trees, domain-confusion included
    repro-lint protocol [--variant n|n-1|live|all] [--first-subblock K]
        exhaustive swap-protocol model check
    repro-lint faults
        fault-kind -> violated-invariant table
    repro-lint rules
        print the rule catalog

Exit code 0 means clean; 1 means any finding, protocol violation, or
fault scenario expected to recover cleanly that violates an invariant;
2 means the tool itself could not run (bad arguments, missing path).
"""

from __future__ import annotations

import argparse
import sys

from ..config import MigrationAlgorithm
from ..errors import AnalysisError
from .lint import RULES, run_lint
from .protocol import check_variant, fault_invariant_analysis

#: CLI spelling -> MigrationAlgorithm constant
VARIANTS = {
    "n": MigrationAlgorithm.N,
    "n-1": MigrationAlgorithm.N_MINUS_1,
    "live": MigrationAlgorithm.LIVE,
}


def _cmd_lint(args: argparse.Namespace) -> int:
    report = run_lint(args.paths, root=args.root)
    print(report.format_text())
    return report.exit_code


def _cmd_protocol(args: argparse.Namespace) -> int:
    variants = (
        list(VARIANTS.values())
        if args.variant == "all"
        else [VARIANTS[args.variant]]
    )
    # each plan's check stops at check_variant's default of 10 violations
    reports = [
        check_variant(v, first_subblock=args.first_subblock) for v in variants
    ]
    for r in reports:
        status = "OK" if r.ok else f"FAIL ({len(r.violations)} violation(s))"
        print(
            f"{r.variant:>5s}: {r.n_states} states, {r.n_plans} plans, "
            f"{r.n_runs} runs, {r.n_checks} checks -- {status}"
        )
        for v in r.violations:
            print(v.format())
    return 0 if all(r.ok for r in reports) else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    impacts = fault_invariant_analysis()
    #: scenarios whose modelled recovery must leave zero violations
    broken = [fi for fi in impacts if fi.expect_clean and fi.invariants]
    for fi in impacts:
        inv = ", ".join(fi.invariants) if fi.invariants else "none"
        mark = "" if fi.expect_clean else " (expected: audit repairs)"
        print(f"{fi.fault}: {fi.scenario}\n  violates: {inv}{mark}\n  {fi.note}")
    if broken:
        print(f"{len(broken)} scenario(s) expected clean but violated invariants")
    return 1 if broken else 0


def _cmd_rules(args: argparse.Namespace) -> int:
    for name in sorted(RULES):
        rule = RULES[name]
        scope = ""
        if rule.path_scope:
            scope = f" [only {', '.join(rule.path_scope)}]"
        if rule.path_exclude:
            scope += f" [except {', '.join(rule.path_exclude)}]"
        print(f"{name} ({rule.severity.value}){scope}: {rule.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism/state-safety lint + protocol model checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser(
        "lint", help="run every lint rule, domain-confusion included"
    )
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    p_lint.add_argument("--root", default=None,
                        help="repo root for relative paths in the report")
    p_lint.set_defaults(func=_cmd_lint)

    p_proto = sub.add_parser(
        "protocol", help="exhaustively model-check the swap step sequences"
    )
    p_proto.add_argument("--variant", choices=[*VARIANTS, "all"],
                         default="all")
    p_proto.add_argument("--first-subblock", type=int, default=0,
                         help="critical sub-block the Live fill starts at")
    p_proto.set_defaults(func=_cmd_protocol)

    p_faults = sub.add_parser(
        "faults", help="map injected fault kinds to violated invariants"
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_rules = sub.add_parser("rules", help="print the rule catalog")
    p_rules.set_defaults(func=_cmd_rules)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown/misspelled subcommands and bad
        # flags (0 for --help); normalise to an int so in-process
        # callers always get a return code instead of an exception
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
