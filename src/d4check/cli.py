"""Command-line front end.

Exit codes: 0 all selected checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import obstruct, pontsolve, report
from .obstruct import CHECK_IDS, VerificationReport
from .rootsys import SIMPLE_INDICES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d4check",
        description=(
            "Exact-arithmetic verifier for the nonexistence of isoparametric "
            "foliations of R^52 with D4 diagram and uniform multiplicity 4."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--window", type=int, default=20, metavar="N",
                       help="half-width of the finite bundle-check window (>= 4)")
        p.add_argument("--no-symmetry-constraint", action="store_true",
                       help="diagnostic: drop the focal-symmetry constraint")
        p.add_argument("--skip-window-checks", action="store_true",
                       help="diagnostic: skip the finite-window bundle checks")
        p.add_argument("--out", metavar="PATH", help="also write the report to a file")

    p_all = sub.add_parser("verify-all", help="run every check and the theorem pipeline")
    add_common(p_all)

    p_one = sub.add_parser("verify", help="run a single check, building only what it reads")
    p_one.add_argument("check_id", metavar="CHECK_ID", help=f"one of: {', '.join(CHECK_IDS)}")
    add_common(p_one)

    sub.add_parser("roots", help="print the positive roots")

    p_weyl = sub.add_parser("weyl", help="Weyl group information")
    p_weyl.add_argument("--order", action="store_true", help="print only the group order")

    p_tab = sub.add_parser("tables", help="print the symbolic orbit-class tables")
    p_tab.add_argument("--which", choices=("4-2", "4-3"), default="4-2")

    return parser


def _render_symbol_row(symbols) -> str:
    return " + ".join(f"{s}*t{i}" for i, s in enumerate(symbols, start=1)).replace("+ -", "- ")


def _cmd_roots() -> int:
    for i, root in enumerate(obstruct.Run().rs, start=1):
        coords = ", ".join(str(c) for c in root)
        print(f"alpha_{i:<2} = ({coords})")
    print(f"simple indices: {SIMPLE_INDICES}")
    return 0


def _cmd_weyl(order_only: bool) -> int:
    group = obstruct.Run().group
    if order_only:
        print(len(group))
        return 0
    print(f"group order: {len(group)}")
    for length, count in sorted(Counter(map(len, group.values())).items()):
        print(f"  elements of word length {length}: {count}")
    return 0


def _cmd_tables(which: str) -> int:
    table = pontsolve.TABLE_AFTER_LEAF if which == "4-2" else pontsolve.TABLE_FOCAL
    for idx in sorted(table):
        print(f"class for root {idx:>2}: {_render_symbol_row(table[idx])}")
    return 0


def _emit(rep: VerificationReport, args) -> int:
    """Print the report and copy it to ``--out``: 0 if no check failed, else 1; 2 if ``--out`` fails."""
    text = report.render(rep, args.format)
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"d4check: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if rep.all_passed() else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "roots":
            return _cmd_roots()
        if args.command == "weyl":
            return _cmd_weyl(args.order)
    except ValueError as exc:
        print(f"d4check: error: {exc}", file=sys.stderr)
        return 1
    if args.command == "tables":
        return _cmd_tables(args.which)

    if args.window < 4:
        parser.error(f"--window must be >= 4, got {args.window}")
    if args.command == "verify-all":
        rep = obstruct.theorem_pipeline(args.window, args.no_symmetry_constraint, args.skip_window_checks)
        return _emit(rep, args)
    if args.check_id not in CHECK_IDS:
        parser.error(f"unknown check-id: {args.check_id}")
    run = obstruct.Run(args.window, args.no_symmetry_constraint, args.skip_window_checks)
    checks = [c for c in run.selected() if c.id == args.check_id]
    if not checks:
        switch = "--no-symmetry-constraint" if run.disable_symmetry else "--skip-window-checks"
        parser.error(f"{switch} leaves check {args.check_id} out of the run")
    rep = obstruct.run_checks(checks, run)
    # an erratum noted after the check is no part of its record
    rep.checks = [c for c in rep.checks if c.id == args.check_id]
    return _emit(rep, args)


if __name__ == "__main__":
    sys.exit(main())
