"""Command-line front end.

Exit codes: 0 all selected checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

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

    p_roots = sub.add_parser("roots", help="print the positive roots")

    p_weyl = sub.add_parser("weyl", help="Weyl group information")
    p_weyl.add_argument("--order", action="store_true", help="print only the group order")

    p_tab = sub.add_parser("tables", help="print the symbolic orbit-class tables")
    p_tab.add_argument("--which", choices=("4-2", "4-3"), default="4-2")

    return parser


def _render_symbol_row(symbols) -> str:
    terms = []
    for i, s in enumerate(symbols):
        sign = "-" if s.startswith("-") else "+"
        name = s.lstrip("-")
        terms.append((sign, f"{name}*t{i + 1}"))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, term in terms[1:]:
        text += f" {sign} {term}"
    return text


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
    by_len: dict[int, int] = {}
    for w in group:
        by_len[len(w.word)] = by_len.get(len(w.word), 0) + 1
    for length in sorted(by_len):
        print(f"  elements of word length {length}: {by_len[length]}")
    return 0


def _cmd_tables(which: str) -> int:
    table = pontsolve.TABLE_AFTER_LEAF if which == "4-2" else pontsolve.TABLE_FOCAL
    for idx in sorted(table):
        print(f"class for root {idx:>2}: {_render_symbol_row(table[idx])}")
    return 0


def _emit(rep: VerificationReport, args, ok: bool) -> int:
    """Print the report and copy it to ``--out``: 0 if ``ok``, else 1; 2 if ``--out`` fails."""
    text = report.render(rep, args.format)
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"d4check: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if ok else 1


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

    if args.command in ("verify-all", "verify"):
        if args.window < 4:
            parser.error(f"--window must be >= 4, got {args.window}")
        run = obstruct.Run(args.window, args.no_symmetry_constraint, args.skip_window_checks)
        if args.command == "verify-all":
            rep = obstruct.theorem_pipeline(run.window, run.disable_symmetry, run.skip_window)
            return _emit(rep, args, rep.all_passed() and rep.theorem_status in ("OBSTRUCTED", "INCONCLUSIVE"))
        if args.check_id not in CHECK_IDS:
            parser.error(f"unknown check-id: {args.check_id}")
        for switch, on, omitted in (
            ("--no-symmetry-constraint", run.disable_symmetry, obstruct.omitted_ids(disable_symmetry=True)),
            ("--skip-window-checks", run.skip_window, obstruct.omitted_ids(skip_window=True)),
        ):
            if on and args.check_id in omitted:
                parser.error(f"{switch} leaves check {args.check_id} out of the run")
        rep = obstruct.run_checks([c for c in run.selected() if c.id == args.check_id], run)
        # an erratum noted after the check is no part of its record
        rep.checks = [c for c in rep.checks if c.id == args.check_id]
        return _emit(rep, args, rep.all_passed())

    parser.error(f"unknown command: {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
