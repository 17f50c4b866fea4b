"""Test-side reference command line: the ``argparse`` parser the CLI once used.

``d4check.cli.parse_args`` reads a plain command line off a table, so that the
benchmark's ``python -m d4check.cli`` lines import no ``argparse``, and hands
every other line to an argparse parser built from that table.  This is the
parser the CLI used before the table, kept verbatim, and the differential test
requires both to accept the same command lines with the same meaning.
"""

import argparse

from d4check import obstruct
from d4check.obstruct import CHECK_IDS


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
        p.add_argument("--window", type=int, default=obstruct.DEFAULT_WINDOW, metavar="N",
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
