"""Command-line front end.

Exit codes: 0 all selected checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import sys
from collections import Counter
from types import SimpleNamespace

from . import obstruct, pontsolve, report, rootsys
from .obstruct import CHECK_IDS, VerificationReport


#: long option -> (its value's reader, default, metavar, help); the reader is ``int``, ``str`` or
#: a tuple of choices, or ``None`` for a switch, which takes no value and sets True.
_REPORT_OPTIONS = {
    "--format": (("text", "json"), "text", None, "report format (default: text)"),
    "--window": (int, obstruct.DEFAULT_WINDOW, "N",
                 f"half-width of the finite bundle-check window (>= 4, default: {obstruct.DEFAULT_WINDOW})"),
    "--no-symmetry-constraint": (None, False, None, "diagnostic: drop the focal-symmetry constraint"),
    "--skip-window-checks": (None, False, None, "diagnostic: skip the finite-window bundle checks"),
    "--out": (str, None, "PATH", "also write the report to a file"),
}

def _usage_error(message: str):
    print(f"d4check: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` read off ``COMMANDS`` if it is plain, else ``None``.

    A plain line is a command, then options by their exact names, each with a
    valid value that does not start with ``-``, and ``verify``'s one CHECK_ID.
    """
    command, *args = argv or [""]
    if command not in COMMANDS:
        return None
    word, options, *_ = COMMANDS[command]
    values = {name: spec[1] for name, spec in options.items()}
    tokens = iter(args)
    for token in tokens:
        if not token.startswith("-"):
            if not word or word in values:
                return None
            values[word] = token
        elif token not in options:
            return None
        elif (read := options[token][0]) is None:
            values[token] = True
        elif (value := next(tokens, "-")).startswith("-"):
            return None
        else:
            try:
                values[token] = read[read.index(value)] if isinstance(read, tuple) else read(value)
            except ValueError:  # not an int, or not one of the choices
                return None
    if word and word not in values:
        return None
    return SimpleNamespace(command=command, **{n.lstrip("-").lower().replace("-", "_"): v for n, v in values.items()})


def _argparse(argv: list[str]):
    """``argv`` read by argparse, built from ``COMMANDS``; a usage error prints one line and exits 2."""
    import argparse

    parser = argparse.ArgumentParser(prog="d4check", epilog="'d4check COMMAND -h' lists the options of COMMAND.",
                                     description="Exact-arithmetic verifier for the nonexistence of isoparametric "
                                                 "foliations of R^52 with D4 diagram and uniform multiplicity 4.")
    parser.error = _usage_error
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND", required=True)
    # the check ids go one per line after the options, where the help wraps none of them at a hyphen
    listed = {"epilog": "\n  ".join(["CHECK_ID is one of:", *CHECK_IDS]),
              "formatter_class": argparse.RawDescriptionHelpFormatter}
    for command, (word, options, text, _) in COMMANDS.items():
        sub = commands.add_parser(command, help=text, description=text, **(listed if word else {}))
        sub.error = _usage_error
        if word:
            sub.add_argument(word.lower(), metavar=word, help="a check id, listed below")
        for name, (read, default, metavar, about) in options.items():
            if read is None:
                sub.add_argument(name, action="store_true", help=about)
            else:
                kind = "choices" if isinstance(read, tuple) else "type"
                sub.add_argument(name, **{kind: read}, default=default, metavar=metavar, help=about)
    return parser.parse_args(argv)


def parse_args(argv: list[str]):
    """The command and its values: ``command``, ``check_id`` (for ``verify``) and one attribute per option.

    A plain line is read off the table; argparse reads the rest: help, prefixes, ``--opt=value`` and ``--``.
    """
    return _plain(argv) or _argparse(argv)


def _cmd_roots(args) -> int:
    for i, root in obstruct.Run().rs.items():
        coords = ", ".join(str(c) for c in root)
        print(f"alpha_{i:<2} = ({coords})")
    print(f"simple indices: {rootsys.SIMPLE_INDICES}")
    return 0


def _cmd_weyl(args) -> int:
    group = obstruct.Run().group
    if args.order:
        print(len(group))
    else:
        print(f"group order: {len(group)}")
        for length, count in sorted(Counter(map(len, group.values())).items()):
            print(f"  elements of word length {length}: {count}")
    return 0


def _cmd_tables(args) -> int:
    table = pontsolve.TABLE_AFTER_LEAF if args.which == "4-2" else pontsolve.TABLE_FOCAL
    for idx in sorted(table):
        row = " + ".join(f"{s}*t{i}" for i, s in enumerate(table[idx], start=1)).replace("+ -", "- ")
        print(f"class for root {idx:>2}: {row}")
    return 0


def _emit(rep: VerificationReport, args) -> int:
    """Print the report and copy it to ``--out``: 0 if no check failed, else 1; 2 if ``--out`` fails."""
    text = report.render(rep, args.format)
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"d4check: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if rep.all_passed() else 1


def _run(args) -> obstruct.Run:
    """The run the report options ask for; a window below 4 is a usage error."""
    if args.window < 4:
        _usage_error(f"--window must be >= 4, got {args.window}")
    return obstruct.Run(args.window, args.no_symmetry_constraint, args.skip_window_checks)


def _cmd_verify_all(args) -> int:
    run = _run(args)
    return _emit(obstruct.theorem_pipeline(run.window, run.disable_symmetry, run.skip_window), args)


def _cmd_verify(args) -> int:
    run = _run(args)
    if args.check_id not in CHECK_IDS:
        _usage_error(f"unknown check-id: {args.check_id}")
    # the check's own record only: an erratum noted after it is no part of it
    checks = [c._replace(erratum=None) for c in run.selected() if c.id == args.check_id]
    if not checks:
        switch = "--no-symmetry-constraint" if run.disable_symmetry else "--skip-window-checks"
        _usage_error(f"{switch} leaves check {args.check_id} out of the run")
    return _emit(obstruct.run_checks(checks, run), args)


#: command -> (the word it takes, or "" for none; its options; help; its handler, which returns the exit code)
COMMANDS = {
    "verify-all": ("", _REPORT_OPTIONS, "run every check and the theorem pipeline", _cmd_verify_all),
    "verify": ("CHECK_ID", _REPORT_OPTIONS, "run a single check, building only what it reads", _cmd_verify),
    "roots": ("", {}, "print the positive roots", _cmd_roots),
    "weyl": ("", {"--order": (None, False, None, "print only the group order")}, "Weyl group information", _cmd_weyl),
    "tables": ("", {"--which": (("4-2", "4-3"), "4-2", None, "which table (default: 4-2)")},
               "print the symbolic orbit-class tables", _cmd_tables),
}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[args.command][3](args)
    except ValueError as exc:  # root data that builds no run object
        print(f"d4check: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
