"""Command-line front end.

Exit codes: 0 all selected checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import sys
from collections import Counter
from types import SimpleNamespace

from . import obstruct, pontsolve, report
from .obstruct import CHECK_IDS, VerificationReport
from .rootsys import SIMPLE_INDICES


#: The switch every command line knows, before and after its command.
_HELP = ("-h", "--help")

#: long option -> (how its value is read, default, metavar, help).  A value is
#: read by ``int`` or ``str``, or is one of a tuple of choices; a switch has
#: ``None`` there, takes no value and sets True.
_REPORT_OPTIONS = {
    "--format": (("text", "json"), "text", "{text,json}", "report format (default: text)"),
    "--window": (int, obstruct.DEFAULT_WINDOW, "N",
                 f"half-width of the finite bundle-check window (>= 4, default: {obstruct.DEFAULT_WINDOW})"),
    "--no-symmetry-constraint": (None, False, "", "diagnostic: drop the focal-symmetry constraint"),
    "--skip-window-checks": (None, False, "", "diagnostic: skip the finite-window bundle checks"),
    "--out": (str, None, "PATH", "also write the report to a file"),
}

#: command -> (the word it takes, or "" for none; its options; help)
COMMANDS = {
    "verify-all": ("", _REPORT_OPTIONS, "run every check and the theorem pipeline"),
    "verify": ("CHECK_ID", _REPORT_OPTIONS, "run a single check, building only what it reads"),
    "roots": ("", {}, "print the positive roots"),
    "weyl": ("", {"--order": (None, False, "", "print only the group order")}, "Weyl group information"),
    "tables": ("", {"--which": (("4-2", "4-3"), "4-2", "{4-2,4-3}", "which table (default: 4-2)")},
               "print the symbolic orbit-class tables"),
}


def _usage_error(message: str):
    print(f"d4check: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _rows(rows) -> list[str]:
    width = max(len(left) for left, _ in rows) + 2
    return [f"  {left:<{width}}{text}" for left, text in rows]


def _help(command: str | None) -> str:
    """The usage text of the top level (``command`` None) or of one command."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        commands = [(f"{name} {word}".rstrip(), text) for name, (word, _, text) in COMMANDS.items()]
        return "\n".join([
            "usage: d4check [-h] COMMAND ...", "",
            "Exact-arithmetic verifier for the nonexistence of isoparametric foliations",
            "of R^52 with D4 diagram and uniform multiplicity 4.", "",
            "commands:", *_rows(commands), "",
            "options:", *_rows(options), "",
            "'d4check COMMAND -h' lists the options of COMMAND.",
        ])
    word, table, text = COMMANDS[command]
    options += [(f"{name} {metavar}".rstrip(), about) for name, (_, _, metavar, about) in table.items()]
    usage = " ".join(filter(None, ["usage: d4check", command, "[-h]", "[options]" if table else "", word]))
    lines = [usage, "", text]
    if word:
        lines += ["", f"{word}: one of {', '.join(CHECK_IDS)}"]
    return "\n".join([*lines, "", "options:", *_rows(options)])


def _show_help(command: str | None, value: str | None):
    if value is not None:
        _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
    print(_help(command))
    raise SystemExit(0)


def _classify(token: str, names) -> tuple[str, str | None] | None:
    """How a command line reads ``token`` against the option ``names``.

    ``None`` for a word (a command, a CHECK_ID or an option's value), else
    ``(name, value)`` for one of ``names``, with the text after its ``=`` (or
    after ``-h``) as ``value``, or ``None`` if there is none.  A unique prefix
    of a long option names it, as argparse's ``allow_abbrev`` allows; an
    ambiguous one is a usage error.  Any other option is ``("", None)``.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    if token.startswith("--"):
        prefix, sep, value = token.partition("=")
        matches = [prefix] if prefix in names else [name for name in names if name.startswith(prefix)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {prefix} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if sep else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    elif token[1:].isdecimal():  # a negative int is a word
        return None
    return None if " " in token else ("", None)


def _marks(args: list[str], names) -> list:
    """``_classify`` of each token; ``--`` itself is marked ``"--"``, and every token after it is a word."""
    if "--" in args:
        end = args.index("--")
        return [_classify(token, names) for token in args[:end]] + ["--"] + [None] * (len(args) - end - 1)
    return [_classify(token, names) for token in args]


def _value(name: str, read, value: str):
    if isinstance(read, tuple):
        if value not in read:
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, read))})")
        return value
    try:
        return read(value)
    except ValueError:
        _usage_error(f"argument {name}: invalid {read.__name__} value: {value!r}")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its values, read off ``argv`` by the ``COMMANDS`` table.

    Returns a namespace of ``command``, ``check_id`` (for ``verify`` only)
    and one attribute per option of the command, named like the option
    without its dashes and with ``_`` for ``-``.  Options and the
    CHECK_ID come in any order, as ``--opt value`` or ``--opt=value``, and the
    last of a repeated option wins.  ``-h`` prints the usage and exits 0.  A
    bad command line exits 2 as argparse did: at a bad value or an unknown
    command once it is read, and at a missing or stray word or an unknown
    option only after the whole line is read, so a later ``-h`` still helps.
    """
    stray = []
    marks = _marks(argv, _HELP)
    for i, mark in enumerate(marks):
        if mark is None:
            break
        if mark == "--":
            continue
        if mark[0]:
            _show_help(None, mark[1])
        stray.append(argv[i])
    else:
        _usage_error("the following arguments are required: COMMAND")
    command, args = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        _usage_error(f"argument COMMAND: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    word, table, _ = COMMANDS[command]
    values = {name: spec[1] for name, spec in table.items()}
    words = []
    marks = _marks(args, (*_HELP, *table))
    j = 0
    while j < len(args):
        token, mark = args[j], marks[j]
        j += 1
        if mark is None:
            (stray if words or not word else words).append(token)
        elif mark == "--":
            continue
        elif not mark[0]:
            stray.append(token)
        elif mark[0] in _HELP:
            _show_help(command, mark[1])
        else:
            name, value = mark
            read = table[name][0]
            if read is None:
                if value is not None:
                    _usage_error(f"argument {name}: ignored explicit argument {value!r}")
                value = True
            else:
                if value is None:
                    if j == len(args) or marks[j] is not None:
                        _usage_error(f"argument {name}: expected one argument")
                    value = args[j]
                    j += 1
                value = _value(name, read, value)
            values[name] = value
    if word and not words:
        _usage_error(f"the following arguments are required: {word}")
    if stray:
        _usage_error(f"unrecognized arguments: {' '.join(stray)}")
    values = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, **values, **({"check_id": words[0]} if words else {}))


def _render_symbol_row(symbols) -> str:
    return " + ".join(f"{s}*t{i}" for i, s in enumerate(symbols, start=1)).replace("+ -", "- ")


def _cmd_roots() -> int:
    for i, root in obstruct.Run().rs.items():
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
                fh.write(text + "\n")
        except OSError as exc:
            print(f"d4check: error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if rep.all_passed() else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)

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
        _usage_error(f"--window must be >= 4, got {args.window}")
    if args.command == "verify-all":
        rep = obstruct.theorem_pipeline(args.window, args.no_symmetry_constraint, args.skip_window_checks)
        return _emit(rep, args)
    if args.check_id not in CHECK_IDS:
        _usage_error(f"unknown check-id: {args.check_id}")
    run = obstruct.Run(args.window, args.no_symmetry_constraint, args.skip_window_checks)
    checks = [c for c in run.selected() if c.id == args.check_id]
    if not checks:
        switch = "--no-symmetry-constraint" if run.disable_symmetry else "--skip-window-checks"
        _usage_error(f"{switch} leaves check {args.check_id} out of the run")
    rep = obstruct.run_checks(checks, run)
    # an erratum noted after the check is no part of its record
    rep.checks = [c for c in rep.checks if c.id == args.check_id]
    return _emit(rep, args)


if __name__ == "__main__":
    sys.exit(main())
