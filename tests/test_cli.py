import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import d4check
from cli_reference import build_parser
from d4check import pontsolve, report, rootsys, vect4
from d4check.cli import COMMANDS, main, parse_args
from d4check.obstruct import CHECK_IDS, CheckRecord, VerificationReport, theorem_pipeline


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_all_text(capsys):
    code, out = run_cli(capsys, "verify-all")
    assert code == 0
    assert "theorem status: OBSTRUCTED" in out
    assert "0 failed" in out


def test_verify_all_json_schema(capsys):
    code, out = run_cli(capsys, "verify-all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["theorem"] == "OBSTRUCTED"
    for check in payload["checks"]:
        assert list(check.keys()) == ["id", "ref", "statement", "status", "detail"]
        assert check["status"] in ("pass", "noted-erratum")


#: any code point, lone surrogates included, with quotes, backslashes and control characters drawn often
fields = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u2028\ud800\udfffé'), st.characters(exclude_categories=()))
)


@settings(max_examples=100, deadline=None)
@example(checks=[], status="NOT-RUN")
@given(st.lists(st.builds(CheckRecord, *[fields] * 5), max_size=4), st.sampled_from(["OBSTRUCTED", "FAILED"]) | fields)
def test_json_report_matches_json_dumps(checks, status):
    # the reference is the indented pure-Python encoder the renderer replaces
    rep = VerificationReport()
    rep.checks, rep.theorem_status = checks, status
    payload = {"schema": report.SCHEMA_VERSION, "theorem": status, "checks": [c._asdict() for c in checks]}
    assert report.to_json(rep) == json.dumps(payload, indent=2)


def test_verify_all_json_deterministic(capsys):
    _, out1 = run_cli(capsys, "verify-all", "--format", "json")
    _, out2 = run_cli(capsys, "verify-all", "--format", "json")
    assert out1 == out2


def test_text_report_mentions_erratum(capsys):
    _, out = run_cli(capsys, "verify-all")
    assert "erratum: (4-4)" in out


def test_verify_all_exits_1_on_a_failed_check(capsys, monkeypatch):
    # a wrong sign of gamma fails generator-pairs alone; the two errata count as checks, neither passed nor failed
    monkeypatch.setattr(vect4, "gamma", lambda: (1, 2))
    code, out = run_cli(capsys, "verify-all")
    assert code == 1
    assert out.splitlines()[-2:] == ["21 checks: 18 passed, 1 failed", "theorem status: FAILED"]


def test_smallest_window_is_accepted(capsys):
    code, out = run_cli(capsys, "verify", "exact-sequence-window", "--window", "4")
    assert code == 0
    assert "|a|,|b| <= 4" in out


def test_verify_single_check(capsys):
    code, out = run_cli(capsys, "verify", "weyl-order")
    assert code == 0
    assert "weyl-order" in out
    assert "1 checks: 1 passed" in out


@pytest.fixture(scope="module")
def full_report():
    rep = theorem_pipeline()
    return {fmt: report.render(rep, fmt) for fmt in ("text", "json")}


def _text_record(out, check_id):
    """The lines of one check's record in a text report."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"[ok  ] {check_id} ("))
    end = start + 1
    while lines[end].startswith("       "):
        end += 1
    return lines[start:end]


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_verify_id_record_matches_verify_all(capsys, full_report, check_id):
    code, out = run_cli(capsys, "verify", check_id)
    assert code == 0
    lines = out.splitlines()
    assert lines[2:-3] == _text_record(full_report["text"], check_id)
    assert lines[-1] == "theorem status: NOT-RUN"
    code, out = run_cli(capsys, "verify", check_id, "--format", "json")
    assert code == 0
    full = json.loads(full_report["json"])["checks"]
    assert json.loads(out)["checks"] == [c for c in full if c["id"] == check_id]


@pytest.mark.parametrize(
    "switch, kept",
    [(["--no-symmetry-constraint"], 14), (["--skip-window-checks"], 18), (["--window", "7"], 19)],
    ids=["no-symmetry", "skip-window", "window-7"],
)
def test_verify_id_record_matches_verify_all_under_switch(capsys, switch, kept):
    _, out = run_cli(capsys, "verify-all", *switch, "--format", "json")
    full = json.loads(out)["checks"]
    ids = [check_id for check_id in CHECK_IDS if any(c["id"] == check_id for c in full)]
    assert len(ids) == kept
    for check_id in ids:
        code, out = run_cli(capsys, "verify", check_id, *switch, "--format", "json")
        assert code == 0
        assert json.loads(out)["checks"] == [c for c in full if c["id"] == check_id]


def test_verify_builds_only_what_its_check_reads(capsys, monkeypatch):
    def unexpected(*args):
        raise AssertionError("not read by cartan-matrix")

    monkeypatch.setattr(pontsolve, "solve", unexpected)
    monkeypatch.setattr(vect4, "verify_exact_sequence", unexpected)
    code, out = run_cli(capsys, "verify", "cartan-matrix")
    assert code == 0
    assert "1 checks: 1 passed" in out


def test_verify_unknown_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_window_too_small_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--window", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify-all", "--window"],
        ["verify-all", "--window", "x"],
        ["verify-all", "--format", "xml"],
        ["roots", "--order"],
        ["verify", "weyl-order", "extra"],
    ],
    ids=["no-arguments", "window-no-value", "window-x", "format-xml", "roots-order", "verify-extra-word"],
)
def test_bad_command_line_exits_2(capsys, argv):
    # a usage error prints one line on stderr, in the format of every other d4check error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("d4check: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_0(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: d4check {command or ''}".rstrip() + " [-h]")
    for option in ["-h, --help", *COMMANDS.get(command, ("", {}, ""))[1]]:
        assert f"  {option}" in captured.out


def test_verify_help_lists_each_check_id_whole(capsys, monkeypatch):
    # argparse wraps help text at hyphens, so the check ids are listed one per line
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(f"  {check_id}" in lines for check_id in CHECK_IDS)
    assert [line for line in lines if re.search(r"[a-z]-$", line)] == []


#: Tokens of the differential test: every command, every long option and each
#: of its unique prefixes, -h, --opt=value forms, values, the check ids, a
#: stray word, ``--``, ``-``, ``-x`` and a word with a space.  The plain reading
#: declines every line with ``--``, ``-`` or ``-x``, so the running argparse reads
#: it on both sides, whatever its version.  Left out: other single-dash tokens,
#: which argparse may read as several switches in one, or (``-1.5``) as a word.
_LONG_OPTIONS = ["--help", "--format", "--window", "--no-symmetry-constraint", "--skip-window-checks", "--out",
                 "--order", "--which"]
_VALUES = ["3", "7", "-3", "x", "text", "json", "xml", "4-2", "4-3"]
_TOKENS = sorted(
    {*COMMANDS, "-h", *_VALUES, *CHECK_IDS, "stray", "--", "-", "-x", "a b"}
    | {option[:end] for option in _LONG_OPTIONS for end in range(3, len(option) + 1)}
    | {f"{option}={value}" for option in _LONG_OPTIONS for value in _VALUES}
)
_REFERENCE = build_parser()


def _outcome(parse, argv):
    """``("ok", values)`` for a command line ``parse`` accepts, else ``("exit", code)``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "ok", parse(argv)
        except SystemExit as exc:
            return "exit", exc.code


@settings(max_examples=400, deadline=None)
@example(argv=["verify", "--win=7", "weyl-order", "--format", "json", "--w", "-3"])
@example(argv=["verify-all", "stray", "-h"])
@example(argv=["--he", "frobnicate"])
@given(
    st.lists(st.sampled_from(_TOKENS), max_size=6)
    | st.tuples(st.sampled_from(list(COMMANDS)), st.lists(st.sampled_from(_TOKENS), max_size=5)).map(
        lambda drawn: [drawn[0], *drawn[1]]
    )
)
def test_parser_reads_command_lines_as_argparse(argv):
    # the reference is the argparse parser the table replaced: the same command lines
    # parse to the same values, help exits 0 and every other command line exits 2
    expected = _outcome(lambda args: vars(_REFERENCE.parse_args(args)), argv)
    assert _outcome(lambda args: vars(parse_args(args)), argv) == expected
    assert expected[0] == "ok" or expected[1] in (0, 2)


def test_double_dash_ends_the_options(capsys):
    # after the command, every argument after -- is a word
    code, out = run_cli(capsys, "verify", "--", "weyl-order")
    assert code == 0
    assert out.splitlines()[-1] == "theorem status: NOT-RUN"
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--", "--window"])
    assert exc.value.code == 2


def test_weyl_order(capsys):
    code, out = run_cli(capsys, "weyl", "--order")
    assert code == 0
    assert out.strip() == "192"


@pytest.mark.parametrize("argv", [["weyl"], ["weyl", "--order"]])
def test_weyl_on_bad_root_data_exits_1(capsys, monkeypatch, argv):
    for first_root, error in (
        # the first root should be (1, -1, 0, 0); its reflection is no signed permutation
        ((2, -1, 0, 0), "gens: reflection 1 is not a signed permutation"),
        # a zero root has no reflection at all
        ((0, 0, 0, 0), "gens: root 1 is zero"),
    ):
        monkeypatch.setitem(rootsys._POSITIVE_ROOT_COORDS, 1, first_root)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"d4check: error: {error}\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the package's records are plain values; dataclasses would also pull in inspect.
    # The command line is read off a table and the JSON strings go through _json's
    # C encoder, so a fresh process pays for neither argparse (and gettext) nor json
    code = (
        "import sys; before = set(sys.modules); import d4check.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'json'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(d4check.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_plain_command_lines_load_no_argparse(tmp_path):
    # the benchmark's command lines, the diagnostic switches, --window and --out are
    # read off the table; only help, malformed lines and the rarer forms load argparse
    lines = [
        ["verify-all"], ["verify-all", "--format", "json"], ["verify", "weyl-order"],
        ["verify", "t-actions", "--format", "json"], ["verify-all", "--no-symmetry-constraint"],
        ["verify-all", "--skip-window-checks"], ["verify-all", "--window", "7"],
        ["verify-all", "--out", str(tmp_path / "report.txt")], ["weyl", "--order"], ["tables", "--which", "4-3"],
    ]
    code = (
        "import contextlib, io, sys; import d4check.cli\n"
        f"for argv in {lines!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert d4check.cli.main(argv) == 0, argv\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(d4check.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_verify_all_loads_no_fractions():
    # the certificate is integer arithmetic throughout, so nothing imports fractions
    code = (
        "import sys; import d4check.cli; code = d4check.cli.main(['verify-all']); "
        "print(f'exit {code}, fractions loaded: {\"fractions\" in sys.modules}')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(d4check.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "exit 0, fractions loaded: False"


def test_roots_listing(capsys):
    code, out = run_cli(capsys, "roots")
    assert code == 0
    assert "alpha_1" in out and "alpha_12" in out
    assert "(1, -1, 0, 0)" in out


def test_tables_4_2(capsys):
    code, out = run_cli(capsys, "tables", "--which", "4-2")
    assert code == 0
    assert out.count("class for root") == 12
    assert "k3*t1 + k*t2 + k*t3 + k4*t4" in out


def test_tables_4_3(capsys):
    code, out = run_cli(capsys, "tables", "--which", "4-3")
    assert code == 0
    assert out.count("class for root") == 6


def test_diagnostic_no_symmetry(capsys):
    code, out = run_cli(capsys, "verify-all", "--no-symmetry-constraint")
    assert code == 0
    assert "INCONCLUSIVE" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify-all", "--format", "json", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode()


def test_out_file_text_matches_golden(tmp_path, capsys):
    # --out holds the bytes the report prints, final newline included
    target = tmp_path / "report.txt"
    code, _ = run_cli(capsys, "verify-all", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / "verify-all.txt").read_bytes()


@pytest.mark.parametrize(
    "check_id, switch",
    [
        ("bundle-classes", "--no-symmetry-constraint"),
        ("exact-sequence-window", "--skip-window-checks"),
    ],
)
def test_switch_suppressing_check_exits_2(capsys, check_id, switch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", check_id, switch])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert switch in err and check_id in err


def test_both_switches_name_the_symmetry_switch(capsys):
    # the window check is left out by either switch; the symmetry switch is named first
    with pytest.raises(SystemExit) as exc:
        main(["verify", "exact-sequence-window", "--no-symmetry-constraint", "--skip-window-checks"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--no-symmetry-constraint leaves check exact-sequence-window out of the run" in err


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code = main(["verify", "weyl-order", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and str(target) in err
    assert not target.exists()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (["verify-all"], "verify-all.txt"),
        (["verify-all", "--format", "json"], "verify-all.json"),
        # roots prints each coordinate with str(), so these pin the coordinate type too
        (["roots"], "roots.txt"),
        (["weyl"], "weyl.txt"),
        (["tables", "--which", "4-2"], "tables-4-2.txt"),
        (["tables", "--which", "4-3"], "tables-4-3.txt"),
        # each diagnostic switch gives a report of its own
        (["verify-all", "--no-symmetry-constraint"], "verify-all-no-symmetry.txt"),
        (["verify-all", "--no-symmetry-constraint", "--format", "json"], "verify-all-no-symmetry.json"),
        (["verify-all", "--skip-window-checks"], "verify-all-skip-window.txt"),
        (["verify-all", "--skip-window-checks", "--format", "json"], "verify-all-skip-window.json"),
        (["verify-all", "--window", "7"], "verify-all-window-7.txt"),
        # --opt=value, and a unique prefix of a long option
        (["verify-all", "--window=7"], "verify-all-window-7.txt"),
        (["verify-all", "--win", "7"], "verify-all-window-7.txt"),
    ],
)
def test_report_matches_golden(capsys, argv, fixture):
    # two runs in one process can agree and still differ from the committed
    # report; the fixtures pin the bytes, so a change to them must be deliberate
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / fixture).read_bytes()


@pytest.mark.parametrize("name, row", [("TABLE_AFTER_LEAF", 4), ("TABLE_FOCAL", 10)])
def test_report_does_not_depend_on_table_dict_order(capsys, monkeypatch, name, row):
    # a row dropped and put back returns at the end of its dict (as after the
    # row-dropped planted faults); the report must read the rows in label order
    table = dict(getattr(pontsolve, name))
    monkeypatch.setattr(pontsolve, name, table)
    with monkeypatch.context() as mp:
        mp.delitem(table, row)
    assert list(table)[-1] == row
    code, out = run_cli(capsys, "verify-all")
    assert code == 0
    assert out.encode() == (GOLDEN / "verify-all.txt").read_bytes()


def test_installed_script_is_cli_main():
    # the `d4check` script that an install creates must run cli.main
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["d4check"].partition(":")
    assert (module, name) == ("d4check.cli", "main")
    assert getattr(importlib.import_module(module), name) is main


def test_module_entry_point_matches_golden():
    # the real entry point, in a fresh process under the caller's PYTHONHASHSEED
    env = {**os.environ, "PYTHONPATH": str(Path(d4check.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "d4check.cli", "verify-all"]
    proc = subprocess.run(argv, env=env, capture_output=True, check=True)
    assert proc.stdout == (GOLDEN / "verify-all.txt").read_bytes()
