import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import d4check
from d4check import pontsolve, report, rootsys, vect4
from d4check.cli import main
from d4check.obstruct import CHECK_IDS, theorem_pipeline


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


def test_verify_all_json_deterministic(capsys):
    _, out1 = run_cli(capsys, "verify-all", "--format", "json")
    _, out2 = run_cli(capsys, "verify-all", "--format", "json")
    assert out1 == out2


def test_text_report_mentions_erratum(capsys):
    _, out = run_cli(capsys, "verify-all")
    assert "erratum: (4-4)" in out


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
    # the package's records are plain values; dataclasses would also pull in inspect
    code = (
        "import sys; before = set(sys.modules); import d4check.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
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
