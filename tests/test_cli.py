import json
from pathlib import Path

import pytest

from d4check.cli import main


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
    assert target.read_text() == out.rstrip("\n") or target.read_text() == out


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
    ],
)
def test_report_matches_golden(capsys, argv, fixture):
    # two runs in one process can agree and still differ from the committed
    # report; the fixtures pin the bytes, so a change to them must be deliberate
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / fixture).read_bytes()


def test_report_alias(capsys):
    code, out = run_cli(capsys, "report")
    assert code == 0
    assert "theorem status: OBSTRUCTED" in out
