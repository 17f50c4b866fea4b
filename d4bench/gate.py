"""Output gate: decides whether one rendered d4check report is correct.

The expected check ids are written out here rather than read from the
program, so a change that drops or renames a check fails the gate.
Each ``check_*`` function returns a list of problems; empty means accepted.
"""

from __future__ import annotations

import ast
import json
import re

CHECK_IDS = (
    "weyl-order",
    "stabilizer-order",
    "cartan-matrix",
    "word-table",
    "root-orbit",
    "kronecker-submatrix",
    "basis-roundtrip",
    "t-actions",
    "pairing-duality",
    "theta-identities",
    "invariance-suite",
    "orbit-table",
    "focal-table",
    "pontryagin-solver",
    "bundle-classes",
    "generator-pairs",
    "exact-sequence-window",
    "leaf-restrictions",
    "congruence-obstruction",
)
ERRATA = ("basis-change-erratum", "bundle-classes-erratum")
WINDOW_CHECK = "exact-sequence-window"

_TEXT_RECORD = re.compile(r"^\[(ok  |FAIL|note)\] (\S+) \((.*?)\): (.*)$")
_TEXT_STATUS = {"ok  ": "pass", "FAIL": "fail", "note": "noted-erratum"}


def parse(report: str, fmt: str) -> tuple[str | None, list[dict], list[str]]:
    """Theorem status, check records and format problems of one report."""
    if fmt == "json":
        try:
            payload = json.loads(report)
        except ValueError as exc:
            return None, [], [f"not JSON: {exc}"]
        problems = [] if payload.get("schema") == 1 else [f"schema is {payload.get('schema')!r}, not 1"]
        return payload.get("theorem"), list(payload.get("checks", [])), problems
    status = None
    records = []
    for line in report.splitlines():
        m = _TEXT_RECORD.match(line)
        if m:
            records.append({"id": m.group(2), "ref": m.group(3), "statement": m.group(4),
                            "status": _TEXT_STATUS[m.group(1)]})
        elif line.startswith("theorem status: "):
            status = line[len("theorem status: "):]
    return status, records, []


def check_full(report: str, fmt: str, window: int | None = None) -> list[str]:
    """Gate for a ``verify-all`` report; ``window`` (JSON only) also checks that window's detail."""
    status, records, problems = parse(report, fmt)
    if status != "OBSTRUCTED":
        problems.append(f"theorem status {status!r}, not 'OBSTRUCTED'")
    by_id: dict[str, list[dict]] = {}
    for rec in records:
        by_id.setdefault(rec.get("id"), []).append(rec)
    for cid in CHECK_IDS:
        got = [r.get("status") for r in by_id.get(cid, [])]
        if got != ["pass"]:
            problems.append(f"check {cid}: statuses {got}, expected ['pass']")
    for eid in ERRATA:
        got = [r.get("status") for r in by_id.get(eid, [])]
        if got != ["noted-erratum"]:
            problems.append(f"erratum {eid}: statuses {got}, expected ['noted-erratum']")
    if window is not None:
        problems += _check_window(by_id.get(WINDOW_CHECK, []), window)
    return problems


def _check_window(recs: list[dict], window: int) -> list[str]:
    """The window check's statement names the window and its detail is all true (JSON records)."""
    if len(recs) != 1:
        return [f"{WINDOW_CHECK}: {len(recs)} records"]
    rec = recs[0]
    problems = []
    if re.findall(r"<= (\d+)", rec.get("statement", "")) != [str(window)]:
        problems.append(f"{WINDOW_CHECK}: statement does not name window {window}")
    try:
        detail = ast.literal_eval(rec.get("detail", ""))
    except (ValueError, SyntaxError):
        return problems + [f"{WINDOW_CHECK}: unreadable detail {rec.get('detail')!r}"]
    if not isinstance(detail, dict) or not detail or not all(v is True for v in detail.values()):
        problems.append(f"{WINDOW_CHECK}: detail not all true: {detail!r}")
    return problems


def check_single(report: str, fmt: str, check_id: str) -> list[str]:
    """Gate for a ``verify CHECK_ID`` report: exactly one passing record, for that id."""
    _, records, problems = parse(report, fmt)
    got = [(r.get("id"), r.get("status")) for r in records]
    if got != [(check_id, "pass")]:
        problems.append(f"records {got}, expected [({check_id!r}, 'pass')]")
    return problems
