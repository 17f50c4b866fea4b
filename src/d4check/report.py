"""Deterministic text and JSON rendering of verification reports."""

from __future__ import annotations

import json

from .obstruct import VerificationReport

SCHEMA_VERSION = 1


def to_json(rep: VerificationReport) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "theorem": rep.theorem_status,
        "checks": [c._asdict() for c in rep.checks],
    }
    return json.dumps(payload, indent=2)


_STATUS_MARK = {"pass": "ok  ", "fail": "FAIL", "noted-erratum": "note"}


def to_text(rep: VerificationReport) -> str:
    lines = ["d4check verification report", ""]
    for c in rep.checks:
        lines.append(f"[{_STATUS_MARK[c.status]}] {c.id} ({c.ref}): {c.statement}")
        if c.status == "noted-erratum":
            lines.append(f"       erratum: {c.ref} {c.detail}")
        elif c.detail:
            lines.append(f"       {c.detail}")
    lines.append("")
    n_pass = sum(1 for c in rep.checks if c.status == "pass")
    n_fail = sum(1 for c in rep.checks if c.status == "fail")
    lines.append(f"{len(rep.checks)} checks: {n_pass} passed, {n_fail} failed")
    lines.append(f"theorem status: {rep.theorem_status}")
    return "\n".join(lines)


def render(rep: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(rep)
    if fmt == "text":
        return to_text(rep)
    raise ValueError(f"unknown format: {fmt}")
