"""Deterministic text and JSON rendering of verification reports."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .obstruct import CheckRecord, VerificationReport

SCHEMA_VERSION = 1

#: One check record as ``json.dumps(..., indent=2)`` lays it out in the checks
#: list, with a ``%s`` for each field's encoded string.
_RECORD = "    {\n" + ",\n".join([f'      "{name}": %s' for name in CheckRecord._fields]) + "\n    }"


def to_json(rep: VerificationReport) -> str:
    """Schema 1, byte for byte as ``json.dumps(payload, indent=2)`` writes it.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set, so
    the layout is written here and only the strings go through json's (C)
    string encoder.
    """
    records = ",\n".join([_RECORD % tuple(map(encode_basestring_ascii, c)) for c in rep.checks])
    checks = f"[\n{records}\n  ]" if rep.checks else "[]"
    theorem = encode_basestring_ascii(rep.theorem_status)
    return f'{{\n  "schema": {SCHEMA_VERSION},\n  "theorem": {theorem},\n  "checks": {checks}\n}}'


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
