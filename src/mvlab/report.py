"""Report emission: one canonical JSON record per claim plus CSV profiles.

Records are deterministic (sorted keys, repr floats); the only
non-reproducible bytes in any output file live in the ``# generated`` header
line, so byte-level comparisons can drop headers and match exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from datetime import datetime, timezone
from pathlib import Path

HEADER_PREFIX = "# generated"


def record(report) -> dict:
    """``dataclasses.asdict(report)`` with tuple fields as lists, as JSON writes them."""
    return dataclasses.asdict(report, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})


def canonical_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, allow_nan=True,
                      separators=(",", ": "), indent=1)


def timestamp_header() -> str:
    return f"{HEADER_PREFIX} {datetime.now(timezone.utc).isoformat()}"


def write_records(path: str | Path, records: list[dict]) -> None:
    lines = [timestamp_header()]
    lines.extend(canonical_json(r) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def strip_header(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(HEADER_PREFIX))


def ledger_block(ledger) -> str:
    """Flat key=value text block of a ``ConstantLedger`` with provenance tags."""
    data = ledger.as_dict()
    prov = data.pop("provenance")
    lines = []
    for key, value in data.items():
        tag = f" [{prov[key]}]" if key in prov else ""
        lines.append(f"{key}={value!r}{tag}")
    return "\n".join(lines)


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_shell_csv(path: str | Path, profile) -> None:
    _write_csv(path, ["r", "M_r", "quadrature_node_count", "clipped_flag"],
               ([repr(s.r), repr(s.m), s.node_count, int(s.clipped)]
                for s in profile.samples))


def write_weak_csv(path: str | Path, report) -> None:
    _write_csv(path, ["test_function", "value", "tol"],
               ([name, repr(value), repr(report.tol)] for name, value in report.values))


def write_detection_csv(path: str | Path, report) -> None:
    _write_csv(path, ["point", "i", "z", "R", "delta", "concentrated_energy", "branch"],
               ([pi, s.index, ";".join(repr(x) for x in s.z),
                 repr(s.R), repr(s.delta), repr(s.energy), s.branch]
                for pi, point in enumerate(report.points) for s in point.steps))
