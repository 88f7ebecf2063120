"""Deterministic row serialisation shared across layers.

These writers are deliberately boring — plain ``csv`` and ``json`` with
fixed formatting — because the contract is byte-for-byte reproducibility:
serialising the same rows twice must produce identical text.  Nothing time-
or host-dependent is ever written.

They live in :mod:`repro.analysis` (below the runner in the layering) so
that :class:`repro.runner.result.RunResult`, the engine CLI's
``run --output`` exporter and the sweep artifact writers
(:mod:`repro.sweep.artifacts`) all serialise rows identically.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence

#: Formats the row writers (and the CLI ``--output`` flags) understand.
ROW_FORMATS = ("csv", "json")


def ordered_columns(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Union of the rows' keys, in first-seen order."""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _sorted_mappings(value: Any) -> Any:
    """``value`` with every nested mapping's keys in sorted order."""
    if isinstance(value, Mapping):
        return {key: _sorted_mappings(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_sorted_mappings(item) for item in value]
    return value


def _csv_cell(value: Any) -> Any:
    """One CSV cell: ``None`` is empty, and a nested mapping prints with
    sorted keys, so a computed row and its cache-hit replay (whose JSON
    round trip sorted the keys) render the same bytes."""
    if value is None:
        return ""
    if isinstance(value, (Mapping, list)):
        return str(_sorted_mappings(value))
    return value


def rows_to_csv_text(rows: Sequence[Mapping[str, Any]],
                     columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV text (missing values and ``None`` are empty;
    nested mappings print with sorted keys)."""
    columns = list(columns) if columns is not None else ordered_columns(rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


def rows_to_json_text(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render rows as pretty-printed JSON text (stable key order)."""
    return json.dumps(list(rows), indent=2, sort_keys=True) + "\n"


def write_rows(rows: Sequence[Mapping[str, Any]], path: os.PathLike,
               fmt: Optional[str] = None,
               columns: Optional[Sequence[str]] = None) -> Path:
    """Write rows to ``path`` as CSV or JSON.

    ``fmt`` of ``None`` is inferred from the file extension (``.json`` ->
    JSON, anything else -> CSV).
    """
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt not in ROW_FORMATS:
        raise ValueError(f"Unknown row format {fmt!r}; "
                         f"choose one of {', '.join(ROW_FORMATS)}")
    if fmt == "json":
        text = rows_to_json_text(rows)
    else:
        text = rows_to_csv_text(rows, columns=columns)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
