"""Serialisation of experiment outputs.

Every figure/table harness produces a list of flat dictionaries ("rows");
this module writes them as CSV or JSON and renders them as plain-text tables
for the CLI, so that the reproduction can be compared with the paper without
any plotting dependency.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Mapping, Sequence
from pathlib import Path

__all__ = ["write_csv", "write_json", "format_table"]


def _normalise(value):
    """Make values JSON/CSV friendly (inf/nan become strings, tuples lists)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, tuple):
        return list(value)
    return value


def write_csv(rows: Sequence[Mapping], path: str | Path) -> Path:
    """Write rows to CSV (the union of keys becomes the header)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        target.write_text("")
        return target
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with target.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _normalise(value) for key, value in row.items()})
    return target


def write_json(rows: Sequence[Mapping], path: str | Path) -> Path:
    """Write rows to a JSON array."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = [
        {key: _normalise(value) for key, value in row.items()} for row in rows
    ]
    target.write_text(json.dumps(payload, indent=2, default=str))
    return target


def format_table(rows: Sequence[Mapping], title: str | None = None, float_digits: int = 2) -> str:
    """Render rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no data)"
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)

    def render(value) -> str:
        if isinstance(value, float):
            if math.isinf(value) or math.isnan(value):
                return str(value)
            return f"{value:.{float_digits}f}"
        if value is None:
            return "-"
        return str(value)

    body = [[render(row.get(name)) for name in fieldnames] for row in rows]
    widths = [
        max(len(fieldnames[i]), *(len(line[i]) for line in body)) for i in range(len(fieldnames))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(fieldnames))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)
