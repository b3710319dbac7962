"""Tiny text-report formatting helpers shared by the experiment modules."""

from __future__ import annotations

from typing import Iterable


def format_table(rows: Iterable[dict], columns: list[str] | None = None) -> str:
    """Render dict rows as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_format_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered
    )
    return f"{header}\n{separator}\n{body}"


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
