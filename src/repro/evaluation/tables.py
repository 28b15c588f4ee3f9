"""Plain-text table rendering for benchmark output.

The benchmarks print the same rows the paper's figures plot; this
helper keeps that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned monospace table."""
    materialised: List[List[str]] = [[_cell(h) for h in headers]]
    for row in rows:
        materialised.append([_cell(value) for value in row])
    widths = [
        max(len(row[col]) for row in materialised)
        for col in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(materialised):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.4f}"
    return str(value)
