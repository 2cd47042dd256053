"""Plain-text table rendering for experiment output.

Every experiment prints through these helpers so the benchmark harness
emits rows in a uniform, paper-like format.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_cell(value: object, precision: int = 2) -> str:
    """Render one table cell (floats rounded, everything else via str)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 2,
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    rendered: List[List[str]] = [
        [format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)

