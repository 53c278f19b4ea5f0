"""Plain-text rendering of the evaluation artifacts.

The benchmark harness prints the same rows/series the paper reports;
these helpers format them consistently for the terminal and for
EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], precision: int = 3
) -> str:
    """Render a fixed-width text table."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, values: Sequence[float], precision: int = 3) -> str:
    """One labelled numeric series on a single line."""
    body = ", ".join(f"{v:.{precision}f}" for v in values)
    return f"{name}: [{body}]"
