"""Markdown table rendering for bench output.

Deliberately dependency-free: every bench artifact renders through
:func:`render_table`, so ``lazymc bench`` prints the same aligned
GitHub-markdown text that EXPERIMENTS.md embeds.  Cells may be str, int,
float, bool or None (rendered as the paper's "T.O." placeholder).
"""

from __future__ import annotations

from typing import Sequence


def _fmt(cell, precision: int = 3) -> str:
    if cell is None:
        return "T.O."
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) < 0.001:
            return f"{cell:.1e}"
        return f"{cell:.{precision}f}"
    return str(cell)


def _is_numeric(s: str) -> bool:
    try:
        float(s.replace(",", ""))
        return True
    except ValueError:
        return s == "T.O."


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None, precision: int = 3) -> str:
    """Render an aligned GitHub-markdown table, under ``## title`` if given.

    A column whose non-empty cells are all numbers (or "T.O.") is
    right-aligned, in the text and in the markdown separator row.
    """
    cells = [[_fmt(c, precision) for c in row] for row in rows]
    columns = list(zip(headers, *cells))
    widths = [max(len(c) for c in column) for column in columns]
    numeric = [any(column[1:]) and all(_is_numeric(c) for c in column[1:] if c)
               for column in columns]

    def line(row: Sequence[str]) -> str:
        return "| " + " | ".join(
            c.rjust(w) if num else c.ljust(w)
            for c, w, num in zip(row, widths, numeric)) + " |"

    rule = "|" + "|".join("-" * (w + 1) + ":" if num else "-" * (w + 2)
                          for w, num in zip(widths, numeric)) + "|"
    lines = [f"## {title}", ""] if title else []
    lines += [line(headers), rule] + [line(row) for row in cells]
    return "\n".join(lines)


def listing(names: Sequence[str]) -> str:
    """``names`` comma-separated for a report sentence, or "none"."""
    return ", ".join(names) if names else "none"
