"""Rendering experiment results as aligned ASCII tables.

The bench harness prints the same rows EXPERIMENTS.md reports; keeping the
renderer tiny and dependency-free means the tables look identical in pytest
output, the benches, and the docs.
"""

from __future__ import annotations

from typing import Any


def fmt(value: Any) -> str:
    """Human formatting: trims floats, passes everything else through."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def render_table(rows: list[dict], title: str = "",
                 columns: list[str] | None = None) -> str:
    """Render dict-rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n  (no rows)" if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    cells = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in cells))
              for i, col in enumerate(columns)]
    def line(parts: list[str]) -> str:
        return "  ".join(part.ljust(width) for part, width in zip(parts, widths))
    out = []
    if title:
        out.append(title)
    out.append(line(list(columns)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def who_wins(rows: list[dict], group: str, metric: str,
             lower_is_better: bool = True) -> str:
    """The group label with the best aggregate metric (shape assertions)."""
    if not rows:
        raise ValueError("no rows")
    totals: dict[str, list[float]] = {}
    for row in rows:
        totals.setdefault(str(row[group]), []).append(float(row[metric]))
    means = {label: sum(values) / len(values)
             for label, values in totals.items()}
    chooser = min if lower_is_better else max
    return chooser(means, key=means.get)


def crossover_x(rows: list[dict], x: str, a: str, b: str):
    """First x at which series ``a`` becomes ≤ series ``b`` (or ``None``).

    ``rows`` must contain both metrics per row, ordered by ``x``.
    """
    for row in rows:
        if float(row[a]) <= float(row[b]):
            return row[x]
    return None
