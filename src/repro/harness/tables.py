"""ASCII table and bar-series renderers for the experiment outputs.

The benchmark harness prints the same rows and series the paper's
tables and figures report; these helpers keep that formatting in one
place.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple aligned ASCII table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not match header width")
    cells = [[str(h) for h in headers]] + [
        [format_cell(value) for value in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(columns)]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(series: Dict[str, Dict[str, float]], title: str = "",
                  value_format: str = "{:.2f}") -> str:
    """Render figure-style grouped bars as a table.

    ``series`` maps series name (e.g. collector) to {x label: value}.
    """
    x_labels: List[str] = []
    for values in series.values():
        for label in values:
            if label not in x_labels:
                x_labels.append(label)
    headers = [""] + x_labels
    rows = []
    for name, values in series.items():
        rows.append([name] + [
            format_cell(values[label], value_format)
            if label in values else "-"
            for label in x_labels])
    return format_table(headers, rows, title=title)


def format_cell(value: object, value_format: str = "{:.2f}") -> str:
    """One table cell: a float through ``value_format``, NaN as
    ``ERR``, anything else as ``str``."""
    if isinstance(value, float):
        if value != value:  # NaN marks a failed cell (see error_result)
            return "ERR"
        return value_format.format(value)
    return str(value)
