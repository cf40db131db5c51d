"""Text rendering of experiment results: tables and ASCII bar charts.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and readable
in a terminal (no plotting dependencies).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
        rendered = [
            f"{cell:.3f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        rendered_rows.append(rendered)
        for i, cell in enumerate(rendered):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(str(h).rjust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(columns)),
    ]
    for rendered in rendered_rows:
        lines.append(
            "  ".join(rendered[i].rjust(widths[i]) for i in range(columns))
        )
    return "\n".join(lines)


def bar_chart(values: Mapping[str, float], width: int = 48,
              title: str = "") -> str:
    """Render a horizontal ASCII bar chart."""
    if not values:
        return title
    peak = max(values.values()) or 1.0
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(0, round(width * value / peak))
        lines.append(f"{label.rjust(label_width)} | {bar} {value:.2f}")
    return "\n".join(lines)


def grouped_bar_chart(groups: Mapping[str, Mapping[str, float]],
                      width: int = 40, title: str = "") -> str:
    """Render groups of bars (e.g. per core count, per scheduler)."""
    lines = [title] if title else []
    peak = max(
        (value for group in groups.values() for value in group.values()),
        default=1.0,
    ) or 1.0
    for group_label, group in groups.items():
        lines.append(f"{group_label}:")
        label_width = max(len(label) for label in group)
        for label, value in group.items():
            bar = "#" * max(0, round(width * value / peak))
            lines.append(f"  {label.rjust(label_width)} | {bar} {value:.2f}")
    return "\n".join(lines)
