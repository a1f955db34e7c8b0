"""ASCII rendering of experiment results (the harness's "plots")."""

from __future__ import annotations

from typing import Dict, List, Sequence


def _format_value(value) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain fixed-width table with a header rule."""
    cells = [[_format_value(value) for value in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(values, pad=" "):
        return "  ".join(
            str(value).rjust(width) if index else str(value).ljust(width)
            for index, (value, width) in enumerate(zip(values, widths))
        ).rstrip(pad)

    out = [line(headers), line(["-" * width for width in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def format_series_table(title: str, x_label: str,
                        series: Dict[str, Dict[str, object]]) -> str:
    """Render {series -> {x -> y}} the way the paper's figures read:
    one row per x value, one column per protocol series."""
    x_values: List[str] = []
    for points in series.values():
        for x in points:
            if x not in x_values:
                x_values.append(x)
    headers = [x_label] + list(series)
    rows = [
        [x] + [series[name].get(x, "") for name in series]
        for x in x_values
    ]
    return f"{title}\n{format_table(headers, rows)}"


def format_bench_summary(entries: Sequence[Dict[str, object]]) -> str:
    """Per-experiment summary table for ``repro bench``: one row per
    experiment with its cluster-run count and the result file written."""
    rows = [
        [entry["experiment"], entry["runs"], entry["path"]]
        for entry in entries
    ]
    return format_table(["experiment", "runs", "result"], rows)


def format_bar_chart(title: str, series: Dict[str, Dict[str, object]],
                     width: int = 48) -> str:
    """Horizontal ASCII bars, grouped like the paper's bar charts.

    ``series`` maps series name -> {x -> numeric y}; bars are scaled to
    the global maximum so protocols are visually comparable, one block
    of bars per x value.
    """
    numeric = [
        value
        for points in series.values()
        for value in points.values()
        if isinstance(value, (int, float))
    ]
    peak = max(numeric) if numeric else 0
    label_width = max((len(name) for name in series), default=0)
    x_values: List[str] = []
    for points in series.values():
        for x in points:
            if x not in x_values:
                x_values.append(x)
    lines = [title]
    for x in x_values:
        lines.append(f"{x}:")
        for name, points in series.items():
            value = points.get(x)
            if not isinstance(value, (int, float)):
                continue
            filled = int(round(width * value / peak)) if peak else 0
            bar = "#" * filled
            lines.append(
                f"  {str(name).ljust(label_width)} |{bar.ljust(width)}| "
                f"{_format_value(value)}"
            )
    return "\n".join(lines)
