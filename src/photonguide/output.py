"""Deterministic CSV / JSON record rendering.

All floats are serialized with 17 significant digits, which round-trips
exactly for IEEE doubles, so identical runs produce byte-identical output
and the CSV and JSON forms carry identical numeric content.  Records holding
inf or nan are never printed: :func:`render` raises ``NonFiniteResult``.
"""

from __future__ import annotations

import math

from .errors import NonFiniteResult


def fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return fmt_value(value)
    if value is None:
        return "null"
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_json(rows: list[dict], columns: list[str]) -> str:
    rendered = []
    for row in rows:
        fields = ", ".join(f'"{c}": {_json_value(row[c])}' for c in columns)
        rendered.append("  {" + fields + "}")
    return "[\n" + ",\n".join(rendered) + "\n]\n"


def render(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Records as CSV or JSON text; NonFiniteResult names the first field
    that holds inf or nan, and the index of its record."""
    for index, row in enumerate(rows):
        for column in columns:
            value = row[column]
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteResult(f"record {index}: {column} = {fmt_value(value)} is not finite")
    if fmt == "json":
        return render_json(rows, columns)
    return render_csv(rows, columns)


def dispersion_svg(points: list[tuple[float, float]]) -> str:
    """Minimal 640 x 480 SVG line chart of (frequency, axial wavenumber) points."""
    xs, ys = zip(*points)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    width, height, margin = 640, 480, 40

    def px(x):
        return margin + (x - x0) / xspan * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y0) / yspan * (height - 2 * margin)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>\n'
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle">omega</text>\n'
        f'<text x="12" y="{height // 2}" text-anchor="middle" transform="rotate(-90 12 {height // 2})">k3</text>\n'
        "</svg>\n"
    )
