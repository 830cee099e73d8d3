"""Rendering of result matrices: CSV, JSON, markdown and self-contained SVG
line plots. All output is deterministic (no timestamps, fixed float formats)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .metrics import EvalResult


@dataclass(frozen=True)
class ResultMatrix:
    """Complete method x task grid of evaluation results."""

    methods: tuple[str, ...]
    tasks: tuple[str, ...]
    cells: dict[tuple[str, str], EvalResult]  # (method, task) -> result

    def __post_init__(self):
        for m in self.methods:
            for t in self.tasks:
                if (m, t) not in self.cells:
                    raise ValueError(f"missing cell ({m!r}, {t!r})")

    def get(self, method: str, task: str) -> EvalResult:
        return self.cells[(method, task)]


def format_value(res: EvalResult) -> str:
    """Display format: accuracy as a percentage with 2 decimals, correlation
    with 3 decimals."""
    if res.measure == "accuracy":
        return f"{100.0 * res.value:.2f}"
    return f"{res.value:.3f}"


def _csv_field(text: str) -> str:
    # RFC 4180 quoting. The csv module, given "\n" line ends, leaves a lone "\r" unquoted.
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(matrix: ResultMatrix) -> str:
    rows = [("method", "task", "measure", "value", "n")]
    for m in matrix.methods:
        for t in matrix.tasks:
            res = matrix.get(m, t)
            rows.append((m, t, res.measure, f"{res.value:.6f}", str(res.n)))
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def matrix_to_json(matrix: ResultMatrix) -> str:
    cells = [
        {
            "method": m,
            "task": t,
            "measure": matrix.get(m, t).measure,
            "value": round(matrix.get(m, t).value, 6),
            "n": matrix.get(m, t).n,
        }
        for m in matrix.methods
        for t in matrix.tasks
    ]
    return json.dumps({"results": cells}, indent=2) + "\n"


def matrix_to_markdown(matrix: ResultMatrix) -> str:
    def cell(name: str) -> str:
        return name.replace("|", "\\|")

    header = "| Method | " + " | ".join(map(cell, matrix.tasks)) + " |"
    sep = "|" + "---|" * (len(matrix.tasks) + 1)
    rows = [header, sep]
    for m in matrix.methods:
        cells = [format_value(matrix.get(m, t)) for t in matrix.tasks]
        rows.append("| " + cell(m) + " | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def _scale(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo)


def _xml_text(text: str) -> str:
    # str.replace, not xml.sax.saxutils, whose import pulls in urllib.request
    for char, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")):
        text = text.replace(char, entity)
    return text


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def line_plot_svg(
    x_values: Sequence[float],
    series: dict[str, Sequence[float]],
    title: str,
    xlabel: str = "dimension",
    ylabel: str = "score",
) -> str:
    """Minimal self-contained SVG line chart, one polyline per series with an
    inline legend. No external assets or stylesheets. Title, axis labels and
    series names are escaped."""
    title, xlabel, ylabel = map(_xml_text, (title, xlabel, ylabel))
    width, height = 640, 420
    left, right, top, bottom = 70, 200, 50, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    all_y = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = min(x_values), max(x_values)

    def px(x):
        return _scale(x, x_lo, x_hi, left, left + plot_w)

    def py(y):
        return _scale(y, y_lo, y_hi, top + plot_h, top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="25" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for x in x_values:
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{top + plot_h}" x2="{px(x):.1f}" '
            f'y2="{top + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(x):.1f}" y="{top + plot_h + 18}" text-anchor="middle">{x:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{left - 8}" y="{py(y) + 4:.1f}" text-anchor="end">{y:.3f}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{py(y):.1f}" x2="{left + plot_w}" y2="{py(y):.1f}" '
            'stroke="#ddd" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for i, (name, ys) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(x_values, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(x_values, ys):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        ly = top + 16 + 18 * i
        lx = left + plot_w + 15
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{_xml_text(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
