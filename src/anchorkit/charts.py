"""Minimal standalone SVG line/bar charts (no external renderer).

Output is deterministic for identical inputs: coordinates are formatted
with fixed precision and no timestamps or random ids are embedded.
"""

from __future__ import annotations

from typing import Sequence, TextIO

__all__ = ["line_chart", "bar_chart"]

_W, _H = 480, 360
_ML, _MR, _MT, _MB = 60, 20, 30, 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _axes(title: str, x_label: str, y_label: str) -> list[str]:
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    return [
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) // 2})">{y_label}</text>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]


def line_chart(
    out: TextIO,
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write a single-series line chart over the unit square as a standalone SVG document."""
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values vs {len(ys)} y values")
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + x * plot_w

    def py(y: float) -> float:
        return _H - _MB - y * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">']
    parts += _axes(title, x_label, y_label)
    for v in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{_fmt(px(v))}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="11">{v:g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{_fmt(py(v) + 4)}" text-anchor="end" '
            f'font-size="11">{v:g}</text>'
        )
    if xs:
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    out.write("\n".join(parts) + "\n")


def bar_chart(
    out: TextIO,
    edges: Sequence[float],
    counts: Sequence[int],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Write a histogram (bars between consecutive edges) as standalone SVG."""
    if len(edges) != len(counts) + 1:
        raise ValueError(f"{len(edges)} edges need {len(edges) - 1} counts, got {len(counts)}")
    top = max(max(counts, default=0), 1)
    lo_x, hi_x = float(edges[0]), float(edges[-1])
    span_x = hi_x - lo_x or 1.0
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - lo_x) / span_x * plot_w

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}">']
    parts += _axes(title, x_label, y_label)
    for i, count in enumerate(counts):
        x = px(float(edges[i]))
        w = px(float(edges[i + 1])) - x
        h = count / top * plot_h
        y = _H - _MB - h
        parts.append(
            f'<rect x="{_fmt(x + 1)}" y="{_fmt(y)}" width="{_fmt(max(w - 2, 1))}" '
            f'height="{_fmt(h)}" fill="#d97134"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + w / 2)}" y="{_fmt(y - 4)}" text-anchor="middle" '
            f'font-size="11">{count}</text>'
        )
    for i, e in enumerate(edges):
        parts.append(
            f'<text x="{_fmt(px(float(e)))}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="11">{float(e):g}</text>'
        )
    parts.append(f'<text x="{_ML - 6}" y="{_MT + 4}" text-anchor="end" font-size="11">{top}</text>')
    parts.append("</svg>")
    out.write("\n".join(parts) + "\n")
