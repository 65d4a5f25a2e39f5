"""Minimal self-contained SVG line plots.

Outputs are plain vector files consumed post-hoc by people and CI; no
display toolkit is involved and the bytes are deterministic for identical
inputs.  The plot is drawn from plain floats: lists and arrays take the
same path, and no array library is imported.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import ConfigError

_WIDTH, _HEIGHT = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_MAX_POINTS = 2000


def _ticks(lo: float, hi: float) -> list[float]:
    """About six round ticks on lo < hi, as ``arange(first, hi + step/2, step)``
    by its length rule ``ceil((stop - first)/step)`` and its fill ``first,
    first + step, first + i*((first + step) - first)``, so every tick keeps its bits."""
    raw = (hi - lo) / 5  # five intervals: about six ticks
    try:  # an infinite end or tick count cannot become an int
        mag = 10.0 ** math.floor(math.log10(raw))
        step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
        q = lo / step
        first = math.copysign(math.ceil(q), q) * step  # -0.0 stays, printed "-0"
        n = math.ceil((hi + 0.5 * step - first) / step)
    except OverflowError:
        raise ConfigError(f"plot axis [{lo:g}, {hi:g}]: its ticks exceed the float range") from None
    delta = (first + step) - first
    return [first, first + step][:n] + [first + i * delta for i in range(2, n)]


def _text(s: str) -> str:  # as SVG character data
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot_svg(
    path,
    x: Sequence[float],
    series: list[tuple[str, Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write one SVG with a shared x-axis and one polyline per series."""
    stride = max(1, len(x) // _MAX_POINTS)
    xs = list(map(float, x[::stride]))
    ys = [(label, list(map(float, v[::stride]))) for label, v in series]

    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(min(v) for _, v in ys)
    y_hi = max(max(v) for _, v in ys)
    pad = max(1e-6, abs(y_hi) * 0.05) if y_hi - y_lo < 1e-12 else 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    px_w = _WIDTH - _ML - _MR
    px_h = _HEIGHT - _MT - _MB
    # v sits at _ML + (v - x_lo) / x_span * px_w across, _MT + (y_hi - v) / y_span * px_h
    # down; every use keeps that association, which fixes plot.svg's digits
    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{px_w}" height="{px_h}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    font = 'font-family="monospace" font-size="12"'
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{_text(title)}</text>'
    )
    for tv in _ticks(x_lo, x_hi):
        px = _ML + (tv - x_lo) / x_span * px_w
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + px_h}" x2="{px:.2f}" '
            f'y2="{_MT + px_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + px_h + 20}" text-anchor="middle" {font}>'
            f"{tv:g}</text>"
        )
    for tv in _ticks(y_lo, y_hi):
        py = _MT + (y_hi - tv) / y_span * px_h
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" {font}>{tv:g}</text>'
        )
    parts.append(
        f'<text x="{_ML + px_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f"{font}>{_text(xlabel)}</text>"
    )
    parts.append(
        f'<text x="18" y="{_MT + px_h / 2:.1f}" text-anchor="middle" {font} '
        f'transform="rotate(-90 18 {_MT + px_h / 2:.1f})">{_text(ylabel)}</text>'
    )
    # every polyline shares the x pixels' text
    x_text = [f"{_ML + (a - x_lo) / x_span * px_w:.2f}," for a in xs]
    for i, (label, v) in enumerate(ys):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join([f"{px}{_MT + (y_hi - b) / y_span * px_h:.2f}" for px, b in zip(x_text, v)])
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx = _ML + px_w - 150
        ly = _MT + 18 + 18 * i
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly}" {font}>{_text(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
