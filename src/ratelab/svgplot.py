"""Minimal self-contained SVG line plots.

Outputs are plain vector files consumed post-hoc by people and CI; no
display toolkit is involved and the bytes are deterministic for identical
inputs.  numpy is imported by the functions that use it, when a plot is
drawn, so importing this module does not load it.
"""

from __future__ import annotations

_WIDTH, _HEIGHT = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_MAX_POINTS = 2000


def _ticks(lo: float, hi: float) -> list[float]:
    import numpy as np

    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5  # five intervals: about six ticks
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    return [float(v) for v in np.arange(first, hi + 0.5 * step, step)]


def _text(s: str) -> str:  # as SVG character data
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot_svg(
    path,
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write one SVG with a shared x-axis and one polyline per series."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    stride = max(1, len(x) // _MAX_POINTS)
    xs = x[::stride]
    ys = [(label, np.asarray(v, dtype=float)[::stride]) for label, v in series]

    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = min(float(v.min()) for _, v in ys)
    y_hi = max(float(v.max()) for _, v in ys)
    if y_hi - y_lo < 1e-12:
        pad = max(1e-6, abs(y_hi) * 0.05)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    px_w = _WIDTH - _ML - _MR
    px_h = _HEIGHT - _MT - _MB

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * px_h

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
        px = sx(tv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MT + px_h}" x2="{px:.2f}" '
            f'y2="{_MT + px_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MT + px_h + 20}" text-anchor="middle" {font}>'
            f"{tv:g}</text>"
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
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
    for i, (label, v) in enumerate(ys):
        color = _COLORS[i % len(_COLORS)]
        # Python floats: the same IEEE arithmetic as numpy scalars, with less overhead
        pts = " ".join(
            f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs.tolist(), v.tolist())
        )
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
