"""Minimal static SVG line charts (numpy only, no plotting library).

Good enough for run artifacts: one chart of several labelled series over t,
log y axis, fixed palette, deterministic output.
"""
from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 760
HEIGHT = 440
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 36
MARGIN_B = 44


def _finite_points(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (y > 0.0)
    return x[keep], y[keep]


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_line_chart(title: str, series) -> str:
    """series: iterable of (label, ts, ys), drawn over t with a log y axis
    (points with y <= 0 are left out).  Returns the SVG document text."""
    clean = []
    for label, xs, ys in series:
        x, y = _finite_points(xs, ys)
        if x.size:
            clean.append((label, x, y))
    if not clean:
        clean = [("empty", np.array([0.0, 1.0]), np.array([1.0, 1.0]))]
    xmin = float(min(np.min(x) for _, x, _ in clean))
    xmax = float(max(np.max(x) for _, x, _ in clean))
    ymin = math.log10(min(np.min(y) for _, _, y in clean))
    ymax = math.log10(max(np.max(y) for _, _, y in clean))
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - xmin) / (xmax - xmin) * plot_w

    def polyline(x: np.ndarray, y: np.ndarray) -> str:
        # sx and sy of every point in numpy, in the same order of operations;
        # log10 stays libm's per value, since numpy's may differ by an ulp
        v = np.fromiter(map(math.log10, y.tolist()), float, y.size)
        py = MARGIN_T + plot_h - (v - ymin) / (ymax - ymin) * plot_h
        coords = np.column_stack((sx(x), py)).ravel().tolist()
        return ("%.2f,%.2f " * x.size)[:-1] % tuple(coords)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for tx in _ticks(xmin, xmax):
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" x2="{px:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{tx:.3g}</text>')
    for ty in _ticks(ymin, ymax):
        py = MARGIN_T + plot_h - (ty - ymin) / (ymax - ymin) * plot_h
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
                   f'y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">1e{ty:.1f}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif">t</text>')
    for i, (label, x, y) in enumerate(clean):
        color = PALETTE[i % len(PALETTE)]
        out.append(f'<polyline points="{polyline(x, y)}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 30}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
