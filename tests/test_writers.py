"""The artifact writers, byte for byte against per-value references.

scenario._csv_lines writes a column of +0.0 as a literal and fills the other
columns a block of rows at a time; svgplot.render_line_chart computes each
polyline with numpy and formats it in one call.  The references below format
one value, or one point, at a time.
"""
import math

import numpy as np
import pytest

from finstab import scenario, suite, svgplot
from finstab.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH

BLOCK = scenario._CSV_BLOCK_ROWS


def reference_csv(table) -> str:
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(table, dtype=float).tolist())


def written_csv(table) -> str:
    return "".join(scenario._csv_lines(table))


def assert_same(got: str, want: str) -> None:
    """got == want; a failure names the first difference, since pytest's own
    diff of two long texts takes minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(at - 40, 0)
    pytest.fail(f"first difference at line {got.count(chr(10), 0, at)}, char {at}: "
                f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}")


def reference_chart(title, series, xlabel="t", logy=False) -> str:
    """render_line_chart as it was written point by point."""
    clean = []
    for label, xs, ys in series:
        pts = []
        for x, y in zip(xs, ys):
            x, y = float(x), float(y)
            if math.isfinite(x) and math.isfinite(y) and not (logy and y <= 0.0):
                pts.append((x, y))
        if pts:
            clean.append((label, pts))
    if not clean:
        clean = [("empty", [(0.0, 1.0), (1.0, 1.0)])]
    xmin = min(p[0] for _, pts in clean for p in pts)
    xmax = max(p[0] for _, pts in clean for p in pts)
    yvals = [p[1] for _, pts in clean for p in pts]
    if logy:
        ymin, ymax = math.log10(min(yvals)), math.log10(max(yvals))
    else:
        ymin, ymax = min(yvals), max(yvals)
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - xmin) / (xmax - xmin) * plot_w

    def sy(y):
        v = math.log10(y) if logy else y
        return MARGIN_T + plot_h - (v - ymin) / (ymax - ymin) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]
    for i in range(5):
        tx = xmin + i * ((xmax - xmin) / 4)
        px = sx(tx)
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T + plot_h}" x2="{px:.2f}" '
                   f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{tx:.3g}</text>')
    for i in range(5):
        ty = ymin + i * ((ymax - ymin) / 4)
        py = MARGIN_T + plot_h - (ty - ymin) / (ymax - ymin) * plot_h
        label = f"1e{ty:.1f}" if logy else f"{ty:.3g}"
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" '
                   f'y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{label}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    for i, (label, pts) in enumerate(clean):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 30}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CSV


def _mixed_table(rows: int) -> np.ndarray:
    rng = np.random.default_rng(rows)
    table = np.zeros((rows, 6))
    table[:, 0] = np.linspace(0.0, 1.0, rows)
    table[:, 2] = -0.0                               # live: repr is "-0.0"
    table[::3, 3] = rng.standard_normal(table[::3, 3].shape)  # 0.0 mixed with data
    table[:, 5] = rng.standard_normal(rows) * 1e-300
    return table


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_csv_matches_per_value_repr(rows):
    table = _mixed_table(rows)
    assert_same(written_csv(table), reference_csv(table))


def test_csv_keeps_zero_signs_and_non_finite_values():
    tiny = np.nextafter(0.0, 1.0)                     # the smallest subnormal
    table = np.array([
        [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, -tiny, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 2.2250738585072014e-308 / 3, 0.0],
    ] * (BLOCK // 2))
    text = written_csv(table)
    assert_same(text, reference_csv(table))
    assert text.startswith("0.0,-0.0,nan,inf,-inf,5e-324,0.0\n")


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (2 * BLOCK + 5, 4), (5, 0)])
def test_csv_without_a_live_column(shape):
    table = np.zeros(shape)
    assert_same(written_csv(table), reference_csv(table))


@pytest.mark.parametrize("key", list(suite.SCENARIOS))
def test_csv_of_the_suite_scenarios(key):
    run = suite._get_run(key)
    traj = run.traj
    table = np.column_stack((traj.times, traj.states, traj.controls, traj.lyapunov))
    assert_same(written_csv(table), reference_csv(table))
    if run.built.kind == "hybrid":   # the psi_initial.csv and psi_final.csv grids
        for grid in (run.built.y0.psi, traj.psi_final):
            assert_same(written_csv(grid), reference_csv(grid))


# ---------------------------------------------------------------------------
# SVG

_T = np.linspace(0.0, 2.0, 41)
CHARTS = {
    "non-finite and non-positive": [
        ("a", _T, np.where(np.arange(41) % 7 == 0, np.nan, np.exp(-_T))),
        ("b", np.where(np.arange(41) == 3, np.inf, _T), np.cos(3.0 * _T)),
        ("c", _T, np.where(_T > 1.0, 0.0, 1.0 - _T)),
        ("d", list(range(5)), [-1.0, 0.0, -np.inf, 2.0, 1e-12]),
    ],
    "one series filtered empty": [
        ("gone", _T, np.full(41, np.nan)),
        ("kept", _T, 1.0 + _T ** 2),
    ],
    "every series filtered empty": [("gone", _T, np.full(41, -np.inf))],
    "no series": [],
    "single point": [("dot", [0.5], [2.0])],
}


@pytest.mark.parametrize("logy", [True])   # the chart's one axis: log y over t
@pytest.mark.parametrize("name", list(CHARTS))
def test_chart_matches_point_by_point_rendering(name, logy):
    series = CHARTS[name]
    assert_same(svgplot.render_line_chart(name, series), reference_chart(name, series, logy=logy))


@pytest.mark.parametrize("key", list(suite.SCENARIOS))
def test_chart_of_the_suite_scenarios(key):
    traj = suite._get_run(key).traj
    series = [("V(t)", traj.times, traj.lyapunov), ("||y(t)||", traj.times, traj.norms),
              ("u", traj.times, traj.controls[:, 0])]
    assert_same(svgplot.render_line_chart(key, series), reference_chart(key, series, logy=True))
