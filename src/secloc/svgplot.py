"""Minimal standalone SVG line plots for sweep results (no plot library)."""

from __future__ import annotations

import math

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#17becf",
)

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 150, 20, 45


def _span(lo: float, hi: float) -> tuple:
    """[lo, hi] as a plot range: a single point is widened by 1, or by |lo|
    where adding 1 does not move it."""
    if hi > lo:
        return lo, hi
    return lo, (lo + 1.0 if lo + 1.0 > lo else lo + abs(lo))


def _ticks(lo: float, hi: float, count: int = 5) -> list:
    """Round tick values in [lo, hi], hi > lo, each a multiple of one step, so
    that a step below the resolution of lo cannot stall them."""
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    last = math.floor(hi / step + 1e-12)
    return [round(k * step, 12) for k in range(math.ceil(lo / step), last + 1)]


def _fmt_num(x: float) -> str:
    return f"{x:.6g}"


def render_line_plot(series: dict, x_label: str, y_label: str = "RMSE (m)") -> str:
    """Render named (x, y) series as a standalone SVG document.

    ``series`` maps a name to a list of (x, y) pairs; pairs with y=None are
    skipped.  Returns the SVG text.
    """
    points = {
        name: [(float(x), float(y)) for x, y in pairs if y is not None]
        for name, pairs in series.items()
    }
    xs = [x for pairs in points.values() for x, _ in pairs]
    ys = [y for pairs in points.values() for _, y in pairs]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = _span(min(xs), max(xs))
    y_lo, y_hi = _span(min(min(ys), 0.0), max(ys))
    inner_w = WIDTH - MARGIN_L - MARGIN_R
    inner_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * inner_w

    def sy(y: float) -> float:
        return MARGIN_T + inner_h - (y - y_lo) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + inner_h}" x2="{MARGIN_L + inner_w}" '
        f'y2="{MARGIN_T + inner_h}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + inner_h}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + inner_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + inner_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + inner_h + 18}" font-size="11" '
            f'text-anchor="middle">{_fmt_num(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{_fmt_num(t)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + inner_w / 2:.2f}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{MARGIN_T + inner_h / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {MARGIN_T + inner_h / 2:.2f})">'
        f"{y_label}</text>"
    )
    legend_y = MARGIN_T + 12
    for idx, (name, pairs) in enumerate(points.items()):
        color = PALETTE[idx % len(PALETTE)]
        if pairs:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
            for x, y in pairs:
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>'
                )
        lx = MARGIN_L + inner_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 18}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{legend_y}" font-size="11">{name}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)


def render_sweep_svg(results: list, config, axis: str) -> str:
    """Build the RMSE-vs-axis plot (one polyline per estimator plus the
    bound) from sweep() output."""
    series: dict = {name: [] for name in config.estimators}
    series["crlb"] = []
    for value, summary in results:
        for name in config.estimators:
            series[name].append((value, summary.per_estimator[name].rmse))
        series["crlb"].append((value, summary.crlb))
    return render_line_plot(series, x_label=axis)
