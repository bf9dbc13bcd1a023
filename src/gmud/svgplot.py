"""Minimal self-contained SVG line charts (log-y), no plotting dependency."""

from __future__ import annotations

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#7f7f7f", "#bcbd22",
)

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 70, 170, 40, 55


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def line_chart(curves, title: str, xlabel: str, ylabel: str) -> str:
    """Render curves [(label, [(x, y), ...]), ...] with a log10 y axis.

    Points with y <= 0 are dropped (they have no log position); a curve
    with no positive points is skipped but still listed in the legend.
    When no point is positive, the axes span 1e-1 to 1e0.
    """
    xs = [x for _, pts in curves for x, y in pts]
    ys = [y for _, pts in curves for x, y in pts if y > 0.0] or [0.1]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    dec_lo = math.floor(math.log10(min(ys)))
    dec_hi = math.ceil(math.log10(max(ys)))
    if dec_hi == dec_lo:
        dec_hi += 1

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MT + ph * (dec_hi - math.log10(y)) / (dec_hi - dec_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML + pw / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]

    for d in range(dec_lo, dec_hi + 1):
        y = py(10.0**d)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_ML + pw}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end">1e{d}</text>'
        )

    n_xticks = 8
    for i in range(n_xticks + 1):
        x = x_lo + (x_hi - x_lo) * i / n_xticks
        parts.append(
            f'<line x1="{px(x):.1f}" y1="{_MT + ph}" x2="{px(x):.1f}" '
            f'y2="{_MT + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px(x):.1f}" y="{_MT + ph + 20}" text-anchor="middle">{_fmt(x)}</text>'
        )

    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )

    for i, (label, pts) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        visible = [(x, y) for x, y in pts if y > 0.0]
        if visible:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in visible)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
            for x, y in visible:
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.4" fill="{color}"/>'
                )
        ly = _MT + 14 + 18 * i
        parts.append(
            f'<line x1="{_ML + pw + 12}" y1="{ly - 4}" x2="{_ML + pw + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(f'<text x="{_ML + pw + 40}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
