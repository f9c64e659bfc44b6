"""Self-contained SVG output: rose diagrams and influence-curve plots.

Rose diagrams draw one wedge per bin with wedge area proportional to the
bin value (radius grows with the square root). The angle convention is
embedded in the SVG title/desc metadata: 0 rad points right (+x, east) and
angles increase counterclockwise on screen.
"""

from __future__ import annotations

import math

SIZE = 420
MARGIN = 30

_CONVENTION = (
    "angle convention: math, 0 rad = +x (east), counterclockwise positive; "
    "wedge area proportional to bin value"
)

__all__ = ["curve_svg", "rose_svg"]


def _polar(cx, cy, r, theta):
    # SVG y grows downward; negate the sine to keep ccw on screen
    return cx + r * math.cos(theta), cy - r * math.sin(theta)


def rose_svg(values, title: str) -> str:
    """Rose diagram SVG for one circular histogram (any nonnegative values)."""
    values = list(values)
    n = len(values)
    if n < 1 or any(v < 0 for v in values):
        raise ValueError("rose_svg needs at least one nonnegative value")
    vmax = max(values)
    cx = cy = SIZE / 2
    rmax = SIZE / 2 - MARGIN
    width = 2.0 * math.pi / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f"<title>{title}</title>",
        f"<desc>{_CONVENTION}; {n} bins; max value {float(vmax)!r}</desc>",
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    for frac in (0.25, 0.5, 0.75, 1.0):
        r = rmax * math.sqrt(frac)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{r:.2f}" fill="none" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for i, v in enumerate(values):
        if vmax <= 0 or v <= 0:
            continue
        r = rmax * math.sqrt(v / vmax)
        if n == 1:
            # an arc whose ends coincide draws nothing: one bin is a disc
            shape = f'<circle cx="{cx}" cy="{cy}" r="{r:.3f}" '
        else:
            x0, y0 = _polar(cx, cy, r, i * width)
            x1, y1 = _polar(cx, cy, r, (i + 1) * width)
            shape = (f'<path d="M {cx} {cy} L {x0:.3f} {y0:.3f} '
                     f'A {r:.3f} {r:.3f} 0 0 0 {x1:.3f} {y1:.3f} Z" ')
        parts.append(shape + 'fill="#4878a8" fill-opacity="0.75" '
                     'stroke="#2f4f6f" stroke-width="0.5"/>')
    for label, theta in (("0", 0.0), ("pi/2", 0.5 * math.pi),
                         ("pi", math.pi), ("3pi/2", 1.5 * math.pi)):
        x, y = _polar(cx, cy, rmax + 12, theta)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="11" '
            'font-family="monospace" text-anchor="middle" '
            f'fill="#555555">{label}</text>'
        )
    parts.append(
        f'<text x="{MARGIN / 2}" y="{SIZE - 8}" font-size="11" '
        f'font-family="monospace" fill="#555555">outer ring = {vmax:.6g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_svg(offsets, values, title: str) -> str:
    """Line plot of a periodic influence curve over [-pi, pi)."""
    offsets = list(offsets)
    values = list(values)
    if len(offsets) != len(values) or len(offsets) < 2:
        raise ValueError("curve_svg needs matching offsets and values")
    w, h = 640, 360
    lo = min(values + [0.0])
    hi = max(values + [0.0])
    if hi == lo:
        hi = lo + 1.0
    pad = 0.08 * (hi - lo)
    lo -= pad
    hi += pad

    def sx(t):
        return MARGIN + (t + math.pi) / (2.0 * math.pi) * (w - 2 * MARGIN)

    def sy(v):
        return h - MARGIN - (v - lo) / (hi - lo) * (h - 2 * MARGIN)

    points = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(offsets, values))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f"<title>{title}</title>",
        "<desc>offset in radians relative to the travel direction, "
        "[-pi, pi)</desc>",
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{sy(0.0):.2f}" x2="{w - MARGIN}" '
        f'y2="{sy(0.0):.2f}" stroke="#999999" stroke-width="1"/>',
    ]
    for t, label in ((-math.pi, "-pi"), (-math.pi / 2, "-pi/2"), (0.0, "0"),
                     (math.pi / 2, "pi/2")):
        x = sx(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{h - MARGIN}" x2="{x:.2f}" '
            f'y2="{h - MARGIN + 5}" stroke="#555555" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{h - MARGIN + 18}" font-size="11" '
            'font-family="monospace" text-anchor="middle" '
            f'fill="#555555">{label}</text>'
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#b04030" '
        'stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{MARGIN}" y="{MARGIN - 10}" font-size="12" '
        f'font-family="monospace" fill="#333333">{title}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
