"""Deterministic CSV and SVG emission of ball-model coordinates."""

from __future__ import annotations

import math


def format_float(x: float, digits: int = 12) -> str:
    s = f"{x:.{digits}g}"
    return "0" if s in ("-0", "-0.0") else s


def ball_csv(points, *, digits: int = 12) -> str:
    """CSV of tagged ball-model points: x1..xn,tag per row."""
    if not points:
        return "tag\n"
    n = len(points[0][0])
    header = ",".join(f"x{i+1}" for i in range(n)) + ",tag"
    lines = [header]
    for coords, tag in points:
        lines.append(",".join(format_float(c, digits) for c in coords) + f",{tag}")
    return "\n".join(lines) + "\n"


_SVG_SIZE = 500
_COLORS = {"orbit": "#1f77b4", "limit": "#d62728", "basepoint": "#2ca02c"}


def ball_svg(points) -> str:
    """Static scatter of the first two ball coordinates inside the unit disk.

    Only meaningful for ambient hyperbolic dimension <= 3 (projection);
    output is deterministic for identical input.
    """
    half = _SVG_SIZE / 2

    def sx(v):
        return format_float(half + v * (half - 10), 6)

    def sy(v):
        return format_float(half - v * (half - 10), 6)

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
        f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<circle cx="{half}" cy="{half}" r="{half - 10}" fill="none" '
        'stroke="#000000" stroke-width="1"/>',
    ]
    for coords, tag in points:
        x = coords[0] if coords else 0.0
        y = coords[1] if len(coords) > 1 else 0.0
        r = math.hypot(x, y)
        if r > 1.0:  # clamp stray numeric overshoot onto the rim
            x, y = x / r, y / r
        color = _COLORS.get(tag, "#7f7f7f")
        rows.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="3" fill="{color}">'
                    f'<title>{tag}</title></circle>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"
