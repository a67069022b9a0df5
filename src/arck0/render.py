"""SVG rendering of marked circles and arc families.

Segment s occupies the circular sector (s/n, (s+1)/n); inside a sector the
offsets are squashed through a tanh so that large offsets pile up visually
against the accumulation points, which are drawn as small open circles at the
sector boundaries.  Output is plain SVG 1.1 text, byte-identical for
identical input.
"""

from __future__ import annotations

import math
from typing import Iterable

from .circle import check_cap, check_point, check_size, points_in_window
from .arcs import Arc

SIZE = 480
CENTER = SIZE / 2
RADIUS = 200
SECTOR_PAD = 0.06
_MAX_POINTS = 100_000  # one tick mark per window point


def point_fraction(n: int, p: tuple[int, int], window: int) -> float:
    """Position of a marked point of the n-segment circle along the circumference, in [0, 1)."""
    check_point(n, p)
    w = max(window, 1)
    tau = w / 2.0
    # tanh is exactly +-1.0 from 19.1 on, so clamping the offset to +-80 tau
    # moves no point, and a huge offset never reaches the float division
    offset = max(-40 * w, min(p[1], 40 * w))
    squash = 0.5 * (1.0 + math.tanh(offset / tau))
    inner = SECTOR_PAD + (1.0 - 2.0 * SECTOR_PAD) * squash
    return (p[0] + inner) / n


def _polar(fraction: float, radius: float = RADIUS) -> tuple[float, float]:
    """The point ``radius`` from the centre, ``fraction`` of a turn anticlockwise from the top."""
    theta = 2.0 * math.pi * fraction + math.pi / 2
    return (CENTER + radius * math.cos(theta), CENTER - radius * math.sin(theta))


def point_xy(n: int, p: tuple[int, int], window: int) -> tuple[float, float]:
    return _polar(point_fraction(n, p, window))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(n: int, arcs: Iterable[Arc], window: int) -> str:
    """Draw the n-segment circle, in-window tick marks, accumulation markers and arcs.

    A window of more than 100,000 points raises ValueError up front.
    """
    check_size("n", n, 1)
    check_size("window", window, 1)
    check_cap(f"n={n}, window={window}", n * (2 * window + 1), "window points", _MAX_POINTS)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<circle cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" r="{RADIUS}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]

    for p in points_in_window(n, window):
        fraction = point_fraction(n, p, window)
        x1, y1 = _polar(fraction, RADIUS - 4)
        x2, y2 = _polar(fraction, RADIUS + 4)
        lines.append(
            f'<line class="tick" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="black" stroke-width="1"/>'
        )

    for b in range(n):
        x, y = _polar((b + 1) / n)
        lines.append(
            f'<circle class="accumulation" cx="{_fmt(x)}" cy="{_fmt(y)}" r="6" '
            'fill="white" stroke="black" stroke-width="1.5"/>'
        )

    for arc in arcs:
        x1, y1 = point_xy(n, arc.a, window)
        x2, y2 = point_xy(n, arc.b, window)
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        # pull the control point toward the centre so chords read as arcs
        cx = CENTER + (mx - CENTER) * 0.45
        cy = CENTER + (my - CENTER) * 0.45
        lines.append(
            f'<path class="arc" d="M {_fmt(x1)} {_fmt(y1)} '
            f'Q {_fmt(cx)} {_fmt(cy)} {_fmt(x2)} {_fmt(y2)}" '
            'fill="none" stroke="black" stroke-width="1.2"/>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
