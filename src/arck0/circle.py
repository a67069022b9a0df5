"""Combinatorial model of a circle of marked points with n accumulation points.

Marked points are indexed by ``(segment, offset)``: the circle is split into
``n`` bi-infinite runs of marked points ("segments") by the accumulation
points, which are themselves never marked.  Within a segment, offsets grow
anticlockwise; offset -> +inf approaches the segment's upper accumulation
point from below and offset -> -inf approaches the lower one from above.
Only the combinatorial order matters, so the infinite marked set is held
lazily: operations that enumerate points take an explicit window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

INFINITE = math.inf


class MarkedPoint(NamedTuple):
    segment: int
    offset: int

    def to_json(self) -> list[int]:
        return [self.segment, self.offset]


def cyclic_key(origin: MarkedPoint, p: MarkedPoint, num_segments: int) -> tuple[int, int]:
    """Sort key for the linear order obtained by cutting the circle at ``origin``.

    Smaller keys come first when walking anticlockwise from ``origin``.
    ``p`` must differ from ``origin``.
    """
    d = (p[0] - origin[0]) % num_segments
    if d == 0 and p[1] < origin[1]:
        # same segment but clockwise of the origin: reached last, after the wrap
        d = num_segments
    return (d, p[1])


@dataclass(frozen=True)
class CircleModel:
    """A circle whose marked points form ``num_segments`` bi-infinite segments."""

    num_segments: int

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError(f"need at least one segment, got {self.num_segments}")

    def point(self, segment: int, offset: int) -> MarkedPoint:
        if not 0 <= segment < self.num_segments:
            raise ValueError(f"segment {segment} out of range [0, {self.num_segments})")
        return MarkedPoint(segment, offset)

    def check_point(self, p: MarkedPoint) -> MarkedPoint:
        return self.point(p[0], p[1])

    def step(self, p: MarkedPoint, k: int = 1) -> MarkedPoint:
        """The k-th successor (k > 0) or predecessor (k < 0) of ``p``.

        Successors never leave a segment: the accumulation points are not
        marked, so there is always a next marked point on the same side.
        """
        self.check_point(p)
        return MarkedPoint(p[0], p[1] + k)

    def in_open_interval(self, a: MarkedPoint, b: MarkedPoint, c: MarkedPoint) -> bool:
        """True iff ``b`` lies strictly inside the anticlockwise interval (a, c)."""
        a = self.check_point(a)
        b = self.check_point(b)
        c = self.check_point(c)
        if a == c:
            raise ValueError("empty interval: endpoints coincide")
        if b == a or b == c:
            return False
        n = self.num_segments
        return cyclic_key(a, b, n) < cyclic_key(a, c, n)

    def interior_count(self, x: MarkedPoint, y: MarkedPoint) -> int | float:
        """Number of marked points strictly between ``x`` and ``y``.

        The count is taken inside the segment when both points share one;
        endpoints in different segments have an accumulation point (hence
        infinitely many marked points) on both sides, so the result is
        INFINITE.
        """
        x = self.check_point(x)
        y = self.check_point(y)
        if x == y:
            raise ValueError("interior_count needs two distinct points")
        if x[0] != y[0]:
            return INFINITE
        return abs(x[1] - y[1]) - 1

    def points_in_window(self, window: int) -> Iterator[MarkedPoint]:
        """All marked points with offset in [-window, window], anticlockwise."""
        if window < 0:
            raise ValueError("window must be nonnegative")
        for s in range(self.num_segments):
            for o in range(-window, window + 1):
                yield MarkedPoint(s, o)
