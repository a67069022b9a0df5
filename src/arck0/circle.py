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

from dataclasses import dataclass
from typing import Iterator, NamedTuple


class MarkedPoint(NamedTuple):
    segment: int
    offset: int

    def to_json(self) -> list[int]:
        return [self.segment, self.offset]


@dataclass(frozen=True)
class CircleModel:
    """A circle whose marked points form ``num_segments`` bi-infinite segments."""

    num_segments: int

    def __post_init__(self) -> None:
        if type(self.num_segments) is not int:
            raise ValueError(f"number of segments {self.num_segments!r} is not an int")
        if self.num_segments < 1:
            raise ValueError(f"need at least one segment, got {self.num_segments}")

    def check_point(self, p: MarkedPoint) -> None:
        """Raise ValueError unless ``p`` is a marked point of this circle."""
        segment, offset = p
        if type(segment) is not int or type(offset) is not int:
            raise ValueError(f"marked point {list(p)} needs integer coordinates")
        if not 0 <= segment < self.num_segments:
            raise ValueError(f"segment {segment} out of range [0, {self.num_segments})")

    def points_in_window(self, window: int) -> Iterator[MarkedPoint]:
        """All marked points with offset in [-window, window], anticlockwise."""
        if type(window) is not int:
            raise ValueError(f"window {window!r} is not an int")
        if window < 0:
            raise ValueError("window must be nonnegative")
        for s in range(self.num_segments):
            for o in range(-window, window + 1):
                yield MarkedPoint(s, o)
