"""Combinatorial model of a circle of marked points with n accumulation points.

The circle is its segment count ``n``, a plain int, and a marked point is a
plain ``(segment, offset)`` tuple of ints, as ``as_point`` checks it.  The
accumulation points, never marked themselves, split the circle into ``n``
bi-infinite "segments".  Within a segment, offsets grow anticlockwise;
offset -> +inf approaches the segment's upper accumulation point from below
and offset -> -inf approaches the lower one from above.  Only the
combinatorial order matters, so the infinite marked set is held lazily:
``points_in_window`` takes a window.
"""

from __future__ import annotations

from typing import Iterator


def check_size(name: str, value: int, minimum: int) -> None:
    """The one lower-bound rule: ValueError unless ``value`` is an int at least ``minimum``.

    The type comes first, so None, a float, a bool or a str never reaches the comparison.
    Upper bounds go through ``check_cap``.
    """
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an int")
    if value < minimum:
        raise ValueError(f"need {name} >= {minimum}, got {value}")


def check_cap(what: str, count: int, unit: str, cap: int) -> None:
    """The one upper-bound rule: ValueError when ``what`` gives a ``count`` over ``cap``.

    Each caller checks its cap where the work it bounds happens, before any of
    it starts; every cap message is formatted here.
    """
    if count > cap:
        raise ValueError(f"{what} gives {count} {unit}, more than {cap}")


def as_point(p) -> tuple[int, int]:
    """The one marked-point rule: ``p`` as a plain tuple of two ints, else ValueError."""
    if not isinstance(p, (tuple, list)) or len(p) != 2:
        raise ValueError(f"marked point {p!r} is not a pair of ints")
    s, o = p
    if type(s) is not int or type(o) is not int:
        raise ValueError(f"marked point {list(p)} needs integer coordinates")
    return p if type(p) is tuple else (s, o)


def check_point(n: int, p: tuple[int, int]) -> None:
    """Raise ValueError unless ``p`` is a marked point of the n-segment circle."""
    segment, _ = as_point(p)
    if not 0 <= segment < n:
        raise ValueError(f"segment {segment} out of range [0, {n})")


def points_in_window(n: int, window: int) -> Iterator[tuple[int, int]]:
    """All marked points of the n-segment circle with offset in [-window, window], anticlockwise."""
    check_size("window", window, 0)
    for s in range(n):
        for o in range(-window, window + 1):
            yield s, o
