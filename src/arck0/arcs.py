"""Arcs between marked points and their validity.

A marked point is a plain ``(segment, offset)`` tuple of ints.  An arc joins
two marked points that are neither equal nor neighbours; pairs of adjacent
points are boundary segments and count as zero objects.  Which arcs cross,
and the triangles a crossing pair induces, are read off index structures
where they are needed (``tilting``, ``k0.euler_oracle``).
"""

from __future__ import annotations

from typing import NamedTuple


def is_degenerate_pair(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """True when {p, q} is a zero object: equal or adjacent marked points."""
    return p[0] == q[0] and abs(p[1] - q[1]) <= 1


class _Endpoints(NamedTuple):
    a: tuple[int, int]
    b: tuple[int, int]


class Arc(_Endpoints):
    """Unordered pair of non-adjacent marked points, stored lex-sorted.

    A validated named tuple: hashing, equality, ordering and the ``a``/``b``
    getters are the tuple's own, so an arc equals the plain pair of its
    endpoints.  Every construction, ``_make`` and ``_replace`` included,
    goes through ``__new__``.  Its str is its JSON form, as the CLI reads it.
    """

    __slots__ = ()

    def __new__(cls, a, b) -> "Arc":
        # only a tuple or a list of two ints is a point, else ValueError;
        # a plain tuple is kept as given, others (JSON lists) are repacked
        try:
            (s, o), (t, u) = a, b
        except (TypeError, ValueError):
            bad = a if not isinstance(a, (tuple, list)) or len(a) != 2 else b
            raise ValueError(f"marked point {bad!r} is not a pair of ints") from None
        if type(a) is not tuple:
            if not isinstance(a, (tuple, list)):
                raise ValueError(f"marked point {a!r} is not a pair of ints")
            a = s, o
        if type(b) is not tuple:
            if not isinstance(b, (tuple, list)):
                raise ValueError(f"marked point {b!r} is not a pair of ints")
            b = t, u
        if not type(s) is type(o) is type(t) is type(u) is int:
            bad = a if type(s) is not int or type(o) is not int else b
            raise ValueError(f"marked point {list(bad)} needs integer coordinates")
        if b < a:
            a, b = b, a
        if is_degenerate_pair(a, b):
            raise ValueError(f"degenerate arc between {list(a)} and {list(b)}")
        return tuple.__new__(cls, (a, b))

    @classmethod
    def _make(cls, iterable) -> "Arc":
        return cls(*iterable)

    def to_json(self) -> list[list[int]]:
        return [list(self.a), list(self.b)]

    def __str__(self) -> str:
        return str(self.to_json())
