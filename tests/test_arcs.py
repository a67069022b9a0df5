import collections
import copy
import pickle
import re

import pytest

from arck0 import Arc
from geometry_reference import (
    ext1_dim,
    induced_triangles,
    maybe_arc,
    quadrilateral_sides,
    suspend,
)


def P(s, o):
    return (s, o)


def A(p, q):
    return Arc(P(*p), P(*q))


def test_arc_validity():
    with pytest.raises(ValueError):
        A((0, 0), (0, 0))
    with pytest.raises(ValueError):
        A((0, 0), (0, 1))
    with pytest.raises(ValueError):
        A((0, 3), (0, 2))
    # cross-segment pairs are never adjacent
    arc = A((0, 0), (1, 0))
    assert (arc.a, arc.b) == (P(0, 0), P(1, 0))


def test_arc_canonical_order_and_json():
    arc = A((1, 5), (0, 3))
    assert arc.a == P(0, 3) and arc.b == P(1, 5)
    assert arc.to_json() == [[0, 3], [1, 5]]
    assert Arc(*arc.to_json()) == arc


def test_arc_wraps_plain_pairs():
    # tuple endpoints are kept as given; other pairs (JSON lists, a tuple
    # subclass) are repacked as plain tuples, then ordered
    arc = Arc(P(0, 3), [0, 1])
    assert type(arc.a) is tuple and type(arc.b) is tuple
    assert (arc.a, arc.b) == (P(0, 1), P(0, 3))
    assert arc == A((0, 1), (0, 3)) and hash(arc) == hash(A((0, 1), (0, 3)))
    p, q = P(1, 0), P(0, 5)
    kept = Arc(p, q)
    assert kept.a is q and kept.b is p
    pair = collections.namedtuple("pair", "s o")
    assert type(Arc(pair(0, 3), pair(1, 5)).a) is tuple
    with pytest.raises(ValueError, match="degenerate arc"):
        Arc((0, 2), [0, 1])


def test_arc_rejects_points_that_are_not_int_pairs():
    # ValueError, as for every bad input: a coordinate that is not an int
    # (a str, a float, a bool) is named in check_point's words; anything but
    # a tuple (subclasses included) or a list of two items, iterable of two
    # ints or not, is named as not a pair
    for a, b, bad in (
        (("a", 0), (0, 2), "['a', 0]"),
        ((0, 0.5), (1, 0), "[0, 0.5]"),
        ((0, True), (1, 0), "[0, True]"),
        ((0, 0), [1, None], "[1, None]"),
    ):
        message = f"marked point {bad} needs integer coordinates"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Arc(a, b)
    for a, b, bad in (
        ((0, 0, 0), (1, 0), "(0, 0, 0)"),
        ((0,), (1, 0), "(0,)"),
        ((0, 0), [1, 0, 2], "[1, 0, 2]"),
        (5, (1, 5), "5"),
        ((0, 3), None, "None"),
        ({0: "x", 3: "y"}, (1, 5), "{0: 'x', 3: 'y'}"),
        (range(0, 6, 3), (1, 5), "range(0, 6, 3)"),
        ((1, 5), "03", "'03'"),
        ({"a": 0, "b": 2}, [1, 0], "{'a': 0, 'b': 2}"),
    ):
        message = f"marked point {bad} is not a pair of ints"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Arc(a, b)


def test_arc_is_a_validated_named_tuple():
    arc = A((1, 5), (0, 3))
    assert repr(arc) == "Arc(a=(0, 3), b=(1, 5))"
    # messages name arcs and points in the JSON form the CLI reads
    assert str(arc) == f"{arc}" == "[[0, 3], [1, 5]]"
    with pytest.raises(ValueError, match=r"^degenerate arc between \[0, 0\] and \[0, 1\]$"):
        Arc((0, 1), (0, 0))
    assert hash(arc) == hash((arc.a, arc.b))
    assert arc == (P(0, 3), P(1, 5))
    arcs = [A((1, 0), (1, 2)), A((0, 0), (1, 0)), A((0, 0), (0, 3)), A((0, -4), (1, 7))]
    assert sorted(arcs) == sorted(arcs, key=lambda x: (x.a, x.b))
    with pytest.raises(AttributeError):
        arc.a = P(0, 0)
    # _make and _replace order and validate like the constructor
    made = Arc._make([P(1, 5), P(0, 3)])
    assert type(made) is Arc and (made.a, made.b) == (P(0, 3), P(1, 5))
    replaced = arc._replace(b=(0, 0))
    assert type(replaced) is Arc and (replaced.a, replaced.b) == (P(0, 0), P(0, 3))
    with pytest.raises(ValueError, match="degenerate arc"):
        Arc._make([P(0, 2), P(0, 1)])
    with pytest.raises(ValueError, match="degenerate arc"):
        arc._replace(b=P(0, 4))
    for clone in (copy.copy(arc), pickle.loads(pickle.dumps(arc))):
        assert type(clone) is Arc and clone == arc


def test_maybe_arc():
    assert maybe_arc(P(0, 0), P(0, 1)) is None
    assert maybe_arc(P(0, 0), P(0, 0)) is None
    assert maybe_arc(P(0, 0), P(0, 2)) == A((0, 0), (0, 2))


def test_ext1_dim_examples():
    n = 1
    assert ext1_dim(n, A((0, 0), (0, 4)), A((0, 2), (0, 6))) == 1
    assert ext1_dim(n, A((0, 0), (0, 4)), A((0, 1), (0, 3))) == 0
    # shared endpoints never cross
    assert ext1_dim(n, A((0, 0), (0, 4)), A((0, 4), (0, 8))) == 0


def test_ext1_dim_symmetry_small_sweep():
    n = 2
    pts = [P(s, o) for s in range(2) for o in range(-3, 4)]
    arcs = []
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            arc = maybe_arc(p, q)
            if arc:
                arcs.append(arc)
    for x in arcs[::5]:
        for y in arcs[::7]:
            assert ext1_dim(n, x, y) == ext1_dim(n, y, x)


def test_suspend_examples():
    arc = A((0, 3), (1, 5))
    assert suspend(arc, 1) == A((0, 2), (1, 4))
    assert suspend(arc, 0) == arc
    assert suspend(suspend(arc, 1), -1) == arc


def test_suspension_equivariance_of_crossing():
    n = 2
    x, y = A((0, 0), (1, 1)), A((0, 2), (1, -2))
    base = ext1_dim(n, x, y)
    for k in (-4, -1, 1, 9):
        assert ext1_dim(n, suspend(x, k), suspend(y, k)) == base


def test_quadrilateral_sides_examples():
    n = 1
    assert quadrilateral_sides(n, A((0, 0), (0, 2)), A((0, 1), (0, 4))) == [
        None,
        None,
        A((0, 2), (0, 4)),
        A((0, 0), (0, 4)),
    ]
    assert quadrilateral_sides(n, A((0, 0), (0, 4)), A((0, 2), (0, 6))) == [
        A((0, 0), (0, 2)),
        A((0, 2), (0, 4)),
        A((0, 4), (0, 6)),
        A((0, 0), (0, 6)),
    ]


def test_quadrilateral_sides_one_nonzero_side():
    # vertex walk starts at the smaller endpoint of the first arc, so the
    # single surviving side lands in the {v2, v3} slot here
    n = 1
    sides = quadrilateral_sides(n, A((0, -1), (0, 1)), A((0, -2), (0, 0)))
    assert [s for s in sides if s is not None] == [A((0, 1), (0, -2))]
    assert sides == [None, None, A((0, -2), (0, 1)), None]


def test_quadrilateral_rejects_non_crossing():
    n = 1
    with pytest.raises(ValueError):
        quadrilateral_sides(n, A((0, 0), (0, 4)), A((0, 1), (0, 3)))


def test_induced_triangles_examples():
    n = 1
    big, small = A((0, 0), (0, 4)), A((0, 2), (0, 6))
    t1, t2 = induced_triangles(n, big, small)
    assert t1.first == big and t1.third == small
    assert set(t1.middle) == {A((0, 2), (0, 4)), A((0, 0), (0, 6))}
    assert t2.first == small and t2.third == big
    assert set(t2.middle) == {A((0, 0), (0, 2)), A((0, 4), (0, 6))}

    # two degenerate sides: each triangle keeps exactly one summand
    t1, t2 = induced_triangles(n, A((0, 0), (0, 2)), A((0, 1), (0, 4)))
    assert len(t1.middle) == 1 and len(t2.middle) == 1

    # three degenerate sides: one middle empty, the other a single arc
    t1, t2 = induced_triangles(n, A((0, -1), (0, 1)), A((0, -2), (0, 0)))
    middles = sorted([t1.middle, t2.middle], key=len)
    assert middles[0] == ()
    assert middles[1] == (A((0, -2), (0, 1)),)


def test_induced_triangle_sides_close_up():
    # every middle arc shares exactly one endpoint with each diagonal and
    # crosses neither; the two middles split the four sides into opposite pairs
    n = 2
    x, y = A((0, 0), (1, 0)), A((0, 2), (1, 2))
    t1, t2 = induced_triangles(n, x, y)
    sides = list(t1.middle) + list(t2.middle)
    assert len(sides) == 4
    for side in sides:
        assert len({side.a, side.b} & {x.a, x.b}) == 1
        assert len({side.a, side.b} & {y.a, y.b}) == 1
        assert ext1_dim(n, side, x) == 0
        assert ext1_dim(n, side, y) == 0
    assert len(set(sides)) == 4
