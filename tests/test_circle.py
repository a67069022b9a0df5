import pytest

from arck0 import CircleModel, MarkedPoint
from geometry_reference import cyclic_key


def P(s, o):
    return MarkedPoint(s, o)


def test_model_rejects_nonpositive_segment_count():
    with pytest.raises(ValueError):
        CircleModel(0)
    with pytest.raises(ValueError):
        CircleModel(-2)


def test_check_point_rejects_bad_points():
    m = CircleModel(2)
    m.check_point(P(1, -7))
    for bad in (P(2, 0), P(-1, 0), P("a", 0), P(0, 0.5), P(1, True)):
        with pytest.raises(ValueError):
            m.check_point(bad)


def test_cyclic_trichotomy():
    # the reference cyclic order: b lies inside exactly one of the
    # anticlockwise intervals (a, c) and (c, a)
    pts = [P(s, o) for s in range(3) for o in range(-2, 3)]

    def inside(a, b, c):
        return cyclic_key(a, b, 3) < cyclic_key(a, c, 3)

    for a in pts:
        for b in pts:
            for c in pts:
                if a == c or b == a or b == c:
                    continue
                assert inside(a, b, c) != inside(c, b, a)


def test_points_in_window_order_and_count():
    m = CircleModel(2)
    pts = list(m.points_in_window(2))
    assert len(pts) == 2 * 5
    assert pts[0] == P(0, -2) and pts[-1] == P(1, 2)
    assert pts == sorted(pts)


def test_point_json():
    assert P(1, -4).to_json() == [1, -4]
