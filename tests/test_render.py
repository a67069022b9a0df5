from arck0 import Arc, build_standard_tilting, render_svg
from arck0.circle import points_in_window
from arck0.render import point_fraction, point_xy


def P(s, o):
    return (s, o)


def test_empty_arc_list_draws_circle_ticks_markers():
    svg = render_svg(2, [], 3)
    assert svg.count('class="tick"') == 2 * 7
    assert svg.count('class="accumulation"') == 2
    assert svg.count('class="arc"') == 0
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")


def test_standard_configuration_n4():
    t = build_standard_tilting(4, None, 2)
    svg = render_svg(t.n, t.arcs, 6)
    assert svg.count('class="accumulation"') == 4
    assert svg.count('class="arc"') == len(t.arcs) == 4 + 1 + 16
    assert svg.count('class="tick"') == 4 * 13


def test_render_is_deterministic():
    t = build_standard_tilting(3, None, 2)
    a = render_svg(t.n, t.arcs, 5)
    b = render_svg(t.n, t.arcs, 5)
    assert a == b


def test_crossing_arcs_overlap_in_the_plane():
    window = 6
    x = Arc(P(0, 0), P(0, 4))
    y = Arc(P(0, 2), P(0, 6))

    def bbox(arc):
        (x1, y1), (x2, y2) = point_xy(1, arc.a, window), point_xy(1, arc.b, window)
        return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))

    bx, by = bbox(x), bbox(y)
    assert bx[0] <= by[2] and by[0] <= bx[2]
    assert bx[1] <= by[3] and by[1] <= bx[3]


def test_order_preserving_embedding():
    window = 5
    fracs = [point_fraction(2, p, window) for p in points_in_window(2, window)]
    assert fracs == sorted(fracs)
    assert all(0 < f < 1 for f in fracs)
