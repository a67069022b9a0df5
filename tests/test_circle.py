import re

import pytest

from arck0 import (
    build_standard_tilting,
    completion,
    compute_k0_completed,
    euler_oracle,
    f_matrix,
    k0,
    tilting,
    verify_f_oracle,
)
from arck0.circle import check_point, points_in_window
from geometry_reference import cyclic_key


def P(s, o):
    return (s, o)


def test_check_point_rejects_bad_points():
    check_point(2, P(1, -7))
    for bad in (P(2, 0), P(-1, 0), P("a", 0), P(0, 0.5), P(1, True)):
        with pytest.raises(ValueError):
            check_point(2, bad)
    # anything but a list or tuple of two items is named, not unpacked
    for bad in (5, None, (0, 1, 2), "ab"):
        message = f"marked point {bad!r} is not a pair of ints"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_point(2, bad)


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
    pts = list(points_in_window(2, 2))
    assert len(pts) == 2 * 5
    assert pts[0] == P(0, -2) and pts[-1] == P(1, 2)
    assert pts == sorted(pts)


def _tilting(n, depth):
    return build_standard_tilting(n, None, depth)


def _entries(n):
    return sum(map(len, f_matrix(n)))


# each capped entry point: the module holding its cap, the cap, the exact
# count of the work the cap bounds, the subject and unit of its message
# (formatted with the size and twice its n), and the sizes to try
CAPS = [
    pytest.param(
        _tilting, tilting, "_MAX_TILTING_ARCS", lambda n, d: len(_tilting(n, d).arcs),
        "n={}, depth={}", "tilting arcs", [(n, d) for n in range(1, 8) for d in (1, 2, 5)],
        id="build_standard_tilting",
    ),
    pytest.param(
        euler_oracle, k0, "_MAX_ORACLE_ARCS", lambda n, w: len(euler_oracle(n, w).arcs),
        "n={}, window={}", "window arcs", [(1, 2), (1, 5), (2, 2), (3, 3), (4, 2)],
        id="euler_oracle",
    ),
    pytest.param(
        verify_f_oracle, k0, "_MAX_ORACLE_ARCS", lambda n, w: len(verify_f_oracle(n, w).arcs),
        "n={0}, window={1}: its {2}-segment host", "window arcs", [(1, 2), (1, 4), (2, 2)],
        id="verify_f_oracle",
    ),
    pytest.param(
        f_matrix, completion, "_MAX_COMPLETED_ENTRIES", _entries,
        "n={}", "matrix entries", [(1,), (2,), (3,), (7,)],
        id="f_matrix",
    ),
    pytest.param(
        compute_k0_completed, completion, "_MAX_COMPLETED_ENTRIES", _entries,
        "n={}", "matrix entries", [(1,), (2,), (3,), (7,)],
        id="compute_k0_completed",
    ),
]


@pytest.mark.parametrize("call,module,cap,count,subject,unit,sizes", CAPS)
def test_every_cap_admits_its_exact_count(
    monkeypatch, call, module, cap, count, subject, unit, sizes
):
    # the count checked up front is the real one: a cap at the count admits
    # the call, one below rejects it through check_cap with the exact message
    for size in sizes:
        exact = count(*size)
        what = subject.format(*size, 2 * size[0])
        message = f"{what} gives {exact} {unit}, more than {exact - 1}"
        with monkeypatch.context() as m:
            m.setattr(module, cap, exact)
            call(*size)
            m.setattr(module, cap, exact - 1)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(*size)
