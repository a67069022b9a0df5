"""Grothendieck-group data of the completed model.

The completion with n accumulation points is presented through a host circle
with 2n segments: the kernel of the localisation is generated by arcs lying
on alternating host segments (the even ones), and the group of the completion
is the cokernel of the map sending each kernel generator to its class in the
host group.
Only that cokernel is computed here; the localisation itself is not modelled.
"""

from __future__ import annotations

from .circle import MarkedPoint, check_size
from .arcs import Arc
from .snf import GroupPresentation, VerificationError, cokernel_presentation
from .k0 import (
    _MAX_ORACLE_ARCS,
    InsufficientWindowError,
    OracleQuotient,
    _window_arcs,
    class_same_segment,
    euler_oracle,
)

_MAX_COMPLETED_ENTRIES = 2_000_000  # entries of the 2n x n matrix: n <= 1000


def kernel_generator_arc(n: int, i: int) -> Arc:
    """Generator of the i-th kernel copy, 1 <= i <= n.

    It is the two-step arc below offset 0 on host segment 2(i-1).
    """
    check_size("n", n, 1)
    check_size("i", i, 1)
    if i > n:
        raise ValueError(f"kernel index {i} out of range [1, {n}]")
    segment = 2 * (i - 1)
    return Arc(MarkedPoint(segment, -2), MarkedPoint(segment, 0))


def f_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Classes of the kernel generators over the host basis (Y1, X2, ..., X2n).

    Returns the n columns, each of length 2n: the same-segment class of each
    kernel generator arc on the 2n-segment host.  Column 1 is [X2] + [Y1];
    column i >= 2 is 2[X(2i-1)] - [X2] - [Y1].
    """
    check_size("n", n, 1)
    return tuple(
        class_same_segment(2 * n, kernel_generator_arc(n, i)) for i in range(1, n + 1)
    )


def compute_k0_completed(n: int) -> GroupPresentation:
    """Group of the completion: Z^2n modulo the kernel generator classes.

    A 2n x n matrix of more than 2,000,000 entries raises ValueError up front.
    """
    check_size("n", n, 1)
    if 2 * n * n > _MAX_COMPLETED_ENTRIES:
        raise ValueError(
            f"n={n} gives a {2 * n} x {n} matrix, more than {_MAX_COMPLETED_ENTRIES} entries"
        )
    return cokernel_presentation(2 * n, f_matrix(n))


def verify_f_oracle(n: int, window: int) -> OracleQuotient:
    """Check the completion's closed forms against the Euler oracle on the host.

    Three checks on the oracle of the 2n-segment host, each raising
    VerificationError that names it and its first offending arc or segment:
    the coordinates of the kernel generators over the host basis (Y1, X2,
    ..., X2n) equal the columns of ``f_matrix(n)`` exactly, signs included;
    every same-segment window arc has the coordinates
    ``class_same_segment(2n, arc)``; and the one-sided fountain of every
    host segment s, W(i) from (s, -window) over i interior points, has
    [W(i)] = (i % 2)[W(1)] for i = 1..2*window-1 and [W(1)] != 0.
    Returns the host oracle.  A host window of more than 34,000 arcs raises
    ValueError up front, naming ``n`` and its 2n-segment host.
    """
    check_size("n", n, 1)
    check_size("window", window, 2, InsufficientWindowError)
    num_arcs = _window_arcs(2 * n, window)
    if num_arcs > _MAX_ORACLE_ARCS:
        raise ValueError(
            f"n={n}, window={window}: its {2 * n}-segment host gives {num_arcs} window arcs, "
            f"more than {_MAX_ORACLE_ARCS}"
        )
    oracle = euler_oracle(2 * n, window)
    coordinates = tuple(oracle.class_of(kernel_generator_arc(n, i)) for i in range(1, n + 1))
    if coordinates != f_matrix(n):
        raise VerificationError(
            f"oracle coordinates of the kernel generators differ from f_matrix({n}): {coordinates}"
        )
    for arc in oracle.arcs:
        if arc.same_segment and oracle.class_of(arc) != class_same_segment(2 * n, arc):
            raise VerificationError(
                f"same-segment closed form differs from host oracle coordinates "
                f"{oracle.class_of(arc)} of arc {arc}"
            )
    for s in range(2 * n):
        start = MarkedPoint(s, -window)
        w1 = oracle.class_of(Arc(start, MarkedPoint(s, 2 - window)))
        for i in range(1, 2 * window):
            cls = oracle.class_of(Arc(start, MarkedPoint(s, i + 1 - window)))
            if not any(w1) or cls != tuple(i % 2 * v for v in w1):
                raise VerificationError(
                    f"fountain parity fails on host segment {s}: [W({i})] = {cls}, [W(1)] = {w1}"
                )
    return oracle
