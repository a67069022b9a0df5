"""Grothendieck-group data of the completed model.

The completion with n accumulation points is presented through a host circle
with 2n segments: the kernel of the localisation is generated by arcs lying
on alternating host segments (the even ones), and the group of the completion
is the cokernel of the map sending each kernel generator to its class in the
host group.
Only that cokernel is computed here; the localisation itself is not modelled.
"""

from __future__ import annotations

from .circle import check_cap, check_size
from .arcs import Arc
from .snf import GroupPresentation, VerificationError, cokernel_presentation
from .k0 import (
    OracleQuotient,
    _check_oracle_arcs,
    arc_class,
    euler_oracle,
    verify_closed_form,
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
    return Arc((segment, -2), (segment, 0))


def f_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Classes of the kernel generators over the host basis (Y1, X2, ..., X2n).

    Returns the n columns, each of length 2n: ``arc_class(2n, arc)`` of each
    kernel generator arc.  Generator i joins (2i-2, -2) and (2i-2, 0), two
    even offsets on host segment 2i-2, so its class is 2u_(2i-2): column 1
    is [Y1] + [X2], and column i >= 2 is 2[X(2i-1)] - [Y1] - [X2].  A matrix
    of more than 2,000,000 entries raises ValueError up front.
    """
    check_size("n", n, 1)
    check_cap(f"n={n}", 2 * n * n, "matrix entries", _MAX_COMPLETED_ENTRIES)
    return tuple(arc_class(2 * n, kernel_generator_arc(n, i)) for i in range(1, n + 1))


def compute_k0_completed(n: int) -> GroupPresentation:
    """Group of the completion: Z^2n modulo the columns of ``f_matrix(n)``, whose cap it shares."""
    columns = f_matrix(n)
    return cokernel_presentation(2 * n, columns)


def verify_f_oracle(n: int, window: int) -> OracleQuotient:
    """Check the completion's closed forms against the Euler oracle on the host.

    Two checks on the oracle of the 2n-segment host, each raising
    VerificationError: the coordinates of the kernel generators over the
    host basis (Y1, X2, ..., X2n) equal the columns of ``f_matrix(n)``
    exactly, signs included; and ``verify_closed_form`` finds the closed
    forms of the host basis unimodular and every window arc's coordinates,
    read over them, equal to ``arc_class(2n, arc)``.  A failure of the
    second names ``euler_oracle(2n, window)`` and any offending arc.
    Returns the host oracle.  A window below 2, or a host window of more
    than 34,000 arcs, raises ValueError up front, the latter naming ``n``
    and its 2n-segment host.
    """
    check_size("n", n, 1)
    check_size("window", window, 2)
    _check_oracle_arcs(f"n={n}, window={window}: its {2 * n}-segment host", 2 * n, window)
    oracle = euler_oracle(2 * n, window)
    coordinates = tuple(oracle.class_of(kernel_generator_arc(n, i)) for i in range(1, n + 1))
    if coordinates != f_matrix(n):
        raise VerificationError(
            f"oracle coordinates of the kernel generators differ from f_matrix({n}): {coordinates}"
        )
    verify_closed_form(oracle)
    return oracle
