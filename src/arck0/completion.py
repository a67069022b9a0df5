"""Grothendieck-group data of the completed model.

The completion with n accumulation points is presented through a host circle
with 2n segments: the kernel of the localisation is generated by arcs lying
on alternating host segments (the even ones), and the group of the completion
is the cokernel of the map sending each kernel generator to its class in the
host group.
Only that cokernel is computed here; the localisation itself is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circle import MarkedPoint
from .arcs import Arc
from .snf import GroupPresentation, cokernel_presentation
from .k0 import OracleQuotient, class_same_segment, euler_oracle

_MAX_COMPLETED_ENTRIES = 2_000_000  # entries of the 2n x n matrix: n <= 1000


def kernel_generator_arc(n: int, i: int) -> Arc:
    """Generator of the i-th kernel copy, 1 <= i <= n.

    It is the two-step arc below offset 0 on host segment 2(i-1).
    """
    if not 1 <= i <= n:
        raise ValueError(f"kernel index {i} out of range [1, {n}]")
    segment = 2 * (i - 1)
    return Arc(MarkedPoint(segment, -2), MarkedPoint(segment, 0))


def f_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Classes of the kernel generators over the host basis (Y1, X2, ..., X2n).

    Returns the n columns, each of length 2n: the same-segment class of each
    kernel generator arc on the 2n-segment host.  Column 1 is [X2] + [Y1];
    column i >= 2 is 2[X(2i-1)] - [X2] - [Y1].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return tuple(
        class_same_segment(2 * n, kernel_generator_arc(n, i)) for i in range(1, n + 1)
    )


def compute_k0_completed(n: int) -> GroupPresentation:
    """Group of the completion: Z^2n modulo the kernel generator classes.

    A 2n x n matrix of more than 2,000,000 entries raises ValueError up front.
    """
    if 2 * n * n > _MAX_COMPLETED_ENTRIES:
        raise ValueError(
            f"n={n} gives a {2 * n} x {n} matrix, more than {_MAX_COMPLETED_ENTRIES} entries"
        )
    return cokernel_presentation(2 * n, f_matrix(n))


@dataclass(frozen=True)
class CompletionReport:
    """Comparison of the closed-form route against the brute-force oracle.

    ``quotient`` is the host oracle the comparison was read from, kept for
    further checks on the same window.
    """

    expected: GroupPresentation
    oracle: GroupPresentation
    quotient: OracleQuotient = field(repr=False, compare=False)


def verify_f_oracle(n: int, window: int) -> CompletionReport:
    """Check the generator-class formula against the Euler oracle on the host.

    The oracle quotient of the 2n-segment host is quotiented further by the
    classes of the kernel generator arcs; the resulting presentation must
    equal ``compute_k0_completed(n)``.  Cokernel presentations are invariant
    under basis change and column signs, so no sign convention enters.
    """
    expected = compute_k0_completed(n)
    oracle = euler_oracle(2 * n, window)
    classes = [oracle.class_of(kernel_generator_arc(n, i)) for i in range(1, n + 1)]
    oracle_side = cokernel_presentation(
        oracle.num_live, [*oracle.relations.values(), *classes]
    )
    return CompletionReport(
        expected=expected,
        oracle=oracle_side,
        quotient=oracle,
    )
