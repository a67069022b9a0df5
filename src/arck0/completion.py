"""Grothendieck-group data of the completed model.

The completion with n accumulation points is presented through a host circle
with 2n segments: the kernel of the localisation is generated by arcs lying
on alternating host segments, and the group of the completion is the cokernel
of the map sending each kernel generator to its class in the host group.
Only that cokernel is computed here; the localisation itself is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circle import CircleModel, MarkedPoint
from .arcs import Arc
from .snf import GroupPresentation, IntMatrix, cokernel_presentation
from .k0 import InsufficientWindowError, OracleQuotient, euler_oracle


class CompletionModel:
    """Host circle with 2n segments plus the alternating kernel data.

    Kernel arcs live on the even host segments (0, 2, ..., 2n-2); the kernel
    anchor of the i-th copy is the anchor point of segment 2(i-1).
    """

    def __init__(self, n: int, anchor_offsets: list[int] | None = None):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if anchor_offsets is None:
            anchor_offsets = [0] * n
        if len(anchor_offsets) != n:
            raise ValueError(f"expected {n} kernel anchor offsets, got {len(anchor_offsets)}")
        self.n = n
        self.host = CircleModel(2 * n)
        self.kernel_segments = tuple(range(0, 2 * n, 2))
        self.kernel_anchors = tuple(
            MarkedPoint(2 * i, int(anchor_offsets[i])) for i in range(n)
        )

    def __repr__(self) -> str:
        return f"CompletionModel(n={self.n})"


def kernel_generator_arc(cm: CompletionModel, i: int) -> Arc:
    """Generator of the i-th kernel copy: the two-step arc below its anchor."""
    if not 1 <= i <= cm.n:
        raise ValueError(f"kernel index {i} out of range [1, {cm.n}]")
    anchor = cm.kernel_anchors[i - 1]
    return Arc(cm.host.step(anchor, -2), anchor)


def is_kernel_object(cm: CompletionModel, arc: Arc) -> bool:
    """Whether the arc lies inside one kernel segment of the host."""
    return arc.a[0] == arc.b[0] and arc.a[0] in cm.kernel_segments


def f_matrix(n: int) -> IntMatrix:
    """Classes of the kernel generators over the host basis (Y1, X2, ..., X2n).

    Column 1 is [X2] + [Y1]; column i >= 2 is 2[X(2i-1)] - [X2] - [Y1].
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    columns = []
    for i in range(1, n + 1):
        col = [0] * (2 * n)
        if i == 1:
            col[0] = 1  # Y1
            col[1] = 1  # X2
        else:
            col[2 * i - 2] = 2  # X(2i-1) sits at basis index 2i-2
            col[0] = -1
            col[1] = -1
        columns.append(col)
    return IntMatrix.from_columns(2 * n, columns)


def compute_k0_completed(n: int) -> GroupPresentation:
    """Group of the completion: Z^2n modulo the kernel generator classes."""
    return cokernel_presentation(2 * n, f_matrix(n).columns())


@dataclass(frozen=True)
class CompletionReport:
    """Comparison of the closed-form route against the brute-force oracle.

    ``quotient`` is the host oracle the comparison was read from, kept for
    further checks on the same window; it is left out of ``to_json``.
    """

    n: int
    window: int
    expected: GroupPresentation
    oracle: GroupPresentation
    match: bool
    generators: tuple[Arc, ...]
    quotient: OracleQuotient = field(repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "window": self.window,
            "expected": self.expected.to_json(),
            "oracle": self.oracle.to_json(),
            "match": self.match,
            "generators": [a.to_json() for a in self.generators],
        }


def verify_f_oracle(n: int, window: int) -> CompletionReport:
    """Check the generator-class formula against the Euler oracle on the host.

    The oracle quotient of the 2n-segment host is quotiented further by the
    classes of the kernel generator arcs; the resulting presentation must
    equal ``compute_k0_completed(n)``.  Cokernel presentations are invariant
    under basis change and column signs, so no sign convention enters.
    """
    if window < 2:
        raise InsufficientWindowError(
            f"insufficient window: need window >= 2, got {window}"
        )
    cm = CompletionModel(n)
    oracle = euler_oracle(2 * n, window)
    generators = tuple(kernel_generator_arc(cm, i) for i in range(1, n + 1))
    classes = [oracle.class_of(g) for g in generators]
    oracle_side = cokernel_presentation(
        oracle.num_live, [*oracle.relations.values(), *classes]
    )
    expected = compute_k0_completed(n)
    return CompletionReport(
        n=n,
        window=window,
        expected=expected,
        oracle=oracle_side,
        match=expected == oracle_side,
        generators=generators,
        quotient=oracle,
    )
