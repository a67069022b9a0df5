"""Grothendieck-group pipelines over the arc model.

Two independent routes are provided.  ``compute_k0_cn`` presents the group as
the free group on the standard tilting arcs modulo their exchange relations.
``euler_oracle`` is a brute-force cross-check: it takes every arc inside a
finite window as a generator and imposes the Euler relation of every triangle
induced by a crossing pair, plus the suspension relations [shift A] = -[A].
It numbers the window points in cyclic order, so the crossing partners of an
arc are the pairs with one endpoint on each side of it, read off two index
ranges with no crossing test.  Each triangle column goes through
``snf._UnitEliminations`` as soon as it is produced: unit columns (+/-x,
+/-x +/- y) eliminate a generator at once, and only the few others are stored.
The top arcs are walked shortest first: short arcs have boundary-edge sides,
so their triangles give the unit relations, and the 3- and 4-term columns of
long arcs then mostly collapse before they would be stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circle import CircleModel, MarkedPoint
from .arcs import Arc
from .snf import (
    GroupPresentation,
    VerificationError,
    _echelon_columns,
    _hermite_reduce,
    _UnitEliminations,
    cokernel_presentation,
)
from .tilting import (
    InsufficientDepthError,
    _anchor_offsets,
    build_standard_tilting,
    palu_relations,
)


_MAX_ORACLE_ARCS = 34_000  # 4x euler_oracle(10, 6), checked up front


class InsufficientWindowError(ValueError):
    """Raised when a window does not contain the arcs a computation needs."""


# ---------------------------------------------------------------------------
# exchange-relation route


@dataclass(frozen=True)
class K0Report:
    """Presentation of the group together with truncation bookkeeping.

    ``frontier`` lists the arcs that were too deep to have both flanking
    triangles; ``frontier_excess`` counts the frontier classes that the
    interior relations fail to pin down (expected 0: the presentation then
    has free rank exactly n).  It is the free rank of the group modulo the
    interior arc classes, computed as Z^F modulo the relations projected
    onto the F frontier coordinates (killing the interior unit vectors is
    exactly that projection).
    """

    presentation: GroupPresentation
    num_arcs: int
    num_relations: int
    frontier: tuple[str, ...]
    frontier_excess: int


def compute_k0_cn(
    n: int, anchor_offsets: list[int] | None = None, depth: int = 4
) -> K0Report:
    """Group of the n-accumulation-point model via exchange relations.

    Builds the standard tilting truncated at ``depth``, assembles one relation
    per interior arc and presents the cokernel over the full truncated arc
    basis.  The result is free of rank n for every depth >= 2 and any anchors.
    """
    if depth < 2:
        raise InsufficientDepthError("insufficient depth: compute_k0_cn needs depth >= 2")
    tilting = build_standard_tilting(n, anchor_offsets, depth)
    relations = palu_relations(tilting)
    num_arcs = len(tilting.arcs)
    presentation = cokernel_presentation(num_arcs, relations.values())

    frontier_indices = [i for i in range(num_arcs) if i not in relations]
    frontier = tuple(tilting.name_of(i) for i in frontier_indices)
    # quotient further by the interior classes: whatever survives is frontier
    # content that the relations failed to identify; a relation whose keys
    # miss the frontier projects to zero and spans nothing, so it is skipped
    position = {i: k for k, i in enumerate(frontier_indices)}
    projected = [
        {position[i]: c for i, c in terms.items() if i in position}
        for terms in relations.values()
        if not position.keys().isdisjoint(terms)
    ]
    excess = cokernel_presentation(len(frontier_indices), projected).free_rank

    if presentation.invariant_factors:
        raise VerificationError(
            f"unexpected torsion {presentation.invariant_factors} for n={n}, depth={depth}"
        )
    if presentation.free_rank != n + excess:
        raise VerificationError(
            f"free rank {presentation.free_rank} != n + frontier excess {n}+{excess}"
        )
    return K0Report(
        presentation=presentation,
        num_arcs=num_arcs,
        num_relations=len(relations),
        frontier=frontier,
        frontier_excess=excess,
    )


# ---------------------------------------------------------------------------
# brute-force Euler oracle


def _class(relations: dict, num_live: int, vec: dict[int, int]) -> tuple[int, ...]:
    """Canonical class of a sparse vector over the live generators, as a dense tuple."""
    reduced = _hermite_reduce(relations, vec)
    return tuple(reduced.get(i, 0) for i in range(num_live))


@dataclass(frozen=True)
class OracleQuotient:
    """Finite-window quotient group with a class vector for every window arc.

    Window arcs that differ by suspension share a generator up to sign, and
    unit relations identify most of the rest; ``num_live`` generators
    survive.  ``relations`` is the Hermite (column-echelon) basis of the
    remaining relation lattice over them, {pivot row: column}.  A class is
    the canonical reduced vector of length ``num_live``: equal classes give
    equal vectors.  Which generators survive depends on the order in which
    unit relations are eliminated, so the coordinates are canonical within
    one oracle only.
    """

    window: int
    presentation: GroupPresentation
    num_live: int
    relations: dict[int, dict[int, int]]
    # class of every window arc, in lex order of the arcs' window-point index pairs
    _classes: dict[Arc, tuple[int, ...]] = field(repr=False)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(self._classes)

    @property
    def zero_class(self) -> tuple[int, ...]:
        return (0,) * self.num_live

    def class_of(self, arc: Arc) -> tuple[int, ...]:
        """Class of one window arc; any other arc raises InsufficientWindowError."""
        reduced = self._classes.get(arc)
        if reduced is None:
            raise InsufficientWindowError(f"arc {arc} outside window {self.window}")
        return reduced

    def reduce(self, combination: dict[Arc, int]) -> tuple[int, ...]:
        """Class of an integer combination of window arcs.

        An arc that is not a window arc raises InsufficientWindowError, and a
        coefficient whose type is not ``int`` raises ValueError.
        """
        total = [0] * self.num_live
        for arc, coef in combination.items():
            if type(coef) is not int:
                raise ValueError(f"coefficient {coef!r} is not an int")
            for i, v in enumerate(self.class_of(arc)):
                total[i] += coef * v
        return _class(self.relations, self.num_live, dict(enumerate(total)))


def euler_oracle(n: int, window: int) -> OracleQuotient:
    """Brute-force presentation over every arc with offsets in [-window, window].

    Relations: both triangle relations of every crossing pair in the window
    (the quadrilateral sides reuse the pair's endpoints, so they stay in the
    window), and [shift A] + [A] = 0 whenever the shift stays in the window.
    The suspension relations are absorbed by working on suspension chains;
    crossing pairs are enumerated up to simultaneous suspension, which spans
    the same relation lattice because shifting a pair negates its columns.

    Number the P window points 0..P-1 in anticlockwise order, cut at
    (0, -window); every arc is then an index pair i < j.  Two arcs with four
    distinct endpoints cross iff exactly one endpoint of the second lies
    strictly between i and j, so the partners of (i, j) are the pairs with
    k in i+1..j-1 and l in j+1..P-1 or 0..i-1.  Such a pair is never
    degenerate (k and l are at least two points apart on the line), so the
    crossing partners come from index ranges with no test.

    Each triangle column goes through ``snf._UnitEliminations.absorb`` as
    soon as it is produced, so only the few non-unit columns are stored.  A
    column met before in the same reduced form is skipped, since its
    relation is already accounted for.

    The arcs with a top endpoint are walked by increasing index span j - i
    (a stable sort, so ties keep lex order).  A short arc's triangles have
    boundary edges (zero objects) among their sides and reduce to unit
    relations, which then shrink the columns of the longer arcs met later:
    at (6, 6) 2,174 columns are stored instead of 17,833 in lex order.  The
    walk order does not change which pairs are met, since the rule that
    skips a top partner met from the other side only compares indices, nor
    the group; it only changes which generators survive.

    A window of more than 34,000 arcs raises ValueError up front.
    """
    if window < 2:
        raise InsufficientWindowError(
            f"insufficient window: euler_oracle needs window >= 2, got {window}"
        )
    model = CircleModel(n)
    # every pair of the n(2w+1) window points except the 2w adjacent pairs
    # of each segment
    num_points = n * (2 * window + 1)
    num_arcs = num_points * (num_points - 1) // 2 - 2 * n * window
    if num_arcs > _MAX_ORACLE_ARCS:
        raise ValueError(
            f"n={n}, window={window} gives {num_arcs} window arcs, more than {_MAX_ORACLE_ARCS}"
        )
    points = list(model.points_in_window(window))
    size = len(points)

    # suspension chains: slide each arc anticlockwise until it touches the
    # window's upper edge; the slid copy is the chain representative and the
    # parity of the slide is the sign of the arc against it.  Sliding keeps
    # both endpoints in their segments, so it adds the slide to both indices.
    # rows[i][j] is the signed chain code of the arc (i, j).
    rows = [[0] * size for _ in range(size)]
    chain_ids: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for i, (s0, o0) in enumerate(points):
        for j in range(i + 1, size):
            s1, o1 = points[j]
            if s0 == s1 and o1 - o0 <= 1:
                continue  # equal or adjacent points: a zero object
            k = window - max(o0, o1)
            cid = chain_ids.setdefault((i + k) * size + j + k, len(chain_ids) + 1)
            rows[i][j] = rows[j][i] = -cid if k % 2 else cid
            pairs.append((i, j))

    elim = _UnitEliminations(len(chain_ids))
    rep, absorb = elim.rep, elim.absorb
    columns: set[tuple[tuple[int, int], ...]] = set()
    seen: set[tuple[int, int, int, int]] = set()
    top = [o == window for _, o in points]
    tops = sorted((p for p in pairs if top[p[0]] or top[p[1]]), key=lambda p: p[1] - p[0])
    for i, j in tops:
        # every pair with a top endpoint, each crossing partner once: a
        # partner (l, k) with l < i that is itself top was met as the top
        # arc (l, k) already, whatever the walk order
        row_i, row_j = rows[i], rows[j]
        a = row_i[j]
        after = range(j + 1, size)
        outside = (*after, *(l for l in range(i) if not top[l]))
        for k in range(i + 1, j):
            row_k = rows[k]
            kj, ik = row_k[j], row_i[k]
            # rep only changes when absorb applies a unit move
            ra, rkj, rik = rep[a], rep[kj], rep[ik]
            for l in after if top[k] else outside:
                rb = rep[row_k[l]]
                # triangle a -> (+)({k,j}, {l,i}) -> b: [a] + [b] - [kj] - [li]
                key = (ra, rb, rkj, rep[row_i[l]])
                if key not in seen:
                    seen.add(key)
                    x, y, u, v = key
                    if absorb(((x, 1), (y, 1), (u, -1), (v, -1)), columns):
                        ra, rkj, rik = rep[a], rep[kj], rep[ik]
                        rb = rep[row_k[l]]
                # triangle b -> (+)({i,k}, {j,l}) -> a: [a] + [b] - [ik] - [jl]
                key = (ra, rb, rik, rep[row_j[l]])
                if key not in seen:
                    seen.add(key)
                    x, y, u, v = key
                    if absorb(((x, 1), (y, 1), (u, -1), (v, -1)), columns):
                        ra, rkj, rik = rep[a], rep[kj], rep[ik]

    position, core = elim.residual(columns)
    relations = _echelon_columns(core)
    num_live = len(position)
    presentation = cokernel_presentation(num_live, list(relations.values()))
    classes = {0: (0,) * num_live}  # signed generator code -> class
    for g, p in position.items():
        classes[g] = _class(relations, num_live, {p: 1})
        classes[-g] = _class(relations, num_live, {p: -1})
    return OracleQuotient(
        window=window,
        presentation=presentation,
        num_live=num_live,
        relations=relations,
        _classes={Arc(points[i], points[j]): classes[rep[rows[i][j]]] for i, j in pairs},
    )


# ---------------------------------------------------------------------------
# closed-form class computations for same-segment arcs


def parity_class(i: int) -> int:
    """Class of the arc with i interior points in a one-sided fountain.

    Iterates [W(i+1)] = [W(i)] + (-1)^i [W(1)] from [W(1)] = w and returns the
    coefficient of w: 0 for even i, +1 for odd i.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    coef = 1
    for step in range(1, i):
        coef += 1 if step % 2 == 0 else -1
    return coef


def standard_basis_arcs(
    n: int, anchor_offsets: list[int] | None = None
) -> tuple[Arc, ...]:
    """The arcs whose classes freely generate the group: Y1, X2, ..., Xn."""
    if n < 2:
        raise ValueError("the Y1/X basis needs n >= 2")
    offsets = _anchor_offsets(n, anchor_offsets)
    z = [MarkedPoint(s, o) for s, o in enumerate(offsets)]
    y1 = Arc(z[0], MarkedPoint(1, z[1][1] - 1))
    xs = tuple(Arc(z[0], z[i]) for i in range(1, n))
    return (y1,) + xs


def class_same_segment(
    n: int, arc: Arc, anchor_offsets: list[int] | None = None
) -> tuple[int, ...]:
    """Coefficients of a same-segment arc's class over the basis (Y1, X2, ..., Xn).

    Zero when the arc has an even number of interior points.  Otherwise the
    class is +/-([X2] + [Y1]) on the anchor z1's segment and
    +/-(2[Xi] - [X2] - [Y1]) on segment i-1, the sign being the parity of the
    clockwise shift aligning the arc's upper endpoint onto the segment anchor
    (the aligned copy is the one whose suspension crosses the suspended fan
    arc, which fixes the choice between the two shifts sharing an endpoint).
    """
    if n < 2:
        raise ValueError("class_same_segment needs n >= 2 (the basis includes X2)")
    model = CircleModel(n)
    model.check_point(arc.a)
    model.check_point(arc.b)
    if arc.a[0] != arc.b[0]:
        raise ValueError(f"cross-segment arc {arc} has no same-segment class")
    anchor_offsets = _anchor_offsets(n, anchor_offsets)
    coeffs = [0] * n
    interior = arc.b[1] - arc.a[1] - 1
    if interior % 2 == 0:
        return tuple(coeffs)
    segment = arc.a[0]
    shift = arc.b[1] - anchor_offsets[segment]
    sign = -1 if shift % 2 else 1
    if segment == 0:
        coeffs[0] += sign  # Y1
        coeffs[1] += sign  # X2
    else:
        coeffs[segment] += 2 * sign  # X(segment+1) sits at basis index segment
        coeffs[0] -= sign
        coeffs[1] -= sign
    return tuple(coeffs)
