"""Grothendieck-group pipelines over the arc model.

Two independent routes are provided.  ``compute_k0_cn`` presents the group as
the free group on the standard tilting arcs modulo their exchange relations.
``euler_oracle`` is a brute-force cross-check: it takes every arc inside a
finite window as a generator and imposes the Euler relation of every triangle
induced by a crossing pair, plus the suspension relations [shift A] = -[A].
Both certify that the basis arcs Y1, X2, ..., Xn (Z1 for n = 1) are a free
basis and give every arc its coordinates over them, in one helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circle import CircleModel, MarkedPoint, check_size
from .arcs import Arc
from .snf import GroupPresentation, VerificationError, _UnitEliminations
from .tilting import (
    InsufficientDepthError,
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
    """The group Z^n with the class of every tilting arc, and truncation bookkeeping.

    ``frontier`` lists the arcs that were too deep to have both flanking
    triangles, so they have no exchange relation of their own.
    """

    presentation: GroupPresentation
    frontier: tuple[str, ...]
    # sparse class {basis index: coefficient} of every tilting arc, in tilting order
    _classes: dict[Arc, dict[int, int]] = field(repr=False)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(self._classes)

    def class_of(self, arc: Arc) -> tuple[int, ...]:
        """Class of one tilting arc; any other arc raises ValueError."""
        cls = self._classes.get(arc)
        if cls is None:
            raise ValueError(f"arc {arc} is not a tilting arc")
        return tuple(cls.get(t, 0) for t in range(self.presentation.free_rank))


def compute_k0_cn(
    n: int, anchor_offsets: list[int] | None = None, depth: int = 4
) -> K0Report:
    """Group of the n-accumulation-point model via exchange relations.

    The free group on the standard tilting arcs truncated at ``depth``
    modulo one relation per interior arc.  The paper's theorem says it is
    free on the tilting's Y1, X2, ..., Xn (Z1 for n = 1; at default anchors
    ``standard_basis_arcs(n)``) for every depth >= 2 and any anchors; else
    VerificationError.  ``class_of`` reads coordinates over that basis.
    """
    check_size("depth", depth, 2, InsufficientDepthError)
    tilting = build_standard_tilting(n, anchor_offsets, depth)
    relations = palu_relations(tilting)
    num_arcs = len(tilting.arcs)
    elim = _UnitEliminations(num_arcs)
    store: set = set()
    for terms in relations.values():
        elim.absorb([(i + 1, c) for i, c in terms.items()], store)
    names = ["Z1"] if n == 1 else ["Y1", *(f"X{i}" for i in range(2, n + 1))]
    basis = [tilting.names[name] + 1 for name in names]
    classes = elim.basis_classes(store, basis, f"compute_k0_cn({n}, {anchor_offsets!r}, {depth})")
    frontier = tuple(tilting.name_of(i) for i in range(num_arcs) if i not in relations)
    return K0Report(GroupPresentation(n), frontier, dict(zip(tilting.arcs, classes)))


# ---------------------------------------------------------------------------
# brute-force Euler oracle


@dataclass(frozen=True)
class OracleQuotient:
    """Finite-window quotient group with coordinates for every window arc.

    The group is free on the classes of ``standard_basis_arcs(n)``, so
    ``presentation`` is Z^n; a window arc's class is its n coordinates over
    that basis, so equal classes give equal tuples at every window.
    """

    window: int
    presentation: GroupPresentation
    # {basis index: coefficient} of every window arc, in lex order of index pairs
    _classes: dict[Arc, dict[int, int]] = field(repr=False)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(self._classes)

    def class_of(self, arc: Arc) -> tuple[int, ...]:
        """Class of one window arc; any other arc raises InsufficientWindowError."""
        cls = self._classes.get(arc)
        if cls is None:
            raise InsufficientWindowError(f"arc {arc} outside window {self.window}")
        return tuple(cls.get(t, 0) for t in range(self.presentation.free_rank))


def _window_arcs(n: int, window: int) -> int:
    """Number of arcs of the n-segment circle with offsets in [-window, window].

    Every pair of the n(2w+1) window points except the 2w adjacent pairs of
    each segment.
    """
    size = n * (2 * window + 1)
    return size * (size - 1) // 2 - 2 * n * window


def euler_oracle(n: int, window: int) -> OracleQuotient:
    """Brute-force presentation over every arc with offsets in [-window, window].

    Relations: both triangle relations of every crossing pair in the window
    (the quadrilateral sides reuse the pair's endpoints, so they stay in the
    window), and [shift A] + [A] = 0 whenever the shift stays in the window.
    The generators are the window arcs, each suspension relation is a unit
    column absorbed before the scan, and crossing pairs are enumerated up to
    simultaneous suspension: that spans the same relation lattice, since
    shifting a pair negates its columns.

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
    at (6, 6) 1,974 columns are stored instead of 17,818 in lex order.  The
    walk order does not change which pairs are met, since the rule that
    skips a top partner met from the other side only compares indices, nor
    the group; it only changes which generators survive.

    The residual columns then certify the basis ``standard_basis_arcs(n)``
    and give every window arc its coordinates
    (``_UnitEliminations.basis_classes``).

    A window of more than 34,000 arcs raises ValueError up front.
    """
    check_size("window", window, 2, InsufficientWindowError)
    model = CircleModel(n)
    num_arcs = _window_arcs(n, window)
    if num_arcs > _MAX_ORACLE_ARCS:
        raise ValueError(
            f"n={n}, window={window} gives {num_arcs} window arcs, more than {_MAX_ORACLE_ARCS}"
        )
    points = list(model.points_in_window(window))
    size = len(points)

    # rows[i][j] is the generator number of the arc (i, j), 1..N in pairs order
    rows = [[0] * size for _ in range(size)]
    pairs: list[tuple[int, int]] = []
    for i, (s0, o0) in enumerate(points):
        for j in range(i + 1, size):
            s1, o1 = points[j]
            if s0 == s1 and o1 - o0 <= 1:
                continue  # equal or adjacent points: a zero object
            pairs.append((i, j))
            rows[i][j] = rows[j][i] = len(pairs)

    elim = _UnitEliminations(len(pairs))
    rep, absorb = elim.rep, elim.absorb
    columns: set[tuple[tuple[int, int], ...]] = set()
    top = [o == window for _, o in points]
    for i, j in pairs:
        if not (top[i] or top[j]):
            # [shift A] + [A] = 0: both endpoints move one point anticlockwise
            absorb(((rows[i][j], 1), (rows[i + 1][j + 1], 1)), columns)
    seen: set[tuple[int, int, int, int]] = set()
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

    basis = [rows[points.index(arc.a)][points.index(arc.b)] for arc in standard_basis_arcs(n)]
    classes = elim.basis_classes(columns, basis, f"euler_oracle({n}, {window})")
    arcs = (Arc(points[i], points[j]) for i, j in pairs)
    return OracleQuotient(window, GroupPresentation(n), dict(zip(arcs, classes)))


# ---------------------------------------------------------------------------
# closed-form class computations for same-segment arcs


def standard_basis_arcs(n: int) -> tuple[Arc, ...]:
    """The arcs whose classes freely generate the group: Y1, X2, ..., Xn.

    The anchors are the default ones, offset 0 on every segment.  For n = 1
    the basis is the arc Z1, joining the two neighbours of the anchor.
    """
    check_size("n", n, 1)
    z = [MarkedPoint(s, 0) for s in range(n)]
    if n == 1:
        return (Arc(MarkedPoint(0, -1), MarkedPoint(0, 1)),)
    y1 = Arc(z[0], MarkedPoint(1, -1))
    xs = tuple(Arc(z[0], z[i]) for i in range(1, n))
    return (y1,) + xs


def class_same_segment(n: int, arc: Arc) -> tuple[int, ...]:
    """Coefficients of a same-segment arc's class over the basis (Y1, X2, ..., Xn).

    Zero when the arc has an even number of interior points.  Otherwise the
    class is +/-([X2] + [Y1]) on the anchor z1's segment and
    +/-(2[Xi] - [X2] - [Y1]) on segment i-1, the sign being the parity of the
    clockwise shift aligning the arc's upper endpoint onto offset 0
    (the aligned copy is the one whose suspension crosses the suspended fan
    arc, which fixes the choice between the two shifts sharing an endpoint).
    """
    check_size("n", n, 2)  # the basis includes X2
    model = CircleModel(n)
    model.check_point(arc.a)
    model.check_point(arc.b)
    if arc.a[0] != arc.b[0]:
        raise ValueError(f"cross-segment arc {arc} has no same-segment class")
    coeffs = [0] * n
    interior = arc.b[1] - arc.a[1] - 1
    if interior % 2 == 0:
        return tuple(coeffs)
    segment = arc.a[0]
    sign = -1 if arc.b[1] % 2 else 1
    if segment == 0:
        coeffs[0] += sign  # Y1
        coeffs[1] += sign  # X2
    else:
        coeffs[segment] += 2 * sign  # X(segment+1) sits at basis index segment
        coeffs[0] -= sign
        coeffs[1] -= sign
    return tuple(coeffs)
