"""The standard cluster-tilting arc configuration and its exchange combinatorics.

The configuration inscribes an n-gon on anchor points z1..zn (one per
segment), fan-triangulates it from z1, and roots one zigzag ("leapfrog") of
arcs at each polygon edge, converging to the accumulation point behind it.
Leapfrogs are truncated at a finite depth; arcs whose flanking triangles are
both available are "interior" and contribute exchange relations, the deepest
arcs are "frontier" and contribute none.

A tilting checks its arcs when it is made, non-crossing as bracket nesting.
Cutting the circle behind the last segment makes lex order on ``(segment,
offset)`` the anticlockwise order, so every arc (stored with ``a < b``) is an
interval ``[a, b]`` and two arcs cross exactly when their intervals overlap
without nesting.  One ordering and one stack pass decide a whole arc set.

Exchange relations are read off a point-neighbour index: each endpoint maps
the other endpoint of every incident arc to that arc's index, and its two
adjacent points to ``None``, the boundary edges (zero objects) it lies on.
The third vertices of the triangles flanking an arc {p, q} are then exactly
the points both p and q map, and the same lex order tells the two sides of
the arc apart: a third vertex lies on the anticlockwise side from p to q
exactly when it sits strictly between p and q in lex order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .circle import check_cap, check_point, check_size
from .arcs import Arc
from .snf import VerificationError

_MAX_TILTING_ARCS = 110_000  # 4x compute_k0_cn(400, depth=32), checked up front


@dataclass(frozen=True)
class StandardTilting:
    """An indexed non-crossing arc set with one leapfrog per accumulation point.

    However it is made, it checks ``n`` and its arcs: an ``n`` below 1 or an
    endpoint off the n-segment circle raises ValueError, a crossing pair or a
    repeated arc VerificationError.
    Maximality is not checked, and a truncated tilting is not maximal.

    ``names`` maps the construction labels to arc indices.  With z1..zn the
    anchors, on segments 0..n-1, and label numbers taken mod n:

    - ``Z1..Zn``, the polygon edges: Zi joins zi and z(i+1).  For n = 1, Z1
      joins the two neighbours of z1; for n = 2, Z1 and Z2 are one arc.
    - ``X2..Xn``, the fan arcs: Xi joins z1 and zi.  For n >= 2, ``X2`` and
      ``Xn`` are ``Z1`` and ``Zn``; the diagonals ``X3..X(n-1)`` exist only
      for n >= 4.
    - ``L<i>[<t>]``, the zigzag arcs: step t = 0..2*depth of the leapfrog
      converging to the accumulation point between the segments of z(i-1)
      and zi, rooted at ``L<i>[0]`` = Z(i-1).
    - ``Y1..Yn``, the first zigzag steps: Y(i-1) is ``L<i>[1]``.

    Every arc of a built or mutated tilting has at least one label (``mutate``
    labels the arc it makes), and several labels may share an index.
    ``leapfrogs[b]`` records the positions, fixed at construction, of the
    zigzag converging to the accumulation point between segments b and b+1;
    ``mutate`` keeps them, so after a mutation a position may hold the new
    arc, not a zigzag step.
    Tiltings compare by value and do not hash, as their index fields are dicts.
    """

    __hash__ = None
    n: int
    arcs: tuple[Arc, ...]
    names: dict[str, int]
    leapfrogs: tuple[tuple[int, ...], ...]
    # endpoint -> {neighbour: index of the arc joining them, or None for a
    # boundary edge to an adjacent point}
    _neighbours: dict[tuple[int, int], dict[tuple[int, int], int | None]] = field(
        init=False, repr=False
    )
    # arc index -> its first label in ``names``
    _label: dict[int, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_size("n", self.n, 1)
        _assert_non_crossing(self.n, self.arcs)
        neighbours: dict[tuple[int, int], dict[tuple[int, int], int | None]] = {}
        for i, arc in enumerate(self.arcs):
            neighbours.setdefault(arc.a, {})[arc.b] = i
            neighbours.setdefault(arc.b, {})[arc.a] = i
        # an arc never joins adjacent points, so no arc entry is overwritten
        for (s, o), at in neighbours.items():
            at[s, o - 1] = at[s, o + 1] = None
        object.__setattr__(self, "_neighbours", neighbours)
        label: dict[int, str] = {}
        for name, i in self.names.items():
            label.setdefault(i, name)
        object.__setattr__(self, "_label", label)

    def name_of(self, index: int) -> str:
        return self._label.get(index, f"arc{index}")


def _assert_non_crossing(n: int, arcs: tuple[Arc, ...]) -> None:
    """Raise VerificationError naming a crossing pair or a repeated arc, if any.

    In lex order each arc is an interval [a, b].  Sorted by (a, -b), the arcs
    still open at a point form a stack of nested intervals, innermost on top.
    A new arc first closes every interval ending at or before its start
    (sharing an endpoint is not a crossing); it repeats an open interval iff
    it equals the innermost one, and crosses one iff it ends beyond the
    innermost one, which then is a crossing partner.
    Sorting by -b, then stably by a, gives (a, -b).  ``Arc`` has read every
    endpoint as a point, so only the segment range is checked, on the least
    and the greatest endpoint in lex order; if both are off, the least is named.
    """
    ordered = sorted(arcs, key=itemgetter(1), reverse=True)
    if ordered:
        check_point(n, min(arc.a for arc in ordered))
        check_point(n, ordered[0].b)
    ordered.sort(key=itemgetter(0))
    stack: list[Arc] = []
    for arc in ordered:
        while stack and stack[-1].b <= arc.a:
            stack.pop()
        if stack and arc == stack[-1]:
            raise VerificationError(f"repeated arc in tilting set: {arc}")
        if stack and arc.b > stack[-1].b:
            raise VerificationError(f"crossing arcs in tilting set: {stack[-1]} x {arc}")
        stack.append(arc)


def _anchor_offsets(n: int, anchor_offsets: list[int] | None) -> list[int]:
    """One offset per segment: all zero by default, else a list or tuple of exactly n ints."""
    if anchor_offsets is None:
        return [0] * n
    if not isinstance(anchor_offsets, (list, tuple)):
        raise ValueError(f"anchor offsets {anchor_offsets!r} are not a list or tuple")
    if len(anchor_offsets) != n:
        raise ValueError(f"expected {n} anchor offsets, got {len(anchor_offsets)}")
    for o in anchor_offsets:
        if type(o) is not int:
            raise ValueError(f"anchor offset {o!r} is not an int")
    return anchor_offsets


def build_standard_tilting(
    n: int, anchor_offsets: list[int] | None, depth: int
) -> StandardTilting:
    """Build the standard configuration with leapfrogs truncated at 2*depth steps.

    Special cases: for n = 1 the polygon degenerates and the single leapfrog
    is rooted at the arc one step either side of the anchor; for n = 2 the two
    polygon edges coincide and are stored once; fan diagonals appear only for
    n >= 4.  A configuration of more than 110,000 arcs raises ValueError up
    front.
    """
    check_size("n", n, 1)
    check_size("depth", depth, 1)
    # n ladders of 2*depth+1 arcs rooted at the polygon edges, n-3 fan
    # diagonals, and one arc fewer for n = 2, whose two edges coincide
    num_arcs = n * (2 * depth + 1) + max(n - 3, 0) - (n == 2)
    check_cap(f"n={n}, depth={depth}", num_arcs, "tilting arcs", _MAX_TILTING_ARCS)
    offsets = _anchor_offsets(n, anchor_offsets)
    anchors = tuple(enumerate(offsets))

    index: dict[Arc, int] = {}  # arc -> index; its keys, in order, are the arcs
    names: dict[str, int] = {}

    def add(arc: Arc) -> int:
        return index.setdefault(arc, len(index))

    # polygon edges Z1..Zn (for n = 2 both labels point at the single chord)
    roots: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for b in range(n):
        if n == 1:
            below = (0, anchors[0][1] + 1)
            above = (0, anchors[0][1] - 1)
        else:
            below = anchors[b]
            above = anchors[(b + 1) % n]
        roots.append((below, above))
        names[f"Z{b + 1}"] = add(Arc(below, above))

    # fan triangulation from z1: its outer arcs X2 and Xn are the polygon
    # edges Z1 and Zn, its diagonals X3..X(n-1) exist for n >= 4
    for i in range(3, n):
        names[f"X{i}"] = add(Arc(anchors[0], anchors[i - 1]))
    if n >= 2:
        names["X2"] = names["Z1"]
        names[f"X{n}"] = names[f"Z{n}"]

    # leapfrogs, one per accumulation point, rooted at the polygon edges
    leapfrogs: list[tuple[int, ...]] = []
    for b in range(n):
        lo, hi = roots[b]
        ladder = [names[f"Z{b + 1}"]]
        for t in range(1, 2 * depth + 1):
            # each zigzag step moves one endpoint: odd steps retreat the one
            # approaching the accumulation point from above, even steps
            # advance the one approaching it from below
            if t % 2:
                hi = (hi[0], hi[1] - 1)
            else:
                lo = (lo[0], lo[1] + 1)
            ladder.append(add(Arc(lo, hi)))
        leapfrogs.append(tuple(ladder))
        acc = ((b + 1) % n) + 1
        names[f"Y{b + 1}"] = ladder[1]
        for t, idx in enumerate(ladder):
            names[f"L{acc}[{t}]"] = idx

    return StandardTilting(n, tuple(index), names, tuple(leapfrogs))


@dataclass(frozen=True)
class ExchangePair:
    """A crossing pair of complements with the middle terms of both exchange triangles.

    ``b_m_star`` is the middle of m -> (+)b_m_star -> m_star, ``b_m`` the
    middle of m_star -> (+)b_m -> m; zero summands are dropped.
    """

    m: Arc
    m_star: Arc
    b_m: tuple[Arc, ...]
    b_m_star: tuple[Arc, ...]


def _flank(t: StandardTilting, i: int) -> tuple[tuple[tuple[int, int], ...], dict[int, int]]:
    """Third vertices of the triangles flanking arc ``i`` and its exchange relation.

    For m = {p, q} the thirds are the points that both ``_neighbours[p]``
    and ``_neighbours[q]`` map, each side {p, r} and {q, r} a tilting arc or
    a boundary edge; they are read off the smaller dict, as the fan vertex
    z1 has about n neighbours.  Neither p nor q is a third, as no point is
    its own neighbour.

    With two thirds returns ``((v1, v3), terms)``, v1 strictly between
    v0 = m.a and v2 = m.b in lex order, so that ``(v0, v1, v2, v3)`` is the
    quadrilateral in anticlockwise order.  ``terms`` is the exchange
    relation {arc index: sign}, +{v1,v2} +{v3,v0} -{v0,v1} -{v2,v3} in that
    order: the middle of m -> m_star minus that of m_star -> m.  Each side
    has v0 or v2 as an endpoint, so its index is one neighbour-index lookup;
    a ``None`` side is a boundary edge (a zero object) and drops out, and
    the four sides are distinct arcs.  Fewer than two thirds (the
    truncation cut off a flanking triangle) come with no terms.  The tilting
    checked its arcs when it was made: endpoints are not re-validated, and
    each side of m holds at most one third, as two, r then r' along it from
    p to q, would make {p, r'} and {r, q} cross.
    """
    p, q = t.arcs[i]
    at_p, at_q = t._neighbours[p], t._neighbours[q]
    small, large = (at_p, at_q) if len(at_p) <= len(at_q) else (at_q, at_p)
    thirds = [r for r in small if r in large]
    if len(thirds) < 2:
        return tuple(thirds), {}
    v1, v3 = thirds if p < thirds[0] < q else thirds[::-1]
    terms: dict[int, int] = {}
    for j, sign in ((at_q.get(v1), 1), (at_p.get(v3), 1), (at_p.get(v1), -1), (at_q.get(v3), -1)):
        if j is not None:
            terms[j] = sign
    return (v1, v3), terms


def exchange_pair(t: StandardTilting, m_index: int) -> ExchangePair:
    """The exchange pair of the arc at ``m_index``, an int in ``range(len(t.arcs))``.

    Any other index, or a frontier arc, raises ValueError.
    """
    if type(m_index) is not int or not 0 <= m_index < len(t.arcs):
        raise ValueError(f"arc index {m_index!r} out of range [0, {len(t.arcs)})")
    m = t.arcs[m_index]
    thirds, terms = _flank(t, m_index)
    if len(thirds) < 2:
        raise ValueError(
            f"insufficient depth: arc {m} has only {len(thirds)} flanking triangle(s)"
        )
    return ExchangePair(
        m=m,
        m_star=Arc(*thirds),
        b_m=tuple(t.arcs[j] for j, sign in terms.items() if sign < 0),
        b_m_star=tuple(t.arcs[j] for j, sign in terms.items() if sign > 0),
    )


def palu_relations(t: StandardTilting) -> dict[int, dict[int, int]]:
    """Exchange relations of every interior arc, as sparse vectors over the arc basis.

    Returns {interior arc index: {arc index: nonzero coefficient}} in
    increasing arc index order, each relation the terms ``_flank`` reads
    off.  An arc is interior (both flanking triangles survive the
    truncation) exactly when its index is a key; frontier arcs contribute
    nothing.  Every coefficient is +1 or -1 and at most four are nonzero.
    """
    relations: dict[int, dict[int, int]] = {}
    for i in range(len(t.arcs)):
        thirds, terms = _flank(t, i)
        if len(thirds) == 2:
            relations[i] = terms
    return relations


def mutate(t: StandardTilting, m_index: int) -> StandardTilting:
    """Replace the arc at ``m_index`` by the other diagonal of its quadrilateral.

    The swap happens in place in the index order, so mutating twice at the
    same position restores the original arc set.  Labels pointing at the old
    arc are dropped and the new arc is labelled with a trailing ``*``.
    A bad ``m_index`` or a frontier arc raises ValueError, as in ``exchange_pair``.
    """
    pair = exchange_pair(t, m_index)
    new_arcs = list(t.arcs)
    new_arcs[m_index] = pair.m_star
    primary = t.name_of(m_index)
    new_names = {name: i for name, i in t.names.items() if i != m_index}
    new_names[primary + "*"] = m_index
    return StandardTilting(t.n, tuple(new_arcs), new_names, t.leapfrogs)
