"""The standard cluster-tilting arc configuration and its exchange combinatorics.

The configuration inscribes an n-gon on anchor points z1..zn (one per
segment), fan-triangulates it from z1, and roots one zigzag ("leapfrog") of
arcs at each polygon edge, converging to the accumulation point behind it.
Leapfrogs are truncated at a finite depth; arcs whose flanking triangles are
both available are "interior" and contribute exchange relations, the deepest
arcs are "frontier" and contribute none.

Non-crossing is checked as bracket nesting.  Cutting the circle behind the
last segment makes lex order on ``(segment, offset)`` the anticlockwise
order, so every arc (stored with ``a < b``) is an interval ``[a, b]`` and two
arcs cross exactly when their intervals overlap without nesting.  One
ordering and one stack pass decide a whole arc set.

Exchange relations are read off a point-neighbour index: each endpoint maps
to the other endpoint of every incident arc, and that to the arc's index.
The triangles flanking an arc {p, q} have their third vertices among the
points joined to both p and q, by an arc or by a boundary edge, and the same
lex order tells the two sides of the arc apart: a third vertex lies on the
anticlockwise side from p to q exactly when it sits strictly between p and q
in lex order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .circle import CircleModel, MarkedPoint, check_size
from .arcs import Arc
from .snf import VerificationError

_MAX_TILTING_ARCS = 110_000  # 4x compute_k0_cn(400, depth=32), checked up front


class InsufficientDepthError(ValueError):
    """Raised when an operation needs arcs beyond the truncation depth."""


@dataclass(frozen=True)
class StandardTilting:
    """An indexed maximal non-crossing arc set with one leapfrog per accumulation point.

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

    Several labels may share an index.  ``leapfrogs[b]`` lists the arc
    indices of the zigzag converging to the accumulation point between
    segments b and b+1.
    """

    model: CircleModel
    arcs: tuple[Arc, ...]
    names: dict[str, int]
    leapfrogs: tuple[tuple[int, ...], ...]
    # endpoint -> {other endpoint of an incident arc: that arc's index}
    _neighbours: dict[MarkedPoint, dict[MarkedPoint, int]] = field(init=False, repr=False)
    # arc index -> its first label in ``names``
    _label: dict[int, str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        neighbours: dict[MarkedPoint, dict[MarkedPoint, int]] = {}
        for i, arc in enumerate(self.arcs):
            neighbours.setdefault(arc.a, {})[arc.b] = i
            neighbours.setdefault(arc.b, {})[arc.a] = i
        object.__setattr__(self, "_neighbours", neighbours)
        label: dict[int, str] = {}
        for name, i in self.names.items():
            label.setdefault(i, name)
        object.__setattr__(self, "_label", label)

    def arc_index(self, arc: Arc) -> int:
        return self._neighbours[arc.a][arc.b]

    def __contains__(self, arc: Arc) -> bool:
        return arc.b in self._neighbours.get(arc.a, ())

    def name_of(self, index: int) -> str:
        return self._label.get(index, f"arc{index}")


def _assert_non_crossing(model: CircleModel, arcs: tuple[Arc, ...]) -> None:
    """Raise VerificationError naming a crossing pair if any two arcs cross.

    In lex order each arc is an interval [a, b].  Sorted by (a, -b), the arcs
    still open at a point form a stack of nested intervals, innermost on top.
    A new arc first closes every interval ending at or before its start
    (sharing an endpoint is not a crossing); it crosses an open interval iff
    it ends beyond the innermost one, which then is a crossing partner.
    Each endpoint is validated once; sorting by -b, then stably by a, gives (a, -b).
    """
    for p in set().union(*arcs):
        model.check_point(p)
    ordered = sorted(arcs, key=itemgetter(1), reverse=True)
    ordered.sort(key=itemgetter(0))
    stack: list[Arc] = []
    for arc in ordered:
        while stack and stack[-1].b <= arc.a:
            stack.pop()
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
    n: int, anchor_offsets: list[int] | None = None, depth: int = 2
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
    if num_arcs > _MAX_TILTING_ARCS:
        raise ValueError(
            f"n={n}, depth={depth} gives {num_arcs} tilting arcs, more than {_MAX_TILTING_ARCS}"
        )
    model = CircleModel(n)
    offsets = _anchor_offsets(n, anchor_offsets)
    anchors = tuple(MarkedPoint(s, o) for s, o in enumerate(offsets))

    index: dict[Arc, int] = {}  # arc -> index; its keys, in order, are the arcs
    names: dict[str, int] = {}

    def add(arc: Arc) -> int:
        return index.setdefault(arc, len(index))

    # polygon edges Z1..Zn (for n = 2 both labels point at the single chord)
    roots: list[tuple[MarkedPoint, MarkedPoint]] = []
    for b in range(n):
        if n == 1:
            below = MarkedPoint(0, anchors[0][1] + 1)
            above = MarkedPoint(0, anchors[0][1] - 1)
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
                hi = MarkedPoint(hi[0], hi[1] - 1)
            else:
                lo = MarkedPoint(lo[0], lo[1] + 1)
            ladder.append(add(Arc(lo, hi)))
        leapfrogs.append(tuple(ladder))
        acc = ((b + 1) % n) + 1
        y = ((acc - 2) % n) + 1
        names[f"Y{y}"] = ladder[1]
        for t, idx in enumerate(ladder):
            names[f"L{acc}[{t}]"] = idx

    tilting = StandardTilting(model, tuple(index), names, tuple(leapfrogs))
    _assert_non_crossing(model, tilting.arcs)
    return tilting


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


def _flank(t: StandardTilting, i: int) -> tuple[tuple[MarkedPoint, ...], dict[int, int]]:
    """Third vertices of the triangles flanking arc ``i`` and its exchange relation.

    For m = {p, q} a vertex r qualifies when each of {p, r} and {q, r} is a
    tilting arc or a boundary edge (adjacent points); equal points do not.
    The thirds are the neighbours of p, and the two points adjacent to p,
    that are neighbours of q or adjacent to q; common neighbours are read
    off the smaller neighbour dict, as the fan vertex z1 has about n.  p and
    q never qualify, and a neighbour of a point is never adjacent to it, so
    no third is found twice.  Adjacent points are plain ``(segment,
    offset)`` tuples, which hash and compare like MarkedPoints; ``Arc``
    wraps them.  Endpoints are not re-validated: the non-crossing check did
    that when the tilting was built.

    With two thirds returns ``((v1, v3), terms)``, v1 strictly between
    v0 = m.a and v2 = m.b in lex order, so that ``(v0, v1, v2, v3)`` is the
    quadrilateral in anticlockwise order.  ``terms`` is the exchange
    relation {arc index: sign}, +{v1,v2} +{v3,v0} -{v0,v1} -{v2,v3} in that
    order: the middle of m -> m_star minus that of m_star -> m.  Each side
    has v0 or v2 as an endpoint, so its index is one neighbour-index lookup;
    a side missing from the index is a boundary edge (a zero object) and
    drops out, and the four sides are distinct arcs.  Fewer than two thirds
    (the truncation cut off a flanking triangle) come with no terms.  Two
    thirds on one side of m (m and the other diagonal do not cross) and more
    than two thirds both raise ValueError: neither happens in a non-crossing
    set, so either means a tilting built without the non-crossing check.
    """
    p, q = t.arcs[i]
    at_p, at_q = t._neighbours[p], t._neighbours[q]
    (ps, po), (qs, qo) = p, q
    small, large = (at_p, at_q) if len(at_p) <= len(at_q) else (at_q, at_p)
    thirds = [r for r in small if r in large]
    for r in ((qs, qo - 1), (qs, qo + 1)):
        if r in at_p:
            thirds.append(r)
    for r in ((ps, po - 1), (ps, po + 1)):
        if r in at_q or (r[0] == qs and abs(r[1] - qo) == 1):
            thirds.append(r)
    if len(thirds) < 2:
        return tuple(thirds), {}
    if len(thirds) > 2:
        raise ValueError(f"more than two triangles flank {t.arcs[i]}")
    v1, v3 = thirds if p < thirds[0] < q else thirds[::-1]
    if not p < v1 < q or p < v3 < q:
        raise ValueError(
            f"arcs do not cross: both triangles flanking {t.arcs[i]} lie on one side"
        )
    terms: dict[int, int] = {}
    for j, sign in ((at_q.get(v1), 1), (at_p.get(v3), 1), (at_p.get(v1), -1), (at_q.get(v3), -1)):
        if j is not None:
            terms[j] = sign
    return (v1, v3), terms


def exchange_pair(t: StandardTilting, m_index: int) -> ExchangePair:
    m = t.arcs[m_index]
    thirds, terms = _flank(t, m_index)
    if len(thirds) < 2:
        raise InsufficientDepthError(
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
    """
    pair = exchange_pair(t, m_index)
    new_arcs = list(t.arcs)
    new_arcs[m_index] = pair.m_star
    primary = t.name_of(m_index)
    new_names = {name: i for name, i in t.names.items() if i != m_index}
    new_names[primary + "*"] = m_index
    mutated = StandardTilting(t.model, tuple(new_arcs), new_names, t.leapfrogs)
    _assert_non_crossing(t.model, mutated.arcs)
    return mutated
