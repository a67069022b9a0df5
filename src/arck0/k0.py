"""Grothendieck-group pipelines over the arc model.

Two independent routes are provided.  ``compute_k0_cn`` presents the group as
the free group on the standard tilting arcs modulo their exchange relations.
``euler_oracle`` is a brute-force cross-check: it presents the group on every
arc inside a finite window modulo the Euler relation of every triangle
induced by a crossing pair, plus the suspension relations [shift A] = -[A],
which hold by numbering: an arc and its shift share one generator code with
opposite signs.
Both certify that the basis arcs Y1, X2, ..., Xn (Z1 for n = 1) are a free
basis and give every arc its coordinates over them, in one helper, and both
return that data in one result type, ``_ArcClasses``.
``arc_class`` is the closed form of every arc's class, a sum of two endpoint
weights.  One check, ``verify_closed_form``, compares a result of either
route with it; ``completion.verify_f_oracle`` runs it on the second route.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .circle import check_cap, check_point, check_size, points_in_window
from .arcs import Arc
from .snf import GroupPresentation, VerificationError, _UnitEliminations, cokernel_presentation
from .tilting import build_standard_tilting, palu_relations


_MAX_ORACLE_ARCS = 34_000  # 4x euler_oracle(10, 6), checked up front


@dataclass(frozen=True)
class _ArcClasses:
    """The group Z^n, free on the classes of ``basis``, with the class of every arc it holds.

    Both routes certify ``basis`` as a free basis or raise, so
    ``presentation`` is read off its length.  ``source`` is the call that
    made the result, e.g. ``euler_oracle(4, 6)``.  Results compare by value
    and do not hash: ``_classes`` is a dict, and each subclass body repeats
    ``__hash__ = None``, as a frozen dataclass would hash its fields.
    """

    __hash__ = None
    source: str
    basis: tuple[Arc, ...]
    # sparse class {basis index: coefficient} of every arc, in the route's order
    _classes: dict[Arc, dict[int, int]] = field(repr=False)

    @property
    def presentation(self) -> GroupPresentation:
        return GroupPresentation(len(self.basis))

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(self._classes)

    def class_of(self, arc: Arc) -> tuple[int, ...]:
        """Coordinates of one held arc over ``basis``; any other arc raises ValueError."""
        cls = self._classes.get(arc)
        if cls is None:
            raise ValueError(f"arc {arc} has no class in {self.source}")
        return tuple(cls.get(t, 0) for t in range(len(self.basis)))


# ---------------------------------------------------------------------------
# exchange-relation route


@dataclass(frozen=True)
class K0Report(_ArcClasses):
    """The group with the class of every tilting arc, and truncation bookkeeping.

    ``frontier`` holds the labels of the arcs that were too deep to have
    both flanking triangles, so they have no exchange relation of their
    own.  ``basis`` holds the tilting arcs Y1, X2, ..., Xn (Z1 for n = 1).
    """

    __hash__ = None
    frontier: tuple[str, ...]


def compute_k0_cn(
    n: int, anchor_offsets: list[int] | None = None, depth: int = 4
) -> K0Report:
    """Group of the n-accumulation-point model via exchange relations.

    The free group on the standard tilting arcs truncated at ``depth``
    modulo one relation per interior arc.  The paper's theorem says it is
    free on the tilting's Y1, X2, ..., Xn (Z1 for n = 1; at default anchors
    ``standard_basis_arcs(n)``) for every depth >= 2 and any anchors; else
    VerificationError.  ``class_of`` reads coordinates over that basis.  A
    depth below 2 raises ValueError.
    """
    check_size("depth", depth, 2)
    tilting = build_standard_tilting(n, anchor_offsets, depth)
    relations = palu_relations(tilting)
    num_arcs = len(tilting.arcs)
    elim = _UnitEliminations(num_arcs)
    for terms in relations.values():
        elim.absorb([(i + 1, c) for i, c in terms.items()])
    names = ["Z1"] if n == 1 else ["Y1", *(f"X{i}" for i in range(2, n + 1))]
    basis = [tilting.names[name] for name in names]
    source = f"compute_k0_cn({n}, {anchor_offsets!r}, {depth})"
    classes = elim.basis_classes([i + 1 for i in basis], source)
    frontier = tuple(tilting.name_of(i) for i in range(num_arcs) if i not in relations)
    return K0Report(
        source,
        tuple(tilting.arcs[i] for i in basis),
        dict(zip(tilting.arcs, classes[1:])),
        frontier,
    )


# ---------------------------------------------------------------------------
# brute-force Euler oracle


@dataclass(frozen=True)
class OracleQuotient(_ArcClasses):
    """Finite-window quotient group with coordinates for every window arc.

    ``basis`` is ``standard_basis_arcs(n)``; a window arc's class is its n
    coordinates over it, so equal classes give equal tuples at every window.
    """

    __hash__ = None


def _check_oracle_arcs(what: str, n: int, window: int) -> None:
    """ValueError naming ``what`` when an oracle window holds over ``_MAX_ORACLE_ARCS`` arcs.

    The n-segment window holds every pair of its n(2w+1) points except the
    2w adjacent pairs of each segment.
    """
    size = n * (2 * window + 1)
    check_cap(what, size * (size - 1) // 2 - 2 * n * window, "window arcs", _MAX_ORACLE_ARCS)


def euler_oracle(n: int, window: int) -> OracleQuotient:
    """Brute-force presentation over every arc with offsets in [-window, window].

    Relations: both triangle relations of every crossing pair in the window
    (the quadrilateral sides reuse the pair's endpoints, so they stay in the
    window), and [shift A] + [A] = 0 whenever the shift stays in the window.
    The generators are the suspension orbits of window arcs: an arc with no
    endpoint at offset -window is the shift of the arc with both endpoints
    one point clockwise and carries minus its code, and any other arc
    starts a new orbit.  So every suspension relation holds by numbering, a
    Tietze move that leaves the lattice unchanged.  Crossing pairs are
    enumerated up to simultaneous suspension: that spans the same relation
    lattice, since shifting a pair negates its columns.

    Number the P window points 0..P-1 in anticlockwise order, cut at
    (0, -window); every arc is then an index pair i < j.  Two arcs with four
    distinct endpoints cross iff exactly one endpoint of the second lies
    strictly between i and j, so the partners of (i, j) are the pairs with
    k in i+1..j-1 and l in j+1..P-1 or 0..i-1.  Such a pair is never
    degenerate (k and l are at least two points apart on the line), so the
    crossing partners come from index ranges with no test.

    Each triangle column goes through ``snf._UnitEliminations.absorb`` as
    soon as it is produced, so only the few non-unit columns are stored.  A
    crossing pair whose six reduced codes (the pair and the four sides) were
    met before is skipped, since both its relations are already accounted
    for; a column [x] + [y] - [u] - [v] with {x, y} = {u, v} is zero and is
    not absorbed.

    The arcs with a top endpoint are walked by increasing index span j - i
    (a stable sort, so ties keep lex order).  A short arc's triangles have
    boundary edges (zero objects) among their sides and reduce to unit
    relations, which then shrink the columns of the longer arcs met later:
    at (6, 6) 2,174 columns are stored instead of 17,833 in lex order.  The
    walk order does not change which pairs are met, since the rule that
    skips a top partner met from the other side only compares indices, nor
    the group; it only changes which generators survive.

    The residual columns then certify the basis ``standard_basis_arcs(n)``
    and give every signed code its coordinates
    (``_UnitEliminations.basis_classes``); a window arc reads its class at
    its code.

    A window of more than 34,000 arcs raises ValueError up front.
    """
    check_size("window", window, 2)
    check_size("n", n, 1)
    _check_oracle_arcs(f"n={n}, window={window}", n, window)
    points = list(points_in_window(n, window))
    size = len(points)

    # rows[i][j] is the signed generator code of the arc (i, j): the shift of
    # (i - 1, j - 1) carries minus its code, and an arc with an endpoint at
    # offset -window starts a new orbit, numbered 1..N in pairs order
    rows = [[0] * size for _ in range(size)]
    pairs: list[tuple[int, int]] = []
    orbits = 0
    for i, (s0, o0) in enumerate(points):
        for j in range(i + 1, size):
            s1, o1 = points[j]
            if s0 == s1 and o1 - o0 <= 1:
                continue  # equal or adjacent points: a zero object
            pairs.append((i, j))
            if o0 == -window or o1 == -window:
                orbits += 1
                code = orbits
            else:
                code = -rows[i - 1][j - 1]
            rows[i][j] = rows[j][i] = code

    elim = _UnitEliminations(orbits)
    rep, absorb = elim.rep, elim.absorb
    top = [o == window for _, o in points]
    low = [l for l in range(size) if not top[l]]  # partners l < i: a prefix
    seen: set[tuple[int, int, int, int, int, int]] = set()
    tops = sorted((p for p in pairs if top[p[0]] or top[p[1]]), key=lambda p: p[1] - p[0])
    for i, j in tops:
        # every pair with a top endpoint, each crossing partner once: a
        # partner (l, k) with l < i that is itself top was met as the top
        # arc (l, k) already, whatever the walk order
        row_i, row_j = rows[i], rows[j]
        a = row_i[j]
        after = range(j + 1, size)
        outside = (*after, *low[: bisect_left(low, i)])
        for k in range(i + 1, j):
            row_k = rows[k]
            kj, ik = row_k[j], row_i[k]
            # read once per k: a unit move in the l loop can leave these
            # stale, but a stale code still resolves through rep to the
            # current one inside absorb, and a seen key built from it names
            # relations already in the lattice
            ra, rkj, rik = rep[a], rep[kj], rep[ik]
            for l in after if top[k] else outside:
                rb, ril, rjl = rep[row_k[l]], rep[row_i[l]], rep[row_j[l]]
                key = (ra, rb, rkj, ril, rik, rjl)
                if key in seen:
                    continue
                seen.add(key)
                # a column whose two sides are {a, b} itself is zero: not absorbed
                # triangle a -> (+)({k,j}, {l,i}) -> b: [a] + [b] - [kj] - [li]
                if not (ra == rkj and rb == ril or ra == ril and rb == rkj):
                    absorb(((ra, 1), (rb, 1), (rkj, -1), (ril, -1)))
                # triangle b -> (+)({i,k}, {j,l}) -> a: [a] + [b] - [ik] - [jl]
                if not (ra == rik and rb == rjl or ra == rjl and rb == rik):
                    absorb(((ra, 1), (rb, 1), (rik, -1), (rjl, -1)))

    basis = standard_basis_arcs(n)
    codes = [rows[points.index(arc.a)][points.index(arc.b)] for arc in basis]
    source = f"euler_oracle({n}, {window})"
    classes = elim.basis_classes(codes, source)
    arcs = (Arc(points[i], points[j]) for i, j in pairs)
    return OracleQuotient(source, basis, dict(zip(arcs, (classes[rows[i][j]] for i, j in pairs))))


# ---------------------------------------------------------------------------
# the closed form of every arc's class


def standard_basis_arcs(n: int) -> tuple[Arc, ...]:
    """The arcs whose classes freely generate the group: Y1, X2, ..., Xn.

    The anchors are the default ones, offset 0 on every segment.  For n = 1
    the basis is the arc Z1, joining the two neighbours of the anchor.
    """
    check_size("n", n, 1)
    if n == 1:
        return (Arc((0, -1), (0, 1)),)
    return (Arc((0, 0), (1, -1)), *(Arc((0, 0), (s, 0)) for s in range(1, n)))


def _doubled_weight(n: int, segment: int, offset: int) -> dict[int, int]:
    """2φ(segment, offset) = (-1)^offset 2u_segment, sparse over the basis of ``arc_class``."""
    sign = -1 if offset & 1 else 1
    if n == 1:
        return {0: -sign}
    if segment == 0:
        return {0: sign, 1: sign}
    weight = {0: -sign, 1: -sign}
    weight[segment] = weight.get(segment, 0) + 2 * sign
    return weight


def _closed_form(n: int, arc: Arc) -> dict[int, int]:
    """Sparse class of ``arc``: (2φ(a) + 2φ(b)) / 2, whose doubled entries are all even."""
    total = _doubled_weight(n, *arc.a)
    for t, v in _doubled_weight(n, *arc.b).items():
        total[t] = total.get(t, 0) + v
    return {t: v // 2 for t, v in total.items() if v}


def arc_class(n: int, arc: Arc) -> tuple[int, ...]:
    """Coefficients of the class of any arc over the basis (Y1, X2, ..., Xn), Z1 for n = 1.

    Each marked point (s, o) has the weight φ(s, o) = (-1)^o u_s, where
    2u_0 = [Y1] + [X2] and 2u_s = 2[X(s+1)] - [Y1] - [X2] for s >= 1
    (X(s+1) sits at basis index s), and 2u_0 = -[Z1] for n = 1.  The class
    of {p, q} is φ(p) + φ(q).  The halves cancel on every arc, so it is
    computed as (2φ(p) + 2φ(q)) / 2 in integers.  So a same-segment arc
    with an even number of interior points has class 0, and shifting an
    arc by one marked point negates its class.  An endpoint off the
    n-segment circle raises ValueError.
    """
    check_size("n", n, 1)
    check_point(n, arc.a)
    check_point(n, arc.b)
    coeffs = [0] * n
    for t, v in _closed_form(n, arc).items():
        coeffs[t] = v
    return tuple(coeffs)


def verify_closed_form(result: _ArcClasses) -> None:
    """Raise VerificationError, naming ``result.source``, unless ``result`` is the closed form.

    ``result`` is a ``K0Report`` from ``compute_k0_cn`` or an
    ``OracleQuotient`` from ``euler_oracle``; a correct one returns None.
    The closed forms M of ``result.basis`` must be unimodular
    (``cokernel_presentation(n, M)`` is the zero group), so they are a basis
    too; and every class {t: c_t} of ``result``, read over them as
    sum c_t M[t], must be its arc's closed form.  The closed form depends
    only on the segments and offset parities of the endpoints, so the first
    arc of each such key is compared with it, and every later arc of the
    key with the first one's class: with unimodular M, two classes read the
    same exactly when they are equal.  A wrong exchange relation gives some
    tilting arc a class other than its closed form.
    """
    n, where = len(result.basis), result.source
    rows = [_closed_form(n, arc) for arc in result.basis]
    if cokernel_presentation(n, rows) != GroupPresentation(0):
        raise VerificationError(f"closed forms of the basis arcs are not unimodular in {where}")
    first: dict[tuple[int, int, int, int], dict[int, int]] = {}
    for arc, cls in result._classes.items():
        (s, o), (s2, o2) = arc
        key = (s, o & 1, s2, o2 & 1)
        seen = first.get(key)
        if seen is None:
            first[key] = cls
            mapped: dict[int, int] = {}
            for t, c in cls.items():
                for u, v in rows[t].items():
                    mapped[u] = mapped.get(u, 0) + c * v
            fits = {u: v for u, v in mapped.items() if v} == _closed_form(n, arc)
        else:
            fits = cls == seen
        if not fits:
            raise VerificationError(
                f"class {result.class_of(arc)} of arc {arc} is not its closed form "
                f"{arc_class(n, arc)} in {where}"
            )
