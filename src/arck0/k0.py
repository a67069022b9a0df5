"""Grothendieck-group pipelines over the arc model.

Two independent routes are provided.  ``compute_k0_cn`` presents the group as
the free group on the standard tilting arcs modulo their exchange relations.
``euler_oracle`` is a brute-force cross-check: it takes every arc inside a
finite window as a generator and imposes the Euler relation of every triangle
induced by a crossing pair, plus the suspension relations [shift A] = -[A].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .circle import CircleModel, MarkedPoint, cyclic_key
from .arcs import Arc, is_degenerate_pair
from .snf import (
    GroupPresentation,
    IntMatrix,
    VerificationError,
    _echelon_columns,
    _hermite_reduce,
    cokernel_presentation,
)
from .tilting import InsufficientDepthError, StandardTilting, build_standard_tilting, palu_relations


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

    n: int
    depth: int
    anchor_offsets: tuple[int, ...]
    presentation: GroupPresentation
    num_arcs: int
    num_relations: int
    frontier: tuple[str, ...]
    frontier_excess: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "depth": self.depth,
            "anchor_offsets": list(self.anchor_offsets),
            "presentation": self.presentation.to_json(),
            "num_arcs": self.num_arcs,
            "num_relations": self.num_relations,
            "frontier": list(self.frontier),
            "frontier_excess": self.frontier_excess,
        }


def relation_matrix(tilting: StandardTilting) -> IntMatrix:
    """Exchange relations as matrix columns over the tilting arc basis.

    JSON-exportable (``.to_json()``) for cross-checking with an external CAS.
    """
    relations = palu_relations(tilting)
    return IntMatrix.from_columns(len(tilting.arcs), [r.coefficients for r in relations])


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
    presentation = cokernel_presentation(num_arcs, [rel.terms for rel in relations])

    interior = {rel.source for rel in relations}
    frontier_indices = [i for i in range(num_arcs) if i not in interior]
    frontier = tuple(tilting.name_of(i) for i in frontier_indices)
    # quotient further by the interior classes: whatever survives is frontier
    # content that the relations failed to identify
    position = {i: k for k, i in enumerate(frontier_indices)}
    projected = [
        {position[i]: c for i, c in rel.terms.items() if i in position} for rel in relations
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
        n=n,
        depth=depth,
        anchor_offsets=tuple(p[1] for p in tilting.anchors),
        presentation=presentation,
        num_arcs=num_arcs,
        num_relations=len(relations),
        frontier=frontier,
        frontier_excess=excess,
    )


# ---------------------------------------------------------------------------
# brute-force Euler oracle


class _SignedUnionFind:
    """Union-find over generators identified up to sign, with a zero sink.

    Tracks substitutions x = s * y (s = +/-1) and x = 0 arising from unit
    relation columns; eliminating a generator through such a column leaves
    the quotient group unchanged.
    """

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.sign = [1] * size
        self.zero = [False] * size

    def find(self, x: int) -> tuple[int, int]:
        root, s = x, 1
        while self.parent[root] != root:
            s *= self.sign[root]
            root = self.parent[root]
        # path compression: repoint the walked chain directly at the root
        cur, cs = x, s
        while self.parent[cur] != root:
            nxt, ns = self.parent[cur], self.sign[cur]
            self.parent[cur] = root
            self.sign[cur] = cs
            cs //= ns  # sign of the remaining path (ns is +/-1)
            cur = nxt
        return root, s

    def pin_zero(self, x: int) -> None:
        root, _ = self.find(x)
        self.zero[root] = True

    def union(self, a: int, b: int, s: int) -> None:
        """Record x_a = s * x_b for roots a != b."""
        self.parent[a] = b
        self.sign[a] = s
        if self.zero[a]:
            self.zero[b] = True


@dataclass
class OracleQuotient:
    """Finite-window quotient group with a class vector for every window arc.

    Window arcs that differ by suspension share a generator up to sign, and
    unit relations identify most of the rest; ``num_live`` generators
    survive.  ``relations`` is the Hermite (column-echelon) basis of the
    remaining relation lattice over them, {pivot row: column}.  A class is
    the canonical reduced vector of length ``num_live``: equal classes give
    equal vectors.
    """

    model: CircleModel
    window: int
    arcs: tuple[Arc, ...]
    presentation: GroupPresentation
    num_live: int
    relations: dict[int, dict[int, int]]
    _chain: dict[tuple[MarkedPoint, MarkedPoint], tuple[int, int]]
    _chain_to_live: list[tuple[int, int] | None]

    @property
    def zero_class(self) -> tuple[int, ...]:
        return (0,) * self.num_live

    def _reduce_live_vector(self, vec: dict[int, int]) -> tuple[int, ...]:
        reduced = _hermite_reduce(self.relations, vec)
        return tuple(reduced.get(i, 0) for i in range(self.num_live))

    def _reduce_chain_vector(self, vec: dict[int, int]) -> tuple[int, ...]:
        live: dict[int, int] = {}
        for cid, coef in vec.items():
            target = self._chain_to_live[cid]
            if target is None:
                continue
            idx, sign = target
            live[idx] = live.get(idx, 0) + sign * coef
        return self._reduce_live_vector(live)

    def class_of(self, arc: Arc) -> tuple[int, ...]:
        key = (arc.a, arc.b)
        if key not in self._chain:
            raise InsufficientWindowError(f"arc {arc} outside window {self.window}")
        cid, sign = self._chain[key]
        return self._reduce_chain_vector({cid: sign})

    def reduce(self, combination: dict[Arc, int]) -> tuple[int, ...]:
        """Class of an integer combination of window arcs."""
        vec: dict[int, int] = {}
        for arc, coef in combination.items():
            key = (arc.a, arc.b)
            if key not in self._chain:
                raise InsufficientWindowError(f"arc {arc} outside window {self.window}")
            cid, sign = self._chain[key]
            vec[cid] = vec.get(cid, 0) + sign * coef
        return self._reduce_chain_vector(vec)

    def negate(self, cls: tuple[int, ...]) -> tuple[int, ...]:
        return self._reduce_live_vector({i: -v for i, v in enumerate(cls)})

    @cached_property
    def class_map(self) -> dict[Arc, tuple[int, ...]]:
        return {arc: self.class_of(arc) for arc in self.arcs}


def euler_oracle(n: int, window: int) -> OracleQuotient:
    """Brute-force presentation over every arc with offsets in [-window, window].

    Relations: both triangle relations of every crossing pair in the window
    (the quadrilateral sides reuse the pair's endpoints, so they stay in the
    window), and [shift A] + [A] = 0 whenever the shift stays in the window.
    The suspension relations are absorbed by working on suspension chains;
    crossing pairs are enumerated up to simultaneous suspension, which spans
    the same relation lattice because shifting a pair negates its columns.
    """
    if window < 2:
        raise ValueError(f"euler_oracle needs window >= 2, got {window}")
    model = CircleModel(n)
    points = list(model.points_in_window(window))

    raw: list[tuple[MarkedPoint, MarkedPoint]] = []
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if not is_degenerate_pair(p, q):
                raw.append((p, q))

    # suspension chains: slide each arc anticlockwise until it touches the
    # window's upper edge; the slid copy is the chain representative and the
    # parity of the slide is the sign of the arc against it
    chain_ids: dict[tuple[MarkedPoint, MarkedPoint], int] = {}
    chain: dict[tuple[MarkedPoint, MarkedPoint], tuple[int, int]] = {}
    for pair in raw:
        (s0, o0), (s1, o1) = pair
        k = window - max(o0, o1)
        rep = (MarkedPoint(s0, o0 + k), MarkedPoint(s1, o1 + k))
        cid = chain_ids.setdefault(rep, len(chain_ids))
        chain[pair] = (cid, -1 if k % 2 else 1)

    columns: set[tuple[tuple[int, int], ...]] = set()

    def add_triangle(first, third, mids) -> None:
        vec: dict[int, int] = {}
        for key in (first, third):
            cid, sign = chain[key]
            vec[cid] = vec.get(cid, 0) + sign
        for x, y in mids:
            if x[0] == y[0] and abs(x[1] - y[1]) == 1:
                continue  # boundary side, a zero object
            key = (x, y) if x < y else (y, x)
            cid, sign = chain[key]
            vec[cid] = vec.get(cid, 0) - sign
        items = sorted((c, v) for c, v in vec.items() if v)
        if not items:
            return
        if items[0][1] < 0:
            items = [(c, -v) for c, v in items]
        columns.add(tuple(items))

    top = [pair for pair in raw if max(pair[0][1], pair[1][1]) == window]
    top_set = set(top)
    for a_pair in top:
        a0, a1 = a_pair
        end = cyclic_key(a0, a1, n)
        for b_pair in raw:
            if b_pair in top_set and b_pair <= a_pair:
                continue
            b0, b1 = b_pair
            if b0 == a0 or b0 == a1 or b1 == a0 or b1 == a1:
                continue
            in0 = cyclic_key(a0, b0, n) < end
            in1 = cyclic_key(a0, b1, n) < end
            if in0 == in1:
                continue
            v1, v3 = (b0, b1) if in0 else (b1, b0)
            add_triangle(a_pair, b_pair, ((v1, a1), (v3, a0)))
            add_triangle(b_pair, a_pair, ((a0, v1), (a1, v3)))

    # Most columns are unit identifications x = +/-y or x = 0; eliminating
    # those generators first (a Tietze move, so the group is unchanged) keeps
    # the remaining lattice reduction tiny.
    num_chains = len(chain_ids)
    uf = _SignedUnionFind(num_chains)
    work: set[tuple[tuple[int, int], ...]] = columns
    while True:
        changed = False
        remaining: set[tuple[tuple[int, int], ...]] = set()
        for col in work:
            acc: dict[int, int] = {}
            for cid, coef in col:
                root, sign = uf.find(cid)
                if uf.zero[root]:
                    continue
                acc[root] = acc.get(root, 0) + sign * coef
            items = sorted((c, v) for c, v in acc.items() if v)
            if not items:
                continue
            if len(items) == 1 and abs(items[0][1]) == 1:
                uf.pin_zero(items[0][0])
                changed = True
                continue
            if len(items) == 2 and abs(items[0][1]) == 1 and abs(items[1][1]) == 1:
                (a, va), (b, vb) = items
                uf.union(a, b, -va * vb)  # va*x_a + vb*x_b = 0
                changed = True
                continue
            if items[0][1] < 0:
                items = [(c, -v) for c, v in items]
            remaining.add(tuple(items))
        work = remaining
        if not changed:
            break

    live: list[int] = sorted(
        r for r in range(num_chains) if uf.parent[r] == r and not uf.zero[r]
    )
    live_index = {r: i for i, r in enumerate(live)}
    reduced_columns = [
        {live_index[c]: v for c, v in col} for col in sorted(work)
    ]
    relations = _echelon_columns(reduced_columns)
    presentation = cokernel_presentation(len(live), list(relations.values()))
    chain_to_live: list[tuple[int, int] | None] = []
    for cid in range(num_chains):
        root, sign = uf.find(cid)
        if uf.zero[root]:
            chain_to_live.append(None)
        else:
            chain_to_live.append((live_index[root], sign))
    arcs = tuple(Arc(p, q) for p, q in raw)
    return OracleQuotient(
        model=model,
        window=window,
        arcs=arcs,
        presentation=presentation,
        num_live=len(live),
        relations=relations,
        _chain=chain,
        _chain_to_live=chain_to_live,
    )


# ---------------------------------------------------------------------------
# closed-form class computations for same-segment arcs


def parity_class(anchor: MarkedPoint, i: int) -> int:
    """Class of the arc with i interior points in a one-sided fountain at ``anchor``.

    Iterates [W(i+1)] = [W(i)] + (-1)^i [W(1)] from [W(1)] = w and returns the
    coefficient of w: 0 for even i, +1 for odd i.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    coef = 1
    for step in range(1, i):
        coef += 1 if step % 2 == 0 else -1
    return coef


def basis_labels(n: int) -> tuple[str, ...]:
    return ("Y1",) + tuple(f"X{i}" for i in range(2, n + 1))


def standard_basis_arcs(
    n: int, anchor_offsets: list[int] | None = None
) -> tuple[Arc, ...]:
    """The arcs whose classes freely generate the group: Y1, X2, ..., Xn."""
    if n < 2:
        raise ValueError("the Y1/X basis needs n >= 2")
    if anchor_offsets is None:
        anchor_offsets = [0] * n
    z = [MarkedPoint(s, int(anchor_offsets[s])) for s in range(n)]
    y1 = Arc(z[0], MarkedPoint(1, z[1][1] - 1))
    xs = tuple(Arc(z[0], z[i]) for i in range(1, n))
    return (y1,) + xs


@dataclass(frozen=True)
class K0Class:
    """Integer vector over a labelled basis of group generators."""

    labels: tuple[str, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.coefficients):
            raise ValueError("labels and coefficients disagree in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")

    def to_json(self) -> dict:
        return {label: c for label, c in zip(self.labels, self.coefficients)}


def class_same_segment(
    n: int, arc: Arc, anchor_offsets: list[int] | None = None
) -> K0Class:
    """Class of a same-segment arc over the basis (Y1, X2, ..., Xn).

    Zero when the arc has an even number of interior points.  Otherwise the
    class is +/-([X2] + [Y1]) on the anchor z1's segment and
    +/-(2[Xi] - [X2] - [Y1]) on segment i-1, the sign being the parity of the
    clockwise shift aligning the arc's upper endpoint onto the segment anchor
    (the aligned copy is the one whose suspension crosses the suspended fan
    arc, which fixes the choice between the two shifts sharing an endpoint).
    """
    if n < 2:
        raise ValueError("class_same_segment needs n >= 2 (the basis includes X2)")
    if arc.a[0] != arc.b[0]:
        raise ValueError(f"cross-segment arc {arc} has no same-segment class")
    if anchor_offsets is None:
        anchor_offsets = [0] * n
    labels = basis_labels(n)
    coeffs = [0] * n
    interior = arc.b[1] - arc.a[1] - 1
    if interior % 2 == 0:
        return K0Class(labels, tuple(coeffs))
    segment = arc.a[0]
    shift = arc.b[1] - int(anchor_offsets[segment])
    sign = -1 if shift % 2 else 1
    if segment == 0:
        coeffs[0] += sign  # Y1
        coeffs[1] += sign  # X2
    else:
        coeffs[segment] += 2 * sign  # X(segment+1) sits at basis index segment
        coeffs[0] -= sign
        coeffs[1] -= sign
    return K0Class(labels, tuple(coeffs))
