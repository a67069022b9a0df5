"""Exact integer linear algebra: cokernels via the Smith form, and Hermite reduction.

Everything runs over Python's arbitrary-precision integers; there are no
modular shortcuts and no floating point anywhere.  The one Smith
computation, ``cokernel_presentation``, starts with unit elimination
(``_UnitEliminations``): a relation +/-x or +/-x +/- y removes one generator
as a Tietze move and counts as one Smith value 1.  Only the residual core
reaches the sparse kernel, a normalized column-echelon (Hermite) reduction,
which keeps coefficient growth tame.  Alternating it with transposition
reaches the Smith diagonal; reducing a vector against one echelon basis
gives the canonical representative of its coset modulo the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from heapq import heapify, heappop, heappush
from math import gcd

from .circle import check_size


class VerificationError(RuntimeError):
    """An internal consistency check failed."""


@dataclass(frozen=True)
class GroupPresentation:
    """A finitely generated abelian group: free rank plus invariant factors.

    ``invariant_factors`` is the torsion chain d1 | d2 | ... with every di >= 2.
    A free rank or factor whose type is not ``int`` raises ValueError.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariant_factors", tuple(self.invariant_factors))
        check_size("free rank", self.free_rank, 0)
        factors = self.invariant_factors
        for i, d in enumerate(factors):
            check_size("invariant factor", d, 2)
            if i + 1 < len(factors) and factors[i + 1] % d:
                raise ValueError(f"broken divisibility chain: {d} does not divide {factors[i + 1]}")

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "invariant_factors": list(self.invariant_factors)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


def _subtract(col: dict[int, int], q: int, pivot: Mapping[int, int]) -> None:
    """col -= q * pivot in place, dropping the entries that cancel."""
    for r, v in pivot.items():
        nv = col.get(r, 0) - q * v
        if nv:
            col[r] = nv
        else:
            col.pop(r, None)


def _echelon_columns(columns: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """Reduce sparse integer columns to normalized column-echelon form.

    Only column operations are used, so the lattice spanned by the columns is
    unchanged.  Returns {pivot row: column}, each column a dict row -> value
    whose smallest-row entry sits at the pivot row.  After insertion every
    pivot column is reduced against the deeper pivots, which is what keeps
    entries from exploding.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in columns:
        col = {r: v for r, v in raw.items() if v}
        while col:
            r = min(col)
            pivot = pivots.get(r)
            if pivot is None:
                pivots[r] = col
                break
            q = col[r] // pivot[r]
            if q:
                _subtract(col, q, pivot)
            if col.get(r):
                # remainder beats the pivot; swap roles and keep reducing
                pivots[r] = col
                col = pivot
    # normalization pass, deepest pivot first: flip a negative pivot and
    # reduce the column modulo the pivots already normalized below it
    done: dict[int, dict[int, int]] = {}
    for r in sorted(pivots, reverse=True):
        col = pivots[r]
        if col[r] < 0:
            col = {k: -v for k, v in col.items()}
        pivots[r] = done[r] = _hermite_reduce(done, col)
    return pivots


def _hermite_reduce(
    pivots: Mapping[int, Mapping[int, int]], vec: Mapping[int, int]
) -> dict[int, int]:
    """Canonical representative of ``vec`` modulo the lattice of an echelon basis.

    ``pivots`` is a {pivot row: column} basis from ``_echelon_columns``.
    Walking the pivot rows in increasing order and subtracting
    (vec[r] // pivot) times the pivot column leaves every pivot-row entry in
    [0, pivot): two vectors reduce to the same dict iff they differ by a
    lattice element.  The walk visits only the rows the vector holds and
    those a subtraction fills in, from a heap; a row queued twice is already
    reduced when it comes up again.
    """
    out = {i: v for i, v in vec.items() if v}
    queue = [r for r in out if r in pivots]
    heapify(queue)
    while queue:
        r = heappop(queue)
        v = out.get(r)
        pivot = pivots[r]
        if v and (q := v // pivot[r]):
            for k in pivot:
                if k not in out and k in pivots:
                    heappush(queue, k)
            _subtract(out, q, pivot)
    return out


def _divisibility_chain(values: list[int]) -> list[int]:
    """Sort positive diagonal values into a divisibility chain.

    diag(a, b) and diag(gcd(a, b), lcm(a, b)) present the same group.  Setting
    (d_i, d_j) to that pair for every i < j leaves d_i dividing every later
    entry, since gcd and lcm of two multiples of d_i are multiples of it.
    """
    chain = list(values)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            x, y = chain[i], chain[j]
            g = gcd(x, y)
            chain[i], chain[j] = g, x * y // g
    return chain


class _UnitEliminations:
    """Generators identified up to sign, or with zero, by unit relations.

    Generators are numbered 1..N, and the signed code +/-g stands for
    +/-x_g.  ``rep[c]`` is the signed code that c currently stands for, and
    0 when it was eliminated to zero; the list also holds negative codes
    (read by Python's negative indexing), so ``rep[-c] == -rep[c]`` and one
    lookup resolves a signed code.  ``rep[0]`` is 0, the code of a zero
    object.  Every surviving generator g is its own representative and keeps
    the list of generators it stands for, so an identification rewrites the
    smaller of the two lists; eliminating a generator through a unit column
    leaves the quotient group unchanged.  A unit move is exactly one
    ``members`` pop.  The object owns ``store``, the columns that were not
    unit relations when absorbed.  ``compute_k0_cn`` numbers its arcs as
    the generators 1..N; ``euler_oracle`` numbers the suspension orbits of
    its window arcs, so each arc has a signed code.
    """

    def __init__(self, size: int):
        self.rep = [*range(size + 1), *range(-size, 0)]
        self.members = {g: [g] for g in range(1, size + 1)}
        self.store: set[tuple[tuple[int, int], ...]] = set()

    def absorb(self, column) -> None:
        """Reduce one relation column and apply it if it is a unit relation.

        ``column`` holds (signed code, coefficient) terms.  After resolving
        every code, a zero column is dropped, a unit column (+/-x or
        +/-x +/- y) is applied at once as a Tietze move, and anything else
        goes into ``store`` over generator numbers with its leading
        coefficient made positive.  Cancelled terms leave the accumulator,
        so it is the reduced column.
        """
        rep = self.rep
        acc: dict[int, int] = {}
        for code, coef in column:
            r = rep[code]
            if r < 0:
                r, coef = -r, -coef
            if r:
                if v := acc.get(r, 0) + coef:
                    acc[r] = v
                else:
                    acc.pop(r, None)
        if len(acc) == 1:
            [(g, v)] = acc.items()
            if v == 1 or v == -1:
                for m in self.members.pop(g):
                    rep[m] = rep[-m] = 0
                return
        elif len(acc) == 2:
            [(a, va), (b, vb)] = acc.items()
            if (va == 1 or va == -1) and (vb == 1 or vb == -1):
                # va*x_a + vb*x_b = 0, i.e. x_a = s*x_b and x_b = s*x_a; on a
                # tie in size the larger generator survives
                s = -va * vb
                if a > b:
                    a, b = b, a
                if len(self.members[a]) > len(self.members[b]):
                    a, b = b, a
                into = self.members[b]
                for m in self.members.pop(a):
                    v = s * b if rep[m] > 0 else -s * b
                    rep[m] = v
                    rep[-m] = -v
                    into.append(m)
                return
        elif not acc:
            return
        items = sorted(acc.items())
        if items[0][1] < 0:
            items = [(g, -v) for g, v in items]
        self.store.add(tuple(items))

    def residual(self) -> tuple[dict[int, int], list[dict[int, int]]]:
        """Re-absorb stored columns until no unit move applies; return the core.

        Columns stored early were reduced against fewer unit moves, so each
        pass re-absorbs the whole store into a fresh one, and the first pass
        that pops no ``members`` entry is the last.  Returns
        {generator: live position}, numbering the survivors in decreasing
        order, and the remaining columns over those positions, sorted.

        The decreasing order reduces fill: ``_echelon_columns`` pivots on
        the smallest row, and on the exchange core of ``compute_k0_cn`` the
        increasing order filled every pivot column, so the subtractions
        grew as n squared (17,853 at n = 100, against 497 in this order).
        """
        survivors = None
        while survivors != len(self.members):
            survivors = len(self.members)
            store, self.store = self.store, set()
            for col in store:
                self.absorb(col)
        live = {g: i for i, g in enumerate(sorted(self.members, reverse=True))}
        return live, [{live[g]: v for g, v in col} for col in sorted(self.store)]

    def basis_classes(self, basis: Sequence[int], where: str) -> list[dict[int, int]]:
        """Sparse classes of generators 1..N over a free basis, or VerificationError.

        ``basis`` lists the basis elements' signed codes.  Coordinates come
        from one echelon of the residual core and, per basis element t, its
        vector over the survivors plus a 1 at tag row num_live + t.  The basis
        generates iff every survivor row has pivot 1 and is free iff no tag row
        has one, else VerificationError names ``where``; then the pivot column
        of row p is survivor p plus its coordinates on the tag rows.  Returns
        the class {basis index: coefficient} of each signed code, indexed like ``rep``.
        """
        position, core = self.residual()
        num_live = len(position)
        for t, code in enumerate(basis):
            column = {num_live + t: 1}
            if r := self.rep[code]:
                column[position[abs(r)]] = 1 if r > 0 else -1
            core.append(column)
        pivots = _echelon_columns(core)
        if pivots.keys() != set(range(num_live)) or any(col[p] != 1 for p, col in pivots.items()):
            problem = "satisfy a relation" if max(pivots) >= num_live else "do not generate"
            raise VerificationError(f"the basis arc classes {problem} in {where}")
        classes: dict[int, dict[int, int]] = {0: {}}
        for g, p in position.items():
            classes[g] = cls = {r - num_live: v for r, v in pivots[p].items() if r >= num_live}
            classes[-g] = {t: -v for t, v in cls.items()}
        return [classes[r] for r in self.rep]


def cokernel_presentation(
    ambient_rank: int,
    columns: Iterable[Sequence[int] | Mapping[int, int]],
) -> GroupPresentation:
    """Presentation of Z^ambient_rank modulo the span of the given columns.

    One pass checks each column, dense of length ``ambient_rank`` or a
    sparse {index: value} mapping, and hands it straight to unit
    elimination.  An ambient rank, index or entry whose type is not ``int``
    raises ValueError (a float or bool would be truncated or counted
    silently), as do a column that is neither a sequence nor a mapping, a
    wrong length and a nonzero entry at an index outside [0, ambient_rank).
    A unit move deletes one generator and one relation without changing
    the quotient, so it is one Smith value 1.  The residual core alternates
    normalized echelon reduction, which bounds entry growth (plain
    elimination blows random 12x12 inputs up to thousands of digits), with
    transposition until the matrix is diagonal.
    A pivot of 1 is a Smith value 1 at once: normalization has cleared its
    row in every other column, so row operations clear its column without
    touching the rest, and it is split off before the next round.
    """
    check_size("ambient rank", ambient_rank, 0)
    elim = _UnitEliminations(ambient_rank)
    for c in columns:
        if isinstance(c, Mapping):
            entries = c.items()
        elif not isinstance(c, Sequence):
            raise ValueError(f"column {c!r} is neither a sequence nor a mapping")
        elif len(c) != ambient_rank:
            raise ValueError(f"column of length {len(c)}, expected {ambient_rank}")
        else:
            entries = enumerate(c)
        terms = []
        for i, v in entries:
            if type(i) is not int:
                raise ValueError(f"column index {i!r} is not an int")
            if type(v) is not int:
                raise ValueError(f"matrix entry {v!r} is not an int")
            if v:
                if not 0 <= i < ambient_rank:
                    raise ValueError("column index out of range")
                terms.append((i + 1, v))
        elim.absorb(terms)
    live, work = elim.residual()
    units = ambient_rank - len(live)
    for _ in range(256):
        pivots = _echelon_columns(work)
        rest = {r: col for r, col in pivots.items() if col[r] != 1}
        units += len(pivots) - len(rest)
        if all(len(col) == 1 for col in rest.values()):
            chain = _divisibility_chain([col[r] for r, col in rest.items()])
            factors = tuple(d for d in chain if d > 1)
            return GroupPresentation(ambient_rank - units - len(rest), factors)
        transposed: dict[int, dict[int, int]] = {}
        for r, col in rest.items():
            for rr, v in col.items():
                transposed.setdefault(rr, {})[r] = v
        work = list(transposed.values())
    raise VerificationError("Smith reduction did not converge in 256 rounds")
