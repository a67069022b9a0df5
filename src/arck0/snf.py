"""Exact integer linear algebra: Smith normal form, Hermite reduction and cokernels.

Everything runs over Python's arbitrary-precision integers; there are no
modular shortcuts and no floating point anywhere.  Every Smith computation
starts with unit elimination (``_UnitEliminations``): a relation +/-x or
+/-x +/- y removes one generator as a Tietze move and counts as one Smith
value 1.  Only the residual core reaches the sparse kernel, a normalized
column-echelon (Hermite) reduction, which keeps coefficient growth tame.
Alternating it with transposition reaches the Smith diagonal; reducing a
vector against one echelon basis gives the canonical representative of its
coset modulo the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from math import gcd


class VerificationError(RuntimeError):
    """An internal consistency check on a computed presentation failed."""


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
        if type(self.free_rank) is not int:
            raise ValueError(f"free rank {self.free_rank!r} is not an int")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = self.invariant_factors
        for i, d in enumerate(factors):
            if type(d) is not int:
                raise ValueError(f"invariant factor {d!r} is not an int")
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
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
    lattice element.
    """
    out = {i: v for i, v in vec.items() if v}
    for r in sorted(pivots):
        v = out.get(r)
        if v and (q := v // pivots[r][r]):
            _subtract(out, q, pivots[r])
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
    leaves the quotient group unchanged.
    """

    def __init__(self, size: int):
        self.rep = [*range(size + 1), *range(-size, 0)]
        self.members = {g: [g] for g in range(1, size + 1)}

    def absorb(self, column, store: set[tuple[tuple[int, int], ...]]) -> bool:
        """Reduce one relation column and apply it if it is a unit relation.

        ``column`` holds (signed code, coefficient) terms.  After resolving
        every code, a zero column is dropped, a unit column (+/-x or
        +/-x +/- y) is applied at once as a Tietze move, and anything else
        goes into ``store`` over generator numbers with its leading
        coefficient made positive.  Returns True iff a unit move was applied.
        Cancelled terms leave the accumulator, so it is the reduced column.
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
                return True
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
                return True
        elif not acc:
            return False
        items = sorted(acc.items())
        if items[0][1] < 0:
            items = [(g, -v) for g, v in items]
        store.add(tuple(items))
        return False

    def residual(self, store: set) -> tuple[dict[int, int], list[dict[int, int]]]:
        """Re-absorb stored columns until no unit move applies; return the core.

        Columns stored early were reduced against fewer unit moves.  Returns
        {generator: live position}, numbering the survivors in decreasing
        order, and the remaining columns over those positions, sorted.

        The decreasing order reduces fill: ``_echelon_columns`` pivots on
        the smallest row, and on the exchange core of ``compute_k0_cn`` the
        increasing order filled every pivot column, so the pivot entries
        grew as n squared (10,292 at n = 100, against 787 in this order).
        """
        while True:
            work: set = set()
            changed = False
            for col in store:
                changed |= self.absorb(col, work)
            store = work
            if not changed:
                break
        live = {g: i for i, g in enumerate(sorted(self.members, reverse=True))}
        return live, [{live[g]: v for g, v in col} for col in sorted(store)]


def _smith_values(size: int, columns: Iterable[Sequence[int] | Mapping[int, int]]) -> list[int]:
    """Nonzero Smith diagonal of the lattice the columns span in Z^size.

    One pass checks each column, dense of length ``size`` or a sparse
    {index: value} mapping, and hands it straight to unit elimination.  An
    index or entry whose type is not ``int`` raises ValueError (a float or
    bool would be truncated or counted silently), as do a wrong length and
    a nonzero entry at an index outside [0, size).  A unit move deletes one
    generator and one relation without changing the quotient, so it is one
    Smith value 1.  The residual core alternates normalized echelon
    reduction, which bounds entry growth (plain elimination blows random
    12x12 inputs up to thousands of digits), with transposition until the
    matrix is diagonal.  A pivot of 1 is a Smith value 1 at once:
    normalization has cleared its row in every other column, so row
    operations clear its column without touching the rest, and it is split
    off before the next round.
    """
    elim = _UnitEliminations(size)
    store: set = set()
    for c in columns:
        # the dict test first: the ABC check costs as much as a short column
        if isinstance(c, dict) or isinstance(c, Mapping):
            entries = c.items()
        elif len(c) != size:
            raise ValueError(f"column of length {len(c)}, expected {size}")
        else:
            entries = enumerate(c)
        terms = []
        for i, v in entries:
            if type(i) is not int:
                raise ValueError(f"column index {i!r} is not an int")
            if type(v) is not int:
                raise ValueError(f"matrix entry {v!r} is not an int")
            if v:
                if not 0 <= i < size:
                    raise ValueError("column index out of range")
                terms.append((i + 1, v))
        elim.absorb(terms, store)
    live, work = elim.residual(store)
    units = size - len(live)
    for _ in range(256):
        pivots = _echelon_columns(work)
        rest = {r: col for r, col in pivots.items() if col[r] != 1}
        units += len(pivots) - len(rest)
        if all(len(col) == 1 for col in rest.values()):
            return [1] * units + _divisibility_chain([col[r] for r, col in rest.items()])
        transposed: dict[int, dict[int, int]] = {}
        for r, col in rest.items():
            for rr, v in col.items():
                transposed.setdefault(rr, {})[r] = v
        work = list(transposed.values())
    raise VerificationError("Smith reduction did not converge in 256 rounds")


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Full Smith diagonal d1 | d2 | ... of an integer matrix, zeros trailing.

    ``rows`` are the matrix rows; rows of unequal length or an entry whose
    type is not ``int`` raise ValueError.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    if any(len(row) != k for row in rows):
        raise ValueError("rows of unequal length")
    values = _smith_values(k, rows)
    return values + [0] * (min(m, k) - len(values))


def cokernel_presentation(
    ambient_rank: int,
    columns: Sequence[Sequence[int] | Mapping[int, int]],
) -> GroupPresentation:
    """Presentation of Z^ambient_rank modulo the span of the given columns.

    Columns may be dense vectors of length ``ambient_rank`` or sparse
    {index: value} mappings.  An ambient rank, index or entry whose type is
    not ``int`` raises ValueError, as do a wrong length and an index out of
    range.
    """
    if type(ambient_rank) is not int:
        raise ValueError(f"ambient rank {ambient_rank!r} is not an int")
    if ambient_rank < 0:
        raise ValueError("ambient rank must be nonnegative")
    values = _smith_values(ambient_rank, columns)
    factors = tuple(d for d in values if d > 1)
    return GroupPresentation(ambient_rank - len(values), factors)
