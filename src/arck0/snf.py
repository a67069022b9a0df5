"""Exact integer linear algebra: Smith normal form, Hermite reduction and cokernels.

Everything runs over Python's arbitrary-precision integers; there are no
modular shortcuts and no floating point anywhere.  One sparse kernel does all
the work: a normalized column-echelon (Hermite) reduction, which keeps
coefficient growth tame.  Alternating it with transposition reaches the Smith
diagonal; reducing a vector against one echelon basis gives the canonical
representative of its coset modulo the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence


class VerificationError(RuntimeError):
    """An internal consistency check on a computed presentation failed."""


@dataclass(frozen=True)
class GroupPresentation:
    """A finitely generated abelian group: free rank plus invariant factors.

    ``invariant_factors`` is the torsion chain d1 | d2 | ... with every di >= 2.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariant_factors", tuple(self.invariant_factors))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = self.invariant_factors
        for i, d in enumerate(factors):
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


@dataclass(frozen=True)
class IntMatrix:
    """A dense integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def from_columns(cls, ambient: int, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        for c in columns:
            if len(c) != ambient:
                raise ValueError(f"column of length {len(c)}, expected {ambient}")
        entries = tuple(tuple(int(c[i]) for c in columns) for i in range(ambient))
        return cls(ambient, len(columns), entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


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
        col = {r: int(v) for r, v in raw.items() if v}
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
    # normalization pass, deepest pivot first: flip signs and take every
    # entry below a pivot row modulo that pivot.  Only the column's own
    # entries at deeper pivot rows are visited, in increasing row order; a
    # subtraction fills in rows deeper than the one it clears, so the heap
    # still hands them out in order.
    for r in sorted(pivots, reverse=True):
        col = pivots[r]
        if col[r] < 0:
            pivots[r] = col = {k: -v for k, v in col.items()}
        rows = [rr for rr in col if rr > r and rr in pivots]
        heapify(rows)
        queued = set(rows)
        while rows:
            rr = heappop(rows)
            v = col.get(rr)
            if not v:
                continue
            pivot = pivots[rr]
            q = v // pivot[rr]
            if q:
                _subtract(col, q, pivot)
                for x in pivot:
                    if x not in queued and x > rr and x in pivots:
                        queued.add(x)
                        heappush(rows, x)
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
        q = out.get(r, 0) // pivots[r][r]
        if q:
            _subtract(out, q, pivots[r])
    return out


def _divisibility_chain(values: list[int]) -> list[int]:
    """Sort positive diagonal values into a divisibility chain.

    Uses that diag(a, b) and diag(gcd(a, b), lcm(a, b)) present the same
    group; bubbling the pair operation to a fixed point sorts the prime
    powers into the invariant-factor chain.
    """
    from math import gcd

    chain = [abs(v) for v in values]
    changed = True
    while changed:
        changed = False
        for i in range(len(chain) - 1):
            x, y = chain[i], chain[i + 1]
            g = gcd(x, y)
            l = x * y // g if g else 0
            if (g, l) != (x, y):
                chain[i], chain[i + 1] = g, l
                changed = True
    return chain


def _snf_values_sparse(rows: Iterable[Mapping[int, int]]) -> list[int]:
    """Nonzero Smith diagonal of the lattice spanned by sparse rows.

    Alternates normalized echelon reduction with transposition until the
    matrix is diagonal; the normalization bounds entry growth, which plain
    row/column elimination does not (random 12x12 inputs already blow up
    to thousands of digits there).  A pivot of 1 is a Smith value 1 at once:
    normalization has cleared its row in every other column, so row
    operations clear its column without touching the rest, and it is split
    off before the next round.
    """
    work = [{int(i): int(v) for i, v in r.items() if v} for r in rows]
    work = [r for r in work if r]
    units = 0
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


def smith_normal_form(matrix: IntMatrix | Sequence[Sequence[int]]) -> list[int]:
    """Full Smith diagonal d1 | d2 | ... of an integer matrix, zeros trailing."""
    rows = matrix.entries if isinstance(matrix, IntMatrix) else matrix
    m = len(rows)
    k = len(rows[0]) if m else 0
    values = _snf_values_sparse(
        {j: v for j, v in enumerate(row) if v} for row in rows
    )
    return values + [0] * (min(m, k) - len(values))


def cokernel_presentation(
    ambient_rank: int,
    columns: Sequence[Sequence[int] | Mapping[int, int]],
) -> GroupPresentation:
    """Presentation of Z^ambient_rank modulo the span of the given columns.

    Columns may be dense vectors of length ``ambient_rank`` or sparse
    {index: value} mappings.
    """
    if ambient_rank < 0:
        raise ValueError("ambient rank must be nonnegative")
    sparse: list[dict[int, int]] = []
    for c in columns:
        if isinstance(c, Mapping):
            col = {int(i): int(v) for i, v in c.items() if v}
            if col and not all(0 <= i < ambient_rank for i in col):
                raise ValueError("column index out of range")
        else:
            if len(c) != ambient_rank:
                raise ValueError(f"column of length {len(c)}, expected {ambient_rank}")
            col = {i: int(v) for i, v in enumerate(c) if v}
        sparse.append(col)
    values = _snf_values_sparse(sparse)
    factors = tuple(d for d in values if d > 1)
    return GroupPresentation(ambient_rank - len(values), factors)
