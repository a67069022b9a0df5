"""Independent Smith-form oracle used to cross-check the real implementation.

Plain textbook reduction: pick the smallest nonzero entry of the trailing
block as pivot (anything else explodes coefficients on 12x12 inputs), then
repeat a stage until row and column s are clear: move the smallest nonzero
entry of row s and column s to (s, s) and reduce the rest of that row and
column by it with one Euclidean step each.  Every stage that leaves a
remainder has a smaller pivot next time, so the stage ends.  Unlike the
production code the divisibility chain is not maintained during
elimination; it is repaired afterwards by gcd/lcm bubbling on the
diagonal, using that diag(a, b) presents the same group as diag(gcd, lcm).

``smith_diagonal`` reads the same full diagonal off the package's one Smith
entry point, ``cokernel_presentation``, so the two can be compared.
"""

from math import gcd

from arck0 import cokernel_presentation


def _smallest_nonzero(a, s, m, k):
    pos = None
    best = None
    for i in range(s, m):
        for j in range(s, k):
            v = abs(a[i][j])
            if v and (best is None or v < best):
                pos, best = (i, j), v
    return pos


def _swap(a, s, i, j):
    """Move entry (i, j) to (s, s) by one row swap and one column swap."""
    a[s], a[i] = a[i], a[s]
    for row in a:
        row[s], row[j] = row[j], row[s]


def reference_snf(matrix) -> list[int]:
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    k = len(a[0]) if m else 0
    size = min(m, k)
    rank = size
    for s in range(size):
        pos = _smallest_nonzero(a, s, m, k)
        if pos is None:
            rank = s
            break
        _swap(a, s, *pos)
        while True:
            # re-select the pivot: smallest nonzero entry of row s / column s
            best, pos = abs(a[s][s]), (s, s)
            for i in range(s + 1, m):
                if a[i][s] and abs(a[i][s]) < best:
                    best, pos = abs(a[i][s]), (i, s)
            for j in range(s + 1, k):
                if a[s][j] and abs(a[s][j]) < best:
                    best, pos = abs(a[s][j]), (s, j)
            _swap(a, s, *pos)
            p = a[s][s]
            done = True
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // p
                    for t in range(s, k):
                        a[i][t] -= q * a[s][t]
                    done = done and not a[i][s]
            for j in range(s + 1, k):
                if a[s][j]:
                    q = a[s][j] // p
                    for row in a[s:]:
                        row[j] -= q * row[s]
                    done = done and not a[s][j]
            if done:
                break

    diag = [abs(a[i][i]) if i < rank else 0 for i in range(size)]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            g = gcd(x, y)
            l = x * y // g if g else 0
            if (g, l) != (x, y):
                diag[i], diag[i + 1] = g, l
                changed = True
    return diag


def smith_diagonal(rows) -> list[int]:
    """Full Smith diagonal d1 | d2 | ... of a matrix, zeros trailing, via the package.

    The rows span a lattice in Z^k, k the row length, and the cokernel of
    that lattice has k minus its free rank nonzero Smith values: its
    invariant factors, after as many 1s as are left over.  A row whose
    length is not k, or an entry whose type is not ``int``, raises
    ValueError from ``cokernel_presentation``.
    """
    k = len(rows[0]) if rows else 0
    presentation = cokernel_presentation(k, rows)
    rank = k - presentation.free_rank
    factors = list(presentation.invariant_factors)
    return [1] * (rank - len(factors)) + factors + [0] * (min(len(rows), k) - rank)


class ReferenceUnitEliminations:
    """Plain copy of the unit-elimination step, to check the production one against.

    Same state as ``snf._UnitEliminations``: ``rep`` maps every signed code
    to the signed code it stands for (0 once eliminated), ``members``
    lists the generators each survivor stands for and ``store`` holds the
    columns that were not unit relations.  ``absorb`` sums the resolved
    terms, filters out the zeros, then tests the unit cases on the filtered
    list.
    """

    def __init__(self, size):
        self.rep = [*range(size + 1), *range(-size, 0)]
        self.members = {g: [g] for g in range(1, size + 1)}
        self.store = set()

    def absorb(self, column):
        rep = self.rep
        acc = {}
        for code, coef in column:
            r = rep[code]
            if r > 0:
                acc[r] = acc.get(r, 0) + coef
            elif r < 0:
                acc[-r] = acc.get(-r, 0) - coef
        items = [(g, v) for g, v in acc.items() if v]
        if not items:
            return
        if len(items) == 1 and abs(items[0][1]) == 1:
            for m in self.members.pop(items[0][0]):
                rep[m] = rep[-m] = 0
            return
        if len(items) == 2 and abs(items[0][1]) == 1 and abs(items[1][1]) == 1:
            (a, va), (b, vb) = items
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
        items.sort()
        if items[0][1] < 0:
            items = [(g, -v) for g, v in items]
        self.store.add(tuple(items))
