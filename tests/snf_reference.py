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
"""

from math import gcd


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
