import random
from itertools import combinations
from math import gcd

import pytest

from arck0 import GroupPresentation, IntMatrix, cokernel_presentation, smith_normal_form
from snf_reference import reference_snf


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diagonal_with_zero():
    assert smith_normal_form([[2, 0], [0, 0]]) == [2, 0]


def test_snf_2x2():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_snf_empty_and_degenerate():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[7]]) == [7]
    assert smith_normal_form([[-3]]) == [3]
    assert smith_normal_form([[0, -2]]) == [2]
    assert smith_normal_form([[2, 7], [0, 0], [0, 0]]) == [1, 0]


def test_snf_known_matrix():
    m = [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]]
    assert smith_normal_form(m) == [1, 10, 30, 0]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _determinantal_divisor(matrix, k):
    m, n = len(matrix), len(matrix[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            g = gcd(g, _det(sub))
    return g


def test_snf_against_determinantal_divisors():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(mat)
        prod = 1
        for k in range(1, min(m, n, 3) + 1):
            dk = _determinantal_divisor(mat, k)
            prod *= diag[k - 1]
            assert prod == dk, (mat, diag, k)


def test_snf_against_reference_oracle():
    rng = random.Random(20240211)
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(mat)
        assert diag == reference_snf(mat), mat
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
            assert a >= 0 and b >= 0


def test_group_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(-1)
    with pytest.raises(ValueError):
        GroupPresentation(0, (1,))
    with pytest.raises(ValueError):
        GroupPresentation(0, (4, 2))
    p = GroupPresentation(2, (2, 6))
    assert p.to_json() == {"free_rank": 2, "invariant_factors": [2, 6]}
    assert str(p) == "Z^2 x Z/2 x Z/6"
    assert str(GroupPresentation(0)) == "0"
    assert str(GroupPresentation(1)) == "Z"


def test_cokernel_examples():
    assert cokernel_presentation(4, [(1, 1, 0, 0), (-1, -1, 2, 0)]) == GroupPresentation(2, (2,))
    assert cokernel_presentation(5, []) == GroupPresentation(5)
    assert cokernel_presentation(2, [(1, 0), (0, 1)]) == GroupPresentation(0)


def test_cokernel_accepts_sparse_columns():
    dense = cokernel_presentation(3, [(2, 0, 0), (0, 3, 0)])
    sparse = cokernel_presentation(3, [{0: 2}, {1: 3}])
    assert dense == sparse == GroupPresentation(1, (6,))


def test_cokernel_rejects_bad_columns():
    with pytest.raises(ValueError):
        cokernel_presentation(3, [(1, 2)])
    with pytest.raises(ValueError):
        cokernel_presentation(2, [{5: 1}])


def test_cokernel_invariance_under_column_signs_and_order():
    rng = random.Random(99)
    for _ in range(30):
        ambient = rng.randint(1, 6)
        cols = [
            tuple(rng.randint(-4, 4) for _ in range(ambient))
            for _ in range(rng.randint(0, 6))
        ]
        base = cokernel_presentation(ambient, cols)
        flipped = [tuple(-v for v in c) if rng.random() < 0.5 else c for c in cols]
        rng.shuffle(flipped)
        assert cokernel_presentation(ambient, flipped) == base


def test_int_matrix():
    m = IntMatrix.from_columns(3, [(1, 2, 3), (0, -1, 0)])
    assert m.rows == 3 and m.cols == 2
    assert m.column(0) == (1, 2, 3)
    assert m.to_json() == [[1, 0], [2, -1], [3, 0]]
    assert IntMatrix.from_rows(m.to_json()) == m
    with pytest.raises(ValueError):
        IntMatrix.from_columns(2, [(1, 2, 3)])


def test_hermite_reduce_reads_off_classes():
    # the reduced vector is the class: Z^2 / <(1,1), (-1,1)> is Z/2,
    # generated by either basis vector
    from arck0.snf import _echelon_columns, _hermite_reduce

    columns = [{0: 1, 1: 1}, {0: -1, 1: 1}]
    assert cokernel_presentation(2, columns) == GroupPresentation(0, (2,))
    pivots = _echelon_columns(columns)

    def cls(vec):
        return _hermite_reduce(pivots, dict(enumerate(vec)))

    assert cls((1, 1)) == cls((0, 0)) == cls((2, 0))
    assert cls((1, 0)) == cls((0, 1)) != cls((0, 0))


def test_hermite_reduce_random_lattices():
    # reduce(x) is constant on cosets, and two vectors reduce alike exactly
    # when their difference lies in the lattice, i.e. appending it as a
    # column leaves the cokernel unchanged
    from arck0.snf import _echelon_columns, _hermite_reduce

    rng = random.Random(20260)

    def vector(m, span):
        return {i: v for i in range(m) if (v := rng.randint(-span, span))}

    same = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        columns = [vector(m, 4) for _ in range(rng.randint(0, 6))]
        pivots = _echelon_columns(columns)
        base = cokernel_presentation(m, columns)
        x = vector(m, 9)
        rx = _hermite_reduce(pivots, x)
        for r, col in pivots.items():
            assert 0 <= rx.get(r, 0) < col[r]
        shifted = dict(x)
        for col in columns:
            c = rng.randint(-3, 3)
            for i, v in col.items():
                shifted[i] = shifted.get(i, 0) + c * v
        assert _hermite_reduce(pivots, shifted) == rx
        diff = {i: rx.get(i, 0) - x.get(i, 0) for i in range(m)}
        assert cokernel_presentation(m, columns + [diff]) == base
        y = vector(m, 2)
        diff = {i: x.get(i, 0) - y.get(i, 0) for i in range(m)}
        member = cokernel_presentation(m, columns + [diff]) == base
        assert (_hermite_reduce(pivots, y) == rx) == member
        same += member
    assert 0 < same < 300
