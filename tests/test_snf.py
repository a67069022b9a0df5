import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from arck0 import GroupPresentation, cokernel_presentation
from arck0.snf import _UnitEliminations
from snf_reference import ReferenceUnitEliminations, reference_snf, smith_diagonal


def test_snf_identity():
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diagonal_with_zero():
    assert smith_diagonal([[2, 0], [0, 0]]) == [2, 0]


def test_snf_2x2():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_snf_empty_and_degenerate():
    assert smith_diagonal([]) == []
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert smith_diagonal([[7]]) == [7]
    assert smith_diagonal([[-3]]) == [3]
    assert smith_diagonal([[0, -2]]) == [2]
    assert smith_diagonal([[2, 7], [0, 0], [0, 0]]) == [1, 0]


def test_snf_known_matrix():
    m = [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]]
    assert smith_diagonal(m) == [1, 10, 30, 0]


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
        diag = smith_diagonal(mat)
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
        diag = smith_diagonal(mat)
        assert diag == reference_snf(mat), mat
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
            assert a >= 0 and b >= 0


@pytest.mark.parametrize(
    "rows",
    [[[1, 1, 0], [0, 2, 1], [0, 0, 4]], [[1, 0, 0], [1, 2, 0], [0, 1, 4]]],
)
def test_snf_unit_pivots_with_fill_beside_torsion(rows):
    # the first echelon leaves unit pivots whose columns still carry
    # off-pivot entries next to a non-diagonal torsion block
    assert smith_diagonal(rows) == reference_snf(rows) == [1, 1, 8]


def test_unit_pivot_relations_take_one_echelon_pass(monkeypatch):
    # unit elimination leaves a core of at most 2n columns whatever the depth
    from arck0 import build_standard_tilting, palu_relations, snf

    echelon = snf._echelon_columns
    for depth in (8, 32):
        t = build_standard_tilting(6, None, depth)
        columns = list(palu_relations(t).values())
        calls = []

        def counted(cols):
            cols = list(cols)
            calls.append(len(cols))
            return echelon(cols)

        monkeypatch.setattr(snf, "_echelon_columns", counted)
        assert cokernel_presentation(len(t.arcs), columns) == GroupPresentation(6)
        assert len(calls) == 1
        assert calls[0] <= 2 * 6, (depth, calls)


def _unit_heavy_lattice(rng):
    """Sparse columns over m generators, mostly +/-x or +/-x +/- y.

    A few general columns carry torsion.  Identifications close cycles, so
    the sign of each one decides whether a cycle gives Z/2 or nothing.
    """
    m = rng.randint(1, 14)
    columns = []
    for _ in range(rng.randint(0, 2 * m)):
        roll = rng.random()
        if roll < 0.15:
            columns.append({rng.randrange(m): rng.choice((1, -1))})
        elif roll < 0.85 and m > 1:
            a, b = rng.sample(range(m), 2)
            columns.append({a: rng.choice((1, -1)), b: rng.choice((1, -1))})
        else:
            support = rng.sample(range(m), rng.randint(1, min(4, m)))
            columns.append({i: v for i in support if (v := rng.randint(-4, 4))})
    return m, columns


def _reference_cokernel(m, columns):
    dense = [[col.get(i, 0) for col in columns] for i in range(m)]
    values = [d for d in reference_snf(dense) if d]
    return GroupPresentation(m - len(values), tuple(d for d in values if d > 1))


@pytest.mark.parametrize(
    "m, columns, expected",
    [
        # x = y and x = -y: 2x = 0
        (2, [{0: 1, 1: -1}, {0: 1, 1: 1}], GroupPresentation(0, (2,))),
        # x = -y twice over is one relation
        (2, [{0: 1, 1: 1}, {0: -1, 1: -1}], GroupPresentation(1)),
        # a cycle x0 = x1 = x2 = -x0 with one odd sign
        (3, [{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 0: 1}], GroupPresentation(0, (2,))),
        # the same cycle with an even number of odd signs
        (3, [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 0: -1}], GroupPresentation(1)),
        # a stored column turns into a unit relation once x2 = 0
        (3, [{0: 2, 1: 1, 2: 1}, {0: 1, 1: -1, 2: 3}, {2: 1}], GroupPresentation(0, (3,))),
    ],
    ids=["opposite-signs", "repeated", "odd-cycle", "even-cycle", "late-unit"],
)
def test_unit_heavy_examples(m, columns, expected):
    assert _reference_cokernel(m, columns) == expected
    assert cokernel_presentation(m, columns) == expected


def test_unit_heavy_sparse_lattices_against_reference():
    rng = random.Random(271828)
    torsion = 0
    for _ in range(400):
        m, columns = _unit_heavy_lattice(rng)
        expected = _reference_cokernel(m, columns)
        assert cokernel_presentation(m, columns) == expected, (m, columns)
        rows = [[col.get(i, 0) for i in range(m)] for col in columns]
        assert smith_diagonal(rows) == reference_snf(rows), rows
        torsion += bool(expected.invariant_factors)
    assert torsion >= 40


def test_group_presentation_validation():
    with pytest.raises(ValueError, match=r"^need free rank >= 0, got -1$"):
        GroupPresentation(-1)
    with pytest.raises(ValueError, match=r"^need invariant factor >= 2, got 1$"):
        GroupPresentation(0, (1,))
    with pytest.raises(ValueError):
        GroupPresentation(0, (4, 2))
    with pytest.raises(ValueError, match="free rank 1.5 is not an int"):
        GroupPresentation(1.5)
    with pytest.raises(ValueError, match="free rank True is not an int"):
        GroupPresentation(True)
    with pytest.raises(ValueError, match="invariant factor 2.0 is not an int"):
        GroupPresentation(2, (2.0,))
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
    for bad in (5, None):
        with pytest.raises(ValueError, match=f"^column {bad} is neither a sequence nor a mapping$"):
            cokernel_presentation(2, [bad])


def test_non_int_entries_are_rejected():
    # a float used to be truncated silently: Z^2, Z x Z/2 and [1, 2]
    with pytest.raises(ValueError, match="matrix entry 0.5 is not an int"):
        cokernel_presentation(2, [[0.5, 0]])
    with pytest.raises(ValueError, match="matrix entry 2.7 is not an int"):
        cokernel_presentation(2, [{0: 2.7}])
    with pytest.raises(ValueError, match="matrix entry 2.9 is not an int"):
        smith_diagonal([[2.9, 0], [0, 1]])
    with pytest.raises(ValueError, match="column index 1.0 is not an int"):
        cokernel_presentation(2, [{1.0: 2}])
    with pytest.raises(ValueError, match="matrix entry True is not an int"):
        cokernel_presentation(2, [(True, 0)])
    with pytest.raises(ValueError, match="matrix entry 0.0 is not an int"):
        smith_diagonal([[0.0, 1]])
    # a float ambient rank used to pass through as the free rank
    with pytest.raises(ValueError, match="ambient rank 2.5 is not an int"):
        cokernel_presentation(2.5, [])
    with pytest.raises(ValueError, match="ambient rank True is not an int"):
        cokernel_presentation(True, [{0: 2}])
    with pytest.raises(ValueError, match=r"^need ambient rank >= 0, got -1$"):
        cokernel_presentation(-1, [])
    assert cokernel_presentation(2, [{1: 2}]) == GroupPresentation(1, (2,))


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


def test_ragged_rows_are_rejected():
    # a row whose length differs from the first row's is a dense column of
    # the wrong length to cokernel_presentation
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [0]]):
        with pytest.raises(ValueError, match="column of length"):
            smith_diagonal(rows)
    assert smith_diagonal([[], []]) == []


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


def test_basis_classes_certify_a_free_basis():
    # Z^5 / <x4, x2 + x5, x1 + x2 + x3> is free on x1, x2, with x3 = -x1 - x2,
    # x4 eliminated to zero and x5 = -x2; the classes of the signed codes
    # are indexed like rep, [0, 1..5, -5..-1], and a basis that misses a
    # generator or carries a relation raises, naming the caller
    from arck0.snf import VerificationError

    def classes(basis):
        elim = _UnitEliminations(5)
        elim.absorb([(4, 1)])
        assert (list(elim.members), elim.rep[4], elim.store) == ([1, 2, 3, 5], 0, set())
        elim.absorb([(2, 1), (5, 1)])
        assert (list(elim.members), elim.rep[2], elim.store) == ([1, 3, 5], -5, set())
        elim.absorb([(1, 1), (2, 1), (3, 1)])
        assert list(elim.members) == [1, 3, 5]
        assert elim.store == {((1, 1), (3, 1), (5, -1))}
        return elim.basis_classes(basis, "here")

    assert classes([1, 2]) == [
        {}, {0: 1}, {1: 1}, {0: -1, 1: -1}, {}, {1: -1},
        {1: 1}, {}, {0: 1, 1: 1}, {1: -1}, {0: -1},
    ]
    assert classes([-3, 5]) == [
        {}, {0: 1, 1: 1}, {1: -1}, {0: -1}, {}, {1: 1},
        {1: -1}, {}, {0: 1}, {1: 1}, {0: -1, 1: -1},
    ]
    for basis, problem in (
        ([1], "do not generate"),
        ([1, 2, 3], "satisfy a relation"),
        ([1, 4], "satisfy a relation"),
    ):
        with pytest.raises(VerificationError, match=f"^the basis arc classes {problem} in here$"):
            classes(basis)


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


def test_hermite_reduce_subtracts_as_the_sorted_walk(monkeypatch):
    # the heap visits only the pivot rows the vector holds or a subtraction
    # fills in, and makes the same subtractions, in the same order, as a
    # walk over every pivot row in increasing order
    from arck0 import snf

    rng = random.Random(20261)
    calls = []
    subtract = snf._subtract

    def recording_subtract(col, q, pivot):
        calls.append((q, tuple(pivot.items())))
        subtract(col, q, pivot)

    monkeypatch.setattr(snf, "_subtract", recording_subtract)
    subtractions = 0
    for _ in range(300):
        m = rng.randint(1, 12)
        columns = [
            {i: rng.randint(-5, 5) for i in rng.sample(range(m), rng.randint(1, m))}
            for _ in range(rng.randint(0, 10))
        ]
        pivots = snf._echelon_columns(columns)
        vec = {i: v for i in range(m) if (v := rng.randint(-30, 30))}
        calls.clear()
        got = snf._hermite_reduce(pivots, vec)
        walked, expected = dict(vec), []
        for r in sorted(pivots):
            if walked.get(r) and (q := walked[r] // pivots[r][r]):
                expected.append((q, tuple(pivots[r].items())))
                for i, v in pivots[r].items():
                    walked[i] = walked.get(i, 0) - q * v
        assert calls == expected
        assert got == {i: v for i, v in walked.items() if v}
        subtractions += len(calls)
    assert subtractions > 300


def test_echelon_columns_normalized_form_random_sparse():
    # every pivot is positive and leads its column, every entry of a pivot
    # column at a deeper pivot row lies in [0, that pivot), and the lattice
    # is unchanged
    from arck0.snf import _echelon_columns

    rng = random.Random(8086)
    for _ in range(400):
        m = rng.randint(1, 12)
        columns = []
        for _ in range(rng.randint(0, 14)):
            support = rng.sample(range(m), rng.randint(1, min(4, m)))
            columns.append({i: v for i in support if (v := rng.randint(-6, 6))})
        pivots = _echelon_columns(columns)
        for r, col in pivots.items():
            assert min(col) == r and col[r] > 0
            for rr, v in col.items():
                if rr != r and rr in pivots:
                    assert 0 <= v < pivots[rr][rr], (columns, r, rr)
        assert cokernel_presentation(m, list(pivots.values())) == cokernel_presentation(
            m, columns
        )


@st.composite
def _absorb_streams(draw):
    """A generator count and a stream of columns over signed codes.

    Each column draws its coefficients from +/-1 (unit candidates), +/-2,
    or -3..3 (mixed, zero included); codes repeat, so terms also cancel.
    """
    size = draw(st.integers(1, 8))
    code = st.integers(-size, size)
    kinds = [st.sampled_from((1, -1)), st.sampled_from((2, -2)), st.integers(-3, 3)]
    column = st.sampled_from(kinds).flatmap(
        lambda coef: st.lists(st.tuples(code, coef), min_size=1, max_size=4)
    )
    return size, draw(st.lists(column, max_size=30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_absorb_streams())
def test_absorb_matches_reference(stream):
    # the same rep, members (in order) and store after every call, then
    # again while the stored columns are re-absorbed into fresh stores; a
    # unit move pops exactly one members entry, anything else pops none
    size, columns = stream
    elim, ref = _UnitEliminations(size), ReferenceUnitEliminations(size)

    def is_unit(column):
        acc: dict[int, int] = {}
        for code, coef in column:
            if r := ref.rep[code]:
                acc[abs(r)] = acc.get(abs(r), 0) + (coef if r > 0 else -coef)
        values = [v for v in acc.values() if v]
        return len(values) in (1, 2) and all(v in (1, -1) for v in values)

    def absorb_all(columns):
        for column in columns:
            before, unit = len(elim.members), is_unit(column)
            assert elim.absorb(column) is None
            ref.absorb(column)
            assert elim.rep == ref.rep
            assert list(elim.members.items()) == list(ref.members.items())
            assert elim.store == ref.store
            assert before - len(elim.members) == unit

    absorb_all(columns)
    stored = sorted(elim.store)
    elim.store, ref.store = set(), set()
    absorb_all(stored)
