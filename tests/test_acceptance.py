"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  All checks are exact
integer equalities; the randomized suites draw at least 500 cases each from
seeded generators.  The criteria:

1. ``compute_k0_cn`` gives Z^n for n = 1..6 at depths 2, 4 and 8.
2. ``compute_k0_completed`` gives Z^n x (Z/2)^(n-1) for n = 1..6.
3. The polygon and fan exchange relations of the n = 5, depth 4 tilting
   are exactly their closed forms, both ways.
4. Parity on ``euler_oracle(1, 8)``: the fountain classes satisfy
   [W(i)] = (i % 2)[W(1)] with [W(1)] != 0, and exactly the arcs with an
   even number of interior points have class zero.
5. ``verify_f_oracle`` passes at (n, window) = (1, 6), (2, 6), (5, 4) and
   (6, 4); at n = 5 and 6 the host basis arcs have the unit coordinates and
   each ``f_matrix`` column is its kernel generator's oracle coordinates.
6. Six randomized suites: crossing symmetry (6a), crossing under suspension
   (6b), suspension negating an oracle class (6c), mutation as an
   involution (6d) that keeps the set non-crossing (6e), and the Smith
   chain against the naive reference (6f).
7. Z^n for n = 1..4 at uniform anchor offsets -3, 0 and 5 and depths 2..8,
   and at mixed per-segment offsets.
"""

import itertools
import random
import time

import pytest

from arck0 import (
    Arc,
    GroupPresentation,
    build_standard_tilting,
    compute_k0_cn,
    compute_k0_completed,
    euler_oracle,
    f_matrix,
    kernel_generator_arc,
    mutate,
    palu_relations,
    standard_basis_arcs,
    verify_f_oracle,
)
from geometry_reference import ext1_dim, maybe_arc, suspend
from snf_reference import reference_snf, smith_diagonal


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_free_rank_n():
    start = time.perf_counter()
    results = {}
    for n in range(1, 7):
        for depth in (2, 4, 8):
            results[(n, depth)] = compute_k0_cn(n, None, depth).presentation
    elapsed = time.perf_counter() - start
    ok = all(p == GroupPresentation(n) for (n, _), p in results.items()) and elapsed < 5.0
    report(
        "1 (free group of rank n)",
        ok,
        f"n=1..6, depth in (2,4,8): all Z^n, {elapsed:.2f}s",
    )


def test_criterion_2_completed_groups():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        p = compute_k0_completed(n)
        ok = ok and p.free_rank == n and p.invariant_factors == (2,) * (n - 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(
        "2 (completed groups)",
        ok,
        f"n=1..6: all Z^n x (Z/2)^(n-1), {elapsed:.2f}s",
    )


def test_criterion_3_relation_fidelity():
    t = build_standard_tilting(5, None, 4)
    rels = palu_relations(t)

    def canon(vec):
        nonzero = [v for v in vec if v]
        return tuple(-v for v in vec) if nonzero and nonzero[0] < 0 else tuple(vec)

    def dense(terms):
        return [terms.get(i, 0) for i in range(len(t.arcs))]

    polygon_fan = {i for name, i in t.names.items() if name[0] in "ZXY"}
    got = {
        canon(dense(terms))
        for terms in rels.values()
        if all(c == 0 or i in polygon_fan for i, c in enumerate(dense(terms)))
    }

    def rel(**terms):
        vec = [0] * len(t.arcs)
        for name, c in terms.items():
            vec[t.names[name]] += c
        return canon(tuple(vec))

    expected = set()
    for i in (3, 4):
        expected.add(rel(**{f"Z{i}": 1, f"X{i-1}": 1, f"X{i+1}": -1, f"Z{i-1}": -1}))
    for i in (2, 3, 4):
        expected.add(rel(**{f"Y{i}": 1, f"X{i+1}": 1, f"X{i}": -1}))
    expected.add(rel(Z2=1, Y1=1, X3=-1))
    expected.add(rel(Y5=1, Z4=-1, X4=1))

    report(
        "3 (relation fidelity, n=5 depth=4)",
        got == expected,
        f"{len(got)} polygon/fan relations match the {len(expected)} expected, both ways",
    )


def test_criterion_4_parity():
    # the one-sided fountain W(i) from (0, -8) over i interior points:
    # [W(i)] = (i % 2)[W(1)] with [W(1)] != 0, for every i the window holds
    w = 8
    oracle = euler_oracle(1, w)
    start = (0, -w)
    fountain = [oracle.class_of(Arc(start, (0, i + 1 - w))) for i in range(1, 2 * w)]
    w1 = fountain[0]
    recurrence = any(w1) and all(
        c == tuple(i % 2 * v for v in w1) for i, c in enumerate(fountain, 1)
    )
    on_oracle = all(
        (not any(oracle.class_of(arc))) == ((arc.b[1] - arc.a[1] - 1) % 2 == 0)
        for arc in oracle.arcs
    )
    report(
        "4 (parity)",
        recurrence and on_oracle,
        f"fountain i=1..{len(fountain)} and {len(oracle.arcs)} window arcs (n=1, window 8)",
    )


def test_criterion_5_formula_vs_oracle():
    # verify_f_oracle raises unless the oracle coordinates of the kernel
    # generators equal the f_matrix columns, so every call returning passes
    sizes = [(1, 6), (2, 6), (5, 4), (6, 4)]
    oracles = [verify_f_oracle(n, window) for n, window in sizes]
    # at n = 5, 6 also each f_matrix column: it is the oracle coordinates of
    # its kernel generator over the host basis arcs, and basis arc i has
    # coordinates e_i
    columns_ok = True
    for (n, _), o in zip(sizes, oracles):
        if n < 5:
            continue
        basis = [o.class_of(arc) for arc in standard_basis_arcs(2 * n)]
        columns_ok &= basis == [tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n)]
        for i, column in enumerate(f_matrix(n), start=1):
            columns_ok &= o.class_of(kernel_generator_arc(n, i)) == column
    detail = "; ".join(f"n={n} window {w}: {compute_k0_completed(n)}" for n, w in sizes)
    report(
        "5 (generator formula vs oracle)",
        columns_ok,
        f"{detail}; f_matrix columns at n=5, 6: {'match' if columns_ok else 'MISMATCH'}",
    )


def _random_arc(rng: random.Random, n: int, window: int = 12) -> Arc:
    while True:
        p = (rng.randrange(n), rng.randint(-window, window))
        q = (rng.randrange(n), rng.randint(-window, window))
        arc = maybe_arc(p, q)
        if arc is not None:
            return arc


def test_criterion_6a_crossing_symmetry():
    rng = random.Random(601)
    cases = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        x, y = _random_arc(rng, n), _random_arc(rng, n)
        assert ext1_dim(n, x, y) == ext1_dim(n, y, x)
        cases += 1
    report("6a (crossing symmetry)", cases >= 500, f"{cases} random pairs")


def test_criterion_6b_suspension_equivariance():
    rng = random.Random(602)
    cases = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        x, y = _random_arc(rng, n), _random_arc(rng, n)
        k = rng.randint(-6, 6)
        assert ext1_dim(n, x, y) == ext1_dim(n, suspend(x, k), suspend(y, k))
        cases += 1
    report("6b (suspension equivariance)", cases >= 500, f"{cases} random pairs")


def test_criterion_6c_suspension_negates_oracle_class():
    rng = random.Random(603)
    oracles = [euler_oracle(1, 8), euler_oracle(2, 6)]
    pools = [
        [a for a in o.arcs if min(a.a[1], a.b[1]) > -w] for o, w in zip(oracles, (8, 6))
    ]
    cases = 0
    for _ in range(500):
        pick = rng.randrange(len(oracles))
        oracle, pool = oracles[pick], pools[pick]
        arc = pool[rng.randrange(len(pool))]
        assert oracle.class_of(suspend(arc, 1)) == tuple(-v for v in oracle.class_of(arc))
        cases += 1
    report("6c (suspension negates class)", cases >= 500, f"{cases} sampled arcs")


def test_criterion_6d_mutate_involution_and_6e_non_crossing():
    rng = random.Random(604)
    tiltings = []
    for n in (1, 2, 3, 4):
        for depth in (2, 3):
            offsets = [rng.randint(-12, 12) for _ in range(n)]
            tiltings.append(build_standard_tilting(n, offsets, depth))

    def assert_non_crossing(t):
        arcs = t.arcs
        for i in range(len(arcs)):
            for j in range(i + 1, len(arcs)):
                assert ext1_dim(t.n, arcs[i], arcs[j]) == 0

    for t in tiltings:
        assert_non_crossing(t)
    interiors = [palu_relations(t) for t in tiltings]

    involutions = 0
    checked_sets = len(tiltings)
    while involutions < 500:
        k = rng.randrange(len(tiltings))
        t = tiltings[k]
        index = rng.randrange(len(t.arcs))
        if index not in interiors[k]:
            # a frontier arc has no quadrilateral to flip in
            with pytest.raises(ValueError, match="^insufficient depth: "):
                mutate(t, index)
            continue
        once = mutate(t, index)
        twice = mutate(once, index)
        assert set(twice.arcs) == set(t.arcs)
        if involutions % 25 == 0:
            assert_non_crossing(once)
            assert_non_crossing(twice)
            checked_sets += 2
        involutions += 1
    report(
        "6d/6e (mutation involution, non-crossing sets)",
        involutions >= 500,
        f"{involutions} flips, {checked_sets} sets fully pair-checked "
        "(every mutation re-validates internally)",
    )


def test_criterion_6f_snf_vs_reference():
    rng = random.Random(606)
    cases = 0
    for _ in range(500):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = smith_diagonal(matrix)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a and b % a == 0
        assert diag == reference_snf(matrix)
        cases += 1
    report("6f (SNF chain vs naive oracle)", cases >= 500, f"{cases} random matrices")


def test_criterion_7_truncation_robustness():
    expected = {n: GroupPresentation(n) for n in range(1, 5)}
    runs = 0
    for n in range(1, 5):
        for c in (-3, 0, 5):
            for depth in range(2, 9):
                assert compute_k0_cn(n, [c] * n, depth).presentation == expected[n]
                runs += 1
        # mixed per-segment offsets
        if n <= 3:
            combos = list(itertools.product((-3, 0, 5), repeat=n))
        else:
            combos = [(-3, 0, 5, -3), (5, -3, 0, 5), (0, 5, -3, 0)]
        for offsets in combos:
            for depth in (2, 5):
                assert compute_k0_cn(n, list(offsets), depth).presentation == expected[n]
                runs += 1
    report("7 (truncation robustness)", True, f"{runs} anchor/depth combinations identical")
