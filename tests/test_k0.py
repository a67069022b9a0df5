import random
from itertools import combinations

import pytest

from arck0 import (
    Arc,
    CircleModel,
    GroupPresentation,
    MarkedPoint,
    build_standard_tilting,
    class_same_segment,
    cokernel_presentation,
    compute_k0_cn,
    euler_oracle,
    maybe_arc,
    mutate,
    palu_relations,
    parity_class,
    standard_basis_arcs,
    suspend,
)
from arck0.tilting import InsufficientDepthError
from arck0.k0 import InsufficientWindowError
from geometry_reference import ext1_dim, induced_triangles


def P(s, o):
    return MarkedPoint(s, o)


def A(p, q):
    return Arc(P(*p), P(*q))


# ---------------------------------------------------------------------------
# exchange-relation route


@pytest.mark.parametrize("n,depth", [(1, 4), (3, 4), (6, 8)])
def test_compute_k0_cn_free_of_rank_n(n, depth):
    report = compute_k0_cn(n, None, depth)
    assert report.presentation == GroupPresentation(n)


def test_compute_k0_cn_rejects_shallow_depth():
    with pytest.raises(InsufficientDepthError):
        compute_k0_cn(2, None, 1)


def test_compute_k0_cn_frontier_report():
    report = compute_k0_cn(3, None, 2)
    assert len(report.frontier) == 3  # the deepest arc of each zigzag
    assert report.frontier_excess == 0
    assert report.num_arcs == 15
    assert report.num_relations == 12
    assert report.presentation == GroupPresentation(3)
    for n, depth in ((3, 2), (1, 5), (2, 3), (6, 4)):
        frontier = compute_k0_cn(n, None, depth).frontier
        assert sorted(frontier) == sorted(f"L{b}[{2 * depth}]" for b in range(1, n + 1))


def test_exact_coordinates_are_pinned():
    # which generators survive, and so every oracle coordinate, depends on
    # the tie rules of unit elimination, and the frontier's order on the
    # tilting's arc order; a change to either shows up here
    oracle = euler_oracle(2, 4)
    assert oracle.num_live == 4
    assert oracle.relations == {0: {3: -1, 2: 2, 0: 1}, 1: {3: -1, 2: 1, 1: 1}}
    assert compute_k0_cn(3, None, 3).frontier == ("L2[6]", "L3[6]", "L1[6]")


def test_compute_k0_cn_nonuniform_anchors():
    for offsets in ([5], [-3, 0], [2, -1, 7, 0]):
        n = len(offsets)
        assert compute_k0_cn(n, offsets, 3).presentation == GroupPresentation(n)


@pytest.mark.parametrize("n", [100, 200])
def test_compute_k0_cn_smith_core_grows_linearly(n, monkeypatch):
    # the survivors of unit elimination are numbered so that the exchange
    # core stays banded: its echelon pivots hold O(n) entries and take O(n)
    # subtractions (in increasing order both grew as n squared: 10,292
    # entries and 9,859 subtractions at n = 100)
    from arck0 import snf

    subtract, echelon = snf._subtract, snf._echelon_columns
    calls, entries = [0], [0]

    def counting_subtract(*args):
        calls[0] += 1
        return subtract(*args)

    def counting_echelon(columns):
        pivots = echelon(columns)
        entries[0] += sum(len(col) for col in pivots.values())
        return pivots

    monkeypatch.setattr(snf, "_subtract", counting_subtract)
    monkeypatch.setattr(snf, "_echelon_columns", counting_echelon)
    assert compute_k0_cn(n, None, 16).presentation == GroupPresentation(n)
    assert 0 < entries[0] <= 8 * n
    assert calls[0] <= n


def test_frontier_projection_matches_full_quotient():
    # Z^N modulo (columns + interior unit vectors) is Z^F modulo the columns
    # projected onto the F remaining coordinates
    rng = random.Random(4242)
    torsion = 0
    for _ in range(400):
        size = rng.randint(1, 8)
        columns = []
        for _ in range(rng.randint(0, 8)):
            support = rng.sample(range(size), rng.randint(1, min(3, size)))
            columns.append({i: v for i in support if (v := rng.randint(-4, 4))})
        interior = set(rng.sample(range(size), rng.randint(0, size)))
        frontier = [i for i in range(size) if i not in interior]
        position = {i: k for k, i in enumerate(frontier)}
        projected = [
            {position[i]: v for i, v in col.items() if i in position} for col in columns
        ]
        full = cokernel_presentation(size, columns + [{i: 1} for i in sorted(interior)])
        assert cokernel_presentation(len(frontier), projected) == full
        torsion += bool(full.invariant_factors)
    assert torsion >= 40


@pytest.mark.parametrize(
    "n,depth,anchors",
    [
        (1, 2, None),
        (2, 5, [3, -1]),
        (5, 3, [0, 4, -2, 1, 0]),
        (8, 4, None),
        (8, 6, [1, -2, 0, 3, -5, 2, 0, 7]),
    ],
)
def test_compute_k0_cn_frontier_excess_zero(n, depth, anchors):
    report = compute_k0_cn(n, anchors, depth)
    assert report.frontier_excess == 0
    assert report.presentation == GroupPresentation(n)


# ---------------------------------------------------------------------------
# Euler oracle


@pytest.fixture(scope="module")
def oracle_c1_w6():
    return euler_oracle(1, 6)


@pytest.fixture(scope="module")
def oracle_c2_w6():
    return euler_oracle(2, 6)


def test_oracle_rejects_small_window():
    with pytest.raises(InsufficientWindowError, match="needs window >= 2, got 1"):
        euler_oracle(1, 1)


def test_oracle_size_cap_uses_the_exact_arc_count(monkeypatch):
    from arck0 import k0

    for n, window in [(1, 2), (1, 5), (2, 2), (3, 3), (4, 2)]:
        count = len(euler_oracle(n, window).arcs)
        with monkeypatch.context() as m:
            m.setattr(k0, "_MAX_ORACLE_ARCS", count)
            euler_oracle(n, window)
            m.setattr(k0, "_MAX_ORACLE_ARCS", count - 1)
            with pytest.raises(ValueError, match=f"gives {count} window arcs, more than"):
                euler_oracle(n, window)


def test_oracle_class_examples(oracle_c1_w6):
    o = oracle_c1_w6
    # two interior points: trivial class
    assert o.class_of(A((0, 0), (0, 3))) == o.zero_class
    # one and three interior points agree
    assert o.class_of(A((0, 0), (0, 2))) == o.class_of(A((0, 0), (0, 4)))
    assert o.class_of(A((0, 0), (0, 2))) != o.zero_class


def test_oracle_suspension_antisymmetry(oracle_c2_w6):
    o = oracle_c2_w6
    for arc in o.arcs:
        if min(arc.a[1], arc.b[1]) > -o.window:
            assert o.reduce({suspend(arc, 1): 1, arc: 1}) == o.zero_class


def test_oracle_rank_stabilizes_immediately():
    # regression: the free rank equals the number of accumulation points
    # already at the smallest admissible window
    for n in (1, 2, 3):
        for window in (2, 3, 4):
            pres = euler_oracle(n, window).presentation
            assert pres == GroupPresentation(n), (n, window, pres)


def test_oracle_rank_never_below_n_and_monotone():
    ranks = [euler_oracle(2, w).presentation.free_rank for w in (2, 4, 6)]
    assert all(r >= 2 for r in ranks)
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_oracle_parity_both_directions(oracle_c1_w6):
    o = oracle_c1_w6
    for arc in o.arcs:
        even = (arc.b[1] - arc.a[1] - 1) % 2 == 0
        assert (o.class_of(arc) == o.zero_class) == even


def test_oracle_classes_satisfy_euler_relations(oracle_c2_w6):
    o = oracle_c2_w6
    model = CircleModel(2)
    arcs = o.arcs
    checked = 0
    for x in arcs[::17]:
        for y in arcs[::13]:
            if ext1_dim(model, x, y) != 1:
                continue
            for tri in induced_triangles(model, x, y):
                combo = {tri.first: 1, tri.third: 1}
                for mid in tri.middle:
                    combo[mid] = combo.get(mid, 0) - 1
                assert o.reduce(combo) == o.zero_class
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("n,window", [(1, 5), (2, 3), (3, 3)])
def test_oracle_matches_reference_lattice(n, window):
    # the oracle's group is Z^arcs modulo every relation it stands for: both
    # triangles of every crossing pair (found by the pairwise ext1_dim loop)
    # and [shift A] + [A] wherever the shift stays in the window.  Every
    # relation reduces to zero, so the reference group maps onto the
    # oracle's (whose generators are window-arc classes); both are finitely
    # generated with equal presentations, and a finitely generated abelian
    # group is Hopfian, so the map is an isomorphism
    model = CircleModel(n)
    points = [P(s, o) for s in range(n) for o in range(-window, window + 1)]
    arcs = [arc for p, q in combinations(points, 2) if (arc := maybe_arc(p, q))]
    index = {arc: i for i, arc in enumerate(arcs)}
    relations = []
    for x, y in combinations(arcs, 2):
        if ext1_dim(model, x, y) != 1:
            continue
        for tri in induced_triangles(model, x, y):
            rel = {tri.first: 1, tri.third: 1}
            for mid in tri.middle:
                rel[mid] = rel.get(mid, 0) - 1
            relations.append(rel)
    for arc in arcs:
        if min(arc.a[1], arc.b[1]) > -window:
            relations.append({suspend(arc, 1): 1, arc: 1})
    oracle = euler_oracle(n, window)
    assert set(oracle.arcs) == set(arcs)
    for rel in relations:
        assert oracle.reduce(rel) == oracle.zero_class, rel
    columns = [{index[arc]: c for arc, c in rel.items() if c} for rel in relations]
    assert cokernel_presentation(len(arcs), columns) == oracle.presentation


def _basis_quotient(o, n):
    # the oracle group modulo the classes of Y1, X2, ..., Xn
    classes = [o.class_of(arc) for arc in standard_basis_arcs(n)]
    return cokernel_presentation(o.num_live, [*o.relations.values(), *classes])


@pytest.mark.parametrize(
    "n,depth,window", [(1, 2, 6), (2, 2, 6), (3, 2, 6), (4, 2, 6), (5, 2, 5)]
)
def test_exchange_relations_hold_in_oracle(n, depth, window):
    # class-level bridge between the two routes: every exchange relation of
    # the standard tilting is zero in the oracle group, and for n >= 2 the
    # classes of Y1, X2, ..., Xn generate it; with free rank n they are then
    # a free basis.  Neither check depends on which generators the unit
    # eliminations keep
    tilting = build_standard_tilting(n, None, depth)
    o = euler_oracle(n, window)
    for source, terms in palu_relations(tilting).items():
        combo = {tilting.arcs[i]: c for i, c in terms.items()}
        assert o.reduce(combo) == o.zero_class, source
    assert o.presentation == GroupPresentation(n)
    if n >= 2:
        assert _basis_quotient(o, n) == GroupPresentation(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mutated_tilting_relations_hold_in_oracle(n):
    # the same bridge for tiltings reached by mutation, so that no check
    # depends on the standard tilting's shape: three random interior flips
    # from seeded anchors, then every exchange relation is zero in the
    # oracle, and the relations present Z^(n + frontier excess) with no
    # torsion, the excess read as the free rank modulo the interior arcs
    o = euler_oracle(n, 6)
    for seed in range(10):
        rng = random.Random(seed)
        t = build_standard_tilting(n, [rng.randint(-1, 1) for _ in range(n)], 2)
        for _ in range(3):
            t = mutate(t, rng.choice(sorted(palu_relations(t))))
        relations = palu_relations(t)
        for source, terms in relations.items():
            combo = {t.arcs[i]: c for i, c in terms.items()}
            assert o.reduce(combo) == o.zero_class, (seed, source)
        interior = [{i: 1} for i in relations]
        excess = cokernel_presentation(len(t.arcs), [*relations.values(), *interior]).free_rank
        assert cokernel_presentation(len(t.arcs), relations.values()) == GroupPresentation(
            n + excess
        ), seed


@pytest.mark.parametrize("n,window", [(2, 4), (3, 4)])
def test_oracle_window_stability(n, window):
    # every relation at window w is one at w + 1, so sending each window-w
    # arc to its class at w + 1 is a homomorphism; equal presentations and a
    # basis that generates both groups make it an isomorphism, so a
    # truncation artefact at either window shows here
    small, large = euler_oracle(n, window), euler_oracle(n, window + 1)
    assert small.presentation == large.presentation == GroupPresentation(n)
    assert _basis_quotient(small, n) == _basis_quotient(large, n) == GroupPresentation(0)

    def partition(o):
        first = {o.zero_class: 0}
        return [first.setdefault(o.class_of(arc), len(first)) for arc in small.arcs]

    assert partition(small) == partition(large)


def test_oracle_rejects_out_of_window_arc(oracle_c1_w6):
    with pytest.raises(InsufficientWindowError):
        oracle_c1_w6.class_of(A((0, 0), (0, 40)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_of_is_reduce_of_the_arc(n):
    # class_of reads the class euler_oracle stored for the arc; every answer,
    # first or repeated, is reduce's, an arc outside the window raises every
    # time, and answering leaves the oracle equal to a fresh one
    o = euler_oracle(n, 4)
    for _ in range(2):
        for arc in o.arcs:
            assert o.class_of(arc) == o.reduce({arc: 1}), arc
    for _ in range(2):
        with pytest.raises(InsufficientWindowError):
            o.class_of(A((0, 0), (0, 40)))
    assert o == euler_oracle(n, 4)
    # a coefficient that is not an int used to give an inexact class
    a = A((0, -4), (0, -2))
    for coef in (0.5, 2.0, True):
        with pytest.raises(ValueError, match=f"coefficient {coef!r} is not an int"):
            o.reduce({a: coef})


def test_oracle_quotient_is_frozen(oracle_c1_w6):
    import dataclasses

    o = oracle_c1_w6
    before = o.class_of(A((0, 0), (0, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        o.num_live = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        o.relations = {}
    assert o.class_of(A((0, 0), (0, 2))) == before != o.zero_class


# ---------------------------------------------------------------------------
# closed-form same-segment classes


def test_parity_class_examples():
    assert parity_class(2) == 0
    assert parity_class(7) == 1
    assert parity_class(1) == 1


def test_parity_class_closed_form():
    for i in range(1, 51):
        assert parity_class(i) == (1 if i % 2 else 0)
    with pytest.raises(ValueError):
        parity_class(0)


def test_class_same_segment_examples():
    # anchor segment: one interior point gives [X2] + [Y1]
    assert class_same_segment(4, A((0, -2), (0, 0))) == (1, 1, 0, 0)
    # even interior count vanishes
    assert class_same_segment(4, A((1, 0), (1, 3))) == (0, 0, 0, 0)
    # other segments: 2[Xi] - [X2] - [Y1]
    assert class_same_segment(4, A((2, -2), (2, 0))) == (-1, -1, 2, 0)


def test_class_same_segment_sign_convention():
    # shifting by one marked point negates the class
    base = class_same_segment(3, A((2, -2), (2, 0)))
    shifted = class_same_segment(3, A((2, -3), (2, -1)))
    assert shifted == tuple(-v for v in base)


def test_class_same_segment_rejects_bad_input():
    with pytest.raises(ValueError):
        class_same_segment(3, A((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        class_same_segment(1, A((0, 0), (0, 2)))
    # endpoints off the circle: a negative segment, and a segment >= n
    with pytest.raises(ValueError, match="segment -1 out of range"):
        class_same_segment(2, A((-1, 0), (-1, 2)))
    with pytest.raises(ValueError, match="segment 2 out of range"):
        class_same_segment(2, A((2, 0), (2, 2)))
    # an anchor list shorter than n
    with pytest.raises(ValueError, match="expected 3 anchor offsets, got 2"):
        class_same_segment(3, A((2, -2), (2, 0)), [0, 0])
    # a non-integer anchor offset, which truncation would read as offset 1
    with pytest.raises(ValueError, match="anchor offset 1.5 is not an int"):
        class_same_segment(2, A((0, -2), (0, 0)), [1.5, 0])


def test_class_same_segment_matches_oracle(oracle_c2_w6):
    # expanding the closed form over the basis arcs must reproduce the oracle
    # class exactly, signs included
    o = oracle_c2_w6
    basis = standard_basis_arcs(2)
    for s in (0, 1):
        for lo in range(-6, 2):
            for gap in (2, 3, 4, 5):
                if lo + gap > 6:
                    continue
                arc = A((s, lo), (s, lo + gap))
                cls = class_same_segment(2, arc)
                combo = {}
                for basis_arc, c in zip(basis, cls):
                    if c:
                        combo[basis_arc] = combo.get(basis_arc, 0) + c
                expected = o.reduce(combo) if combo else o.zero_class
                assert o.class_of(arc) == expected, arc


@pytest.mark.parametrize("n", [3, 4])
def test_class_same_segment_matches_oracle_larger_n(n):
    # the same expansion as for n = 2, on every segment at window 4
    window = 4
    o = euler_oracle(n, window)
    basis = standard_basis_arcs(n)
    for s in range(n):
        for lo in range(-window, window - 1):
            for gap in (2, 3, 4, 5):
                if lo + gap > window:
                    continue
                arc = A((s, lo), (s, lo + gap))
                cls = class_same_segment(n, arc)
                combo = {}
                for basis_arc, c in zip(basis, cls):
                    if c:
                        combo[basis_arc] = combo.get(basis_arc, 0) + c
                expected = o.reduce(combo) if combo else o.zero_class
                assert o.class_of(arc) == expected, arc


def test_standard_basis_arcs():
    y1, x2, x3 = standard_basis_arcs(3)
    assert y1 == A((0, 0), (1, -1))
    assert x2 == A((0, 0), (1, 0))
    assert x3 == A((0, 0), (2, 0))
    with pytest.raises(ValueError):
        standard_basis_arcs(1)


def test_standard_basis_arcs_rejects_bad_anchors():
    # one anchor offset per segment, no fewer and no more
    with pytest.raises(ValueError, match="expected 3 anchor offsets, got 1"):
        standard_basis_arcs(3, [0])
    with pytest.raises(ValueError, match="expected 2 anchor offsets, got 3"):
        standard_basis_arcs(2, [0, 0, 7])
    # and each an int: 0.5 and 1.2 are not truncated to 0 and 1
    with pytest.raises(ValueError, match="anchor offset 0.5 is not an int"):
        standard_basis_arcs(2, [0.5, 1.2])
