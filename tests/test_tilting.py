import random
import re
from collections import Counter

import pytest

from arck0 import (
    Arc,
    StandardTilting,
    VerificationError,
    arc_class,
    build_standard_tilting,
    compute_k0_cn,
    exchange_pair,
    mutate,
    palu_relations,
    standard_basis_arcs,
)
from arck0.arcs import is_degenerate_pair
from arck0 import tilting
from geometry_reference import ext1_dim, induced_triangles, shares_endpoint


def P(s, o):
    return (s, o)


def A(p, q):
    return Arc(P(*p), P(*q))


def names_of(t, arcs):
    return sorted(t.name_of(t.arc_index(a)) for a in arcs)


def zigzag_arcs(n, offsets, depth):
    """Independent enumeration of the construction, used as a counting oracle."""
    anchors = [(s, offsets[s]) for s in range(n)]
    arcs = set()
    for b in range(n):
        if n == 1:
            below = (0, anchors[0][1] + 1)
            above = (0, anchors[0][1] - 1)
        else:
            below = anchors[b]
            above = anchors[(b + 1) % n]
        for t in range(0, 2 * depth + 1):
            m = t // 2
            lo = (below[0], below[1] + m)
            hi = (above[0], above[1] - m - (t % 2))
            arcs.add(frozenset((lo, hi)))
    if n >= 4:
        for i in range(3, n):
            arcs.add(frozenset((anchors[0], anchors[i - 1])))
    return arcs


@pytest.mark.parametrize(
    "n,depth,expected",
    [
        (1, 1, 3),
        (1, 4, 9),
        (2, 2, 9),
        (3, 2, 15),  # 3 edges + 3 zigzags of 4 new arcs each
        (4, 3, 4 + 1 + 24),
        (5, 2, 5 + 2 + 20),  # n edges + (n-3) fan diagonals + 2*n*depth
        (5, 4, 5 + 2 + 40),
        (6, 8, 6 + 3 + 96),
    ],
)
def test_build_counts_match_enumeration_oracle(n, depth, expected):
    t = build_standard_tilting(n, None, depth)
    assert len(t.arcs) == expected
    oracle = zigzag_arcs(n, [0] * n, depth)
    assert {frozenset((a.a, a.b)) for a in t.arcs} == oracle
    assert len(oracle) == expected


def test_build_n1_example():
    t = build_standard_tilting(1, [0], 1)
    assert [a.to_json() for a in t.arcs] == [
        [[0, -1], [0, 1]],
        [[0, -2], [0, 1]],
        [[0, -2], [0, 2]],
    ]
    assert t.arcs[t.names["Z1"]] == A((0, -1), (0, 1))
    assert t.arcs[t.names["Y1"]] == A((0, -2), (0, 1))


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_standard_tilting(0, None, 2)
    with pytest.raises(ValueError):
        build_standard_tilting(3, None, 0)
    with pytest.raises(ValueError):
        build_standard_tilting(3, [0, 0], 2)
    # a non-integer offset is rejected, not truncated to (0, 0), (1, 1)
    with pytest.raises(ValueError, match="anchor offset 0.7 is not an int"):
        build_standard_tilting(2, [0.7, 1.9], 2)


@pytest.mark.parametrize(
    "anchors", [4, {1: 0, 2: 0}, {0, 1}, "00"], ids=["int", "dict", "set", "str"]
)
def test_anchor_offsets_must_be_a_list_or_tuple(anchors):
    # a dict would anchor at its keys and a set in no fixed order; an int
    # in the anchors slot (compute_k0_cn(3, 4)) would fail in len()
    message = f"^anchor offsets {re.escape(repr(anchors))} are not a list or tuple$"
    with pytest.raises(ValueError, match=message):
        build_standard_tilting(2, anchors, 2)
    with pytest.raises(ValueError, match=message):
        compute_k0_cn(2, anchors)
    assert build_standard_tilting(2, (3, -1), 2).arcs == build_standard_tilting(2, [3, -1], 2).arcs


def test_build_is_pairwise_non_crossing():
    for n, depth, offsets in [(1, 3, None), (2, 2, [4, -1]), (4, 2, [0, 2, -3, 1]), (5, 3, None)]:
        t = build_standard_tilting(n, offsets, depth)
        for i in range(len(t.arcs)):
            for j in range(i + 1, len(t.arcs)):
                assert ext1_dim(t.n, t.arcs[i], t.arcs[j]) == 0


def test_n2_shared_edge():
    t = build_standard_tilting(2, None, 2)
    assert t.names["Z1"] == t.names["Z2"]
    assert t.leapfrogs[0][0] == t.leapfrogs[1][0] == t.names["Z1"]


def test_fan_identifications():
    t = build_standard_tilting(5, None, 2)
    assert t.names["X2"] == t.names["Z1"]
    assert t.names["X5"] == t.names["Z5"]
    assert t.arcs[t.names["X3"]] == A((0, 0), (2, 0))
    # a shared index is named by its first label
    assert t.name_of(t.names["X2"]) == "Z1"
    assert t.name_of(t.names["X5"]) == "Z5"
    assert t.name_of(len(t.arcs)) == f"arc{len(t.arcs)}"
    # X2..Xn are the basis fan arcs at every n >= 2, also where X2 and Xn
    # are the only fan arcs (n = 2, 3)
    for n in range(2, 7):
        t = build_standard_tilting(n, None, 2)
        basis = standard_basis_arcs(n)
        for i in range(2, n + 1):
            assert t.arcs[t.names[f"X{i}"]] == basis[i - 1], (n, i)
        assert t.name_of(t.names["X2"]) == "Z1"


def test_leapfrog_endpoints_monotone():
    # the endpoint approaching the accumulation point from below climbs, the
    # one approaching from above descends
    depth = 4
    for n in (1, 3):
        t = build_standard_tilting(n, None, depth)
        for b, ladder in enumerate(t.leapfrogs):
            arcs = [t.arcs[i] for i in ladder]

            def below_offset(arc):
                if n == 1:
                    return max(arc.a[1], arc.b[1])
                return arc.a[1] if arc.a[0] == b else arc.b[1]

            def above_offset(arc):
                if n == 1:
                    return min(arc.a[1], arc.b[1])
                return arc.b[1] if arc.a[0] == b else arc.a[1]

            lows = [below_offset(a) for a in arcs]
            highs = [above_offset(a) for a in arcs]
            assert lows == sorted(lows)
            assert highs == sorted(highs, reverse=True)
            assert lows[-1] - lows[0] == depth
            # neighbours share an endpoint
            for prev, cur in zip(arcs, arcs[1:]):
                assert shares_endpoint(prev, cur)


def test_labels_follow_the_docstring():
    # with label numbers mod n: Zi joins zi and z(i+1), L<i>[0] is Z(i-1),
    # Y(i-1) is L<i>[1], and leapfrogs[b] is the zigzag L<i> converging
    # between segments b and b+1, i.e. i = b+2
    for n in range(1, 9):
        label = lambda i: (i - 1) % n + 1
        for depth in (1, 2, 3):
            t = build_standard_tilting(n, None, depth)
            steps = range(2 * depth + 1)
            assert set(t.names) == {
                *(f"{c}{i}" for c in "ZY" for i in range(1, n + 1)),
                *(f"X{i}" for i in range(2, n + 1)),
                *(f"L{i}[{s}]" for i in range(1, n + 1) for s in steps),
            }
            for i in range(1, n + 1):
                ends = ((0, -1), (0, 1)) if n == 1 else ((i - 1, 0), (i % n, 0))
                assert t.arcs[t.names[f"Z{i}"]] == A(*ends)
                assert t.names[f"L{i}[0]"] == t.names[f"Z{label(i - 1)}"]
                assert t.names[f"Y{label(i - 1)}"] == t.names[f"L{i}[1]"]
            assert t.leapfrogs == tuple(
                tuple(t.names[f"L{label(b + 2)}[{s}]"] for s in steps) for b in range(n)
            )
    # mutate keeps the positions recorded at construction
    t = build_standard_tilting(3, None, 2)
    m = mutate(t, 4)
    assert m.leapfrogs == t.leapfrogs and 4 in t.leapfrogs[0]
    assert m.arcs[4] == A((0, 0), (1, -2)) and m.name_of(4) == "L2[2]*"


def test_exchange_pair_n3():
    t = build_standard_tilting(3, None, 4)
    pair = exchange_pair(t, t.names["Z1"])
    assert names_of(t, pair.b_m) == ["Y1", "Z2"]
    assert names_of(t, pair.b_m_star) == ["Z3"]


def test_exchange_pair_n1():
    t = build_standard_tilting(1, None, 4)
    pair = exchange_pair(t, t.names["Z1"])
    assert pair.m_star == A((0, -2), (0, 0))
    assert pair.b_m == (t.arcs[t.names["Y1"]],)
    assert pair.b_m_star == ()


def test_exchange_pair_n2():
    t = build_standard_tilting(2, None, 4)
    pair = exchange_pair(t, t.names["Z1"])
    assert names_of(t, pair.b_m) == ["Y1", "Y2"]
    assert pair.b_m_star == ()


def test_exchange_pair_fan_arcs():
    # compare indices: X2 and Xn are the same arcs as Z1 and Zn
    t = build_standard_tilting(6, None, 3)
    for i in (3, 4, 5):
        pair = exchange_pair(t, t.names[f"X{i}"])
        got_b_m = {t.arc_index(a) for a in pair.b_m}
        got_b_m_star = {t.arc_index(a) for a in pair.b_m_star}
        assert got_b_m == {t.names[f"Z{i}"], t.names[f"X{i-1}"]}
        assert got_b_m_star == {t.names[f"X{i+1}"], t.names[f"Z{i-1}"]}


def test_exchange_pair_frontier_raises():
    t = build_standard_tilting(2, None, 2)
    deepest = t.leapfrogs[0][-1]
    assert deepest not in palu_relations(t)
    with pytest.raises(ValueError) as raised:
        exchange_pair(t, deepest)
    assert str(raised.value) == (
        "insufficient depth: arc [[0, 2], [1, -2]] has only 1 flanking triangle(s)"
    )


@pytest.mark.parametrize("index", [-7, -1, 9, True, 1.0, "3", None])
def test_exchange_pair_and_mutate_reject_a_bad_index(index):
    # a negative index would swap an arc and leave its labels behind; a bool
    # would pick arc 1
    t = build_standard_tilting(2, None, 2)
    message = re.escape(f"arc index {index!r} out of range [0, 9)")
    for call in (exchange_pair, mutate):
        with pytest.raises(ValueError, match=message):
            call(t, index)


def test_arc_index_names_an_arc_outside_the_tilting():
    t = build_standard_tilting(2, None, 2)
    assert t.arc_index(A((1, 0), (0, 0))) == t.names["Z1"]
    for arc in (A((0, 0), (0, 2)), A((5, 0), (6, 1))):
        assert arc not in t.arcs
        with pytest.raises(ValueError, match=re.escape(f"arc {arc} is not in the tilting set")):
            t.arc_index(arc)


def test_exchange_and_mutation_arcs_have_marked_point_endpoints():
    # every endpoint that leaves the package, a third _flank read off the
    # neighbour index included, is a plain (segment, offset) tuple of ints
    rng = random.Random(31)
    for n in range(1, 7):
        t = build_standard_tilting(n, [rng.randint(-3, 3) for _ in range(n)], 3)
        interior = sorted(palu_relations(t))
        for _ in range(4):
            for i in interior:
                pair = exchange_pair(t, i)
                for arc in (pair.m, pair.m_star, *pair.b_m, *pair.b_m_star):
                    assert all(type(p) is tuple and list(map(type, p)) == [int, int] for p in arc)
                    assert arc.to_json() == [list(arc.a), list(arc.b)]
            for arc in t.arcs:
                assert all(type(p) is tuple and list(map(type, p)) == [int, int] for p in arc)
            t = mutate(t, rng.choice(interior))
            interior = sorted(palu_relations(t))


def test_exchange_roles_swap_after_mutation():
    t = build_standard_tilting(3, None, 3)
    i = t.names["Z2"]
    pair = exchange_pair(t, i)
    mutated = mutate(t, i)
    back = exchange_pair(mutated, i)
    assert back.m == pair.m_star and back.m_star == pair.m
    assert set(back.b_m) == set(pair.b_m_star)
    assert set(back.b_m_star) == set(pair.b_m)


def test_exchange_pair_agrees_with_palu_relations():
    # the middles that `arck0 exchange` prints are the relation the group is
    # computed from: b_m holds the arcs of the negative terms and b_m_star
    # those of the positive ones, in the relation's order, and an arc has an
    # exchange pair exactly when it has a relation
    rng = random.Random(19)
    for n in range(1, 7):
        for anchors in (None, [rng.randint(-3, 3) for _ in range(n)]):
            t = build_standard_tilting(n, anchors, 3)
            for _ in range(4):
                relations = palu_relations(t)
                for i, m in enumerate(t.arcs):
                    if i not in relations:
                        with pytest.raises(ValueError, match="^insufficient depth: "):
                            exchange_pair(t, i)
                        continue
                    terms = relations[i]
                    pair = exchange_pair(t, i)
                    assert pair.m == m and pair.m_star not in t.arcs
                    assert pair.b_m == tuple(t.arcs[j] for j, c in terms.items() if c == -1)
                    assert pair.b_m_star == tuple(t.arcs[j] for j, c in terms.items() if c == 1)
                    assert len(pair.b_m) + len(pair.b_m_star) == len(terms)
                t = mutate(t, rng.choice(sorted(relations)))


def dense(t, terms):
    # the relation as a vector over the whole arc basis
    return [terms.get(i, 0) for i in range(len(t.arcs))]


def relation_by_source(t, relations, name):
    idx = t.names[name]
    if idx not in relations:
        raise AssertionError(f"no relation from {name}")
    return dense(t, relations[idx])


def test_palu_relation_examples():
    t = build_standard_tilting(5, None, 3)
    rels = palu_relations(t)
    # exchange at Z3: [X3] - [Y3] - [X4] = 0
    vec = relation_by_source(t, rels, "Z3")
    expected = [0] * len(t.arcs)
    expected[t.names["X3"]] += 1
    expected[t.names["Y3"]] -= 1
    expected[t.names["X4"]] -= 1
    assert list(vec) == expected
    # exchange at X3: [X2] + [Z3] - [Z2] - [X4] = 0, up to global sign
    vec = relation_by_source(t, rels, "X3")
    expected = [0] * len(t.arcs)
    expected[t.names["X2"]] += 1
    expected[t.names["Z3"]] += 1
    expected[t.names["Z2"]] -= 1
    expected[t.names["X4"]] -= 1
    assert list(vec) == expected or list(vec) == [-v for v in expected]

    t3 = build_standard_tilting(3, None, 3)
    vec = relation_by_source(t3, palu_relations(t3), "Z1")
    expected = [0] * len(t3.arcs)
    expected[t3.names["Z2"]] += 1
    expected[t3.names["Y1"]] += 1
    expected[t3.names["Z3"]] -= 1
    assert list(vec) == expected or list(vec) == [-v for v in expected]


def test_relation_support_is_small():
    for n, depth in [(1, 3), (2, 2), (4, 3), (6, 2)]:
        t = build_standard_tilting(n, None, depth)
        for terms in palu_relations(t).values():
            vec = dense(t, terms)
            assert sum(abs(c) for c in vec) <= 4
            assert all(abs(c) <= 1 for c in vec)


def test_interior_leapfrog_relation_shape():
    # inside a zigzag the relation couples the two neighbours: [prev] + [next]
    t = build_standard_tilting(2, None, 3)
    rels = {i: dense(t, terms) for i, terms in palu_relations(t).items()}
    for ladder in t.leapfrogs:
        for pos in range(1, len(ladder) - 1):
            vec = rels[ladder[pos]]
            expected = [0] * len(t.arcs)
            expected[ladder[pos - 1]] += 1
            expected[ladder[pos + 1]] += 1
            assert list(vec) == expected or list(vec) == [-v for v in expected]


def test_frontier_arcs_have_no_relation():
    t = build_standard_tilting(3, None, 2)
    sources = set(palu_relations(t))
    frontier = {ladder[-1] for ladder in t.leapfrogs}
    assert frontier.isdisjoint(sources)
    assert sources | frontier == set(range(len(t.arcs)))


def test_mutate_examples():
    t = build_standard_tilting(3, None, 3)
    i = t.names["Z1"]
    mutated = mutate(t, i)
    # the flip replaces {z1, z2} by the other diagonal of (z3, z1, z2^-, z2)
    assert mutated.arcs[i] == A((1, -1), (2, 0))
    assert "Z1" not in mutated.names
    assert mutated.names["Z1*"] == i
    again = mutate(mutated, i)
    assert set(again.arcs) == set(t.arcs)


def test_mutate_keeps_set_non_crossing():
    t = build_standard_tilting(4, [1, -2, 0, 3], 2)
    for name in ("Z1", "Z3", "X3", "Y2"):
        mutated = mutate(t, t.names[name])
        for i in range(len(mutated.arcs)):
            for j in range(i + 1, len(mutated.arcs)):
                assert ext1_dim(mutated.n, mutated.arcs[i], mutated.arcs[j]) == 0


def test_non_crossing_check_matches_pairwise_reference():
    # the construction check against the pairwise ext1_dim loop, on small
    # random arc sets: offsets in [-2, 2] make shared endpoints common, half
    # the sets are grown greedily so that they stay non-crossing, and a draw
    # may repeat an arc
    rng = random.Random(1729)
    seen = Counter()
    for _ in range(6000):
        n = rng.randint(1, 4)
        points = [P(s, o) for s in range(n) for o in range(-2, 3)]
        greedy = rng.random() < 0.5
        arcs: list[Arc] = []
        for _ in range(rng.randint(1, 7)):
            p, q = rng.sample(points, 2)
            if is_degenerate_pair(p, q):
                continue
            arc = Arc(p, q)
            if greedy and any(ext1_dim(n, arc, x) for x in arcs):
                continue
            arcs.append(arc)
        crossing = any(
            ext1_dim(n, x, y) for i, x in enumerate(arcs) for y in arcs[i + 1 :]
        )
        repeated = len(set(arcs)) < len(arcs)
        if crossing or repeated:
            with pytest.raises(VerificationError) as info:
                StandardTilting(n, tuple(arcs), {}, ())
            # the message names a fault the set has: a crossing pair or a repeat
            faults = {f"repeated arc in tilting set: {x}" for x in arcs if arcs.count(x) > 1}
            faults |= {
                f"crossing arcs in tilting set: {x} x {y}"
                for x in arcs
                for y in arcs
                if ext1_dim(n, x, y)
            }
            assert str(info.value) in faults
        else:
            StandardTilting(n, tuple(arcs), {}, ())
        seen["crossing" if crossing else "non-crossing"] += 1
        seen["repeated"] += repeated
        if any(shares_endpoint(x, y) for i, x in enumerate(arcs) for y in arcs[i + 1 :]):
            seen["shared endpoint"] += 1
        if n > 1 and any(a.a[0] == 0 and a.b[0] == n - 1 for a in arcs):
            seen["wraps"] += 1
    for kind in ("crossing", "non-crossing", "shared endpoint", "wraps"):
        assert seen[kind] >= 1000, (kind, seen)
    # repeats are rarer: 766 of these 6000 sets have one
    assert seen["repeated"] >= 500, seen


def scan_thirds(t):
    """Third vertices of the triangles flanking each arc, by a neighbour scan of the arc set."""
    present = {frozenset((a.a, a.b)) for a in t.arcs}
    joined = {}
    for a in t.arcs:
        joined.setdefault(a.a, set()).add(a.b)
        joined.setdefault(a.b, set()).add(a.a)

    def side(x, y):
        return x != y and (is_degenerate_pair(x, y) or frozenset((x, y)) in present)

    result = []
    for m in t.arcs:
        candidates = joined[m.a] | joined[m.b]
        candidates |= {P(x[0], x[1] + d) for x in (m.a, m.b) for d in (-1, 1)}
        result.append(
            sorted(r for r in candidates if r not in (m.a, m.b) and side(m.a, r) and side(m.b, r))
        )
    return result


def test_palu_relations_match_induced_triangles():
    # palu_relations against the exchange triangles derived arc by arc: thirds
    # from a scan, the quadrilateral and its sides from induced_triangles, on
    # standard tiltings and on the tiltings along random mutation chains.
    # Each relation also sums to zero under arc_class, the closed form
    rng = random.Random(4099)
    sizes = Counter()
    for n in range(1, 9):
        for depth in range(1, 9):
            t = build_standard_tilting(n, [rng.randint(-8, 8) for _ in range(n)], depth)
            for step in range(5):
                index = {a: i for i, a in enumerate(t.arcs)}
                expected = {}
                for i, (m, thirds) in enumerate(zip(t.arcs, scan_thirds(t))):
                    assert len(thirds) <= 2
                    if len(thirds) < 2:
                        continue
                    to_star, to_m = induced_triangles(t.n, m, Arc(*thirds))
                    terms = {index[a]: 1 for a in to_star.middle}
                    terms.update({index[a]: -1 for a in to_m.middle})
                    expected[i] = terms
                relations = palu_relations(t)
                assert list(relations) == sorted(expected)
                assert relations == expected
                classes = [arc_class(n, a) for a in t.arcs]
                for i, terms in relations.items():
                    total = [
                        sum(sign * classes[j][s] for j, sign in terms.items()) for s in range(n)
                    ]
                    assert not any(total), (n, depth, step, t.arcs[i], total)
                sizes.update(len(terms) for terms in relations.values())
                sizes["frontier"] += len(t.arcs) - len(relations)
                if step < 4:
                    t = mutate(t, rng.choice(sorted(expected)))
    for kind in (1, 2, 3, 4, "frontier"):
        assert sizes[kind] >= 20, sizes


def test_sets_without_an_exchange_are_rejected_at_construction():
    # in the first two sets both triangles flanking the first arc lie on one
    # side of it, in the last three triangles flank it: that arc has no
    # exchange, and each set crosses, so a direct call rejects it
    for pairs, crossing in (
        (
            [((0, 0), (0, 3)), ((0, 1), (0, 3)), ((0, 0), (0, 2))],
            "[[0, 0], [0, 2]] x [[0, 1], [0, 3]]",
        ),
        (
            [((0, 0), (0, 4)), ((0, 1), (0, 4)), ((0, 0), (0, 3))],
            "[[0, 0], [0, 3]] x [[0, 1], [0, 4]]",
        ),
        (
            [((0, 0), (0, 4)), ((0, 1), (0, 4)), ((0, 0), (0, 3))]
            + [((0, 0), (0, 2)), ((0, 2), (0, 4))],
            "[[0, 0], [0, 2]] x [[0, 1], [0, 4]]",
        ),
    ):
        arcs = tuple(A(p, q) for p, q in pairs)
        with pytest.raises(VerificationError) as info:
            StandardTilting(1, arcs, {}, ())
        assert str(info.value) == f"crossing arcs in tilting set: {crossing}"


@pytest.mark.parametrize(
    "bad,error,message",
    [
        pytest.param(
            A((0, 1), (2, 0)),  # crosses the polygon edge Z1 = (0, 0)-(1, 0)
            VerificationError,
            "crossing arcs in tilting set: [[0, 0], [1, -1]] x [[0, 1], [2, 0]]",
            id="crossing",
        ),
        pytest.param(
            A((0, 0), (1, 0)),  # Z1 again
            VerificationError,
            "repeated arc in tilting set: [[0, 0], [1, 0]]",
            id="repeated",
        ),
        pytest.param(
            A((5, 0), (5, 2)), ValueError, "segment 5 out of range [0, 3)", id="off-circle"
        ),
        pytest.param(
            A((-1, 0), (-1, 2)), ValueError, "segment -1 out of range [0, 3)", id="below-circle"
        ),
        pytest.param(
            # with both ends off the circle, the least endpoint is named
            A((5, 0), (-1, 0)), ValueError, "segment -1 out of range [0, 3)", id="both-ends-off"
        ),
    ],
)
@pytest.mark.parametrize("how", ["direct", "build", "mutate"])
def test_every_way_of_making_a_tilting_checks_it(monkeypatch, how, bad, error, message):
    # the check runs when a StandardTilting is made: a direct call,
    # build_standard_tilting and mutate (at Z2, so Z1 stays) each hand it
    # their arcs plus ``bad``
    t = build_standard_tilting(3, None, 2)
    made = tilting.StandardTilting

    def with_bad_arc(n, arcs, names, leapfrogs):
        return made(n, (*arcs, bad), names, leapfrogs)

    monkeypatch.setattr(tilting, "StandardTilting", with_bad_arc)
    with pytest.raises(error) as info:
        if how == "direct":
            with_bad_arc(t.n, t.arcs, t.names, t.leapfrogs)
        elif how == "build":
            build_standard_tilting(3, None, 2)
        else:
            mutate(t, t.names["Z2"])
    assert str(info.value) == message
