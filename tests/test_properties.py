"""Randomized invariant checks (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from arck0 import (
    Arc,
    CircleModel,
    MarkedPoint,
    build_standard_tilting,
    cokernel_presentation,
    euler_oracle,
    exchange_pair,
    mutate,
    palu_relations,
    smith_normal_form,
    suspend,
)
from arck0.tilting import InsufficientDepthError
from geometry_reference import ext1_dim, induced_triangles, quadrilateral_sides
from snf_reference import reference_snf

WINDOW = 12

settings.register_profile("suite", max_examples=200, deadline=None, derandomize=True)
settings.load_profile("suite")


def _draw_arc(draw, n):
    # built valid by construction: same-segment arcs jump at least 2 offsets,
    # cross-segment endpoint pairs are never adjacent
    s0 = draw(st.integers(0, n - 1))
    o0 = draw(st.integers(-WINDOW, WINDOW))
    if n > 1 and draw(st.booleans()):
        s1 = draw(st.integers(0, n - 2))
        if s1 >= s0:
            s1 += 1
        return Arc(MarkedPoint(s0, o0), MarkedPoint(s1, draw(st.integers(-WINDOW, WINDOW))))
    gap = draw(st.integers(2, 9)) * draw(st.sampled_from((-1, 1)))
    return Arc(MarkedPoint(s0, o0), MarkedPoint(s0, o0 + gap))


@st.composite
def model_and_arcs(draw, count=2):
    n = draw(st.integers(1, 4))
    model = CircleModel(n)
    arcs = [_draw_arc(draw, n) for _ in range(count)]
    return model, arcs


@given(model_and_arcs())
def test_crossing_symmetry(data):
    model, (x, y) = data
    assert ext1_dim(model, x, y) == ext1_dim(model, y, x)


@given(model_and_arcs(), st.integers(-6, 6))
def test_crossing_is_suspension_equivariant(data, k):
    model, (x, y) = data
    assert ext1_dim(model, x, y) == ext1_dim(model, suspend(x, k), suspend(y, k))


@given(model_and_arcs(count=1), st.integers(-8, 8), st.integers(-8, 8))
def test_suspension_is_an_action(data, j, k):
    _, (arc,) = data
    assert suspend(arc, j + k) == suspend(suspend(arc, j), k)


@given(model_and_arcs())
def test_quadrilateral_closure(data):
    model, (x, y) = data
    if ext1_dim(model, x, y) != 1:
        return
    first, second = induced_triangles(model, x, y)
    sides = list(first.middle) + list(second.middle)
    for side in sides:
        assert len({side.a, side.b} & {x.a, x.b}) == 1
        assert len({side.a, side.b} & {y.a, y.b}) == 1
        assert ext1_dim(model, side, x) == 0
        assert ext1_dim(model, side, y) == 0
    assert len(set(sides)) == len(sides)
    assert len(sides) <= 4


@pytest.fixture(scope="module")
def oracles():
    return [euler_oracle(1, 8), euler_oracle(2, 6)]


def test_suspension_negates_oracle_classes(oracles):
    for oracle in oracles:
        for arc in oracle.arcs:
            if min(arc.a[1], arc.b[1]) > -oracle.window:
                assert oracle.reduce({suspend(arc, 1): 1, arc: 1}) == oracle.zero_class


def test_oracle_parity_matches_interior_count(oracles):
    for oracle in oracles:
        for arc in oracle.arcs:
            if not arc.same_segment:
                continue
            even = (arc.b[1] - arc.a[1] - 1) % 2 == 0
            assert (oracle.class_of(arc) == oracle.zero_class) == even


@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.lists(st.integers(-WINDOW, WINDOW), min_size=4, max_size=4),
    st.data(),
)
def test_mutate_twice_is_identity_and_non_crossing(n, depth, offsets, data):
    t = build_standard_tilting(n, offsets[:n], depth)
    index = data.draw(st.integers(0, len(t.arcs) - 1))
    try:
        once = mutate(t, index)
    except InsufficientDepthError:
        return
    assert once.arcs[index] not in t
    for i in range(len(once.arcs)):
        for j in range(i + 1, len(once.arcs)):
            assert ext1_dim(once.model, once.arcs[i], once.arcs[j]) == 0
    twice = mutate(once, index)
    assert set(twice.arcs) == set(t.arcs)


@given(
    st.integers(1, 4),
    st.integers(2, 3),
    st.lists(st.integers(-WINDOW, WINDOW), min_size=4, max_size=4),
)
def test_relation_span_sign_independent(n, depth, offsets):
    t = build_standard_tilting(n, offsets[:n], depth)
    rels = [
        tuple(terms.get(i, 0) for i in range(len(t.arcs)))
        for terms in palu_relations(t).values()
    ]
    base = cokernel_presentation(len(t.arcs), rels)
    flipped = [tuple(-v for v in r) if i % 2 else r for i, r in enumerate(rels)]
    assert cokernel_presentation(len(t.arcs), flipped) == base


def _diagonal(entries):
    return [[v if i == j else 0 for j in range(len(entries))] for i, v in enumerate(entries)]


_RANDOM_MATRICES = st.integers(1, 12).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=1, max_size=12
    )
)
# random small matrices rarely leave more than one Smith value above 1, so
# the divisibility chain gets diagonals of 3-8 entries over 2, 3, 5 and 7
_PRIME_POWER_DIAGONALS = st.lists(
    st.tuples(*[st.integers(0, 3)] * 4, st.sampled_from((1, -1)))
    .map(lambda e: e[4] * 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3])
    .filter(lambda d: abs(d) > 1),
    min_size=3,
    max_size=8,
).map(_diagonal)


@given(st.one_of(_RANDOM_MATRICES, _PRIME_POWER_DIAGONALS))
def test_snf_chain_and_reference(matrix):
    rows, cols = len(matrix), len(matrix[0])
    diag = smith_normal_form(matrix)
    assert len(diag) == min(rows, cols)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if b:
            assert a != 0 and b % a == 0
    assert diag == reference_snf(matrix)


@given(model_and_arcs())
def test_middles_partition_the_four_sides(data):
    model, (x, y) = data
    if ext1_dim(model, x, y) != 1:
        return
    sides = {s for s in quadrilateral_sides(model, x, y) if s is not None}
    first, second = induced_triangles(model, x, y)
    assert set(first.middle) | set(second.middle) == sides
    assert set(first.middle) & set(second.middle) == set()


@given(st.integers(1, 4), st.integers(2, 4))
def test_exchange_pairs_cross(n, depth):
    t = build_standard_tilting(n, None, depth)
    for i in range(len(t.arcs)):
        try:
            pair = exchange_pair(t, i)
        except InsufficientDepthError:
            continue
        assert ext1_dim(t.model, pair.m, pair.m_star) == 1
