import inspect
import random
from collections import Counter
from collections.abc import Hashable
from itertools import combinations

import pytest

import arck0
from arck0 import (
    Arc,
    GroupPresentation,
    StandardTilting,
    VerificationError,
    arc_class,
    build_standard_tilting,
    cokernel_presentation,
    compute_k0_cn,
    euler_oracle,
    mutate,
    palu_relations,
    standard_basis_arcs,
    verify_closed_form,
)
from arck0.completion import (
    compute_k0_completed,
    f_matrix,
    kernel_generator_arc,
    verify_f_oracle,
)
from geometry_reference import ext1_dim, induced_triangles, maybe_arc, suspend


def P(s, o):
    return (s, o)


def A(p, q):
    return Arc(P(*p), P(*q))


# ---------------------------------------------------------------------------
# exchange-relation route


@pytest.mark.parametrize(
    "n,depth,anchors",
    [
        pytest.param(1, 4, None, id="1-4"),
        pytest.param(3, 4, None, id="3-4"),
        pytest.param(6, 8, None, id="6-8"),
        pytest.param(1, 2, None, id="1-2"),
        pytest.param(2, 5, [3, -1], id="2-5-anchored"),
        pytest.param(5, 3, [0, 4, -2, 1, 0], id="5-3-anchored"),
        pytest.param(8, 4, None, id="8-4"),
        pytest.param(8, 6, [1, -2, 0, 3, -5, 2, 0, 7], id="8-6-anchored"),
    ],
)
def test_compute_k0_cn_free_of_rank_n(n, depth, anchors):
    report = compute_k0_cn(n, anchors, depth)
    assert report.presentation == GroupPresentation(n)


def test_compute_k0_cn_rejects_shallow_depth():
    with pytest.raises(ValueError, match="^need depth >= 2, got 1$"):
        compute_k0_cn(2, None, 1)


# Every public size parameter: (callable, parameter, least allowed value,
# call with that size set to the value and every other argument valid).
SIZES = [
    ("StandardTilting", "n", 1, lambda v: StandardTilting(v, (), {}, ())),
    ("build_standard_tilting", "n", 1, lambda v: build_standard_tilting(v, None, 2)),
    ("build_standard_tilting", "depth", 1, lambda v: build_standard_tilting(2, None, v)),
    ("compute_k0_cn", "n", 1, lambda v: compute_k0_cn(v, None, 2)),
    ("compute_k0_cn", "depth", 2, lambda v: compute_k0_cn(2, None, v)),
    ("euler_oracle", "n", 1, lambda v: euler_oracle(v, 2)),
    ("euler_oracle", "window", 2, lambda v: euler_oracle(2, v)),
    ("standard_basis_arcs", "n", 1, standard_basis_arcs),
    ("arc_class", "n", 1, lambda v: arc_class(v, A((0, 0), (0, 2)))),
    ("kernel_generator_arc", "n", 1, lambda v: kernel_generator_arc(v, 1)),
    ("kernel_generator_arc", "i", 1, lambda v: kernel_generator_arc(2, v)),
    ("f_matrix", "n", 1, f_matrix),
    ("compute_k0_completed", "n", 1, compute_k0_completed),
    ("verify_f_oracle", "n", 1, lambda v: verify_f_oracle(v, 2)),
    ("verify_f_oracle", "window", 2, lambda v: verify_f_oracle(1, v)),
]
_SIZES_PER_CALLABLE = Counter(c for c, *_ in SIZES)
SIZE_CASES = [
    pytest.param(p, least, call, id=c + (f"-{p}" if _SIZES_PER_CALLABLE[c] > 1 else ""))
    for c, p, least, call in SIZES
]


@pytest.mark.parametrize("name,least,call", SIZE_CASES)
def test_non_int_sizes_raise_value_error(name, least, call):
    # the type is checked first: no size reaches a comparison or a range
    for value in (None, 2.0, True, "3"):
        with pytest.raises(ValueError) as raised:
            call(value)
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"{name} {value!r} is not an int"


@pytest.mark.parametrize("name,least,call", SIZE_CASES)
def test_sizes_below_the_least_raise(name, least, call):
    with pytest.raises(ValueError) as raised:
        call(least - 1)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"need {name} >= {least}, got {least - 1}"


def test_size_table_covers_every_public_size_parameter():
    # a new public entry point with a size parameter must join SIZES
    walked = set()
    for name in arck0.__all__:
        obj = getattr(arck0, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        members = [(name, obj)]
        if isinstance(obj, type):
            members += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr in vars(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            ]
        for qualname, member in members:
            walked |= {
                (qualname, p)
                for p in inspect.signature(member).parameters
                if p in ("n", "depth", "window", "i")
            }
    assert walked == {(c, p) for c, p, *_ in SIZES}


def test_compute_k0_cn_frontier_report():
    report = compute_k0_cn(3, None, 2)
    assert len(report.frontier) == 3  # the deepest arc of each zigzag
    assert report.arcs == build_standard_tilting(3, None, 2).arcs
    assert len(report.arcs) == 15
    assert len(palu_relations(build_standard_tilting(3, None, 2))) == 12
    assert report.presentation == GroupPresentation(3)
    assert report.source == "compute_k0_cn(3, None, 2)"
    with pytest.raises(ValueError) as raised:
        report.class_of(A((0, 0), (0, 2)))
    assert str(raised.value) == "arc [[0, 0], [0, 2]] has no class in compute_k0_cn(3, None, 2)"
    for n, depth in ((3, 2), (1, 5), (2, 3), (6, 4)):
        frontier = compute_k0_cn(n, None, depth).frontier
        assert sorted(frontier) == sorted(f"L{b}[{2 * depth}]" for b in range(1, n + 1))


def test_exact_coordinates_are_pinned():
    # oracle coordinates are over the basis (Y1, X2) whatever generators
    # unit elimination keeps, so a change of basis or sign convention shows
    # here; the frontier's order follows the tilting's arc order
    oracle = euler_oracle(2, 4)
    assert oracle.class_of(A((0, 0), (1, 1))) == (1, 0)
    assert oracle.class_of(A((0, -3), (1, 2))) == (-1, 0)
    assert oracle.class_of(A((0, 4), (1, -4))) == (0, 1)
    assert oracle.class_of(A((1, -4), (1, 4))) == (-1, 1)
    assert sorted(Counter(map(oracle.class_of, oracle.arcs)).items()) == [
        ((-1, -1), 6), ((-1, 0), 20), ((-1, 1), 10), ((0, -1), 16), ((0, 0), 24),
        ((0, 1), 25), ((1, -1), 6), ((1, 0), 20), ((1, 1), 10),
    ]
    assert compute_k0_cn(3, None, 3).frontier == ("L2[6]", "L3[6]", "L1[6]")


def test_compute_k0_cn_nonuniform_anchors():
    for offsets in ([5], [-3, 0], [2, -1, 7, 0]):
        n = len(offsets)
        assert compute_k0_cn(n, offsets, 3).presentation == GroupPresentation(n)


@pytest.mark.parametrize("n", [100, 200])
def test_compute_k0_cn_smith_core_grows_linearly(n, monkeypatch):
    # the survivors of unit elimination are numbered so that the exchange
    # core stays banded: the echelon of the core and its basis tag columns
    # takes about 5n subtractions and leaves about 10n pivot entries, and
    # doubling n about doubles both (in increasing order the subtractions
    # grew as n squared: 17,853 at n = 100 and 70,703 at n = 200)
    from arck0 import snf

    subtract, echelon = snf._subtract, snf._echelon_columns

    def work(size):
        calls, entries = [0], [0]

        def counting_subtract(*args):
            calls[0] += 1
            return subtract(*args)

        def counting_echelon(columns):
            pivots = echelon(columns)
            entries[0] += sum(len(col) for col in pivots.values())
            return pivots

        with monkeypatch.context() as m:
            m.setattr(snf, "_subtract", counting_subtract)
            m.setattr(snf, "_echelon_columns", counting_echelon)
            assert compute_k0_cn(size, None, 16).presentation == GroupPresentation(size)
        return calls[0], entries[0]

    calls, entries = work(n)
    assert 0 < entries <= 10 * n
    assert calls <= 5 * n
    double_calls, double_entries = work(2 * n)
    assert double_calls <= 2.2 * calls
    assert double_entries <= 2.2 * entries


@pytest.mark.parametrize("n", [200, 1000])
def test_compute_k0_cn_wide_shallow_work_grows_linearly(n, monkeypatch):
    # at a large n and a small depth three things can turn quadratic: the
    # Hermite normalization walking every pivot row for each column, _flank
    # scanning the ~n neighbours of the fan vertex z1 for each fan arc, and
    # a readout of n coordinates per arc.  The pivot rows visited (heap
    # pops), _flank's membership tests on the neighbour index and the
    # nonzero coordinates stored all stay within a constant times the arc
    # count (28,957 coordinates over 9,997 arcs at n = 1000).  _flank tests
    # each entry of the smaller neighbour dict, boundary edges included,
    # once: 4.3 tests per arc, so two more per arc exceed the bound
    from arck0 import k0, snf

    visits, tests = [0], [0]
    heappop, build = snf.heappop, k0.build_standard_tilting

    def counting_heappop(heap):
        visits[0] += 1
        return heappop(heap)

    class CountingDict(dict):
        def __contains__(self, key):
            tests[0] += 1
            return super().__contains__(key)

    def counting_build(*args):
        t = build(*args)
        counting = {p: CountingDict(d) for p, d in t._neighbours.items()}
        object.__setattr__(t, "_neighbours", counting)
        return t

    monkeypatch.setattr(snf, "heappop", counting_heappop)
    monkeypatch.setattr(k0, "build_standard_tilting", counting_build)
    report = compute_k0_cn(n, None, 4)
    assert report.presentation == GroupPresentation(n)
    num_arcs = len(report.arcs)
    assert 0 < visits[0] <= num_arcs
    assert 0 < tests[0] <= 5 * num_arcs
    assert 0 < sum(map(len, report._classes.values())) <= 4 * num_arcs


# ---------------------------------------------------------------------------
# Euler oracle


@pytest.fixture(scope="module")
def oracle_c1_w6():
    return euler_oracle(1, 6)


@pytest.fixture(scope="module")
def oracle_c2_w6():
    return euler_oracle(2, 6)


def test_oracle_rejects_small_window():
    with pytest.raises(ValueError, match="^need window >= 2, got 1$"):
        euler_oracle(1, 1)


def test_oracle_class_examples(oracle_c1_w6):
    o = oracle_c1_w6
    # two interior points: trivial class
    assert not any(o.class_of(A((0, 0), (0, 3))))
    # one and three interior points agree
    assert o.class_of(A((0, 0), (0, 2))) == o.class_of(A((0, 0), (0, 4)))
    assert any(o.class_of(A((0, 0), (0, 2))))


@pytest.mark.parametrize("n,window", [(1, 2), (2, 6), (3, 3), (4, 2)])
def test_oracle_suspension_antisymmetry(n, window):
    # window 2 has the fewest suspension relations; they hold by numbering,
    # since an arc and its shift share one generator code with opposite signs
    o = euler_oracle(n, window)
    for arc in o.arcs:
        if min(arc.a[1], arc.b[1]) > -window:
            assert o.class_of(suspend(arc, 1)) == tuple(-v for v in o.class_of(arc))


def test_oracle_stores_few_columns(monkeypatch):
    # numbered as one generator per suspension orbit, the triangle columns
    # come out short: at (4, 4) 506 are stored, 2,267 with one generator per
    # arc and no suspension relations; the count is read as the scan ends,
    # before the residual re-absorbs them
    from arck0 import snf

    stored = []
    basis_classes = snf._UnitEliminations.basis_classes

    def counting(self, basis, where):
        stored.append(len(self.store))
        return basis_classes(self, basis, where)

    monkeypatch.setattr(snf._UnitEliminations, "basis_classes", counting)
    for n, window in (2, 4), (3, 3), (4, 4):
        euler_oracle(n, window)
    assert stored == [72, 169, 506]


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
        assert (not any(o.class_of(arc))) == even


def test_oracle_classes_satisfy_euler_relations(oracle_c2_w6):
    o = oracle_c2_w6
    arcs = o.arcs
    checked = 0
    for x in arcs[::17]:
        for y in arcs[::13]:
            if ext1_dim(2, x, y) != 1:
                continue
            for tri in induced_triangles(2, x, y):
                combo = {tri.first: 1, tri.third: 1}
                for mid in tri.middle:
                    combo[mid] = combo.get(mid, 0) - 1
                assert not any(_coordinate_sum(o, combo))
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("n,window", [(1, 5), (2, 3), (2, 5), (3, 3), (4, 3)])
def test_oracle_matches_reference_lattice(n, window):
    # the oracle's group is Z^arcs modulo every relation it stands for: both
    # triangles of every crossing pair (found by the pairwise ext1_dim loop)
    # and [shift A] + [A] wherever the shift stays in the window.  Every
    # relation reduces to zero, so the reference group maps onto the
    # oracle's (whose generators are window-arc classes); both are finitely
    # generated with equal presentations, and a finitely generated abelian
    # group is Hopfian, so the map is an isomorphism
    points = [P(s, o) for s in range(n) for o in range(-window, window + 1)]
    arcs = [arc for p, q in combinations(points, 2) if (arc := maybe_arc(p, q))]
    index = {arc: i for i, arc in enumerate(arcs)}
    relations = []
    for x, y in combinations(arcs, 2):
        if ext1_dim(n, x, y) != 1:
            continue
        for tri in induced_triangles(n, x, y):
            rel = {tri.first: 1, tri.third: 1}
            for mid in tri.middle:
                rel[mid] = rel.get(mid, 0) - 1
            relations.append(rel)
    for arc in arcs:
        if min(arc.a[1], arc.b[1]) > -window:
            relations.append({suspend(arc, 1): 1, arc: 1})
    oracle = euler_oracle(n, window)
    assert set(oracle.arcs) == set(arcs)
    # the coordinates are a map from the arcs to Z^n that kills every
    # relation and sends basis arc i to e_i, so it is onto Z^n
    for rel in relations:
        assert not any(_coordinate_sum(oracle, rel)), rel
    assert [oracle.class_of(arc) for arc in standard_basis_arcs(n)] == _unit_vectors(n)
    columns = [{index[arc]: c for arc, c in rel.items() if c} for rel in relations]
    assert cokernel_presentation(len(arcs), columns) == oracle.presentation


def _coordinate_sum(oracle, combination):
    """The coordinates of an integer combination of window arcs: the sum of theirs."""
    total = [0] * oracle.presentation.free_rank
    for arc, coef in combination.items():
        for i, v in enumerate(oracle.class_of(arc)):
            total[i] += coef * v
    return tuple(total)


def _unit_vectors(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


@pytest.mark.parametrize(
    "n,depth,window", [(1, 2, 6), (2, 2, 6), (3, 2, 6), (4, 2, 6), (5, 2, 5)]
)
def test_exchange_relations_hold_in_oracle(n, depth, window):
    # class-level bridge between the two routes: every exchange relation of
    # the standard tilting is zero in the oracle group, whose coordinates
    # are over the basis arcs (Y1, X2, ..., Xn, or Z1 for n = 1)
    tilting = build_standard_tilting(n, None, depth)
    o = euler_oracle(n, window)
    for source, terms in palu_relations(tilting).items():
        combo = {tilting.arcs[i]: c for i, c in terms.items()}
        assert not any(_coordinate_sum(o, combo)), source
    assert o.presentation == GroupPresentation(n)
    assert [o.class_of(arc) for arc in standard_basis_arcs(n)] == _unit_vectors(n)


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
            assert not any(_coordinate_sum(o, combo)), (seed, source)
        interior = [{i: 1} for i in relations]
        excess = cokernel_presentation(len(t.arcs), [*relations.values(), *interior]).free_rank
        assert cokernel_presentation(len(t.arcs), relations.values()) == GroupPresentation(
            n + excess
        ), seed


@pytest.mark.parametrize("n,window", [(2, 4), (3, 4), (4, 4), (5, 4)])
def test_oracle_window_stability(n, window):
    # every relation at window w is one at w + 1 and both oracles read
    # coordinates over the same basis arcs, so every window-w arc has the
    # same coordinates at w + 1; a truncation artefact at either window
    # shows here
    small, large = euler_oracle(n, window), euler_oracle(n, window + 1)
    assert small.presentation == large.presentation == GroupPresentation(n)
    for arc in small.arcs:
        assert small.class_of(arc) == large.class_of(arc), arc


@pytest.mark.parametrize(
    "replace,problem",
    [
        # X3 replaced by an arc of class 2[X3] - [X2] - [Y1]: index 2
        (A((2, -2), (2, 0)), "do not generate"),
        # X3 replaced by an arc of class 0
        (A((2, -2), (2, 1)), "satisfy a relation"),
    ],
)
def test_oracle_rejects_a_basis_that_is_not_one(replace, problem, monkeypatch, capsys):
    # every oracle checks that its basis arcs are a free basis of its group
    from arck0 import cli, k0

    y1, x2, _ = standard_basis_arcs(3)
    monkeypatch.setattr(k0, "standard_basis_arcs", lambda n: (y1, x2, replace))
    message = f"the basis arc classes {problem}"
    with pytest.raises(VerificationError, match=message):
        euler_oracle(3, 3)
    assert cli.main(["oracle", "--n", "3", "--window", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("n,depth,window", [(1, 4, 6), (2, 3, 6), (3, 3, 6), (4, 2, 5)])
def test_exchange_route_coordinates_match_oracle(n, depth, window):
    # the two routes agree arc by arc: the coordinates the exchange
    # relations give every tilting arc, frontier arcs included, are the
    # oracle's
    t = build_standard_tilting(n, None, depth)
    assert len(palu_relations(t)) < len(t.arcs)  # the frontier arcs have none
    report = compute_k0_cn(n, None, depth)
    o = euler_oracle(n, window)
    for arc in t.arcs:
        assert report.class_of(arc) == o.class_of(arc), arc


@pytest.mark.parametrize("n", range(1, 9))
def test_tilting_basis_is_the_standard_basis(n):
    # at the default anchors compute_k0_cn certifies the tilting's Y1, X2,
    # ..., Xn (Z1 for n = 1), which are the arcs of standard_basis_arcs(n)
    t = build_standard_tilting(n, None, 2)
    names = ["Z1"] if n == 1 else ["Y1", *(f"X{i}" for i in range(2, n + 1))]
    assert tuple(t.arcs[t.names[name]] for name in names) == standard_basis_arcs(n)
    report = compute_k0_cn(n, None, 2)
    assert report.basis == standard_basis_arcs(n)
    assert [report.class_of(arc) for arc in standard_basis_arcs(n)] == _unit_vectors(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_exchange_route_classes_are_closed_forms(n):
    # at default, uniform and random anchors the exchange route's class of
    # every tilting arc, read over the report's basis, is its closed form
    rng = random.Random(n)
    shapes = [(None, 2), ([-3] * n, 3), ([5] * n, 4), ([rng.randint(-9, 9) for _ in range(n)], 5)]
    for anchors, depth in shapes:
        report = compute_k0_cn(n, anchors, depth)
        assert verify_closed_form(report) is None
        basis = [arc_class(n, arc) for arc in report.basis]
        for arc in report.arcs:
            coords = report.class_of(arc)
            combined = tuple(sum(c * row[u] for c, row in zip(coords, basis)) for u in range(n))
            assert combined == arc_class(n, arc), (anchors, depth, arc)


def _drop_deepest(tilting, relations):
    del relations[max(relations)]


def _identify_y1_with_x2(tilting, relations):
    # one more relation, [Y1] - [X2], under a key that is no arc index
    relations[-1] = {tilting.names["Y1"]: 1, tilting.names["X2"]: -1}


@pytest.mark.parametrize(
    "change,problem",
    [(_drop_deepest, "do not generate"), (_identify_y1_with_x2, "satisfy a relation")],
)
def test_exchange_route_rejects_a_basis_that_is_not_one(change, problem, monkeypatch, capsys):
    # without the deepest relation the group is Z^4 for n = 3, which the
    # three basis arcs do not generate; with Y1 = X2 it is Z^2, in which
    # they satisfy a relation
    from arck0 import cli, k0

    relations = k0.palu_relations

    def changed_relations(tilting):
        terms = relations(tilting)
        change(tilting, terms)
        return terms

    monkeypatch.setattr(k0, "palu_relations", changed_relations)
    message = f"the basis arc classes {problem} in compute_k0_cn(3, None, 3)"
    with pytest.raises(VerificationError) as raised:
        compute_k0_cn(3, None, 3)
    assert str(raised.value) == message
    assert cli.main(["k0", "--n", "3", "--depth", "3"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_oracle_rejects_out_of_window_arc(oracle_c1_w6):
    with pytest.raises(ValueError) as raised:
        oracle_c1_w6.class_of(A((0, 0), (0, 40)))
    assert oracle_c1_w6.source == "euler_oracle(1, 6)"
    assert str(raised.value) == "arc [[0, 0], [0, 40]] has no class in euler_oracle(1, 6)"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_of_leaves_the_oracle_unchanged(n):
    # class_of reads the class euler_oracle stored for the arc: every answer
    # repeats the first, an arc outside the window raises every time, and
    # answering leaves the oracle equal to a fresh one
    o = euler_oracle(n, 4)
    first = [o.class_of(arc) for arc in o.arcs]
    assert [o.class_of(arc) for arc in o.arcs] == first
    for _ in range(2):
        with pytest.raises(ValueError) as raised:
            o.class_of(A((0, 0), (0, 40)))
        assert str(raised.value) == f"arc [[0, 0], [0, 40]] has no class in euler_oracle({n}, 4)"
    assert o == euler_oracle(n, 4)


def test_oracle_quotient_is_frozen(oracle_c1_w6):
    import dataclasses

    o = oracle_c1_w6
    before = o.class_of(A((0, 0), (0, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        o.source = "euler_oracle(1, 7)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        o.presentation = GroupPresentation(0)
    assert o.class_of(A((0, 0), (0, 2))) == before
    assert any(before)


def test_results_compare_by_value_and_do_not_hash():
    # both result types hold a dict of classes and a tilting holds dict
    # indexes, so none of them claims a hash
    for make in (
        lambda: compute_k0_cn(1, None, 2),
        lambda: euler_oracle(1, 2),
        lambda: build_standard_tilting(2, None, 2),
    ):
        result = make()
        assert result == make()
        assert not isinstance(result, Hashable)
        with pytest.raises(TypeError, match=f"^unhashable type: '{type(result).__name__}'$"):
            hash(result)


# ---------------------------------------------------------------------------
# the closed form of every arc's class


def test_arc_class_examples():
    # anchor segment: one interior point gives [Y1] + [X2]
    assert arc_class(4, A((0, -2), (0, 0))) == (1, 1, 0, 0)
    # even interior count vanishes
    assert arc_class(4, A((1, 0), (1, 3))) == (0, 0, 0, 0)
    # other segments: 2[Xi] - [Y1] - [X2]
    assert arc_class(4, A((2, -2), (2, 0))) == (-1, -1, 2, 0)
    # cross-segment arcs: the weights of the two endpoints add up
    assert arc_class(4, A((0, 0), (2, 0))) == (0, 0, 1, 0)  # X3
    assert arc_class(4, A((0, 0), (1, -1))) == (1, 0, 0, 0)  # Y1
    assert arc_class(4, A((1, 0), (3, 1))) == (0, 1, 0, -1)
    # n = 1: 2u_0 = -[Z1], so Z1 = (0, -1)-(0, 1) has class [Z1]
    assert arc_class(1, A((0, -1), (0, 1))) == (1,)
    assert arc_class(1, A((0, 0), (0, 2))) == (-1,)
    assert arc_class(1, A((0, 0), (0, 3))) == (0,)


def test_arc_class_sign_convention():
    # shifting by one marked point negates the class, on one segment or two
    for n, p, q in ((3, (2, -2), (2, 0)), (3, (0, 1), (2, -4)), (1, (0, -5), (0, -1))):
        base = arc_class(n, A(p, q))
        shifted = arc_class(n, A((p[0], p[1] - 1), (q[0], q[1] - 1)))
        assert any(base) and shifted == tuple(-v for v in base)


def test_arc_class_rejects_bad_input():
    # endpoints off the circle: a negative segment, and a segment >= n
    with pytest.raises(ValueError, match="segment -1 out of range"):
        arc_class(2, A((-1, 0), (-1, 2)))
    with pytest.raises(ValueError, match="segment 2 out of range"):
        arc_class(2, A((2, 0), (2, 2)))
    with pytest.raises(ValueError, match="segment 1 out of range"):
        arc_class(1, A((0, 0), (1, 0)))


ARC_CLASS_SIZES = [(1, 6), (2, 6), (3, 6), (4, 5), (5, 4), (6, 4), (7, 3), (8, 3)]


@pytest.mark.parametrize("n,window", ARC_CLASS_SIZES)
def test_arc_class_matches_oracle(n, window):
    # the closed form is the oracle's coordinates exactly, signs included,
    # on every window arc, same-segment and cross-segment
    o = euler_oracle(n, window)
    for arc in o.arcs:
        assert arc_class(n, arc) == o.class_of(arc), arc
    assert verify_closed_form(o) is None
    same_segment = [arc for arc in o.arcs if arc.a[0] == arc.b[0]]
    assert len(same_segment) == n * ((2 * window + 1) * window - 2 * window)
    assert n == 1 or len(o.arcs) > len(same_segment)


def _assert_same_segment_classes(o, n, window):
    same_segment = [arc for arc in o.arcs if arc.a[0] == arc.b[0]]
    assert len(same_segment) == n * ((2 * window + 1) * window - 2 * window)
    for arc in same_segment:
        assert o.class_of(arc) == arc_class(n, arc), arc


def test_class_same_segment_matches_oracle(oracle_c2_w6):
    _assert_same_segment_classes(oracle_c2_w6, 2, 6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_same_segment_matches_oracle_larger_n(n):
    _assert_same_segment_classes(euler_oracle(n, 4), n, 4)


def test_standard_basis_arcs():
    y1, x2, x3 = standard_basis_arcs(3)
    assert y1 == A((0, 0), (1, -1))
    assert x2 == A((0, 0), (1, 0))
    assert x3 == A((0, 0), (2, 0))
    # for n = 1 the basis is the tilting's arc Z1 around the anchor
    t = build_standard_tilting(1, None, 2)
    assert standard_basis_arcs(1) == (t.arcs[t.names["Z1"]],) == (A((0, -1), (0, 1)),)
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        standard_basis_arcs(0)
