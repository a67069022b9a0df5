import pytest

from arck0 import (
    Arc,
    CircleModel,
    GroupPresentation,
    MarkedPoint,
    compute_k0_completed,
    f_matrix,
    kernel_generator_arc,
    standard_basis_arcs,
    verify_f_oracle,
)
from arck0.k0 import InsufficientWindowError
from geometry_reference import ext1_dim


def P(s, o):
    return MarkedPoint(s, o)


def A(p, q):
    return Arc(P(*p), P(*q))


def test_completion_model_layout():
    # the host has 2n segments and the kernel generators sit on alternating
    # host segments, no two of them cyclically adjacent
    arcs = verify_f_oracle(1, 2).quotient.arcs
    assert {s for arc in arcs for s in (arc.a[0], arc.b[0])} == {0, 1}
    n = 3
    segments = {kernel_generator_arc(n, i).a[0] for i in range(1, n + 1)}
    assert len(segments) == n
    for s in segments:
        assert (s + 1) % (2 * n) not in segments
        assert (s - 1) % (2 * n) not in segments


def test_completion_model_validation():
    with pytest.raises(ValueError, match="need n >= 1"):
        verify_f_oracle(0, 4)
    with pytest.raises(ValueError):
        kernel_generator_arc(0, 1)


def test_kernel_generator_arc():
    assert kernel_generator_arc(1, 1) == A((0, -2), (0, 0))
    for i in (1, 2, 3):
        g = kernel_generator_arc(3, i)
        # one interior point, on the even host segment of the i-th copy
        assert g.b[1] - g.a[1] - 1 == 1
        assert g.a[0] == g.b[0] == 2 * (i - 1)
    with pytest.raises(ValueError):
        kernel_generator_arc(3, 4)
    with pytest.raises(ValueError):
        kernel_generator_arc(3, 0)


def test_kernel_segments_never_cross():
    host = CircleModel(4)
    arcs0 = [A((0, a), (0, a + g)) for a in (-2, 0) for g in (2, 3)]
    arcs2 = [A((2, a), (2, a + g)) for a in (-2, 0) for g in (2, 3)]
    for x in arcs0:
        for y in arcs2:
            assert ext1_dim(host, x, y) == 0


def test_f_matrix_examples():
    assert f_matrix(1) == ((1, 1),)
    assert f_matrix(2) == ((1, 1, 0, 0), (-1, -1, 2, 0))
    for n in (1, 2, 3, 5):
        cols = f_matrix(n)
        assert len(cols) == n and all(len(col) == 2 * n for col in cols)
        assert sum(cols[0]) == 2
        for col in cols[1:]:
            assert sum(col) == 0


def test_f_columns_are_oracle_kernel_generator_classes():
    # each column, expanded over the host basis arcs Y1, X2, ..., X2n, is the
    # oracle class of its kernel generator: the difference reduces to zero
    for n, window in ((1, 6), (2, 6), (3, 4), (4, 4)):
        o = verify_f_oracle(n, window).quotient
        basis = standard_basis_arcs(2 * n)
        for i, column in enumerate(f_matrix(n), start=1):
            combo = {kernel_generator_arc(n, i): 1}
            for arc, c in zip(basis, column):
                combo[arc] = combo.get(arc, 0) - c
            assert o.reduce(combo) == o.zero_class, (n, window, i)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, GroupPresentation(1)),
        (2, GroupPresentation(2, (2,))),
        (4, GroupPresentation(4, (2, 2, 2))),
    ],
)
def test_compute_k0_completed_examples(n, expected):
    assert compute_k0_completed(n) == expected


def test_compute_k0_completed_torsion_count():
    for n in range(1, 7):
        pres = compute_k0_completed(n)
        assert pres.free_rank == n
        assert pres.invariant_factors == (2,) * (n - 1)


def test_compute_k0_completed_rejects_bad_n():
    with pytest.raises(ValueError):
        compute_k0_completed(0)


def test_compute_k0_completed_size_cap(monkeypatch):
    from arck0 import completion

    monkeypatch.setattr(completion, "_MAX_COMPLETED_ENTRIES", 18)
    assert compute_k0_completed(3) == GroupPresentation(3, (2, 2))
    with pytest.raises(ValueError, match="n=4 gives a 8 x 4 matrix, more than 18 entries"):
        compute_k0_completed(4)


def test_verify_f_oracle_n1():
    report = verify_f_oracle(1, 6)
    assert report.expected == report.oracle == GroupPresentation(1)


def test_verify_f_oracle_n2():
    report = verify_f_oracle(2, 6)
    assert report.expected == report.oracle == GroupPresentation(2, (2,))


@pytest.mark.parametrize("n", [3, 4])
def test_verify_f_oracle_window4(n):
    # n = 4 runs the oracle on the 8-segment host
    report = verify_f_oracle(n, 4)
    assert report.expected == report.oracle == GroupPresentation(n, (2,) * (n - 1))


def test_verify_generators_nonzero_in_oracle():
    from arck0 import euler_oracle

    for n in (1, 2):
        oracle = euler_oracle(2 * n, 4)
        for i in range(1, n + 1):
            assert oracle.class_of(kernel_generator_arc(n, i)) != oracle.zero_class


def test_verify_rejects_small_window():
    with pytest.raises(InsufficientWindowError):
        verify_f_oracle(1, 1)


def test_completed_cokernel_invariant_under_column_changes():
    from arck0 import cokernel_presentation

    for n in (2, 3, 4):
        base = compute_k0_completed(n)
        cols = [list(c) for c in f_matrix(n)]
        cols[0] = [-v for v in cols[0]]
        cols.reverse()
        assert cokernel_presentation(2 * n, cols) == base
