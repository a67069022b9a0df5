import pytest

from arck0 import (
    Arc,
    GroupPresentation,
    VerificationError,
    arc_class,
    compute_k0_completed,
    f_matrix,
    kernel_generator_arc,
    standard_basis_arcs,
    verify_f_oracle,
)
from geometry_reference import ext1_dim


def P(s, o):
    return (s, o)


def A(p, q):
    return Arc(P(*p), P(*q))


def test_completion_model_layout():
    # the host has 2n segments and the kernel generators sit on alternating
    # host segments, no two of them cyclically adjacent
    arcs = verify_f_oracle(1, 2).arcs
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
    arcs0 = [A((0, a), (0, a + g)) for a in (-2, 0) for g in (2, 3)]
    arcs2 = [A((2, a), (2, a + g)) for a in (-2, 0) for g in (2, 3)]
    for x in arcs0:
        for y in arcs2:
            assert ext1_dim(4, x, y) == 0


def test_f_matrix_examples():
    assert f_matrix(1) == ((1, 1),)
    assert f_matrix(2) == ((1, 1, 0, 0), (-1, -1, 2, 0))
    for n in (1, 2, 3, 5):
        cols = f_matrix(n)
        assert len(cols) == n and all(len(col) == 2 * n for col in cols)
        assert sum(cols[0]) == 2
        for col in cols[1:]:
            assert sum(col) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_f_matrix_columns_are_closed_forms(n):
    # column i is the closed form of kernel generator i on the 2n-segment
    # host: 2u_0 = [Y1] + [X2] for i = 1, 2u_(2i-2) = 2[X(2i-1)] - [Y1] - [X2]
    columns = f_matrix(n)
    assert columns == tuple(arc_class(2 * n, kernel_generator_arc(n, i)) for i in range(1, n + 1))
    for i, col in enumerate(columns[1:], 2):
        assert col == tuple(-1 if t < 2 else 2 * (t == 2 * i - 2) for t in range(2 * n))


def test_f_columns_are_oracle_kernel_generator_classes():
    # each column is, exactly, the oracle coordinates of its kernel generator
    # over the host basis arcs Y1, X2, ..., X2n
    for n, window in ((1, 6), (2, 6), (1, 4), (2, 4), (3, 4), (4, 4), (5, 4)):
        o = verify_f_oracle(n, window)
        coordinates = [o.class_of(kernel_generator_arc(n, i)) for i in range(1, n + 1)]
        assert coordinates == list(f_matrix(n)), (n, window)
        assert [o.class_of(arc) for arc in standard_basis_arcs(2 * n)] == [
            tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n)
        ]


def test_verify_f_oracle_rejects_a_wrong_f_matrix(monkeypatch):
    # a column off by its sign presents the same group, so only the exact
    # comparison of coordinates catches it
    from arck0 import completion

    f_matrix = completion.f_matrix

    def negated_first_column(n):
        first, *rest = f_matrix(n)
        return (tuple(-v for v in first), *rest)

    monkeypatch.setattr(completion, "f_matrix", negated_first_column)
    assert compute_k0_completed(2) == GroupPresentation(2, (2,))
    with pytest.raises(VerificationError, match="differ from f_matrix"):
        verify_f_oracle(2, 4)


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


def test_explicit_basis_of_the_completion():
    # psi: Z^2n -> Z^n x (Z/2)^(n-1) on the host basis (Y1, X2, ..., X2n):
    # Y1 -> -e1, X(2k) (index 2k-1) -> e_k, X(2k+1) (index 2k) -> t_k with
    # 2t_k = 0.  It is onto (each e_k and t_k is the image of one basis arc)
    # and kills every column of f_matrix(n), so it maps the cokernel onto
    # the target; the group has the target's shape, so, a finitely
    # generated abelian group being Hopfian, psi is an isomorphism and
    # names a basis of the completed group at every n
    def psi(column):
        n = len(column) // 2
        free = [-column[0]] + [0] * (n - 1)
        torsion = [0] * (n - 1)
        for j, v in enumerate(column[1:], 1):
            if j % 2:
                free[j // 2] += v
            else:
                torsion[j // 2 - 1] = (torsion[j // 2 - 1] + v) % 2
        return free + torsion

    for n in range(1, 61):
        images = [psi(tuple(int(i == j) for j in range(2 * n))) for i in range(2 * n)]
        units = [[int(i == j) for j in range(2 * n - 1)] for i in range(2 * n - 1)]
        assert all(u in images for u in units), n
        assert all(not any(psi(column)) for column in f_matrix(n)), n
        assert compute_k0_completed(n) == GroupPresentation(n, (2,) * (n - 1)), n


def test_compute_k0_completed_rejects_bad_n():
    with pytest.raises(ValueError):
        compute_k0_completed(0)


def test_f_matrix_holds_the_completed_cap(monkeypatch):
    # compute_k0_completed builds its matrix through f_matrix alone, so both
    # stop past n = 1000 with one message, before any column is built
    from arck0 import completion

    def no_column(n, i):
        raise AssertionError(f"column {i} built for n={n}")

    monkeypatch.setattr(completion, "kernel_generator_arc", no_column)
    message = "^n=1001 gives 2004002 matrix entries, more than 2000000$"
    for call in (f_matrix, compute_k0_completed):
        with pytest.raises(ValueError, match=message):
            call(1001)


@pytest.mark.parametrize("n,window", [(1, 6), (2, 6), (3, 4), (4, 4)])
def test_verify_f_oracle(n, window):
    # the host oracle comes back: n = 4 runs it on the 8-segment host
    oracle = verify_f_oracle(n, window)
    assert oracle.source == f"euler_oracle({2 * n}, {window})"
    assert oracle.presentation == GroupPresentation(2 * n)
    assert compute_k0_completed(n) == GroupPresentation(n, (2,) * (n - 1))


def test_verify_generators_nonzero_in_oracle():
    from arck0 import euler_oracle

    for n in (1, 2):
        oracle = euler_oracle(2 * n, 4)
        for i in range(1, n + 1):
            assert any(oracle.class_of(kernel_generator_arc(n, i)))


def test_verify_rejects_small_window():
    with pytest.raises(ValueError, match="^need window >= 2, got 1$"):
        verify_f_oracle(1, 1)


def test_completed_cokernel_invariant_under_column_changes():
    from arck0 import cokernel_presentation

    for n in (2, 3, 4):
        base = compute_k0_completed(n)
        cols = [list(c) for c in f_matrix(n)]
        cols[0] = [-v for v in cols[0]]
        cols.reverse()
        assert cokernel_presentation(2 * n, cols) == base


@pytest.mark.parametrize(
    "n, window",
    [pytest.param(n, w, id=str(n)) for n, w in ((1, 4), (2, 4), (3, 4), (4, 4), (5, 3), (6, 3))],
)
def test_even_same_segment_classes_span_the_completion_kernel(n, window):
    # the kernel is spanned by the classes of all same-segment arcs on the
    # even host segments, not only by the n generators f_matrix holds; the
    # window shrinks to 3 for the 10- and 12-segment hosts, whose oracles grow fast
    from arck0 import cokernel_presentation, euler_oracle

    oracle = euler_oracle(2 * n, window)
    even = [arc for arc in oracle.arcs if arc.a[0] % 2 == 0 and arc.b[0] % 2 == 0]
    same = [oracle.class_of(arc) for arc in even if arc.a[0] == arc.b[0]]
    assert cokernel_presentation(2 * n, same) == compute_k0_completed(n)
    if n >= 2:
        # negative control: the even-to-even cross-segment arcs kill the torsion
        cross = [oracle.class_of(arc) for arc in even if arc.a[0] != arc.b[0]]
        assert cross
        assert cokernel_presentation(2 * n, same + cross) == GroupPresentation(n)
