import argparse
import errno
import itertools
import json
import os
import subprocess
import sys

import pytest

from arck0.cli import main


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_k0_json(capsys):
    code, out, _ = run(capsys, ["k0", "--n", "3", "--depth", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 3, "invariant_factors": []}


def test_k0_completed_json(capsys):
    code, out, _ = run(capsys, ["k0-completed", "--n", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 2, "invariant_factors": [2]}


def test_k0_rejects_n_zero(capsys):
    code, _, err = run(capsys, ["k0", "--n", "0"])
    assert code == 2
    assert "error" in err


BAD_N = [["k0"], ["k0-completed"], ["oracle"], ["exchange", "--arc", "Z1"], ["verify"]]
# (subcommand and its other arguments, size flag, value, least allowed value)
SMALL_SIZES = [
    (["oracle"], "window", "1", 2),
    (["verify"], "window", "1", 2),
    (["k0"], "depth", "1", 2),
    (["exchange", "--arc", "Z1"], "depth", "0", 1),
]


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param([*cmd, "--n", n], f"need n >= 1, got {n}", id=f"{cmd[0]}-n{n}")
        for cmd in BAD_N
        for n in ("0", "-100000")
    ]
    + [
        pytest.param(
            [*cmd, "--n", "2", f"--{flag}", value],
            f"need {flag} >= {least}, got {value}",
            id=f"{cmd[0]}-{flag}{value}",
        )
        for cmd, flag, value, least in SMALL_SIZES
    ],
)
def test_library_rejects_bad_sizes(capsys, argv, message):
    # the CLI passes --n, --window and --depth through; the library owns the size rules
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        # a sign alone is no int
        (["k0", "--n", "+"], "argument --n: invalid int value: '+'"),
        # int() reads each of these; an int option is a sign and ASCII digits
        (["k0", "--n", "1_0"], "argument --n: invalid int value: '1_0'"),
        (["verify", "--n", "\u0663"], "argument --n: invalid int value: '\u0663'"),
        (["k0", "--n", "3", "--depth", " 2"], "argument --depth: invalid int value: ' 2'"),
        (["oracle", "--n", "1", "--window", "4 "], "argument --window: invalid int value: '4 '"),
        (["exchange", "--n", "1", "--arc", "Z1", "--depth", "\uff12"], "argument --depth: invalid int value: '\uff12'"),
        (["k0", "--n", "2", "--anchors=1_0,\u0663"], "bad anchor list '1_0,\u0663'"),
        (["k0", "--n", "2", "--anchors", "1, 2"], "bad anchor list '1, 2'"),
    ],
)
def test_int_options_take_a_sign_and_ascii_digits_only(capsys, argv, message):
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def test_int_options_take_a_sign(capsys):
    signed = run(capsys, ["k0", "--n", "+2", "--depth", "+3", "--anchors=-1,+2"])
    assert signed == run(capsys, ["k0", "--n", "2", "--depth", "3", "--anchors=-1,2"])
    assert signed[0] == 0


def test_unknown_subcommand_exits_2(capsys):
    # argparse words this message, and Python 3.13.13 stopped quoting the
    # choices: the expected line comes from a plain parser with the same
    # subcommands on the running Python
    plain = argparse.ArgumentParser(exit_on_error=False)
    sub = plain.add_subparsers(dest="command", required=True)
    for name in ("k0", "k0-completed", "oracle", "exchange", "verify"):
        sub.add_parser(name)
    with pytest.raises(argparse.ArgumentError) as raised:
        plain.parse_args(["frobnicate"])
    assert str(raised.value).startswith("argument command: invalid choice: 'frobnicate' (choose")
    code = main(["frobnicate"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {raised.value}\n")


def test_render_cli(capsys):
    # there is no render subcommand: it fails as any unknown one does
    code = main(["render", "--n", "1"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith("error: argument command: invalid choice: 'render' (choose")
    assert out.err.count("\n") == 1 and out.err.endswith("\n")


def test_unknown_flag_exits_2(capsys):
    code = main(["k0", "--n", "2", "--frobnicate"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: unrecognized arguments: --frobnicate\n")


def test_oracle_json(capsys):
    code, out, _ = run(capsys, ["oracle", "--n", "2", "--window", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"free_rank": 2, "invariant_factors": []}


def test_exchange_by_name(capsys):
    code, out, _ = run(
        capsys, ["exchange", "--n", "3", "--depth", "3", "--arc", "Z1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["m"] == [[0, 0], [1, 0]]
    assert data["m_star"] == [[1, -1], [2, 0]]
    assert sorted(data["b_m"]) == [[[0, 0], [1, -1]], [[1, 0], [2, 0]]]
    assert data["b_m_star"] == [[[0, 0], [2, 0]]]


def test_exchange_text_output(capsys):
    code, out, _ = run(capsys, ["exchange", "--n", "3", "--arc", "Z1"])
    assert code == 0
    assert out.splitlines() == [
        "m      = [[0, 0], [1, 0]]",
        "m*     = [[1, -1], [2, 0]]",
        "B_m    = [[[0, 0], [1, -1]], [[1, 0], [2, 0]]]",
        "B_m*   = [[[0, 0], [2, 0]]]",
    ]


def test_exchange_unknown_arc(capsys):
    code, _, err = run(capsys, ["exchange", "--n", "3", "--depth", "3", "--arc", "Q7"])
    assert code == 2 and "error" in err
    # --arc takes a label only: JSON endpoints, here of an arc outside the
    # tilting, are quoted as given
    code, _, err = run(capsys, ["exchange", "--n", "2", "--arc", "[[0,0],[0,2]]"])
    assert code == 2 and err == "error: unknown arc '[[0,0],[0,2]]'"


def test_exchange_frontier_is_bad_input(capsys):
    # the arc is named in its JSON form
    for depth, anchors, arc in ((2, "0", "[[0, -3], [0, 3]]"), (12, "5", "[[0, -8], [0, 18]]")):
        argv = ["exchange", "--n", "1", "--depth", str(depth), "--anchors", anchors]
        code, out, err = run(capsys, [*argv, "--arc", f"L1[{2 * depth}]"])
        assert (code, out) == (2, "")
        assert err == f"error: insufficient depth: arc {arc} has only 1 flanking triangle(s)"


BASIS = "free basis Y1, X2..Xn (Z1 for n = 1) modulo exchange relations"


VERIFY_LINES = [
    "PASS  host oracle coordinates of the kernel generators equal f_matrix",
    "PASS  closed form equals host oracle coordinates on every window arc",
    "PASS  exchange-route classes equal the closed form at depths 2, 3, 4 "
    "and anchor offsets -3 and 5",
]


def test_verify_passes(capsys):
    # the contract the benchmark checks, at its sizes: exactly six lines,
    # each a PASS; n = 3 runs the closed form's weights of segments s >= 2
    # through the fan diagonal X3 of line 6
    for (n, free, completed), window in [
        *itertools.product(((1, "Z", "Z"), (2, "Z^2", "Z^2 x Z/2")), (4, 5, 6)),
        ((3, "Z^3", "Z^3 x Z/2 x Z/2"), 4),
    ]:
        code, out, err = run(capsys, ["verify", "--n", str(n), "--window", str(window)])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"PASS  {BASIS} at depths 2, 3, 4 ({free})",
            f"PASS  {BASIS} at anchor offsets -3 and 5",
            f"PASS  completion shape Z^n x (Z/2)^(n-1) ({completed})",
            *VERIFY_LINES,
        ]


def assert_verify_fails(capsys, argv, message):
    # a failed check is one error: line on stderr and nothing on stdout
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


def doctored_oracle(monkeypatch, arc, cls):
    """Make the host oracle give ``arc`` the class ``cls`` (as {basis index: coefficient})."""
    import dataclasses

    from arck0 import completion

    host_oracle = completion.euler_oracle

    def doctored(n, window):
        oracle = host_oracle(n, window)
        assert arc in oracle._classes and cls != oracle._classes[arc]
        return dataclasses.replace(oracle, _classes={**oracle._classes, arc: cls})

    monkeypatch.setattr(completion, "euler_oracle", doctored)


def assert_line_5_fails(capsys, monkeypatch, n, arc, cls, message):
    from arck0 import VerificationError, verify_f_oracle

    doctored_oracle(monkeypatch, arc, cls)
    with pytest.raises(VerificationError) as raised:
        verify_f_oracle(n, 4)
    assert str(raised.value) == message
    assert_verify_fails(capsys, ["verify", "--n", str(n), "--window", "4"], message)


def test_verify_wrong_same_segment_class_exits_1(capsys, monkeypatch):
    # (1, -1)-(1, 1) is no kernel generator, so only line 5 reads it
    from arck0 import Arc

    arc = Arc((1, -1), (1, 1))
    message = (
        "class (5, 0) of arc [[1, -1], [1, 1]] is not its closed form (1, -1) "
        "in euler_oracle(2, 4)"
    )
    assert_line_5_fails(capsys, monkeypatch, 1, arc, {0: 5}, message)


def test_verify_wrong_cross_segment_class_exits_1(capsys, monkeypatch):
    # line 5 reads every window arc, cross-segment ones too.  The doctored
    # arc is the first with its endpoints' segments and offset parities, so
    # it is compared with the closed form itself; the same-segment arc
    # above is compared with the first arc of its key
    from arck0 import Arc

    arc = Arc((1, -4), (3, -3))
    message = (
        "class (0, 0, 0, 0) of arc [[1, -4], [3, -3]] is not its closed form (0, 1, 0, -1) "
        "in euler_oracle(4, 4)"
    )
    assert_line_5_fails(capsys, monkeypatch, 2, arc, {}, message)


def flank_sign_mutant(monkeypatch):
    """Negate the +{v3,v0} term of every exchange relation that ``tilting._flank`` reads off."""
    from arck0 import tilting

    flank = tilting._flank

    def mutant(t, i):
        thirds, terms = flank(t, i)
        if len(thirds) == 2:
            j = t._neighbours[t.arcs[i].a].get(thirds[1])
            if j is not None:
                terms[j] = -terms[j]
        return thirds, terms

    monkeypatch.setattr(tilting, "_flank", mutant)


@pytest.mark.parametrize(
    "n,message",
    [
        (1, "class (1,) of arc [[0, -2], [0, 2]] is not its closed form (-1,) "
            "in compute_k0_cn(1, None, 2)"),
        (2, "class (0, 1) of arc [[0, 1], [1, -1]] is not its closed form (0, -1) "
            "in compute_k0_cn(2, None, 2)"),
    ],
    ids=["n1", "n2"],
)
def test_verify_wrong_exchange_relation_exits_1(capsys, monkeypatch, n, message):
    # a sign error in one term of the exchange relations still gives Z^n
    # with a free basis, but not the closed form's classes: line 6 fails on
    # every shape it checks
    from arck0 import VerificationError, compute_k0_cn, verify_closed_form

    flank_sign_mutant(monkeypatch)
    for anchors, depth in [(None, 2), (None, 3), (None, 4), ([-3] * n, 3), ([5] * n, 3)]:
        report = compute_k0_cn(n, anchors, depth)
        assert report.presentation.free_rank == n
        with pytest.raises(VerificationError, match="is not its closed form"):
            verify_closed_form(report)
    assert_verify_fails(capsys, ["verify", "--n", str(n), "--window", "4"], message)


@pytest.mark.parametrize("route", ["oracle", "exchange"])
def test_verify_basis_that_is_not_unimodular_exits_1(capsys, monkeypatch, route):
    # a host oracle (line 5) or report (line 6) whose basis has closed forms
    # of determinant 0 (X2 twice) fails before any class is compared
    import dataclasses

    from arck0 import VerificationError, cli, completion, k0, verify_closed_form, verify_f_oracle

    # the CLI calls compute_k0_cn by its own name, so both modules are patched
    modules, name, check, where = {
        "oracle": (
            [completion], "euler_oracle", lambda: verify_f_oracle(2, 4), "euler_oracle(4, 4)",
        ),
        "exchange": (
            [k0, cli], "compute_k0_cn",
            lambda: verify_closed_form(k0.compute_k0_cn(2, None, 2)), "compute_k0_cn(2, None, 2)",
        ),
    }[route]
    build = getattr(modules[0], name)

    def doubled_x2(*args):
        result = build(*args)
        return dataclasses.replace(result, basis=(result.basis[1], *result.basis[1:]))

    for module in modules:
        monkeypatch.setattr(module, name, doubled_x2)
    message = f"closed forms of the basis arcs are not unimodular in {where}"
    with pytest.raises(VerificationError) as raised:
        check()
    assert str(raised.value) == message
    assert_verify_fails(capsys, ["verify", "--n", "2", "--window", "4"], message)


def test_verify_wrong_completion_exits_1(capsys, monkeypatch):
    # the completion without its torsion is Z^2: the shape check fails
    from arck0 import GroupPresentation, VerificationError, cli

    monkeypatch.setattr(cli, "compute_k0_completed", lambda n: GroupPresentation(n))
    message = "completion shape Z^n x (Z/2)^(n-1) fails: K0 of the completion for n=2 is Z^2"
    argv = ["verify", "--n", "2", "--window", "4"]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(VerificationError) as raised:
        args.func(args)
    assert str(raised.value) == message
    assert_verify_fails(capsys, argv, message)


def test_crossing_tilting_exits_1(capsys, monkeypatch):
    # a tilting with a crossing arc is an internal fault: the non-crossing
    # check raises VerificationError, not a traceback
    from arck0 import Arc, tilting

    built = tilting.StandardTilting

    def with_crossing_arc(n, arcs, names, leapfrogs):
        # (0, 1)-(2, 0) crosses the polygon edge Z1 = (0, 0)-(1, 0)
        crossing = Arc((0, 1), (2, 0))
        return built(n, (*arcs, crossing), names, leapfrogs)

    monkeypatch.setattr(tilting, "StandardTilting", with_crossing_arc)
    code = main(["k0", "--n", "3", "--depth", "3"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        1,
        "",
        "error: crossing arcs in tilting set: [[0, 0], [1, -1]] x [[0, 1], [2, 0]]\n",
    )


def test_verify_wrong_f_matrix_exits_1(capsys, monkeypatch):
    # the host oracle check raises, so verify prints no PASS line
    from arck0 import completion

    f_matrix = completion.f_matrix

    def negated_first_column(n):
        first, *rest = f_matrix(n)
        return (tuple(-v for v in first), *rest)

    monkeypatch.setattr(completion, "f_matrix", negated_first_column)
    code = main(["verify", "--n", "2", "--window", "4"])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == (
        "error: oracle coordinates of the kernel generators differ from f_matrix(2): "
        "((1, 1, 0, 0), (-1, -1, 2, 0))\n"
    )


def test_verification_error_exits_1(capsys, monkeypatch):
    # without the deepest exchange relation the truncated relations present
    # Z^4 for n = 3, which the three basis arcs do not generate, so
    # compute_k0_cn must raise rather than report
    from arck0 import k0
    from arck0.k0 import VerificationError

    relations = k0.palu_relations

    def drop_deepest(tilting):
        terms = relations(tilting)
        del terms[max(terms)]
        return terms

    monkeypatch.setattr(k0, "palu_relations", drop_deepest)
    message = "the basis arc classes do not generate in compute_k0_cn(3, None, 3)"
    with pytest.raises(VerificationError) as raised:
        k0.compute_k0_cn(3, None, 3)
    assert str(raised.value) == message
    code, out, err = run(capsys, ["k0", "--n", "3", "--depth", "3"])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}"


def test_smith_round_cap_exits_1(capsys, monkeypatch):
    from arck0 import k0, snf

    assert k0.VerificationError is snf.VerificationError
    # an echelon step that never reaches a diagonal runs into the round cap;
    # the completion is the pipeline that runs the Smith loop
    monkeypatch.setattr(snf, "_echelon_columns", lambda columns: {0: {0: 2, 1: 1}})
    code, out, err = run(capsys, ["k0-completed", "--n", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: Smith reduction did not converge in 256 rounds"


def test_anchors_starting_with_a_minus_need_the_equals_form(capsys):
    # argparse reads "--anchors -3,0,5" as a missing value, as the help says
    code, out, _ = run(capsys, ["k0", "--n", "3", "--anchors=-3,0,5"])
    assert (code, out.splitlines()[0]) == (0, "K0 for n=3, depth=4: Z^3")
    code, out, err = run(capsys, ["k0", "--n", "3", "--anchors", "-3,0,5"])
    assert (code, out, err) == (2, "", "error: argument --anchors: expected one argument")


def test_bad_anchor_count(capsys):
    code, out, err = run(capsys, ["k0", "--n", "2", "--anchors", "1,2,3"])
    assert (code, out, err) == (2, "", "error: expected 2 anchor offsets, got 3")
    code, out, err = run(capsys, ["exchange", "--n", "2", "--arc", "Z1", "--anchors", "1"])
    assert (code, out, err) == (2, "", "error: expected 2 anchor offsets, got 1")


@pytest.mark.parametrize("command", ["verify"])
def test_format_only_where_the_handler_reads_it(capsys, command):
    # verify always prints its PASS lines
    code = main([command, "--n", "1", "--format", "json"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: unrecognized arguments: --format json\n")


def test_out_is_no_option(tmp_path, capsys):
    # stdout is the one output; the shell's > writes it to a file
    target = tmp_path / "x"
    code = main(["k0", "--n", "1", "--out", str(target)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: unrecognized arguments: --out {target}\n")
    assert not target.exists()


def test_stdout_closed_before_the_write_is_bad_input():
    # no traceback and no "Exception ignored" at exit: one error: line, exit 2
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "arck0.cli", "verify", "--n", "1", "--window", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: Broken pipe\n")


class _FullStdout:
    """A stdout without a file descriptor whose every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_failed_write_to_a_replaced_stdout_is_bad_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(["verify", "--n", "1", "--window", "4"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: cannot write stdout: No space left on device\n")


# --arc arguments that no label of the 3-segment tilting spells; exchange
# names each as unknown
BAD_ARCS = [
    "[5]",
    "5",
    "7",
    "{}",
    "[[0,0]]",
    "[[0,0],[1,0],[2,0]]",
    '{"a":1}',
    '{"ab": 1, "cd": 2}',
    '[[["a",0],[0,2]]]',
    "[[0],[1,0]]",
    '["ab", "cd"]',
    '[["a",0],[0,2]]',
    '[["a",0],["b",1]]',
    "[[true,0],[1,0]]",
    "[[0,0],[0,1.0]]",
    "[[0,0.5],[1,0]]",
    "[[5,0],[0,3]]",
    "[[0,0],[5,1]]",
    "[[0,0],[0,1]]",
    "nope",
    "",
    "[" * 100000 + "]" * 100000,
    # JSON endpoints are no label, not even of an arc the tilting holds (Z1)
    "[[0,0],[1,0]]",
]


def _arc_id(arc):
    return "empty" if not arc else "too-deep" if len(arc) > 200 else arc


@pytest.mark.parametrize("arc", [pytest.param(arc, id=_arc_id(arc)) for arc in BAD_ARCS])
def test_exchange_malformed_arc_is_unknown(capsys, arc):
    code, out, err = run(capsys, ["exchange", "--n", "3", "--arc", arc])
    assert code == 2
    assert out == ""
    if len(arc) > 200:
        # a long argument is cut, with the rest of the line, after 200 characters
        assert err == "error: unknown arc '" + "[" * 187 + "..."
    else:
        assert err == f"error: unknown arc {arc!r}"


DEEP = "n=1, depth=100000000 gives 200000001 tilting arcs, more than 110000"


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["k0", "--n", "1", "--depth", "100000000"], DEEP, id="k0-depth"),
        pytest.param(
            ["exchange", "--n", "1", "--depth", "100000000", "--arc", "Z1"], DEEP, id="exchange"
        ),
        pytest.param(
            ["k0", "--n", "100000000"],
            "n=100000000, depth=4 gives 999999997 tilting arcs, more than 110000",
            id="k0-n",
        ),
        pytest.param(
            ["oracle", "--n", "1", "--window", "100000"],
            "n=1, window=100000 gives 19999900000 window arcs, more than 34000",
            id="oracle-window",
        ),
        pytest.param(
            ["k0-completed", "--n", "100000"],
            "n=100000 gives 20000000000 matrix entries, more than 2000000",
            id="k0-completed-n",
        ),
        pytest.param(
            ["verify", "--n", "30", "--window", "2"],
            "n=30, window=2: its 60-segment host gives 44610 window arcs, more than 34000",
            id="verify-n",
        ),
    ],
)
def test_oversized_input_is_rejected_up_front(argv, message):
    # in a subprocess with a timeout: without the caps these run for hours or
    # run out of memory
    proc = subprocess.run(
        [sys.executable, "-m", "arck0.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


LONG = "x" * 100000


def _cut(prefix):
    """A message of ``prefix`` and then ``LONG``, as cut after 200 characters."""
    return prefix + "x" * (200 - len(prefix)) + "..."


@pytest.mark.parametrize(
    "argv,message",
    [
        (["k0", "--n", "2", "--anchors", LONG], _cut("bad anchor list '")),
        # a message of 201 to 2,000 characters is cut too
        (["k0", "--n", "2", "--anchors", "x" * 500], _cut("bad anchor list '")),
        (
            ["exchange", "--n", "2", "--arc", json.dumps({"a": LONG})],
            _cut("unknown arc '{\"a\": \""),
        ),
        (
            ["exchange", "--n", "2", "--arc", json.dumps([[0, LONG], [1, 0]])],
            _cut("unknown arc '[[0, \""),
        ),
        # exchange quotes a multi-line --arc, so its error is one line
        (["exchange", "--n", "2", "--arc", "{\n}"], "unknown arc '{\\n}'"),
        # a newline in the message, here in an argument argparse does not
        # read and joins unquoted, becomes a space
        (["k0", "--n", "2", "a\nb"], "unrecognized arguments: a b"),
        # the parser's own errors take the same path
        (["k0", "--n", LONG], _cut("argument --n: invalid int value: '")),
    ],
    ids=[
        "long-anchors",
        "mid-anchors",
        "long-arcs-object",
        "long-coordinate",
        "multi-line-arcs",
        "multi-line-unrecognized",
        "long-bad-n",
    ],
)
def test_error_is_one_short_line(capsys, argv, message):
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def test_main_reuses_parser_across_calls(capsys):
    from arck0 import cli

    calls = [
        ["k0", "--n", "3", "--depth", "3"],
        ["verify", "--n", "1", "--window", "4"],
        ["k0", "--n", "0"],
        ["k0", "--n", "x"],
        ["k0", "--n", "3", "--depth", "3"],
    ]

    def call(args):
        code = main(args)
        out = capsys.readouterr()
        return code, out.out, out.err

    separate = []
    for args in calls:
        cli._parser.cache_clear()
        separate.append(call(args))
    cli._parser.cache_clear()
    together = [call(args) for args in calls]
    assert cli._parser.cache_info().misses == 1
    assert together == separate
    assert [code for code, _, _ in together] == [0, 0, 2, 2, 0]
