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


BAD_N = [["k0"], ["k0-completed"], ["oracle"], ["exchange", "--arc", "Z1"], ["verify"], ["render"]]
# (subcommand and its other arguments, size flag, value, least allowed value)
SMALL_SIZES = [
    (["oracle"], "window", "1", 2),
    (["verify"], "window", "1", 2),
    (["render"], "window", "0", 1),
    (["k0"], "depth", "1", 2),
    (["exchange", "--arc", "Z1"], "depth", "0", 1),
    (["render"], "depth", "0", 1),
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


def test_unknown_subcommand_exits_2(capsys):
    code = main(["frobnicate"])
    out = capsys.readouterr()
    choices = "'k0', 'k0-completed', 'oracle', 'exchange', 'verify', 'render'"
    assert (code, out.out, out.err) == (
        2,
        "",
        f"error: argument command: invalid choice: 'frobnicate' (choose from {choices})\n",
    )


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


def test_exchange_by_json_arc(capsys):
    code, out, _ = run(
        capsys,
        ["exchange", "--n", "1", "--depth", "3", "--arc", "[[0,-1],[0,1]]", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["m_star"] == [[0, -2], [0, 0]]


def test_exchange_unknown_arc(capsys):
    code, _, err = run(capsys, ["exchange", "--n", "3", "--depth", "3", "--arc", "Q7"])
    assert code == 2 and "error" in err
    # a valid arc outside the tilting is named as such
    code, _, err = run(capsys, ["exchange", "--n", "2", "--arc", "[[0,0],[0,2]]"])
    assert code == 2 and err == "error: arc '[[0,0],[0,2]]' is not in the tilting set"


def test_exchange_frontier_is_bad_input(capsys):
    # the arc is named in its JSON form, as --arc reads it
    for depth, anchors, arc in ((2, "0", "[[0, -3], [0, 3]]"), (12, "5", "[[0, -8], [0, 18]]")):
        argv = ["exchange", "--n", "1", "--depth", str(depth), "--anchors", anchors]
        code, out, err = run(capsys, [*argv, "--arc", f"L1[{2 * depth}]"])
        assert (code, out) == (2, "")
        assert err == f"error: insufficient depth: arc {arc} has only 1 flanking triangle(s)"


BASIS = "free basis Y1, X2..Xn (Z1 for n = 1) modulo exchange relations"


def test_verify_passes(capsys):
    # the contract the benchmark checks, at its sizes: exactly six lines,
    # each a PASS
    for (n, free, completed), window in itertools.product(
        ((1, "Z", "Z"), (2, "Z^2", "Z^2 x Z/2")), (4, 5, 6)
    ):
        code, out, err = run(capsys, ["verify", "--n", str(n), "--window", str(window)])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"PASS  {BASIS} at depths 2, 3, 4 ({free})",
            f"PASS  {BASIS} at anchor offsets -3 and 5",
            f"PASS  completion shape Z^n x (Z/2)^(n-1) ({completed})",
            "PASS  host oracle coordinates of the kernel generators equal f_matrix",
            "PASS  same-segment closed form equals host oracle coordinates",
            "PASS  iterated fountain classes match parity",
        ]


def assert_verify_fails(capsys, argv, message):
    # a failed check is one error: line on stderr and nothing on stdout
    code = main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


def doctored_oracle(monkeypatch, arc, cls):
    """Make the host oracle give ``arc`` the class ``cls`` (as {basis index: coefficient})."""
    from arck0 import OracleQuotient, completion

    host_oracle = completion.euler_oracle

    def doctored(n, window):
        oracle = host_oracle(n, window)
        assert arc in oracle.arcs and cls != oracle._classes[arc]
        return OracleQuotient(oracle.window, oracle.presentation, {**oracle._classes, arc: cls})

    monkeypatch.setattr(completion, "euler_oracle", doctored)


def test_verify_wrong_same_segment_class_exits_1(capsys, monkeypatch):
    # (1, -1)-(1, 1) is neither a kernel generator nor a fountain arc, so
    # only the same-segment check reads it
    from arck0 import Arc, MarkedPoint, VerificationError, verify_f_oracle

    arc = Arc(MarkedPoint(1, -1), MarkedPoint(1, 1))
    doctored_oracle(monkeypatch, arc, {0: 5})
    message = (
        "same-segment closed form differs from host oracle coordinates (5, 0) "
        "of arc [[1, -1], [1, 1]]"
    )
    with pytest.raises(VerificationError) as raised:
        verify_f_oracle(1, 4)
    assert str(raised.value) == message
    assert_verify_fails(capsys, ["verify", "--n", "1", "--window", "4"], message)


def test_verify_wrong_fountain_parity_exits_1(capsys, monkeypatch):
    # zero the class of W(3), the odd fountain arc from (0, -4) over three
    # interior points; every fountain arc is a same-segment arc, so the
    # closed form is made to agree with the doctored oracle and only the
    # parity check fails
    from arck0 import Arc, MarkedPoint, VerificationError, completion, verify_f_oracle

    arc = Arc(MarkedPoint(0, -4), MarkedPoint(0, 0))
    doctored_oracle(monkeypatch, arc, {})
    closed_form = completion.class_same_segment

    def agreeing(n, other):
        return (0,) * n if other == arc else closed_form(n, other)

    monkeypatch.setattr(completion, "class_same_segment", agreeing)
    message = "fountain parity fails on host segment 0: [W(3)] = (0, 0), [W(1)] = (1, 1)"
    with pytest.raises(VerificationError) as raised:
        verify_f_oracle(1, 4)
    assert str(raised.value) == message
    assert_verify_fails(capsys, ["verify", "--n", "1", "--window", "4"], message)


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
    from arck0 import Arc, MarkedPoint, tilting

    built = tilting.StandardTilting

    def with_crossing_arc(model, arcs, names, leapfrogs):
        # (0, 1)-(2, 0) crosses the polygon edge Z1 = (0, 0)-(1, 0)
        crossing = Arc(MarkedPoint(0, 1), MarkedPoint(2, 0))
        return built(model, (*arcs, crossing), names, leapfrogs)

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


def test_bad_anchor_count(capsys):
    code, out, err = run(capsys, ["k0", "--n", "2", "--anchors", "1,2,3"])
    assert (code, out, err) == (2, "", "error: expected 2 anchor offsets, got 3")
    for argv, got in (
        (["exchange", "--n", "2", "--arc", "Z1", "--anchors", "1"], 1),
        (["render", "--n", "2", "--depth", "2", "--anchors", "1,2,3"], 3),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: expected 2 anchor offsets, got {got}"), argv


@pytest.mark.parametrize("command", ["verify", "render"])
def test_format_only_where_the_handler_reads_it(capsys, command):
    # verify always prints its PASS lines and render always SVG
    code = main([command, "--n", "1", "--format", "json"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", "error: unrecognized arguments: --format json\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(
        capsys, ["k0", "--n", "2", "--depth", "3", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text()) == {"free_rank": 2, "invariant_factors": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["k0", "--n", "2", "--depth", "3"],
        ["k0-completed", "--n", "2", "--format", "json"],
        ["oracle", "--n", "2", "--window", "2"],
        ["exchange", "--n", "3", "--arc", "Z1", "--format", "json"],
        ["verify", "--n", "1", "--window", "4"],
        ["render", "--n", "2", "--depth", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_gets_exactly_what_stdout_gets(tmp_path, capsys, argv):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == stdout


def test_render_cli(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, ["render", "--n", "4", "--depth", "2", "--window", "6", "--out", str(target)]
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<?xml")
    assert text.count('class="accumulation"') == 4


def test_output_into_missing_directory_is_bad_input(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["k0", "--n", "2", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory"
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "arcs,message",
    [
        ("[5]", "malformed arc 5"),
        ("7", "--arcs must be a JSON list of arcs, got 7"),
        ('[[["a",0],[0,2]]]', 'malformed arc [["a", 0], [0, 2]]'),
        ("{}", "--arcs must be a JSON list of arcs, got {}"),
        ('[[["a",0],["b",1]]]', "marked point ['a', 0] needs integer coordinates"),
        pytest.param("[" * 100000 + "]" * 100000, "JSON nested too deeply", id="too-deep"),
    ],
)
def test_render_rejects_malformed_arcs(capsys, arcs, message):
    code, out, err = run(capsys, ["render", "--n", "2", "--arcs", arcs])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}"


@pytest.mark.parametrize(
    "arcs,message",
    [
        ("nope", "Expecting value: line 1 column 1 (char 0)"),
        ("[[[0,0]]]", "not enough values to unpack (expected 2, got 1)"),
        ("[[[5,0],[0,3]]]", "segment 5 out of range [0, 2)"),
        ("[[[0,0],[0,1]]]", "degenerate arc between [0, 0] and [0, 1]"),
    ],
)
def test_render_arc_errors_keep_their_message(capsys, arcs, message):
    code, out, err = run(capsys, ["render", "--n", "2", "--arcs", arcs])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}"


@pytest.mark.parametrize(
    "arc",
    [
        "[5]",
        "7",
        '[[["a",0],[0,2]]]',
        "{}",
        "[[0,0],[0,1]]",
        "[[0,0.5],[1,0]]",  # a non-int offset is no marked point
        "[[0,0],[5,1]]",  # nor is a segment beyond n
        pytest.param("[" * 100000 + "]" * 100000, id="too-deep"),
    ],
)
def test_exchange_malformed_arc_is_unknown(capsys, arc):
    code, out, err = run(capsys, ["exchange", "--n", "3", "--arc", arc])
    assert code == 2
    assert out == ""
    if len(arc) > 80:
        # a long argument is quoted by its first 80 characters only
        assert err == "error: unknown arc '" + "[" * 80 + "'..."
    else:
        assert err == f"error: unknown arc {arc!r}"


def test_exchange_quotes_a_long_arc_by_its_start(capsys):
    # padded with spaces, a valid arc outside the tilting is a long argument
    arc = "[[0,0]," + " " * 100000 + "[0,2]]"
    code, out, err = run(capsys, ["exchange", "--n", "2", "--arc", arc])
    assert code == 2
    assert out == ""
    assert err == "error: arc '[[0,0]," + " " * 73 + "'... is not in the tilting set"


def test_render_rejects_a_window_too_large_to_draw():
    # in a subprocess with a timeout: without the bound it would run for hours
    proc = subprocess.run(
        [sys.executable, "-m", "arck0.cli", "render", "--n", "1", "--window", "100000000000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: window 100000000000 has 200000000001 points, more than 100000\n"
    )


DEEP = "n=1, depth=100000000 gives 200000001 tilting arcs, more than 110000"


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["k0", "--n", "1", "--depth", "100000000"], DEEP, id="k0-depth"),
        pytest.param(
            ["exchange", "--n", "1", "--depth", "100000000", "--arc", "Z1"], DEEP, id="exchange"
        ),
        pytest.param(["render", "--n", "1", "--depth", "100000000"], DEEP, id="render-depth"),
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
            "n=100000 gives a 200000 x 100000 matrix, more than 2000000 entries",
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
        (
            ["render", "--n", "2", "--arcs", json.dumps({"a": LONG})],
            _cut('--arcs must be a JSON list of arcs, got {"a": "'),
        ),
        (
            ["render", "--n", "2", "--arcs", json.dumps([[[0, LONG], [1, 0]]])],
            _cut("marked point [0, '"),
        ),
        (["render", "--n", "2", "--arcs", "{\n}"], "--arcs must be a JSON list of arcs, got { }"),
        # the parser's own errors take the same path
        (["k0", "--n", LONG], _cut("argument --n: invalid int value: '")),
    ],
    ids=["long-anchors", "long-arcs-object", "long-coordinate", "multi-line-arcs", "long-bad-n"],
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
