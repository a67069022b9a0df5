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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["k0", "--n", "2", "--frobnicate"])
    assert err.value.code == 2


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
    code, _, err = run(capsys, ["exchange", "--n", "1", "--depth", "2", "--arc", "L1[4]"])
    assert code == 2 and "insufficient depth" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "1", "--window", "4"])
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 5


def test_verification_error_exits_1(capsys, monkeypatch):
    from arck0 import cli
    from arck0.k0 import VerificationError

    def broken(*args, **kwargs):
        raise VerificationError("free rank 4 != n + frontier excess 3+0")

    monkeypatch.setattr(cli, "compute_k0_cn", broken)
    code, out, err = run(capsys, ["k0", "--n", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: free rank 4 != n + frontier excess 3+0"


def test_smith_round_cap_exits_1(capsys, monkeypatch):
    from arck0 import k0, snf

    assert k0.VerificationError is snf.VerificationError
    # an echelon step that never reaches a diagonal runs into the round cap
    monkeypatch.setattr(snf, "_echelon_columns", lambda columns: {0: {0: 2, 1: 1}})
    code, out, err = run(capsys, ["k0", "--n", "3"])
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
    # verify always prints its PASS/FAIL lines and render always SVG
    with pytest.raises(SystemExit) as err:
        main([command, "--n", "1", "--format", "json"])
    assert err.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(
        capsys, ["k0", "--n", "2", "--depth", "3", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text()) == {"free_rank": 2, "invariant_factors": []}


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
        (
            "[[[0,0],[0,1]]]",
            "degenerate arc between MarkedPoint(segment=0, offset=0) "
            "and MarkedPoint(segment=0, offset=1)",
        ),
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
            "n=60, window=2 gives 44610 window arcs, more than 34000",
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
    ],
    ids=["long-anchors", "long-arcs-object", "long-coordinate", "multi-line-arcs"],
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
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
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
