"""The README's examples, run as written.

Every ``$ arck0 ...`` line of the CLI block runs through ``cli.main`` and
must print exactly the lines under it; the library example runs and each
``print`` must give its ``# ...`` comment.  The module map names every
module of the package once.
"""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from arck0 import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README text under ``## title``, up to the next heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def first_block(text: str) -> str:
    """The body of the first fenced code block in ``text``."""
    match = re.search(r"^```[a-z]*\n(.*?)^```$", text, re.M | re.S)
    assert match, "no code block"
    return match.group(1)


def cli_examples() -> list[tuple[str, str]]:
    """(command line, the output shown under it) for each ``$ arck0`` line."""
    examples: list[tuple[str, list[str]]] = []
    for line in first_block(section("CLI")).splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            assert examples, f"output before the first command: {line!r}"
            examples[-1][1].append(line)
    return [(command, "".join(f"{line}\n" for line in out)) for command, out in examples]


def subcommands() -> list[str]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


@pytest.mark.parametrize("command,shown", [pytest.param(*e, id=e[0]) for e in cli_examples()])
def test_cli_example(command, shown, capsys):
    argv = shlex.split(command)
    assert argv[0] == "arck0"
    code = cli.main(argv[1:])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (0, shown, "")


def test_cli_block_runs_every_subcommand_once():
    ran = [shlex.split(command)[1] for command, _ in cli_examples()]
    assert sorted(ran) == sorted(subcommands())


def test_library_example_prints_its_comments():
    code = first_block(section("Library example"))
    expected = [
        line.split("  # ", 1)[1] for line in code.splitlines() if line.startswith("print(")
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_module_map_names_every_module_once():
    named = re.findall(r"^- `(\w+)\.py`", section("Module map"), re.M)
    modules = [p.stem for p in (ROOT / "src" / "arck0").glob("*.py")]
    assert sorted(named) == sorted(modules)
