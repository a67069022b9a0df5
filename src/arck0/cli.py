"""Command-line front end.

Exit codes: 0 success, 1 a verification or internal consistency check
failed, 2 bad input.  Either failure prints one ``error:`` line on stderr,
its message flattened and cut after 200 characters.  A command line the
parser rejects is bad input like any other: ``_Parser.error`` raises
ValueError instead of printing usage and exiting.  An input too large to
compute (a tilting, window or completion matrix past the library's caps) is
bad input, rejected before any work starts.  ``verify`` has no failure
path of its own: each of its six checks raises VerificationError unless it
holds (lines 5 and 6 through ``verify_closed_form``), so it prints six PASS
lines or nothing on stdout.  Each ``_cmd_*`` handler returns its JSON
payload (None without ``--format``) and its text; ``main`` alone picks one
and writes it to stdout or to ``--out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .circle import check_point
from .arcs import Arc
from .tilting import build_standard_tilting, exchange_pair
from .snf import GroupPresentation
from .k0 import VerificationError, compute_k0_cn, euler_oracle, verify_closed_form
from .completion import compute_k0_completed, verify_f_oracle


def _int(text: str) -> int:
    """The one reader of an int option or anchor: an optional sign, then ASCII digits.

    ``1_0``, `` 2`` and non-ASCII digits, all of which ``int`` reads, raise ValueError.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names it: "argument --n: invalid int value: '1_0'"


def _parse_anchors(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [_int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad anchor list {text!r}") from exc


def _load_json(text: str):
    """Decoded JSON of a command-line value; nesting too deep raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _parse_arc(data, n: int) -> Arc:
    """The arc of decoded JSON ``[[segment, offset], [segment, offset]]`` on the n-segment circle.

    The one decoder of an arc from outside: anything but a JSON list of two
    items raises ValueError ``malformed arc <json>``.  Then ``check_point``
    checks each item, first to last, through ``circle.as_point``, so a
    string or dict is no point; only then does ``Arc`` reject a degenerate pair.
    """
    if not (isinstance(data, list) and len(data) == 2):
        raise ValueError(f"malformed arc {json.dumps(data)}")
    for p in data:
        check_point(n, p)
    return Arc(*data)


def _one_line(exc: Exception) -> str:
    """The message of ``exc`` on one line, cut after 200 characters with ``...``."""
    text = " ".join(str(exc).splitlines())
    return text if len(text) <= 200 else f"{text[:200]}..."


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, ending in one newline, to the file ``out`` or else to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_k0(args: argparse.Namespace) -> tuple[dict, str]:
    report = compute_k0_cn(args.n, _parse_anchors(args.anchors), args.depth)
    arcs, frontier = len(report.arcs), len(report.frontier)
    text = (
        f"K0 for n={args.n}, depth={args.depth}: {report.presentation}\n"
        f"arcs {arcs}, relations {arcs - frontier}, frontier {frontier}"
    )
    return report.presentation.to_json(), text


def _cmd_k0_completed(args: argparse.Namespace) -> tuple[dict, str]:
    presentation = compute_k0_completed(args.n)
    return presentation.to_json(), f"K0 of the completion for n={args.n}: {presentation}"


def _cmd_oracle(args: argparse.Namespace) -> tuple[dict, str]:
    oracle = euler_oracle(args.n, args.window)
    text = f"Euler oracle for n={args.n}, window={args.window}: {oracle.presentation}"
    return oracle.presentation.to_json(), f"{text} ({len(oracle._classes)} arcs)"


def _cmd_exchange(args: argparse.Namespace) -> tuple[dict, str]:
    tilting = build_standard_tilting(args.n, _parse_anchors(args.anchors), args.depth)
    name = args.arc
    if name in tilting.names:
        index = tilting.names[name]
    else:
        try:
            arc = _parse_arc(_load_json(name), tilting.n)
        except ValueError as exc:
            raise ValueError(f"unknown arc {name!r}") from exc
        index = tilting.arc_index(arc)
    pair = exchange_pair(tilting, index)
    payload = {
        "m": pair.m.to_json(),
        "m_star": pair.m_star.to_json(),
        "b_m": [a.to_json() for a in pair.b_m],
        "b_m_star": [a.to_json() for a in pair.b_m_star],
    }
    labels = ("m     ", "m*    ", "B_m   ", "B_m*  ")
    return payload, "\n".join(f"{k} = {v}" for k, v in zip(labels, payload.values()))


def _cmd_verify(args: argparse.Namespace) -> tuple[None, str]:
    n = args.n
    # the oracle first: its size caps reject a large n before any k0 runs.
    # Every check raises VerificationError (exit 1, one error: line) unless
    # it holds, so the six lines print only when all six hold.
    verify_f_oracle(n, args.window)
    for depth in (2, 3, 4):
        verify_closed_form(compute_k0_cn(n, None, depth))
    for c in (-3, 5):
        verify_closed_form(compute_k0_cn(n, [c] * n, 3))
    completed = compute_k0_completed(n)
    if completed != GroupPresentation(n, (2,) * (n - 1)):
        raise VerificationError(
            f"completion shape Z^n x (Z/2)^(n-1) fails: K0 of the completion for n={n} is {completed}"
        )
    basis = "free basis Y1, X2..Xn (Z1 for n = 1) modulo exchange relations"
    lines = [
        f"PASS  {basis} at depths 2, 3, 4 ({GroupPresentation(n)})",
        f"PASS  {basis} at anchor offsets -3 and 5",
        f"PASS  completion shape Z^n x (Z/2)^(n-1) ({completed})",
        "PASS  host oracle coordinates of the kernel generators equal f_matrix",
        "PASS  closed form equals host oracle coordinates on every window arc",
        "PASS  exchange-route classes equal the closed form at depths 2, 3, 4 "
        "and anchor offsets -3 and 5",
    ]
    return None, "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError; subparsers inherit the class."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arck0",
        description="Exact arc combinatorics and Grothendieck-group computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse reads "--anchors -3,0,5" as a missing value and a new option
    anchors = "comma-separated offsets, one per segment; --anchors=-3,0,5 if the first is negative"

    # every subcommand takes --out; --format is added only where the handler
    # returns a JSON payload
    def common(p: argparse.ArgumentParser, window_default: int | None = None) -> None:
        p.add_argument("--out", default=None, help="write output to this path")
        if window_default is not None:
            p.add_argument("--window", type=_int, default=window_default)

    p = sub.add_parser("k0", help="group of the n-point model via exchange relations")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--depth", type=_int, default=4)
    p.add_argument("--anchors", default=None, help=anchors)
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=_cmd_k0)

    p = sub.add_parser("k0-completed", help="group of the completed model")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=_cmd_k0_completed)

    p = sub.add_parser("oracle", help="brute-force Euler-relation presentation")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p, window_default=6)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("exchange", help="exchange pair of a named tilting arc")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--depth", type=_int, default=4)
    p.add_argument("--anchors", default=None, help=anchors)
    p.add_argument("--arc", required=True, help="arc name (e.g. Z1) or JSON endpoints")
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser("verify", help="cross-check formulas against the oracle")
    p.add_argument("--n", type=_int, required=True)
    common(p, window_default=6)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parsing leaves it unchanged, and the handlers
    # it dispatches to look module globals up when they run.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        payload, text = args.func(args)
        _emit(text if payload is None or args.format == "text" else json.dumps(payload), args.out)
    except (ValueError, VerificationError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
