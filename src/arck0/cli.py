"""Command-line front end.

Exit codes: 0 success, 1 a verification or internal consistency check
failed, 2 bad input.  Either failure prints one ``error:`` line on stderr,
its message flattened and cut after 200 characters.  An input too large to
compute (a tilting, window or completion matrix past the library's caps) is
bad input, rejected before any work starts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .circle import CircleModel
from .arcs import Arc
from .tilting import build_standard_tilting, exchange_pair
from .k0 import VerificationError, compute_k0_cn, euler_oracle, parity_class
from .completion import compute_k0_completed, verify_f_oracle
from .render import render_svg


def _parse_anchors(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad anchor list {text!r}") from exc


def _load_json(text: str):
    """Decoded JSON of a command-line value; nesting too deep raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _parse_arc(data) -> Arc:
    """The arc of decoded JSON ``[[segment, offset], [segment, offset]]``.

    Every malformed input raises ValueError: Arc's own errors keep their
    message and a wrong shape or type is reported as a malformed arc.
    """
    try:
        return Arc.from_json(data)
    except TypeError as exc:
        raise ValueError(f"malformed arc {json.dumps(data)}") from exc


def _quoted(text: str) -> str:
    """``text`` quoted, or its first 80 characters quoted and ``...``: one short line."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r}..."


def _one_line(exc: Exception) -> str:
    """The message of ``exc`` on one line, cut after 200 characters with ``...``."""
    text = " ".join(str(exc).splitlines())
    return text if len(text) <= 200 else f"{text[:200]}..."


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _positive(name: str, value: int, minimum: int = 1) -> int:
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _cmd_k0(args: argparse.Namespace) -> int:
    n = _positive("--n", args.n)
    anchors = _parse_anchors(args.anchors)
    report = compute_k0_cn(n, anchors, args.depth)
    if args.format == "json":
        _emit(json.dumps(report.presentation.to_json()), args.out)
    else:
        lines = [
            f"K0 for n={n}, depth={args.depth}: {report.presentation}",
            f"arcs {report.num_arcs}, relations {report.num_relations}, "
            f"frontier {len(report.frontier)} (excess {report.frontier_excess})",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_k0_completed(args: argparse.Namespace) -> int:
    n = _positive("--n", args.n)
    presentation = compute_k0_completed(n)
    if args.format == "json":
        _emit(json.dumps(presentation.to_json()), args.out)
    else:
        _emit(f"K0 of the completion for n={n}: {presentation}", args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    n = _positive("--n", args.n)
    window = _positive("--window", args.window, 2)
    oracle = euler_oracle(n, window)
    if args.format == "json":
        _emit(json.dumps(oracle.presentation.to_json()), args.out)
    else:
        _emit(
            f"Euler oracle for n={n}, window={window}: {oracle.presentation} "
            f"({len(oracle.arcs)} arcs)",
            args.out,
        )
    return 0


def _cmd_exchange(args: argparse.Namespace) -> int:
    n = _positive("--n", args.n)
    anchors = _parse_anchors(args.anchors)
    tilting = build_standard_tilting(n, anchors, args.depth)
    name = args.arc
    if name in tilting.names:
        index = tilting.names[name]
    else:
        try:
            arc = _parse_arc(_load_json(name))
            tilting.model.check_point(arc.a)
            tilting.model.check_point(arc.b)
        except ValueError as exc:
            raise ValueError(f"unknown arc {_quoted(name)}") from exc
        if arc not in tilting:
            raise ValueError(f"arc {_quoted(name)} is not in the tilting set")
        index = tilting.arc_index(arc)
    pair = exchange_pair(tilting, index)
    payload = {
        "m": pair.m.to_json(),
        "m_star": pair.m_star.to_json(),
        "b_m": [a.to_json() for a in pair.b_m],
        "b_m_star": [a.to_json() for a in pair.b_m_star],
    }
    if args.format == "json":
        _emit(json.dumps(payload), args.out)
    else:
        labels = ("m     ", "m*    ", "B_m   ", "B_m*  ")
        _emit("\n".join(f"{k} = {v}" for k, v in zip(labels, payload.values())), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    n = _positive("--n", args.n)
    window = _positive("--window", args.window, 2)
    failures = 0
    results: list[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        results.append(f"{'PASS' if ok else 'FAIL'}  {label}{suffix}")

    # the oracle first: its size caps reject a large n before any k0 runs
    report = verify_f_oracle(n, window)
    reports = [compute_k0_cn(n, None, depth) for depth in (2, 3, 4)]
    check(
        "free rank n, no torsion, depth independent",
        all(
            r.presentation.free_rank == n and not r.presentation.invariant_factors
            for r in reports
        ),
        str(reports[0].presentation),
    )
    # anchor offset 0 is the default, so the depth-3 report above covers it
    shifted = {reports[1].presentation}
    shifted.update(compute_k0_cn(n, [c] * n, 3).presentation for c in (-3, 5))
    check("anchor independence", len(shifted) == 1)
    check(
        "completion shape Z^n x (Z/2)^(n-1)",
        report.expected.free_rank == n
        and report.expected.invariant_factors == (2,) * (n - 1),
        str(report.expected),
    )
    check(
        "generator formula vs Euler oracle",
        report.expected == report.oracle,
        f"expected {report.expected}, oracle {report.oracle}",
    )

    oracle = report.quotient
    parity_ok = True
    for arc in oracle.arcs:
        if not arc.same_segment:
            continue
        even = (arc.b[1] - arc.a[1] - 1) % 2 == 0
        if (oracle.class_of(arc) == oracle.zero_class) != even:
            parity_ok = False
            break
    check("same-segment parity on the host oracle", parity_ok)
    check(
        "iterated fountain classes match parity",
        all(parity_class(i) == (i % 2) for i in range(1, 31)),
    )

    _emit("\n".join(results), args.out)
    return 1 if failures else 0


def _cmd_render(args: argparse.Namespace) -> int:
    n = _positive("--n", args.n)
    window = _positive("--window", args.window)
    model = CircleModel(n)
    arcs: list[Arc] = []
    if args.depth is not None:
        tilting = build_standard_tilting(n, _parse_anchors(args.anchors), args.depth)
        arcs = list(tilting.arcs)
    elif args.arcs:
        items = _load_json(args.arcs)
        if not isinstance(items, list):
            raise ValueError(f"--arcs must be a JSON list of arcs, got {args.arcs}")
        arcs = [_parse_arc(item) for item in items]
    _emit(render_svg(model, arcs, window), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arck0",
        description="Exact arc combinatorics and Grothendieck-group computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every subcommand takes --out; --format is added only where the handler reads it
    def common(p: argparse.ArgumentParser, window_default: int | None = None) -> None:
        p.add_argument("--out", default=None, help="write output to this path")
        if window_default is not None:
            p.add_argument("--window", type=int, default=window_default)

    p = sub.add_parser("k0", help="group of the n-point model via exchange relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--anchors", default=None, help="comma-separated anchor offsets")
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=_cmd_k0)

    p = sub.add_parser("k0-completed", help="group of the completed model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=_cmd_k0_completed)

    p = sub.add_parser("oracle", help="brute-force Euler-relation presentation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p, window_default=6)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("exchange", help="exchange pair of a named tilting arc")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--anchors", default=None)
    p.add_argument("--arc", required=True, help="arc name (e.g. Z1) or JSON endpoints")
    p.add_argument("--format", choices=("json", "text"), default="text")
    common(p)
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser("verify", help="cross-check formulas against the oracle")
    p.add_argument("--n", type=int, required=True)
    common(p, window_default=6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw the circle and an arc family as SVG")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, default=None, help="render the standard tilting")
    p.add_argument("--anchors", default=None)
    p.add_argument("--arcs", default=None, help="JSON list of arcs to draw")
    common(p, window_default=6)
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parsing leaves it unchanged, and the handlers
    # it dispatches to look module globals up when they run.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
