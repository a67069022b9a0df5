"""Spans and counters around the package's layer boundaries, installed from outside.

The package records nothing itself, so the tracer replaces module attributes
with wrappers while it is installed.  Modules bind what they import into
their own namespace, so each function is wrapped in every module that calls
it through its own name.  Spans hold name, start, end, parent span and job id
and stay in memory until ``write_spans``.  The two hot primitives,
``ext1_dim`` and ``cyclic_key``, get a call counter and no span: they are
called millions of times per job.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from math import comb

# (layer.function, defining module, attribute, modules that call it by that name)
SPANNED = [
    ("cli.main", "cli", "main", ["cli"]),
    ("completion.verify_f_oracle", "completion", "verify_f_oracle", ["completion", "cli"]),
    ("k0.compute_k0_cn", "k0", "compute_k0_cn", ["k0", "cli"]),
    ("k0.euler_oracle", "k0", "euler_oracle", ["k0", "cli", "completion"]),
    ("tilting.build_standard_tilting", "tilting", "build_standard_tilting",
     ["tilting", "k0", "cli"]),
    ("tilting.palu_relations", "tilting", "palu_relations", ["tilting", "k0"]),
    ("tilting.mutate", "tilting", "mutate", ["tilting"]),
    ("snf.cokernel_presentation", "snf", "cokernel_presentation",
     ["snf", "k0", "completion"]),
    # timed where k0 calls it, which is the boundary between the two layers
    ("snf.quotient_with_transform", "snf", "_quotient_with_transform", ["k0"]),
]
COUNTED = [
    ("arcs.ext1_dim", "arcs", "ext1_dim", ["arcs", "tilting"]),
    ("circle.cyclic_key", "circle", "cyclic_key", ["circle", "arcs", "k0"]),
]
CLASS_OF = "k0.class_of"  # a method: wrapped on OracleQuotient itself
# work counts summed over a span's calls, beside .s, .self_s and .calls
SIZES = {
    "tilting.build_standard_tilting": ("arcs",),
    "k0.euler_oracle": ("arcs",),
    "snf.cokernel_presentation": ("columns",),
    "snf.quotient_with_transform": ("columns", "ambient"),
}


def tilting_arcs(n: int, depth: int) -> int:
    """Closed-form size of the standard tilting (the two n=2 polygon edges are one chord)."""
    return n * (2 * depth + 1) + max(n - 3, 0) - (1 if n == 2 else 0)


def oracle_arcs(n: int, window: int) -> int:
    """Closed-form number of arcs with both offsets in [-window, window]."""
    points = n * (2 * window + 1)
    return comb(points, 2) - 2 * n * window


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sizes(name: str, fn, args, kwargs, result) -> dict[str, int]:
    """Work counts recorded at a span, plus the closed-form size it must equal."""
    if name == "tilting.build_standard_tilting":
        a = _bound(fn, args, kwargs)
        return {"arcs": len(result.arcs), "arcs_closed_form": tilting_arcs(a["n"], a["depth"])}
    if name == "k0.euler_oracle":
        a = _bound(fn, args, kwargs)
        return {"arcs": len(result.arcs), "arcs_closed_form": oracle_arcs(a["n"], a["window"])}
    if name == "snf.cokernel_presentation":
        return {"columns": len(_bound(fn, args, kwargs)["columns"])}
    if name == "snf.quotient_with_transform":
        a = _bound(fn, args, kwargs)
        return {"columns": len(a["columns"]), "ambient": a["ambient"]}
    return {}


class Tracer:
    """Patches the package while installed; collects spans and counters."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []  # [id, name, start, end, parent, job]
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._ticks: dict[str, list[int]] = {}

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
            self.spans.append(span)
            self._stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            for key, value in _sizes(name, fn, args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tick = self._ticks.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        pkg = self.pkg
        for kind, table in ((self._span_wrapper, SPANNED), (self._count_wrapper, COUNTED)):
            for name, home, attr, callers in table:
                original = getattr(getattr(pkg, home), attr, None)
                if original is None:
                    continue  # the function is gone; its metrics stay 0
                wrapper = kind(name, original)
                for caller in callers:
                    module = getattr(pkg, caller)
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapper)
        quotient = pkg.k0.OracleQuotient
        self._patch(quotient, "class_of", self._span_wrapper(CLASS_OF, quotient.class_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for name, tick in self._ticks.items():
            self.counts[f"{name}.calls"] += tick[0]
            tick[0] = 0

    def times(self) -> dict[str, float]:
        """Inclusive (``.s``) and self (``.self_s``) seconds summed per span name."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[sid]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer value; a layer that did not run reads 0."""
        values: dict[str, float] = {}
        for name, *_ in SPANNED + [(CLASS_OF,)]:
            values.update({f"{name}.s": 0.0, f"{name}.self_s": 0.0, f"{name}.calls": 0})
            values.update({f"{name}.{key}": 0 for key in SIZES.get(name, ())})
        for name, *_ in COUNTED:
            values[f"{name}.calls"] = 0
        values.update(self.times())
        values.update(self.counts)
        return values

    def closed_form_errors(self) -> list[str]:
        errors = []
        for name in ("tilting.build_standard_tilting", "k0.euler_oracle"):
            got = self.counts.get(f"{name}.arcs", 0)
            want = self.counts.get(f"{name}.arcs_closed_form", 0)
            if got != want:
                errors.append(f"{name}: {got} arcs, closed form gives {want}")
        return errors

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
