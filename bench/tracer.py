"""In-memory span tracer that wraps eqcohom's public functions from outside.

`Tracer.install()` replaces each function in TRACED by a wrapper in every
loaded `eqcohom` module namespace that binds it. Modules import each other
with `from .linalg import kernel_basis` and the like, so patching only the
defining module would miss most calls. Methods are patched on their class,
and default argument values that hold a traced function (such as the
`cond_ii=check_condition_ii` hook of `randomized`) are patched too.
`Tracer.unwrapped()` is the coverage check: it lists every binding that
still holds an original. `Tracer.uninstall()` restores the originals.

A span is `[name, start, end, parent, request, pre, post, error]`.
`parent` is the index of the enclosing span or -1, `pre` and `post` are the
work counts of the function taken from its arguments and from its result
(see TRACED), and `error` is the code of an exception that left it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import FunctionType
from typing import Callable, Optional

NAME, START, END, PARENT, REQUEST, PRE, POST, ERROR = range(8)
FIELDS = ["name", "start", "end", "parent", "request", "pre", "post", "error"]


def _rref_cells(args) -> int:
    return args[0].rows * args[0].cols


def _rref_max_bits(result) -> int:
    return max(
        (
            max(x.numerator.bit_length(), x.denominator.bit_length())
            for row in result[0].data
            for x in row
        ),
        default=0,
    )


def _mat_mul_ops(args) -> int:
    return args[0].rows * args[0].cols * args[1].cols


@dataclass(frozen=True)
class Traced:
    module: str  # eqcohom submodule that defines the function
    attr: str  # attribute, or "Class.method"
    name: str  # metric name: <module>.<name>.<stat>
    # Work count: (stat, function of the positional args or of the result).
    pre: Optional[tuple[str, Callable]] = None
    post: Optional[tuple[str, Callable]] = None
    errors: bool = False  # report exceptions as the `errors` stat


def _fns(module: str, *attrs: str) -> list[Traced]:
    return [Traced(module, a, a) for a in attrs]


TRACED: list[Traced] = [
    Traced("linalg", "rref", "rref", ("cells", _rref_cells), ("max_bits", _rref_max_bits)),
    Traced("linalg", "Mat.__mul__", "mat_mul", ("ops", _mat_mul_ops)),
    *_fns("linalg", "solve", "kernel_basis"),
    Traced("linalg", "Subspace.__init__", "subspace"),
    *_fns(
        "instance", "validate", "oracle_quotient_dim", "check_condition_i",
        "check_condition_ii", "find_ujk", "decompose", "u_tilde",
    ),
    *_fns(
        "randomized", "random_linear_instance", "random_graph_instance",
        "check_one_instance",
    ),
    *_fns(
        "graphs", "analyze_graph_action", "to_instance", "action_checks",
        "components", "potential", "coboundary",
    ),
    Traced("graphs", "close_group", "close_group", post=("elements", len)),
    *_fns(
        "periodic", "period_lattices", "hermite_normal_form",
        "is_invariant_closed", "realized_quotient_dim", "reconstruct",
    ),
    Traced("periodic", "decompose_periodic", "decompose_periodic", errors=True),
    Traced(
        "periodic", "truncation_oracle", "truncation_oracle",
        post=("checks", lambda report: report["checks"]),
    ),
    Traced("cli", "main", "main"),
]

# Work counts combined by max instead of by sum.
MAX_STATS = {"max_bits"}
STAT_UNITS = {
    "calls": "calls/req",
    "self_s": "s/req",
    "cells": "cells/req",
    "ops": "ops/req",
    "max_bits": "bits",
    "elements": "elements/req",
    "checks": "checks/req",
    "errors": "errors/req",
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for t in TRACED:
        stats = ["calls", "self_s"]
        stats += [w[0] for w in (t.pre, t.post) if w]
        if t.errors:
            stats.append("errors")
        out += [(f"{t.module}.{t.name}.{s}", STAT_UNITS[s]) for s in stats]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def _error_code(exc: BaseException) -> str:
    code = getattr(exc, "code", None)
    return code if isinstance(code, str) else type(exc).__name__


def _eqcohom_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "eqcohom" or name.startswith("eqcohom."))
    }


def _eqcohom_functions(modules: dict) -> list[FunctionType]:
    """The unwrapped functions and methods defined in eqcohom modules."""
    found = {}
    for mod in modules.values():
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                fn = getattr(member, "__wrapped__", member)
                if isinstance(fn, FunctionType) and fn.__module__.startswith("eqcohom"):
                    found[id(fn)] = fn
    return list(found.values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: object = None
        self._stack: list[int] = []
        self._originals: list[tuple[Traced, object, object]] = []  # (t, owner, original)
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def _wrap(self, t: Traced, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = f"{t.module}.{t.name}"
        pre = t.pre[1] if t.pre else None
        post = t.post[1] if t.post else None

        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                    pre(args) if pre else 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = _error_code(exc)
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if post:
                span[POST] = post(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", t.name)
        return traced

    def install(self) -> None:
        import eqcohom.cli  # noqa: F401  (loads every module the CLI uses)

        modules = _eqcohom_modules()
        for t in TRACED:
            owner = modules[f"eqcohom.{t.module}"]
            if "." in t.attr:
                cls_name, attr = t.attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                self._originals.append((t, cls, original))
                setattr(cls, attr, self._wrap(t, original))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(owner, t.attr)
            self._originals.append((t, None, original))
            wrapper = self._wrap(t, original)
            for mod in modules.values():
                for attr in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
            for fn in _eqcohom_functions(modules):
                if fn.__defaults__ and any(v is original for v in fn.__defaults__):
                    self._patched.append((fn, "__defaults__", fn.__defaults__))
                    fn.__defaults__ = tuple(
                        wrapper if v is original else v for v in fn.__defaults__
                    )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._originals.clear()

    def unwrapped(self) -> list[str]:
        """Coverage check: bindings in loaded eqcohom modules or classes that
        still hold an original traced function. Empty when all are patched."""
        left = []
        modules = _eqcohom_modules()
        for t, cls, original in self._originals:
            if cls is not None:
                attr = t.attr.split(".")[1]
                if vars(cls)[attr] is original:
                    left.append(f"{cls.__module__}.{t.attr}")
                continue
            for name, mod in modules.items():
                left += [f"{name}.{k}" for k, v in vars(mod).items() if v is original]
            for fn in _eqcohom_functions(modules):
                if any(v is original for v in fn.__defaults__ or ()):
                    left.append(f"{fn.__module__}.{fn.__qualname__} default argument")
        return left

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.
        Spans nest and run on one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, requests: int) -> tuple[dict, dict]:
        """Per-layer metrics (per traced request, except max_bits) and the
        exceptions of each traced function by code."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        work: Counter = Counter()
        errors: dict = defaultdict(Counter)
        stat_of = {
            f"{t.module}.{t.name}": [
                (w[0], slot) for w, slot in ((t.pre, PRE), (t.post, POST)) if w
            ]
            for t in TRACED
        }
        for s, own in zip(self.spans, self.self_times()):
            label = s[NAME]
            calls[label] += 1
            self_s[label] += own
            for stat, slot in stat_of[label]:
                key = f"{label}.{stat}"
                if stat in MAX_STATS:
                    work[key] = max(work[key], s[slot])
                else:
                    work[key] += s[slot]
            if s[ERROR] is not None:
                errors[label][s[ERROR]] += 1
        per = max(requests, 1)
        out = {}
        for name, unit in metric_names():
            if name == "trace.overhead_frac":
                continue
            label, stat = name.rsplit(".", 1)
            if stat == "calls":
                value = calls[label] / per
            elif stat == "self_s":
                value = self_s[label] / per
            elif stat == "errors":
                value = sum(errors[label].values()) / per
            elif stat in MAX_STATS:
                value = work[name]
            else:
                value = work[name] / per
            out[name] = {"value": value, "unit": unit}
        return out, {k: dict(v) for k, v in errors.items()}
