"""Span tracing of the d4check layers, installed from outside the package.

Every public function defined in a layer module is replaced by a wrapper
that records a span (id, parent span, operation id, function, start, end).
Names that other modules bound with ``from ... import ...`` are rebound to
the same wrapper, so no call escapes the trace through a stale reference.
Spans stay in memory; ``summary`` aggregates them once the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from fractions import Fraction

PACKAGE = "d4check"
LAYERS = ("rootsys", "linalg", "cohomring", "pontsolve", "vect4", "obstruct", "report", "cli")

# Argument types that are keyed by value; any other argument is keyed by its repr,
# computed once per object (the object is kept alive so its id is not reused).
_ATOMS = (int, bool, str, float, Fraction, type(None))


class Tracer:
    def __init__(self, op_id: int, distinct: frozenset[str] = frozenset()):
        self.op_id = op_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack = [0]
        self._span_ids = itertools.count(1)
        self.keys: dict[str, set] = {fn_id: set() for fn_id in distinct}
        self._by_id: dict[int, tuple[object, int]] = {}
        self._canon: dict[str, int] = {}
        self.checks_computed = 0
        self._rendered: dict[int, int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module that exists."""
        found = []
        for layer in LAYERS:
            try:
                importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
            found.append(layer)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrapped: dict[int, object] = {}
        for layer in found:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, name, wrapped[id(value)])
        self._count_checks(sys.modules.get(f"{PACKAGE}.obstruct"))

    def _wrap(self, fn_id: str, fn):
        spans, stack, span_ids, clock = self.spans, self.stack, self._span_ids, time.perf_counter_ns
        keys = self.keys.get(fn_id)
        after = self._count_rendered if fn_id == "report.render" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(self._key(args, kwargs))
            sid = next(span_ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, fn_id, start, end))
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _key(self, args, kwargs) -> tuple:
        return tuple(map(self._freeze, args)) + tuple(
            (k, self._freeze(v)) for k, v in sorted(kwargs.items()))

    def _freeze(self, value):
        if type(value) in _ATOMS:
            return value
        ref = self._by_id.get(id(value))
        if ref is None:
            ref = self._by_id[id(value)] = (value, self._canon.setdefault(repr(value), len(self._canon)))
        return ("obj", ref[1])

    # -- counters ---------------------------------------------------------

    def _count_checks(self, obstruct) -> None:
        """Count records added to a VerificationReport: the checks computed."""
        cls = getattr(obstruct, "VerificationReport", None)
        for name in ("add", "note_erratum"):
            method = getattr(cls, name, None)
            if method is None:
                continue

            def counted(*args, _method=method, **kwargs):
                self.checks_computed += 1
                return _method(*args, **kwargs)

            setattr(cls, name, functools.wraps(method)(counted))

    def _count_rendered(self, args, kwargs) -> None:
        """Records in each distinct report rendered: the checks reported."""
        rep = args[0] if args else kwargs.get("rep")
        self._rendered[id(rep)] = len(getattr(rep, "checks", ()))

    # -- aggregation ------------------------------------------------------

    def summary(self, region_ns: int, keep_spans: int = 0) -> dict:
        """Per-function calls, self time and distinct arguments, per-layer self time."""
        child_ns: dict[int, int] = {}
        for sid, parent, _, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        functions: dict[str, list[int]] = {}
        layers: dict[str, int] = {}
        for sid, _, fn_id, start, end in self.spans:
            self_ns = end - start - child_ns.get(sid, 0)
            entry = functions.setdefault(fn_id, [0, 0])
            entry[0] += 1
            entry[1] += self_ns
            layer = fn_id.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + self_ns
        out = {
            "op_id": self.op_id,
            "region_ns": region_ns,
            "functions": {fn_id: {"calls": c, "self_ns": s} for fn_id, (c, s) in functions.items()},
            "layers_self_ns": layers,
            "distinct": {fn_id: len(keys) for fn_id, keys in self.keys.items()},
            "checks_computed": self.checks_computed,
            "checks_reported": sum(self._rendered.values()),
            "span_count": len(self.spans),
        }
        if keep_spans:
            origin = min((s[3] for s in self.spans), default=0)
            first = sorted(self.spans)[:keep_spans]
            out["spans"] = [[sid, parent, self.op_id, fn_id, start - origin, end - start]
                            for sid, parent, fn_id, start, end in first]
        return out
