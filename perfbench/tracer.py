"""Outside-in tracer: wraps ssetkit's public functions from the benchmark.

Nothing under ``src/`` knows about it.  ``install()`` rebinds each wrapped
function in every ``ssetkit`` module that imported it by name and patches
the hot methods on their classes; ``uninstall()`` puts every original back.

Each wrapped call pushes a frame on one stack, so a metric's self time is
its wall time minus the time spent in wrapped callees.  Generators are
timed per ``next()`` call, so the consumer's work between yields is not
charged to them.  Hot leaves (``face``, ``simplices``, ``SMap.__eq__``) skip
the frame and only add to their counter, their self time and the parent's
child time; ``FinSSet.key`` only counts.  Full spans (name, start, end,
parent) are kept only at coarse boundaries: the benchmark item,
``has_rlp``, ``factor_soa``, ``check_source`` and ``elab_decl``.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

from ssetkit import joyal, lifting
from ssetkit.kernel import closed, homs, limits, serialize, sset
from ssetkit.model import audit, formers
from ssetkit.tt import checker, elaborate, equality, parser
from ssetkit.tt.parser import ParseError

clock = time.perf_counter

# metric prefix, module, function name, kind; kind is "call" (framed),
# "gen" (framed per next()), "span" (framed, plus a span record)
FUNCTIONS = [
    ("kernel.enumerate_maps", homs, "enumerate_maps", "gen"),
    ("kernel.compose", sset, "compose", "call"),
    ("kernel.find_isomorphism", sset, "find_isomorphism", "call"),
    ("kernel.limits", limits, "product", "call"),
    ("kernel.limits", limits, "pullback", "call"),
    ("kernel.limits", limits, "pushout", "call"),
    ("kernel.limits", limits, "coproduct", "call"),
    ("kernel.closed", closed, "exponential", "call"),
    ("kernel.closed", closed, "pushforward", "call"),
    ("kernel.serialize", serialize, "load_sset", "call"),
    ("kernel.serialize", serialize, "load_smap", "call"),
    ("kernel.serialize", serialize, "sset_from_dict", "call"),
    ("lifting.lifting_problems", lifting, "lifting_problems", "gen"),
    ("lifting.solve_lift", lifting, "solve_lift", "call"),
    ("lifting.has_rlp", lifting, "has_rlp", "span"),
    ("lifting.has_llp", lifting, "has_llp", "call"),
    ("lifting.factor_soa", lifting, "factor_soa", "span"),
    ("joyal.core_G", joyal, "core_G", "call"),
    ("joyal.core_of_map", joyal, "core_of_map", "call"),
    ("joyal.b_functor", joyal, "b_functor", "call"),
    ("joyal.lemma_four_conditions", joyal, "lemma_four_conditions", "call"),
    ("joyal.invertible_edge", joyal, "invertible_edge", "call"),
    ("model.audit_semifib", audit, "audit_semifib", "call"),
    ("tt.parse", parser, "parse_file", "call"),
    ("tt.check", checker, "check_source", "span"),
    ("tt.equal_types", equality, "equal_types", "call"),
    ("tt.normalize", equality, "normalize", "call"),
] + [
    ("model.formers", formers, name, "call")
    for name in formers.__all__
    if callable(getattr(formers, name)) and not isinstance(getattr(formers, name), type)
]

# metric prefix, class, method name, kind; "leaf" is timed without a frame
METHODS = [
    ("kernel.face", sset.FinSSet, "face", "leaf"),
    ("kernel.simplices", sset.FinSSet, "simplices", "leaf"),
    ("kernel.smap_eq", sset.SMap, "__eq__", "leaf"),
    ("kernel.sset_key", sset.FinSSet, "key", "count"),
    ("tt.check.decls", checker.Checker, "check_decl", "count"),
    ("tt.elaborate", elaborate.Elaborator, "elab_decl", "span"),
]


class Tracer:
    """Counters, self times and coarse spans for one traced section."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, child
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.rlp_calls: list[tuple] = []  # (map, family) per has_rlp call
        self._stack: list[list[float]] = [[0.0]]
        self._span_stack: list[int] = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _framed(self, name, fn, span):
        stat, stack, spans, span_stack = self.stats[name], self._stack, self.spans, self._span_stack
        ids = self._ids

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                sid = next(ids)
                parent = span_stack[-1]
                span_stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                stack[-1][0] += dt
                if span:
                    span_stack.pop()
                    spans.append((sid, parent, name, t0, t1))

        return wrapper

    def _generator(self, name, fn, yields_name):
        stat, stack, counts = self.stats[name], self._stack, self.counts

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        stat[1] += dt
                        stat[2] += frame[0]
                        stack[-1][0] += dt
                    counts[yields_name] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def _leaf(self, name, fn):
        stat, stack = self.stats[name], self._stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stack[-1][0] += dt

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks for the ratio and size metrics ---------------------

    def _hooked(self, prefix, fn):
        counts = self.counts
        if prefix == "lifting.solve_lift":
            def hook(args, kwargs, out):
                counts["lifting.solve_lift.filled"] += bool(out)
        elif prefix == "lifting.has_rlp":
            def hook(args, kwargs, out):
                self.rlp_calls.append(args[:2])
        elif prefix == "kernel.limits":
            def hook(args, kwargs, out):
                counts["kernel.limits.cells_out"] += sum(len(lv) for lv in out.sset.cells)
        elif prefix == "lifting.factor_soa":
            def hook(args, kwargs, out):
                counts["lifting.factor_soa.attachments"] += len(out.attachments)
        elif prefix == "tt.parse":
            def hook(args, kwargs, out):
                counts["tt.parse.bytes"] += len(args[0])
        else:
            return fn

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(args, kwargs, out)
            return out

        return wrapper

    def _with_failures(self, prefix, fn):
        counts = self.counts
        if prefix == "lifting.factor_soa":
            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except lifting.BudgetExhausted as exc:
                    counts["lifting.factor_soa.budget_exhausted"] += 1
                    counts["lifting.factor_soa.attachments"] += len(exc.partial.attachments)
                    raise
        elif prefix == "tt.check":
            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except (checker.CheckError, ParseError):
                    counts["tt.check.rejected"] += 1
                    raise
        else:
            return fn
        return wrapper

    def wrap(self, prefix, fn, kind):
        if kind == "gen":
            yields = "kernel.enumerate_maps.maps" if prefix == "kernel.enumerate_maps" else \
                "lifting.lifting_problems.squares"
            return self._generator(prefix, fn, yields)
        if kind == "leaf":
            return self._leaf(prefix, fn)
        if kind == "count":
            return self._counted(prefix, fn)
        inner = self._with_failures(prefix, self._hooked(prefix, fn))
        return self._framed(prefix, inner, span=kind == "span")

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped function wherever ssetkit imported it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ssetkit" and m]
        for prefix, module, name, kind in FUNCTIONS:
            original = getattr(module, name)
            wrapper = self.wrap(prefix, original, kind)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"tracer: {module.__name__}.{name} is bound nowhere")
        for prefix, cls, name, kind in METHODS:
            original = cls.__dict__[name]
            setattr(cls, name, self.wrap(prefix, original, kind))
            self._undo.append((cls, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- spans -------------------------------------------------------------

    def span(self, name):
        """Context manager for a benchmark-side span (the item boundary)."""
        return _Span(self, name)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers; call after ``uninstall`` (keys are computed here)."""
        out: dict = {}

        def self_s(prefix):
            calls, total, child = self.stats[prefix]
            return total - child

        for prefix in ("kernel.face", "kernel.simplices", "kernel.compose", "kernel.smap_eq",
                       "kernel.find_isomorphism", "kernel.enumerate_maps", "kernel.limits",
                       "lifting.solve_lift", "lifting.has_rlp", "lifting.has_llp",
                       "tt.normalize", "model.formers"):
            out[f"{prefix}.calls"] = self.stats[prefix][0]
        for prefix in ("kernel.face", "kernel.simplices", "kernel.compose", "kernel.smap_eq",
                       "kernel.find_isomorphism", "kernel.enumerate_maps", "kernel.limits",
                       "kernel.closed", "kernel.serialize", "lifting.lifting_problems",
                       "lifting.solve_lift", "lifting.has_rlp", "lifting.has_llp",
                       "lifting.factor_soa", "joyal.core_G", "joyal.core_of_map",
                       "joyal.b_functor", "joyal.lemma_four_conditions", "model.audit_semifib",
                       "model.formers", "tt.parse", "tt.check", "tt.normalize", "tt.elaborate"):
            out[f"{prefix}.self_s"] = self_s(prefix)
        c = self.counts
        out["kernel.sset_key.calls"] = c["kernel.sset_key"]
        out["kernel.enumerate_maps.maps"] = c["kernel.enumerate_maps.maps"]
        out["kernel.limits.cells_out"] = c["kernel.limits.cells_out"]
        out["lifting.lifting_problems.squares"] = c["lifting.lifting_problems.squares"]
        solves = self.stats["lifting.solve_lift"][0]
        out["lifting.solve_lift.fill_ratio"] = c["lifting.solve_lift.filled"] / solves if solves else 0.0
        rlp = len(self.rlp_calls)
        distinct = len({(p.key(), fam.name, fam.depth) for p, fam in self.rlp_calls})
        out["lifting.has_rlp.distinct_ratio"] = distinct / rlp if rlp else 0.0
        out["lifting.factor_soa.attachments"] = c["lifting.factor_soa.attachments"]
        out["lifting.factor_soa.budget_exhausted"] = c["lifting.factor_soa.budget_exhausted"]
        out["joyal.invertible_edge.calls"] = self.stats["joyal.invertible_edge"][0]
        parse_total = self.stats["tt.parse"][1]
        out["tt.parse.bytes_per_s"] = c["tt.parse.bytes"] / parse_total if parse_total else 0.0
        out["tt.check.decls"] = c["tt.check.decls"]
        out["tt.check.rejected"] = c["tt.check.rejected"]
        out["tt.equal_types.calls"] = self.stats["tt.equal_types"][0]
        out["tt.elaborate.decls"] = self.stats["tt.elaborate"][0]
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.frame = [0.0]
        tr._stack.append(self.frame)
        self.sid = next(tr._ids)
        self.parent = tr._span_stack[-1]
        tr._span_stack.append(self.sid)
        self.t0 = clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = clock()
        tr._stack.pop()
        tr._stack[-1][0] += t1 - self.t0
        tr._span_stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.t0, t1))
        return False
