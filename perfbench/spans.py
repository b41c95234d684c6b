"""Spans and counters recorded from outside ampgraph, for the traced run.

A :class:`Recorder` replaces each public callable listed in :data:`TARGETS`
by a wrapper at every name the program resolves it through: the defining
module, every ``ampgraph`` module that re-imports it (``from .algebra import
verify_ck_family`` binds a second name in ``ampgraph.splitting``) and the
package namespace.  Methods are replaced on their class.  The originals are
put back when the ``with`` block ends.  A target that no longer exists is
listed in :attr:`Recorder.missing`, never dropped in silence.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _chain_counts(args, result) -> dict:
    return {"splitting.steps": len(result.steps),
            "splitting.augmented_families": len(result.augmented)}


#: span name -> (module, attribute path, counter hook or None).  A hook maps
#: ``(args, result)`` to counter increments, evaluated after the span closes.
TARGETS = {
    "coxeter.flag_graph": ("ampgraph.coxeter", "flag_graph", None),
    "coxeter.minimal_coset_reps": ("ampgraph.coxeter", "minimal_coset_reps", None),
    "coxeter.weyl_group": ("ampgraph.coxeter", "weyl_group",
                           lambda a, r: {"coxeter.weyl_group.elements": len(r)}),
    "graphs.quotient": ("ampgraph.graphs", "AmpGraph.quotient", None),
    "graphs.classify": ("ampgraph.graphs", "AmpGraph.classify", None),
    "graphs.reachable_set": ("ampgraph.graphs", "AmpGraph.reachable_set", None),
    "graphs.is_hereditary": ("ampgraph.graphs", "AmpGraph.is_hereditary", None),
    "graphs.hereditary_closure": ("ampgraph.graphs", "AmpGraph.hereditary_closure", None),
    "graphs.amplify_transitive_edges": ("ampgraph.graphs", "AmpGraph.amplify_transitive_edges", None),
    "algebra.verify_ck_family": ("ampgraph.algebra", "verify_ck_family",
                                 lambda a, r: {"algebra.verify_ck_family.families": len(a[0].edge_images)}),
    "algebra.apply": ("ampgraph.algebra", "GeneratorMap.apply", None),
    "algebra.compose": ("ampgraph.algebra", "compose", None),
    "splitting.valid_stars": ("ampgraph.splitting", "valid_stars", None),
    "splitting.build_splitting": ("ampgraph.splitting", "build_splitting", None),
    "splitting.verify_split_exact": ("ampgraph.splitting", "verify_split_exact", None),
    "splitting.multi_sink_splitting": ("ampgraph.splitting", "multi_sink_splitting", _chain_counts),
    "splitting.kk_chain": ("ampgraph.splitting", "kk_chain", _chain_counts),
    "ktheory.check_split_exact_k0": ("ampgraph.ktheory", "check_split_exact_k0", None),
    "ktheory.check_chain_k0": ("ampgraph.ktheory", "check_chain_k0", None),
    "ktheory.induced_k0": ("ampgraph.ktheory", "induced_k0", None),
    "ktheory.smith_normal_form": ("ampgraph.ktheory", "smith_normal_form", None),
    "cw.skeleton_filtration": ("ampgraph.cw", "skeleton_filtration", None),
    "cw.summarize_filtration": ("ampgraph.cw", "summarize_filtration", None),
    "cw.cw_kk_summary": ("ampgraph.cw", "cw_kk_summary", None),
    "cli.run_command": ("ampgraph.cli", "run_command", None),
    "cli.dumps": ("ampgraph.cli", "Report.dumps", None),
    "graphio.load_graph": ("ampgraph.graphio", "load_graph", None),
}

#: Element-by-element products are too many for a span each; only counted.
PRODUCT = ("ampgraph.algebra", "CKElement.__mul__", "algebra.products")

#: Every public graph query that recomputes the transitive closure today.
CLOSURE = ("graphs.classify", "graphs.reachable_set", "graphs.is_hereditary",
           "graphs.hereditary_closure", "graphs.amplify_transitive_edges")


def _span_metrics() -> dict:
    """Per-layer metric name -> ("calls" | "self", span names)."""
    out = {}
    for name in ("coxeter.minimal_coset_reps", "graphs.quotient", "algebra.verify_ck_family",
                 "algebra.apply", "splitting.valid_stars", "ktheory.smith_normal_form"):
        out[f"{name}.calls"] = ("calls", (name,))
    out["graphs.closure.calls"] = ("calls", CLOSURE)
    for name in ("coxeter.flag_graph", "coxeter.minimal_coset_reps", "coxeter.weyl_group",
                 "graphs.quotient", "algebra.verify_ck_family", "algebra.apply",
                 "algebra.compose", "splitting.valid_stars", "splitting.build_splitting",
                 "splitting.verify_split_exact", "splitting.multi_sink_splitting",
                 "splitting.kk_chain", "ktheory.check_split_exact_k0",
                 "ktheory.check_chain_k0", "ktheory.induced_k0", "ktheory.smith_normal_form",
                 "cw.skeleton_filtration", "cw.summarize_filtration", "cli.run_command",
                 "cli.dumps", "graphio.load_graph"):
        out[f"{name}.self_s"] = ("self", (name,))
    out["graphs.closure.self_s"] = ("self", CLOSURE)
    return out


SPAN_METRICS = _span_metrics()
COUNTERS = ("coxeter.weyl_group.elements", "algebra.verify_ck_family.families",
            "algebra.products", "splitting.steps", "splitting.augmented_families")


class Recorder:
    """Spans ``[id, parent, name, start, end]`` and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                counts.update(hook(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(self_, other):
            if type(other) is type(self_):
                counts[key] += 1
            return fn(self_, other)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        self.missing = []
        plan = [(mod, path, lambda fn, n=name, h=hook: self._span(n, fn, h))
                for name, (mod, path, hook) in TARGETS.items()]
        plan.append((PRODUCT[0], PRODUCT[1], lambda fn: self._counter(PRODUCT[2], fn)))
        try:
            for mod_name, path, make in plan:
                bindings = _bindings(mod_name, path)
                if not bindings:
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                wrapper = make(bindings[0][2])
                for owner, attr, original in bindings:
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            if any(vars(owner)[attr] is not original for owner, attr, original in undo):
                raise RuntimeError("a wrapped ampgraph callable was not restored")

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (calls, self seconds), self = duration minus children."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = {}
        for sid, _, name, start, end in self.spans:
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start - child[sid]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def metrics(self) -> dict:
        """Every per-layer value this pass measured, counters included."""
        per_span = self.self_times()
        out = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            idx = 0 if kind == "calls" else 1
            out[metric] = sum(per_span.get(n, (0, 0.0))[idx] for n in names)
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out


def _bindings(mod_name: str, path: str) -> list[tuple[object, str, object]]:
    """Every ``(owner, attribute, object)`` the program resolves ``path`` through."""
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return []
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in vars(cls):
            return []
        return [(cls, attr, vars(cls)[attr])]
    original = getattr(module, path, None)
    if original is None:
        return []
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "ampgraph" or name.startswith("ampgraph."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    out.append((mod, attr, value))
    return out


def scale(metrics: dict, factor: float) -> dict:
    """Times multiplied by ``factor``; counts (ints) unchanged."""
    return {k: v if isinstance(v, int) else v * factor for k, v in metrics.items()}


def combine(warmup: dict, passes: list[dict]) -> tuple[dict, list[str]]:
    """Warm-up value plus the median over traced passes, per metric.

    Counts must be identical in every pass; a metric whose count differs is
    returned in the second element.
    """
    out, unstable = {}, []
    for key in warmup:
        values = [p[key] for p in passes]
        if isinstance(warmup[key], int):
            if len(set(values)) != 1:
                unstable.append(key)
            out[key] = warmup[key] + values[0]
        else:
            out[key] = warmup[key] + statistics.median(values)
    return out, unstable
