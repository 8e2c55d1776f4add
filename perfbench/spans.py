"""In-process tracing of the program's layers, installed from outside it.

``install`` replaces each traced function with a wrapper in every
``graphicahedron`` namespace that holds it (``symmetry.flag_tables`` as well
as ``polytope.flag_tables``), so calls through any import are seen.  Each
call records a span (name, start, end, parent span) in memory; a few hooks
turn return values into exact work counts.  ``same_coset`` is only counted,
through the ``polytope`` namespace, because it runs millions of times.

``layer_totals`` turns the spans of a run into per-layer self time (span
duration minus the duration of its direct children) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter

# Spanned layers, as (module, attribute path).
TRACED = (
    ("cli", "main"),
    ("polytope", "build"),
    ("polytope", "Graphicahedron.covers"),
    ("polytope", "verify_diamond"),
    ("polytope", "verify_strong_flag_connectedness"),
    ("polytope", "flag_tables"),
    ("polytope", "vertex_figure_is_simplex"),
    ("polytope", "interval_below"),
    ("polytope", "Skeleton.vertex_edges"),
    ("symmetry", "aut_summary"),
    ("symmetry", "full_aut_order_via_flags"),
    ("symmetry", "is_vertex_transitive"),
    ("graphs", "automorphisms"),
    ("classify", "facet_census"),
    ("classify", "classify_intrinsic_rank3"),
    ("posets", "posets_isomorphic"),
    ("cayley", "build_cayley"),
    ("cayley", "export_dot"),
)

# Exact work counts, each derived from one traced function's results.
WORK_COUNTS = (
    "perms.same_coset.calls",
    "polytope.faces",
    "polytope.flags",
    "polytope.cover_pairs",
    "polytope.verify_diamond.checked",
    "polytope.verify_strong_flag_connectedness.checked",
    "classify.facets",
)


def layer_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr in TRACED]


class Tracer:
    """Spans and counts of one job; spans are ``[name, start, end, parent]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._covered: weakref.WeakSet = weakref.WeakSet()

    def _hooks(self):
        counts = self.counts
        covered = self._covered

        def faces(args, hedron):
            counts["polytope.faces"] += sum(hedron.f_vector())

        def covers(args, result):
            hedron = args[0]
            if hedron not in covered:  # covers() computes once, then caches
                covered.add(hedron)
                counts["polytope.cover_pairs"] += sum(len(v) for v in result[0].values())

        def flags(args, result):
            counts["polytope.flags"] += result[0]

        def checked(name):
            def hook(args, report):
                counts[name + ".checked"] += report.checked
            return hook

        def facets(args, census):
            counts["classify.facets"] += census.total

        return {
            "polytope.build": faces,
            "polytope.Graphicahedron.covers": covers,
            "polytope.flag_tables": flags,
            "polytope.verify_diamond": checked("polytope.verify_diamond"),
            "polytope.verify_strong_flag_connectedness": checked(
                "polytope.verify_strong_flag_connectedness"
            ),
            "classify.facet_census": facets,
        }

    def _span(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        hooks = self._hooks()
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "graphicahedron"]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"graphicahedron.{module_name}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(leaf)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._span(name, original, hooks.get(name))
            if owner_name:
                setattr(owner, leaf, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
        polytope = importlib.import_module("graphicahedron.polytope")
        if callable(getattr(polytope, "same_coset", None)):
            polytope.same_coset = self._count("perms.same_coset.calls", polytope.same_coset)
        else:
            self.missing.append("perms.same_coset")
        return self


def layer_totals(spans) -> tuple[dict[str, float], Counter]:
    """Self seconds and calls per layer name, over spans ``(name, start, end, parent)``
    whose parent index refers to the same list."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: Counter = Counter()
    for (name, start, end, _), children in zip(spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - children
        calls[name] += 1
    return self_s, calls
