"""Spans around opnorm's public functions, installed from outside the package.

``Tracer.install`` replaces each target function with a wrapper under every
name that an ``opnorm`` module binds it to, so calls are caught at the name
the package resolves at call time (``estimator.anchor_norms`` as well as
``exact.anchor_norms``).  ``uninstall`` puts the originals back; both are
cheap enough to toggle around every single query.  A target that no longer
exists is reported as absent instead of failing the run.

Spans are kept in memory as ``(name, start, end, parent, query)`` and written
out by ``write``.  A span's self time is its duration minus the durations of
its direct children, so time spent in helpers that are not wrapped counts
toward the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: (module, function, what to record).  "span" times the call; "count" only
#: counts it, for helpers called thousands of times per query.
TARGETS = (
    ("core", "vec_norm", "count"),
    ("exact", "anchor_norms", "span"),
    ("exact", "norm_two", "span"),
    ("exact", "norm_one_attained", "span"),
    ("exact", "norm_inf_attained", "span"),
    ("structured", "split_direct_sum", "recognizer"),
    ("structured", "doubly_balanced_norm", "recognizer"),
    ("structured", "as_circulant", "recognizer"),
    ("structured", "as_hankel", "recognizer"),
    ("structured", "as_tensor_rank_one", "recognizer"),
    ("structured", "classify_circulant_la", "span"),
    ("structured", "circulant_two_norm", "span"),
    ("structured", "hankel_factor", "span"),
    ("interp", "upper_bound_from_anchors", "span"),
    ("interp", "la_report_from_anchors", "span"),
    ("interp", "la_envelope", "span"),
    ("interp", "profile", "span"),
    ("estimator", "certified_bound", "span"),
    ("estimator", "best_lower_bound", "span"),
    ("estimator", "ascent_lower_bound", "ascent"),
    ("estimator", "eigen_lower_bound", "span"),
    ("matio", "read_matrix", "span"),
    ("cli", "main", "span"),
)

PACKAGE = "opnorm"
MODULES = ("structured", "exact", "interp", "estimator", "matio", "cli", "core")
QUERY = "query"


def _recognized(result) -> bool:
    if isinstance(result, list):  # split_direct_sum: more than one block
        return len(result) > 1
    return result is not None


class Tracer:
    """Collects spans, call counts and per-call outcomes while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.hits = 0
        self.ascent_iterations: list[int] = []
        self.ascent_converged: list[bool] = []
        self.absent: list[str] = []
        self.query = -1
        self._stack: list[int] = []
        self._points: list | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._points is None:
            self._points = self._find_points()
        for m, attr, _, wrapper in self._points:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original, _ in reversed(self._points or []):
            setattr(m, attr, original)

    def _find_points(self) -> list:
        """(module, attribute, original, wrapper) for every binding of a target."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        points = []
        for mod, func, kind in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{mod}")
            original = getattr(owner, func, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{mod}.{func}")
                continue
            wrapper = self._wrap(f"{mod}.{func}", original, kind)
            for m in modules:
                points += [(m, attr, original, wrapper)
                           for attr, value in vars(m).items() if value is original]
        return points

    def _wrap(self, name: str, fn, kind: str):
        counts = self.counts
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            result = self.span(name, fn, *args, **kwargs)
            if kind == "recognizer":
                self.hits += _recognized(result)
            elif kind == "ascent":
                self.ascent_iterations.append(int(getattr(result, "iterations", 0)))
                self.ascent_converged.append(bool(getattr(result, "converged", False)))
            return result
        return spanned

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``, child of the open span."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, time.perf_counter(), parent, self.query)
            stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Summed duration per span name, counting only outermost spans of it."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            anc = parent
            while anc >= 0 and self.spans[anc][0] != name:
                anc = self.spans[anc][3]
            if anc < 0:
                out[name] += end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "absent": self.absent}) + "\n")
