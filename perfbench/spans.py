"""Spans and call counts around polarbounds' public names, taken from outside.

A Tracer replaces module attributes with timing wrappers for the length of a
`with` block and puts the originals back on exit, so untraced passes run the
library unmodified. Each span is (id, parent id, name, start, end); spans
stay in memory until the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, defaultdict

ROOT_SPAN = "bench.pass"


class Tracer:
    """Patches (module, attribute) targets as spans or as plain call counters.

    `targets` holds (module, attribute, name, kind) with kind "span" or
    "count". Several targets may share a name, e.g. one function imported
    into several modules. A target whose attribute does not exist is listed
    in `absent` and never patched.
    """

    def __init__(self, targets):
        self.spans = []
        self.counts = Counter()
        self._targets = [t for t in targets if hasattr(t[0], t[1])]
        self.absent = sorted(f"{m.__name__}.{a}" for m, a, _, _ in targets
                             if not hasattr(m, a))
        self.absent_names = {name for m, a, name, _ in targets
                             if not hasattr(m, a)}
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved = []

    def _span(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for module, attr, name, kind in self._targets:
            original = getattr(module, attr)
            wrap = self._span if kind == "span" else self._counter
            setattr(module, attr, wrap(name, original))
            self._saved.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def run_pass(self, fn):
        """Run fn() under a root span; return its result and this pass's stats."""
        first = len(self.spans)
        before = Counter(self.counts)
        result = self._span(ROOT_SPAN, fn)()
        counts = Counter(self.counts)
        counts.subtract(before)
        return result, LayerStats(self.spans[first:], +counts)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


class LayerStats:
    """Calls, inclusive time and self time per span name for one pass.

    Self time is a span's duration minus the time its direct children cover;
    children of one span never overlap because calls nest on one thread.
    """

    def __init__(self, spans, counts):
        child = defaultdict(float)
        for _, parent, _, start, end in spans:
            child[parent] += end - start
        self.calls = Counter(counts)
        self.incl = defaultdict(float)
        self.self = defaultdict(float)
        for sid, _, name, start, end in spans:
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self[name] += end - start - child[sid]

    def self_sum(self) -> float:
        return sum(self.self.values())
