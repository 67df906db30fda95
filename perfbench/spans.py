"""Outside-in span recorder for the repository benchmark.

The recorder replaces public functions *at the name their caller looks
up* (``repro.core.engine.run_union_fast``, ``IndexBuilder.build`` on its
class, ...) with thin wrappers, so the program under test is measured
without a line of it changing. Every wrapped call becomes a span
``[name, start, end, parent, request]`` kept in memory; counters are
bumped at the same boundaries. :func:`self_times` turns the span tree
into per-layer self time (a span's duration minus the time its child
spans cover), and :meth:`SpanRecorder.dump` writes everything out once
the run is over.

The process is single-threaded (one client, logical workers on the
virtual timeline), so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: Probe kinds: a timed span, a call counter, or a counter split by
#: whether the call returned ``None`` (``.misses``) or not (``.hits``).
SPAN = "span"
COUNT = "count"
HIT_MISS = "hit_miss"


@dataclass(frozen=True)
class Probe:
    """One wrap point: ``attr`` (dotted, e.g. ``Class.method``) of
    ``module``, recorded under ``name``."""

    module: str
    attr: str
    name: str
    kind: str = SPAN


class SpanRecorder:
    """Installs probes, records spans and counts, removes the probes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.epoch = clock()
        #: ``[name, start, end, parent_index, request]`` per span; times
        #: are seconds since :attr:`epoch`, parent ``-1`` at the root.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Request id stamped on spans opened while it is set.
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------
    # Probe installation
    # ------------------------------------------------------------------

    def install(self, probes: Sequence[Probe]) -> None:
        """Wrap every probe target; :meth:`uninstall` restores them."""
        try:
            for probe in probes:
                owner, attr = _resolve(probe.module, probe.attr)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(probe, original))
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        name = probe.name
        counts = self.counts
        if probe.kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        if probe.kind == HIT_MISS:
            hit, miss = name + ".hits", name + ".misses"

            @functools.wraps(fn)
            def classified(*args, **kwargs):
                value = fn(*args, **kwargs)
                counts[miss if value is None else hit] += 1
                return value
            return classified
        if probe.kind != SPAN:
            raise ValueError(f"unknown probe kind {probe.kind!r}")

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return spanned

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``.

        A call made while a span of the same name is innermost (a
        ``super()`` chain or recursion inside one layer) is not a new
        layer boundary: it runs unrecorded inside the open span.
        """
        stack = self._stack
        spans = self.spans
        if stack and spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
        spans.append(span)
        self.counts[name + ".calls"] += 1
        stack.append(index)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            span[1] = start - self.epoch
            span[2] = end - self.epoch

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path, **extra) -> None:
        """Write spans, counts and ``extra`` fields as one JSON file."""
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent",
                                  "request"]
        payload["spans"] = self.spans
        payload["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self seconds per span name over a ``[name, start, end, parent,
    ...]`` span list: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            covered[parent] += span[2] - span[1]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span[2] - span[1]) - covered[index]
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def _resolve(module_name: str, dotted: str):
    """``(owner, attribute)`` for ``module_name`` + ``Class.attr``."""
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in owner.__dict__:
        raise AttributeError(f"{module_name}.{dotted} is not defined there")
    return owner, attr
