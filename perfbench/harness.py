"""Shared machinery of the benchmark: spans, counter deltas, statistics.

Spans are recorded by the benchmark itself, around each call it makes
into one layer of the program (``core.schedule``, ``flow.sweep``,
``sim.machine`` ...).  Nothing inside ``src/`` is instrumented for the
benchmark: work counts come from the counters the program already keeps
(:data:`repro.obs.REGISTRY`), read as snapshot deltas around each span.

With tracing off a span is a no-op that hands back its attribute dict,
so the untraced run pays one function call per layer call.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence


class Recorder:
    """Benchmark-side spans: name, start, end, parent, counter deltas."""

    def __init__(self, trace: bool, registry=None) -> None:
        self.trace = bool(trace)
        #: the program's metrics registry (``repro.obs.REGISTRY``);
        #: set once the program is imported.
        self.registry = registry
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> Dict[str, int]:
        if self.registry is None:
            return {}
        return self.registry.snapshot()["counters"]

    @contextmanager
    def span(self, name: str, **attrs):
        """Time one layer call; yields its (mutable) attribute dict."""
        if not self.trace:
            yield attrs
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        before = self._counters()
        start = time.time()
        t0 = time.perf_counter()
        stack.append(span_id)
        try:
            yield attrs
        finally:
            stack.pop()
            dur = time.perf_counter() - t0
            after = self._counters()
            delta = {key: value - before.get(key, 0)
                     for key, value in after.items()
                     if value != before.get(key, 0)}
            if delta:
                attrs["counters"] = delta
            with self._lock:
                self.spans.append({
                    "name": name, "id": span_id, "parent": parent,
                    "ts": start, "dur": dur, "pid": self._pid,
                    "tid": threading.get_ident(), "attrs": attrs})

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        children: Dict[int, List[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = {}
        for span in self.spans:
            covered = _union_length(
                (c["ts"], c["ts"] + c["dur"])
                for c in children.get(span["id"], ()))
            out[span["id"]] = max(0.0, span["dur"] - covered)
        return out

    def roots(self, name: str) -> List[dict]:
        """Top-level spans of one name (one per measured iteration)."""
        return sorted((s for s in self.spans
                       if s["name"] == name and s["parent"] is None),
                      key=lambda s: s["ts"])

    def by_root(self) -> Dict[int, int]:
        """Span id -> id of its top-level ancestor."""
        parent = {s["id"]: s["parent"] for s in self.spans}
        out = {}
        for span_id in parent:
            node = span_id
            while parent.get(node) is not None:
                node = parent[node]
            out[span_id] = node
        return out

    def write_jsonl(self, path: str, schema: int) -> str:
        """The spans in the program's JSONL trace format."""
        lines = [json.dumps({"trace_schema": schema}, sort_keys=True)]
        for span in sorted(self.spans, key=lambda s: s["id"]):
            lines.append(json.dumps(span, sort_keys=True, default=str))
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return path


def _union_length(intervals: Iterable[Sequence[float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class LayerView:
    """Per-iteration layer figures drawn from a :class:`Recorder`.

    Times are the median over measured iterations of each layer's
    summed self time; counts come from the *first* iteration only, so
    they describe a fixed amount of work and repeat exactly across runs
    with the same seed however many iterations fit in the run.
    """

    def __init__(self, recorder: Recorder, root: str) -> None:
        self.recorder = recorder
        self.roots = recorder.roots(root)
        self._self = recorder.self_times()
        self._root_of = recorder.by_root()
        first = self.roots[0]["id"] if self.roots else None
        self._first = [s for s in recorder.spans
                       if self._root_of.get(s["id"]) == first]

    def self_s(self, *names: str, **match) -> float:
        """Median per-iteration self time of the named spans (those
        whose attributes equal every ``match`` item)."""
        if not self.roots:
            return 0.0
        per_root = {r["id"]: 0.0 for r in self.roots}
        for span in self.recorder.spans:
            root = self._root_of.get(span["id"])
            if span["name"] in names and root in per_root \
                    and _matches(span, match):
                per_root[root] += self._self[span["id"]]
        return statistics.median(per_root.values())

    def first(self, name: str, **match) -> List[dict]:
        """Spans of one name within the first iteration."""
        return [s for s in self._first
                if s["name"] == name and _matches(s, match)]

    def counter(self, key: str, *names: str) -> int:
        """A program counter's delta summed over the named spans of the
        first iteration."""
        return sum(s["attrs"].get("counters", {}).get(key, 0)
                   for s in self._first if s["name"] in names)

    def attr_sum(self, name: str, attr: str) -> float:
        """An attribute summed over one span name (first iteration)."""
        return sum(s["attrs"].get(attr, 0) for s in self.first(name))


def _matches(span: dict, match: dict) -> bool:
    return all(span["attrs"].get(k) == v for k, v in match.items())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear between order statistics."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def beyond(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def ratio(hits: float, base: float) -> float:
    """hits / base, 0.0 on an empty base."""
    return hits / base if base else 0.0


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx if sxx else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


#: median time of :func:`calibration_s` on the reference host (2 vCPU
#: Intel Xeon at 2.1 GHz, quiet).
CALIB_REF_S = 0.0068


class _Node:
    __slots__ = ("i", "succ", "depth", "tag")

    def __init__(self, i: int) -> None:
        self.i = i
        self.succ: List["_Node"] = []
        self.depth = 0
        self.tag = None


def calibration_s() -> float:
    """Seconds taken by fixed pure-Python work shaped like the program's:
    allocate an object graph, sort it, relax depths along its edges,
    build and walk a tuple-keyed dict.  It lives in the benchmark, not
    in ``src/``, so it is the same on every commit the benchmark
    compares."""
    t0 = time.perf_counter()
    nodes = [_Node(i) for i in range(4000)]
    x = 12345
    for node in nodes[1:]:
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            nodes[x % node.i].succ.append(node)
    order = sorted(nodes, key=lambda nd: (len(nd.succ), nd.i))
    for node in nodes:
        for succ in node.succ:
            if succ.depth < node.depth + 1:
                succ.depth = node.depth + 1
    acc = 0
    for key, node in {(nd.i, nd.depth): nd for nd in order}.items():
        acc += key[1] * len(node.succ)
        node.tag = (acc & 1023, key)
    return time.perf_counter() - t0


def calibrate(samples: int) -> float:
    """The median of ``samples`` runs of :func:`calibration_s`."""
    return statistics.median(calibration_s() for _ in range(samples))


def reference_s(seconds: float, calib: float) -> float:
    """``seconds`` measured next to a calibration of ``calib`` seconds,
    as reference-host seconds."""
    return seconds * CALIB_REF_S / calib


class UnitTimer:
    """Per-unit times over the repeats of one run, in reference-host
    seconds.

    Each unit of work (a design, a kernel, a public call) is repeated
    for the whole run.  Every repeat starts from a freshly collected
    heap and is followed by runs of :func:`calibration_s`; its time
    divided by their median, times :data:`CALIB_REF_S`, is the
    repeat's time on the reference host, and a unit's time is the
    median over its repeats.  A shared host has slow stretches of
    seconds to minutes; a repeat and the calibration right after it
    share one, so their ratio does not see it (measured on a 2-CPU host:
    ten 15-second windows of one fixed ladder spread 30% as measured
    and 4.7% this way).
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[tuple]] = {}

    @contextmanager
    def timed(self, unit: str):
        """Time one repeat of ``unit``; yields a dict in which the body
        may record the seconds of a part of it (see :meth:`times`).

        The heap is collected first: what ran before would otherwise
        decide when the collector runs inside the repeat (measured: the
        same design took 162 ms fourth in a pass and 246 ms first, right
        after the regions were built)."""
        parts: Dict[str, float] = {}
        gc.collect()
        t0 = time.perf_counter()
        yield parts
        seconds = time.perf_counter() - t0
        # one calibration per started 0.1 s of the repeat (at most 10),
        # so a long repeat is not scaled by one short, noisy sample
        calib = calibrate(min(10, 1 + int(seconds / 0.1)))
        self.samples.setdefault(unit, []).append((seconds, calib, parts))

    def times(self, part: str = "") -> Dict[str, float]:
        """unit -> its median reference-host time (of one recorded part
        of it, when ``part`` is given)."""
        return {unit: statistics.median(
                    reference_s(p[part] if part else t, c)
                    for t, c, p in reps)
                for unit, reps in self.samples.items()}

    def total(self, part: str = "") -> float:
        """All units' times summed: one repeat of the whole set."""
        return sum(self.times(part).values())


class Checks:
    """Correctness checks of one run: each is one attempt."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Deadline:
    """The measuring window: start another iteration only if the last
    one's duration still fits, but always run at least one."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.seconds = float(seconds)
        self.iterations = 0
        self._last = 0.0

    def more(self) -> bool:
        if not self.iterations:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + self._last <= self.seconds

    def done(self, iteration_s: float) -> None:
        self.iterations += 1
        self._last = iteration_s

    def remaining(self) -> float:
        return self.seconds - (time.perf_counter() - self.start)
