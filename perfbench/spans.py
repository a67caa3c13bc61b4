"""Span recorder for the traced run, installed from outside ``src/``.

The recorder replaces layer functions with timing wrappers by patching
module and class attributes, so the program itself is not edited. Where
a module imports a layer function by name (``repro.serve.service``
imports ``normalize_bytecode``, ``repro.serve.cache`` imports
``decode_mnemonic_ids``), the name is patched in the importing module.

A span has a name, a start, an end, a parent and a trace. The parent is
the index of the enclosing span of the same thread (-1 for none); the
trace numbers the request and is inherited from the parent (-1 for
none). The benchmark opens each request's root span. Spans recorded in
another thread or process (the fleet coordinator's handler, a worker)
have no parent and are adopted at the end by the innermost span whose
interval contains them, which is exact while one request is in flight.
Worker processes inherit the wrappers across ``fork`` and write their
spans to a file when ``worker_main`` returns. Counts are kept per
outermost span of the counting thread, so that only work inside a
request is counted.

A span's self time is its duration minus the part of it its children
cover. Within a request the self times add up to the root's duration;
the root's own self time is the part no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pathlib
import statistics
import threading
from array import array
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Name of the benchmark's own span around each request.
ROOT = "bench.request"


class Spans:
    """Spans as columns; a span is its index. ``counts`` maps the
    outermost open span of the counting thread to its counts."""

    def __init__(self):
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self.counts: dict[int, dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self.name)

    def append(self, name: str, start: float, end: float,
               parent: int = -1, trace: int = -1) -> int:
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.trace.append(trace)
        return len(self.name) - 1

    def add(self, anchor: int, key: str, value: float) -> None:
        """Add ``value`` to a count carried by span ``anchor``."""
        counts = self.counts.setdefault(anchor, {})
        counts[key] = counts.get(key, 0) + value

    def extend(self, other: "Spans") -> None:
        """Append ``other``, shifting its parent indices."""
        offset = len(self)
        self.name.extend(other.name)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in other.parent)
        self.trace.extend(other.trace)
        for span, counts in other.counts.items():
            self.counts[span + offset] = counts

    def write(self, path: pathlib.Path) -> None:
        """Write every column to ``path`` (npz)."""
        names = sorted(set(self.name))
        code = {name: i for i, name in enumerate(names)}
        np.savez(
            path,
            names=np.array(names or [""]),
            name=np.array([code[n] for n in self.name], np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64),
            parent=np.frombuffer(self.parent, np.int64),
            trace=np.frombuffer(self.trace, np.int64),
            counts=np.array(json.dumps(
                {str(span): c for span, c in self.counts.items()})),
        )

    @classmethod
    def read(cls, path: pathlib.Path,
             rename: dict[str, str] | None = None) -> "Spans":
        """Spans written by :meth:`write`, names mapped through ``rename``."""
        rename = rename or {}
        spans = cls()
        with np.load(path) as data:
            names = [rename.get(n, n) for n in data["names"].tolist()]
            spans.name = [names[i] for i in data["name"].tolist()]
            spans.start = array("d", data["start"].tobytes())
            spans.end = array("d", data["end"].tobytes())
            spans.parent = array("q", data["parent"].tobytes())
            spans.trace = array("q", data["trace"].tobytes())
            counts = json.loads(str(data["counts"]))
        spans.counts = {int(span): c for span, c in counts.items()}
        return spans


class Recorder:
    """Records spans into :class:`Spans`, kept in memory until the end."""

    def __init__(self):
        self.spans = Spans()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, root: bool = False) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if root:
            self._traces += 1
            trace = self._traces
        else:
            trace = self.spans.trace[parent] if stack else -1
        with self._lock:  # the span's index is its position
            span = self.spans.append(name, 0.0, 0.0, parent, trace)
        stack.append(span)
        self.spans.start[span] = perf_counter()
        return span

    def close(self, span: int) -> None:
        self.spans.end[span] = perf_counter()
        self._stack().pop()

    def add(self, span: int, key: str, value: float) -> None:
        """Count work done in the just-closed ``span``."""
        stack = self._stack()
        self.spans.add(stack[0] if stack else span, key, value)

    def add_current(self, key: str, value: float) -> None:
        """Count work done inside the open spans of this thread (dropped
        when none is open: the work is outside any traced request)."""
        stack = self._stack()
        if stack:
            self.spans.add(stack[0], key, value)

    def forked(self) -> None:
        """Start empty in a freshly forked child process."""
        self.spans = Spans()
        self._local = threading.local()
        self._lock = threading.Lock()


# ---------------------------------------------------------------------- #
# Hooks: which layer functions are wrapped, and what each one counts
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap.

    ``span`` names the span the wrapper records (``None`` records none
    and only counts); ``name_of(args)`` may choose the name per call,
    returning ``None`` to pass the call through untimed. ``after(rec,
    span, args, result)`` records counts once the call returns.
    """

    module: str
    attr: str
    span: str | None = None
    name_of: Callable | None = None
    after: Callable | None = None


def _count_lookup(rec, span, args, result):
    rec.add(span, "cache.lookups", 1)
    rec.add(span, "cache.hits", int(result[0]))


def _count_evictions(rec, span, args, result):
    if result:
        rec.add_current("cache.evictions", result)


def _count_rows(rec, span, args, result):
    rec.add(span, "predict.calls", 1)
    rec.add(span, "predict.rows", len(args[1]))


def _count_dispatch(rec, span, args, result):
    # FleetCoordinator._dispatch(self, shard, addresses, code_of, unique)
    rec.add_current("coordinator.addresses", len(args[2]))
    rec.add_current("coordinator.unique", len(args[4]))


def _count_shm(rec, span, args, result):
    rec.add(span, "shm.bytes", result)


def _count_flush(rec, span, args, result):
    # StreamScanner._score(self, batch): wait from due time to flush.
    batch = args[1]
    rec.add(span, "scanner.flushes", 1)
    rec.add(span, "scanner.events", len(batch))
    rec.add(span, "scanner.wait_s",
            sum(rec.spans.start[span] - event.enqueued_at
                for event in batch))


def _count_emit(rec, span, args, result):
    rec.add(span, "sinks.emits", 1)
    rec.add(span, "sinks.failed", int(not result))


def _worker_leg(args):
    return "worker.leg" if args[1].endswith("/scan") else None


HOOKS = (
    Hook("repro.serve.service", "normalize_bytecode",
         "disassembler.normalize"),
    Hook("repro.serve.cache", "normalize_bytecode", "disassembler.normalize"),
    Hook("repro.serve.cache", "decode_mnemonic_ids", "disassembler.decode"),
    Hook("repro.features.histogram", "OpcodeHistogramExtractor.transform",
         "features.transform"),
    Hook("repro.ml.forest", "RandomForestClassifier.predict_proba",
         "predict", after=_count_rows),
    Hook("repro.serve.service", "bytecode_digest", "cache.digest"),
    Hook("repro.serve.cache", "bytecode_digest", "cache.digest"),
    Hook("repro.serve.cache", "FeatureCache.lookup", "cache.lookup",
         after=_count_lookup),
    Hook("repro.serve.cache", "FeatureCache.put", "cache.put"),
    Hook("repro.serve.cache", "FeatureCache._evict_over_bound",
         after=_count_evictions),
    Hook("repro.serve.service", "ScanService.scan_bytecodes",
         "service.scan"),
    Hook("repro.net.fleet", "FleetClient.scan", "client.scan"),
    Hook("repro.net.fleet", "FleetManager.start", "fleet.spawn"),
    Hook("repro.net.coordinator", "FleetCoordinator.scan",
         "coordinator.scan"),
    Hook("repro.net.coordinator", "FleetCoordinator._dispatch",
         after=_count_dispatch),
    Hook("repro.net.client", "http_json", name_of=_worker_leg),
    Hook("repro.net.shm", "ShmRing.write_blocks", "shm.write",
         after=_count_shm),
    Hook("repro.stream.scanner", "StreamScanner.on_event",
         "scanner.intake"),
    Hook("repro.stream.scanner", "StreamScanner.tick", "scanner.tick"),
    Hook("repro.stream.scanner", "StreamScanner._score", "scanner.flush",
         after=_count_flush),
    Hook("repro.stream.sinks", "AlertSink.emit", "sinks.emit",
         after=_count_emit),
    Hook("repro.artifacts.store", "ModelStore.load", "artifacts.load"),
)

#: In a fleet worker the service call is the worker's scan.
WORKER_RENAME = {"service.scan": "worker.scan"}


def _wrap(fn, rec: Recorder, hook: Hook):
    name, name_of, after = hook.span, hook.name_of, hook.after

    if name is None and name_of is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, None, args, result)
            return result

        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        label = name if name_of is None else name_of(args)
        if label is None:
            return fn(*args, **kwargs)
        span = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec, span, args, result)
        return result

    return timed


def _resolve(hook: Hook):
    owner = importlib.import_module(hook.module)
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the hooks on one recorder and removes them again.

    Worker processes forked while installed record into their copy of
    the recorder and write it to ``span_dir`` when they exit.
    """

    def __init__(self, span_dir: pathlib.Path, hooks=HOOKS):
        self.recorder = Recorder()
        self.span_dir = span_dir
        self.hooks = hooks
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for hook in self.hooks:
            owner, attr = _resolve(hook)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, self.recorder, hook))
        worker = importlib.import_module("repro.net.worker")
        original_main = worker.worker_main
        self._saved.append((worker, "worker_main", original_main))
        recorder, span_dir = self.recorder, self.span_dir

        @functools.wraps(original_main)
        def traced_worker_main(*args, **kwargs):
            recorder.forked()
            try:
                return original_main(*args, **kwargs)
            finally:
                recorder.spans.write(span_dir / f"spans-{os.getpid()}.npz")

        worker.worker_main = traced_worker_main
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def all_spans(self) -> Spans:
        """This process's spans plus every span file workers wrote."""
        spans = self.recorder.spans
        for path in sorted(self.span_dir.glob("spans-*.npz")):
            spans.extend(Spans.read(path, WORKER_RENAME))
        return spans


# ---------------------------------------------------------------------- #
# Attribution: adoption, self time, aggregation
# ---------------------------------------------------------------------- #


@dataclass
class Attribution:
    """Per-layer totals over every span inside a root span."""

    self_seconds: dict[str, float]
    counts: dict[str, float]
    roots: int
    root_seconds: float
    setup_seconds: dict[str, list[float]]
    adopted: int
    outside: int


def _children(spans: Spans) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for span, parent in enumerate(spans.parent):
        if parent >= 0:
            children[parent].append(span)
    return children


def covered(interval: tuple[float, float],
            parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def attribute(spans: Spans, root: str = ROOT) -> Attribution:
    """Adopt orphan spans into the requests that contain them, then sum
    self time and counts per span name over every request.

    One sweep in start order (longer first on ties) keeps the stack of
    spans still open at that point of the current request; an orphan's
    parent is the innermost of them that outlasts it.
    """
    names, start, end = spans.name, spans.start, spans.end
    parent, trace = spans.parent, spans.trace
    order = np.lexsort((-np.frombuffer(end), np.frombuffer(start)))
    roots: list[int] = []
    stack: list[int] = []
    adopted = outside = 0
    for span in order.tolist():
        if names[span] == root:
            roots.append(span)
            stack = [span]
            continue
        if not stack or end[span] > end[stack[0]]:
            outside += parent[span] < 0
            continue
        while end[stack[-1]] < start[span]:
            stack.pop()
        if parent[span] < 0:
            parent[span] = next(host for host in reversed(stack)
                                if end[host] >= end[span])
            adopted += 1
        trace[span] = trace[stack[0]]
        stack.append(span)

    children = _children(spans)
    self_seconds: dict[str, float] = defaultdict(float)
    for span, number in enumerate(trace):
        if number >= 0:
            parts = [(start[c], end[c]) for c in children.get(span, ())]
            self_seconds[names[span]] += (
                end[span] - start[span]
                - covered((start[span], end[span]), parts)
            )
    counts: dict[str, float] = defaultdict(float)
    for anchor, values in spans.counts.items():
        if trace[anchor] >= 0:
            for key, value in values.items():
                counts[key] += value

    setup: dict[str, list[float]] = defaultdict(list)
    for span, name in enumerate(names):
        if trace[span] < 0 and parent[span] < 0:
            setup[name].append(end[span] - start[span])
    return Attribution(
        self_seconds=dict(self_seconds),
        counts=dict(counts),
        roots=len(roots),
        root_seconds=sum(end[i] - start[i] for i in roots),
        setup_seconds=dict(setup),
        adopted=adopted,
        outside=outside,
    )


def setup_median(attribution: Attribution, name: str) -> float:
    """Median duration of set-up spans (outside any request) named
    ``name``; 0.0 when there were none."""
    values = attribution.setup_seconds.get(name)
    return statistics.median(values) if values else 0.0
