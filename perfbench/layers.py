"""Per-layer metrics of a traced run, derived from span self times.

Times are microseconds of self time per contract scored in the traced
phase unless the unit says otherwise. A layer the workload never enters
reads 0. Every ``*_us`` metric below, plus ``unattributed_us``, adds up
to ``trace.e2e_us``: the time inside the benchmark's calls into the
system per contract, traced.

Which end-to-end metric each layer should move, and where (the others
are predicted not to move):

* ``disassembler.*``, ``features.transform_us``, ``predict.*``,
  ``cache.put_us``, ``cache.evictions``, ``service.self_us``:
  ``latency_p50_ms`` and ``latency_p99_ms`` on stream-open, through its
  novel fifth (one or two rows per predict call; the novel bytecodes
  outgrow ``FeatureCache`` within seconds, so LRU eviction runs);
  nothing on fleet-open, where every contract hits the prediction
  cache.
* ``cache.digest_us``, ``cache.lookup_us``, ``cache.hit_ratio``: both
  workloads; stream-open through its mixed hit/miss pattern.
* ``client.leg_us``, ``coordinator.*``, ``shm.*``, ``worker.*``:
  ``latency_p50_ms`` and ``latency_p99_ms`` on fleet-open only.
* ``scanner.*``, ``sinks.*``, ``generator.lag_p99_ms``: stream-open
  latency only.
* ``artifacts.load_s``: ``setup_s`` on every workload;
  ``fleet.spawn_s``: ``setup_s`` on fleet-open.

Both workloads are open loops, so ``throughput_cps`` holds at the
offered rate and moves only if a layer slows the system below it.
``trace.overhead_ratio`` compares the contracts per second of time
inside calls to the system (``Phase.call_rate``), traced over untraced.
"""

from __future__ import annotations

from perfbench.spans import ROOT, Attribution, setup_median
from perfbench.stats import TAIL, percentile

US = "us/contract"

#: metric name -> span name whose self time it reports
SELF_TIMES = {
    "disassembler.decode_us": "disassembler.decode",
    "disassembler.normalize_us": "disassembler.normalize",
    "features.transform_us": "features.transform",
    "predict.us": "predict",
    "cache.digest_us": "cache.digest",
    "cache.lookup_us": "cache.lookup",
    "cache.put_us": "cache.put",
    "service.self_us": "service.scan",
    "client.leg_us": "client.scan",
    "coordinator.self_us": "coordinator.scan",
    "shm.write_us": "shm.write",
    "worker.leg_us": "worker.leg",
    "worker.scan_us": "worker.scan",
    "scanner.intake_us": "scanner.intake",
    "scanner.tick_us": "scanner.tick",
    "scanner.flush_us": "scanner.flush",
    "sinks.emit_us": "sinks.emit",
    "unattributed_us": ROOT,
}


def _ratio(counts: dict, numerator: str, denominator: str) -> float:
    below = counts.get(denominator, 0)
    return counts.get(numerator, 0) / below if below else 0.0


def layer_metrics(attribution: Attribution, traced, untraced) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric."""
    contracts = max(traced.contracts, 1)
    seconds = attribution.self_seconds
    counts = attribution.counts
    metrics = {
        name: (seconds.get(span, 0.0) / contracts * 1e6, US)
        for name, span in SELF_TIMES.items()
    }
    metrics.update({
        "predict.rows_per_call": (
            _ratio(counts, "predict.rows", "predict.calls"), "rows/call"),
        "cache.hit_ratio": (
            _ratio(counts, "cache.hits", "cache.lookups"), "ratio"),
        "cache.evictions": (
            counts.get("cache.evictions", 0) / contracts, "1/contract"),
        "coordinator.unique_ratio": (
            _ratio(counts, "coordinator.unique", "coordinator.addresses"),
            "ratio"),
        "shm.bytes": (counts.get("shm.bytes", 0) / contracts, "B/contract"),
        "scanner.queue_wait_ms": (
            _ratio(counts, "scanner.wait_s", "scanner.events") * 1e3, "ms"),
        "scanner.events_per_flush": (
            _ratio(counts, "scanner.events", "scanner.flushes"),
            "events/flush"),
        "sinks.failed": (counts.get("sinks.failed", 0), "count"),
        "artifacts.load_s": (
            setup_median(attribution, "artifacts.load"), "s"),
        "fleet.spawn_s": (setup_median(attribution, "fleet.spawn"), "s"),
        "generator.lag_p99_ms": (
            percentile(untraced.generator_lag, TAIL) * 1e3
            if untraced.generator_lag else 0.0, "ms"),
        "trace.e2e_us": (attribution.root_seconds / contracts * 1e6, US),
        "trace.overhead_ratio": (
            traced.call_rate / untraced.call_rate
            if untraced.call_rate else 0.0, "ratio"),
    })
    return metrics
