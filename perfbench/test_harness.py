"""Tests of the benchmark harness's own arithmetic and input generation.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench
"""

import threading

import pytest

from perfbench import spans as spans_module
from perfbench.inputs import (
    Pool,
    RepeatInputs,
    StreamInputs,
    metadata_trailer,
)
from perfbench.spans import (
    ROOT,
    Recorder,
    Spans,
    Tracer,
    attribute,
    covered,
)
from perfbench.stats import (
    block_median,
    highest_supported,
    latency_summary,
    min_samples,
    percentile,
    samples_beyond,
    spread,
)


# ---------------------------------------------------------------------- #
# The "ten samples beyond the percentile" rule
# ---------------------------------------------------------------------- #


def test_p99_needs_a_thousand_samples():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert min_samples(0.99, 10) == 1000
    assert min_samples(0.5, 10) == 20


def test_latency_summary_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        latency_summary([0.001] * 999)
    summary = latency_summary([i / 1000 for i in range(1, 1001)])
    assert summary["samples"] == 1000
    assert summary["beyond_p99"] == 10
    assert summary["p50_pooled_ms"] == pytest.approx(500.0)
    assert summary["p99_ms"] == pytest.approx(990.0)


def test_block_median_weighs_both_speed_states():
    # 60% of the run fast (1.0), 40% slow (2.0), in long stretches: the
    # plain median is the fast mode, the block median sits between.
    values = [1.0] * 600 + [2.0] * 400
    assert block_median(values, 200) == pytest.approx(1.4)
    assert block_median([3.0, 1.0, 2.0], 200) == 2.0


def test_highest_supported_percentile():
    assert highest_supported(1000) == pytest.approx(0.99)
    assert highest_supported(10_000) == pytest.approx(0.999)
    assert highest_supported(10) == 0.0


def test_nearest_rank_percentile():
    assert percentile([3, 1, 2, 4], 0.5) == 2
    assert percentile([3, 1, 2, 4], 1.0) == 4
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_matches_statistics_quantiles():
    summary = spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert summary["median"] == 12.0
    assert summary["q1"] == 10.5 and summary["q3"] == 13.5
    assert summary["iqr_ratio"] == pytest.approx(3.0 / 12.0)
    assert summary["range_ratio"] == pytest.approx(4.0 / 12.0)


# ---------------------------------------------------------------------- #
# Self time: span time minus child coverage
# ---------------------------------------------------------------------- #


def _add(spans, name, start, end, parent=-1, trace=-1):
    """Append a span; a child inherits its parent's trace."""
    if parent >= 0:
        trace = spans.trace[parent]
    return spans.append(name, start, end, parent, trace)


def test_covered_merges_overlapping_children():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_subtracts_children_and_sums_to_the_root():
    spans = Spans()
    root = _add(spans, ROOT, 0.0, 10.0, trace=1)
    scan = _add(spans, "service.scan", 1.0, 9.0, root)
    _add(spans, "disassembler.decode", 2.0, 5.0, scan)
    _add(spans, "predict", 5.0, 8.0, scan)
    result = attribute(spans)
    assert result.self_seconds == {
        ROOT: 2.0, "service.scan": 2.0,
        "disassembler.decode": 3.0, "predict": 3.0,
    }
    assert sum(result.self_seconds.values()) == result.root_seconds == 10.0


def test_orphans_are_adopted_by_the_innermost_container():
    # Client thread: root > client.scan > (HTTP, untraced).
    # Coordinator thread: coordinator.scan > worker.leg (no parent).
    # Worker process: worker.scan > cache.lookup (no parent).
    spans = Spans()
    root = _add(spans, ROOT, 0.0, 100.0, trace=1)
    client = _add(spans, "client.scan", 1.0, 99.0, root)
    coordinator = _add(spans, "coordinator.scan", 10.0, 90.0)
    leg = _add(spans, "worker.leg", 20.0, 80.0, coordinator)
    worker = _add(spans, "worker.scan", 30.0, 70.0)
    lookup = _add(spans, "cache.lookup", 40.0, 50.0, worker)
    _add(spans, "artifacts.load", 200.0, 205.0)
    result = attribute(spans)
    assert spans.parent[coordinator] == client
    assert spans.parent[worker] == leg
    assert spans.trace[worker] == spans.trace[lookup] == 1
    assert result.adopted == 2 and result.outside == 1
    assert result.self_seconds["client.scan"] == 98.0 - 80.0
    assert result.self_seconds["worker.leg"] == 60.0 - 40.0
    assert result.self_seconds["worker.scan"] == 30.0
    assert sum(result.self_seconds.values()) == 100.0
    assert result.setup_seconds == {"artifacts.load": [5.0]}


def test_counts_outside_requests_are_not_summed():
    spans = Spans()
    root = _add(spans, ROOT, 0.0, 10.0, trace=1)
    inside = _add(spans, "cache.lookup", 1.0, 2.0, root)
    warmup = _add(spans, "cache.lookup", 20.0, 21.0)
    spans.add(inside, "cache.hits", 1)
    spans.add(warmup, "cache.hits", 5)
    assert attribute(spans).counts == {"cache.hits": 1}


def test_recorder_nests_per_thread_and_round_trips(tmp_path):
    rec = Recorder()
    root = rec.open(ROOT, root=True)
    child = rec.open("predict")
    rec.add(child, "predict.rows", 32)
    rec.close(child)
    rec.close(root)
    box = {}

    def other_thread():
        box["span"] = rec.open("coordinator.scan")
        rec.close(box["span"])

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    spans = rec.spans
    assert list(spans.parent) == [-1, root, -1]
    assert list(spans.trace) == [1, 1, -1]
    assert all(e >= s for s, e in zip(spans.start, spans.end))

    spans.write(tmp_path / "spans.npz")
    loaded = Spans.read(tmp_path / "spans.npz", {"predict": "renamed"})
    assert loaded.name == [ROOT, "renamed", "coordinator.scan"]
    # Counted after ``child`` closed, inside ``root``: carried by the root.
    assert loaded.counts == {root: {"predict.rows": 32}}
    assert loaded.start == spans.start and loaded.end == spans.end
    merged = Spans()
    merged.append("first", 0.0, 1.0)
    merged.extend(loaded)
    assert list(merged.parent) == [-1, -1, 1, -1]
    assert merged.counts == {root + 1: {"predict.rows": 32}}


def test_tracer_restores_every_patched_attribute(tmp_path):
    tracer = Tracer(tmp_path)
    owners = [spans_module._resolve(hook) for hook in spans_module.HOOKS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(owners, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(owners, before))


# ---------------------------------------------------------------------- #
# Inputs: identical for an identical seed
# ---------------------------------------------------------------------- #


POOL = Pool(
    codes=[b"\x60\x80\x60\x40" * 4, b"\x36\x3d\x3d\x37", b"\x00" * 9,
           b"\x36\x3d\x3d\x37"],
    addresses=["0xa", "0xb", "0xc", "0xd"],
    kinds=["base", "proxy", "base", "proxy"],
)


def _stream(seed):
    inputs = StreamInputs(POOL, seed)
    return [inputs.next() for _ in range(200)]


def _repeat(seed):
    inputs = RepeatInputs(POOL, seed)
    return list(inputs.warmup(3)), [inputs.indices(8) for _ in range(3)]


@pytest.mark.parametrize("generate", [_stream, _repeat])
def test_same_seed_same_inputs(generate):
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


def test_stream_repeats_earlier_bytecodes_at_about_four_in_five():
    events = _stream(3)
    seen, repeats = set(), 0
    for _address, code in events:
        repeats += code in seen
        seen.add(code)
    assert 0.7 <= repeats / len(events) <= 0.9
    assert len({address for address, _ in events}) == len(events)
    trailer = metadata_trailer(3, "0:0")
    assert len(trailer) == 53 and trailer[-2:] == b"\x00\x33"
    assert events[0][1].endswith(trailer)


# ---------------------------------------------------------------------- #
# The traced run reports exactly the per-layer metrics BENCHMARK.json names
# ---------------------------------------------------------------------- #


def test_layer_metrics_match_benchmark_json():
    import json
    import pathlib

    from perfbench.layers import layer_metrics
    from perfbench.workloads import Phase

    spec = json.loads(
        (pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text()
    )
    spans = Spans()
    _add(spans, ROOT, 0.0, 1.0, trace=1)
    metrics = layer_metrics(attribute(spans), Phase(contracts=1),
                            Phase(contracts=1))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert metrics[metric["name"]][1] == metric["unit"]
    assert metrics["unattributed_us"][0] == pytest.approx(1e6)


# ---------------------------------------------------------------------- #
# Latency figures leave out samples the hypervisor stole time from
# ---------------------------------------------------------------------- #


def _watch(times, ticks):
    from perfbench.host import StealWatch

    watch = StealWatch(every=0.1)
    watch.times, watch.ticks = list(times), list(ticks)
    return watch


def test_steal_watch_marks_samples_near_a_steal_reading():
    # steal shows in the reading at 0.3 s
    watch = _watch([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], [5, 5, 5, 6, 6, 6])
    starts = [0.00, 0.05, 0.25, 0.32, 0.45]
    ends = [0.05, 0.12, 0.26, 0.35, 0.46]
    # the second sample ended within one reading interval of the steal,
    # the last one is not bracketed by a later reading
    assert watch.calm(starts, ends) == [True, False, False, True, False]


def test_calm_latencies_fall_back_to_every_sample():
    from perfbench.workloads import Phase

    phase = Phase(latencies=[0.01, 0.02, 0.03], starts=[0.0, 0.1, 0.3])
    phase.steal = _watch([0.0, 0.2, 0.4, 0.6], [0, 1, 1, 1])
    assert phase.calm_latencies(minimum=1) == [0.03]
    assert phase.calm_latencies(minimum=2) == [0.01, 0.02, 0.03]


# ---------------------------------------------------------------------- #
# A run leaves no process behind
# ---------------------------------------------------------------------- #

_CHILDREN_SCRIPT = """
import subprocess
import time
from multiprocessing import shared_memory

from perfbench import host

segment = shared_memory.SharedMemory(create=True, size=64)  # starts a tracker
segment.close()
segment.unlink()
sleeper = subprocess.Popen(["sleep", "60"])
assert sleeper.pid in host.children() and len(host.children()) == 2
started = time.monotonic()
host.end_children(timeout=5.0)
took = time.monotonic() - started
print(host.children(), sleeper.poll() is not None, took < 2.0)
"""


def test_end_children_stops_and_reaps_every_child():
    """The shared-memory resource tracker and any other child are
    stopped and reaped, so none outlives the run as an orphan. The
    tracker ignores SIGTERM, so it must be stopped through its own
    pipe, well before the SIGKILL fallback."""
    import pathlib
    import subprocess
    import sys

    checkout = pathlib.Path(__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", _CHILDREN_SCRIPT], cwd=checkout,
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["[]", "True", "True"]
