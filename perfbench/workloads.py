"""The workloads: what each sends, how it is timed, how it is checked.

Each workload owns its inputs (:mod:`perfbench.inputs`), opens and
closes instances of the system through its public constructors, runs a
timed phase and keeps every verdict it received, so that
:meth:`Workload.verify` can compare them with a reference after the
timed region.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time
from array import array
from dataclasses import dataclass, field

from perfbench import host
from perfbench.inputs import (
    BATCH,
    Pool,
    Properties,
    RepeatInputs,
    StreamInputs,
)
from perfbench.spans import ROOT, Recorder

#: The model's verdict threshold (the library default).
THRESHOLD = 0.5

#: Largest difference from the reference probability that still counts
#: as the same verdict (the float64 kernel is exact; this only absorbs
#: the last-digit reordering a vectorised kernel may do).
PROBABILITY_TOLERANCE = 1e-9

#: Stream: offered rate, shards, micro-batch size and flush deadline.
#: At this rate 32 events take 16 ms to arrive, so the deadline, not
#: the batch size, ends every micro-batch (about 20 events). A host
#: stall of a few milliseconds moves an event past the deadline-set
#: bulk of the latency distribution only when it waited near the
#: deadline already, so the p99 tracks the scanner rather than the
#: hypervisor; a longer stall still shows.
STREAM_RATE = 2000.0
STREAM_SHARDS = 2
STREAM_MAX_BATCH = 32
STREAM_DEADLINE = 0.010

#: Fleet: offered rate and send interval. Each send carries the
#: contracts that came due since the last one (20) in one
#: ``FleetClient.scan``, as a chain watcher forwards a block's new
#: contracts. A closed loop would measure mostly the host's speed, which
#: on a shared VM wanders by up to 1.7x from one minute to the next. A
#: send takes about 5 ms, so the fleet is busy about a quarter of the
#: time and a slow minute of the host does not build a backlog, which
#: at 2,000 contracts/s every 10 ms it did (p99 0.2-0.4 s in 2 of 10
#: runs).
FLEET_RATE = 1000.0
FLEET_INTERVAL = 0.020
#: Fleet: untimed open loop after the cache-filling pass.
WARMUP_SECONDS = 2.0
#: Stream warm-up: the open loop runs this long before timing starts.
STREAM_WARMUP_SECONDS = 0.5


@dataclass
class Phase:
    """What one timed phase measured."""

    contracts: int = 0
    busy_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: When each latency sample began: its contract's due time.
    starts: list[float] = field(default_factory=list)
    generator_lag: list[float] = field(default_factory=list)
    steal: host.StealWatch = field(default_factory=host.StealWatch)

    @property
    def throughput(self) -> float:
        """Contracts per second of wall time. Both workloads are open
        loops, so this holds at the offered rate unless the system
        falls behind it."""
        return (self.contracts / self.elapsed_seconds
                if self.elapsed_seconds else 0.0)

    @property
    def call_rate(self) -> float:
        """Contracts per second of ``busy_seconds``, the time spent
        inside the benchmark's calls into the system."""
        return self.contracts / self.busy_seconds if self.busy_seconds else 0.0

    def calm_latencies(self, minimum: int) -> list[float]:
        """The latencies, in order, of the samples during which the
        hypervisor stole no CPU time (see :class:`host.StealWatch`), or
        all of them when fewer than ``minimum`` are calm."""
        calm = self.steal.calm(
            self.starts,
            [s + latency for s, latency in zip(self.starts, self.latencies)],
        )
        kept = [latency for latency, ok in zip(self.latencies, calm) if ok]
        return kept if len(kept) >= minimum else list(self.latencies)


@dataclass
class Check:
    """Outcome of the verdict check over everything a run sent."""

    attempted: int
    failed: int
    properties: dict


class Workload:
    """Shared life cycle; subclasses define the inputs and the loop."""

    name = ""

    def __init__(self, store_dir: pathlib.Path, workdir: pathlib.Path,
                 pool: Pool, seed: int):
        from repro.artifacts import ModelStore

        self.store_dir = store_dir
        self.workdir = workdir
        self.store = ModelStore(store_dir)
        self.pool = pool
        self.seed = seed
        self.errors = 0

    def open(self):
        raise NotImplementedError

    def close(self, instance) -> None:
        """Release an instance (default: nothing to release)."""

    def warm(self, instance) -> None:
        """Untimed warm-up before a timed phase."""

    def run(self, instance, seconds: float, rec: Recorder | None,
            phase: Phase) -> None:
        """Measure for ``seconds``, adding to ``phase``."""
        raise NotImplementedError

    def peak_rss_mib(self, instance) -> float:
        return host.peak_rss_mib()

    def verify(self) -> Check:
        raise NotImplementedError

    def timed_open(self) -> tuple[object, float]:
        """Open an instance, timing it from the public constructor call
        until it is ready to serve."""
        started = time.perf_counter()
        instance = self.open()
        return instance, time.perf_counter() - started

    def reference(self):
        """A fresh copy-loaded model with no cache attached."""
        from repro.artifacts import ModelStore

        model, _manifest = ModelStore(self.store_dir).load("production")
        return model


class FleetOpen(Workload):
    """Deployed records into a 1-worker fleet over HTTP, warm caches.

    An open loop: contracts come due at ``FLEET_RATE`` and every
    ``FLEET_INTERVAL`` the ones due since the last send go out in one
    ``FleetClient.scan``, whether or not the fleet kept up. A
    contract's latency runs from its due time to the reply.
    """

    name = "fleet-open"

    def __init__(self, store_dir, workdir, pool, seed):
        super().__init__(store_dir, workdir, pool, seed)
        self.inputs = RepeatInputs(pool, seed)
        self.indices = array("q")
        self.probabilities = array("d")
        self.flags = bytearray()
        self.cache_entries = 0

    def open(self):
        """Start the fleet, the coordinator's threads on one CPU and the
        worker on another.

        Left to the scheduler, the two processes share one CPU for part
        of a run and not for the rest, and which part differs from run
        to run; a deployment gives each its own core. With a single CPU
        available nothing is pinned.
        """
        from repro.net.fleet import FleetClient, FleetManager

        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            # Threads the coordinator starts inherit this thread's CPU.
            os.sched_setaffinity(0, cpus[:1])
        manager = FleetManager(
            workers=1, store_url=str(self.store_dir), model_ref="production",
        )
        self.cache_entries = manager.cache_entries
        manager.start()
        if len(cpus) >= 2:
            # The worker serves from its main thread; request threads it
            # starts from now on inherit this CPU.
            for worker in manager.coordinator.workers:
                os.sched_setaffinity(worker.process.pid, cpus[1:2])
        client = FleetClient(manager.url)
        if not client.ping():
            manager.stop()
            raise RuntimeError("fleet coordinator did not answer ping")
        return manager, client

    def close(self, instance) -> None:
        manager, _client = instance
        manager.stop()

    def warm(self, instance) -> None:
        """One pass over every deployed record fills the worker's cache;
        the open loop then runs untimed for ``WARMUP_SECONDS``."""
        for indices in self.inputs.warmup(BATCH):
            self._one(instance, indices, None, None, [])
        self._open_loop(instance, WARMUP_SECONDS, None, None)

    def run(self, instance, seconds, rec, phase) -> None:
        phase.steal.poll(force=True)
        started = time.perf_counter()
        self._open_loop(instance, seconds, rec, phase)
        elapsed = time.perf_counter() - started
        phase.steal.finish()
        phase.elapsed_seconds += elapsed

    def _open_loop(self, instance, seconds: float, rec, phase) -> None:
        per_send = round(FLEET_RATE * FLEET_INTERVAL)
        interval = 1.0 / FLEET_RATE
        started = time.perf_counter()
        for send in range(1, round(seconds / FLEET_INTERVAL) + 1):
            due = started + send * FLEET_INTERVAL
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            if phase is not None:
                phase.generator_lag.append(time.perf_counter() - due)
            # the contracts that came due since the previous send
            dues = [due - FLEET_INTERVAL + (i + 1) * interval
                    for i in range(per_send)]
            self._one(instance, self.inputs.indices(per_send), rec, phase,
                      dues)

    def _one(self, instance, indices, rec: Recorder | None,
             phase: Phase | None, dues: list[float]) -> None:
        """One request; a failed one is counted and its contracts fail
        the verdict check."""
        _manager, client = instance
        addresses = [self.pool.addresses[i] for i in indices]
        codes = [self.pool.codes[i] for i in indices]
        span = rec.open(ROOT, root=True) if rec is not None else None
        sent = time.perf_counter()
        try:
            verdicts = [(r["probability"], r["is_phishing"])
                        for r in client.scan(addresses, codes)]
        except Exception:  # noqa: BLE001 - a failed request is counted
            verdicts = []
        answered = time.perf_counter()
        if span is not None:
            rec.close(span)
        if len(verdicts) != len(codes):
            self.errors += len(codes)
            verdicts = [(float("nan"), False)] * len(codes)
        for index, (probability, flagged) in zip(indices, verdicts):
            self.indices.append(index)
            self.probabilities.append(probability)
            self.flags.append(flagged)
        if phase is not None:
            phase.contracts += len(codes)
            phase.busy_seconds += answered - sent
            phase.latencies.extend(answered - due for due in dues)
            phase.starts.extend(dues)
            phase.steal.poll()

    def peak_rss_mib(self, instance) -> float:
        manager, _client = instance
        workers = sum(
            host.process_hwm_mib(worker["pid"])
            for worker in manager.status()["workers"]
        )
        return host.peak_rss_mib() + workers

    def verify(self) -> Check:
        model = self.reference()
        unique = sorted(set(self.indices))
        expected = dict(zip(
            unique,
            model.predict_proba(
                [self.pool.codes[i] for i in unique])[:, 1].tolist(),
        ))
        properties = Properties()
        mismatches = 0
        for index, probability, flagged in zip(
                self.indices, self.probabilities, self.flags):
            mismatches += not _same(probability, flagged, expected[index])
            properties.add(self.pool.codes[index],
                           expected[index] >= THRESHOLD)
        return Check(len(self.indices), mismatches,
                     properties.report(self.cache_entries))


class StreamOpen(Workload):
    """Open-loop deploy events into a 2-shard ``StreamScanner``."""

    name = "stream-open"

    def __init__(self, store_dir, workdir, pool, seed):
        super().__init__(store_dir, workdir, pool, seed)
        self.inputs = None
        self.sent: list[int] = []
        self.scores: list[Scores] = []
        self.sink_dir = pathlib.Path(tempfile.mkdtemp(dir=workdir))
        self.alerts: set[str] = set()
        self.sink_lines = 0

    def open(self):
        from repro.stream import StreamScanner
        from repro.stream.sinks import JsonlSink

        # Each instance gets its own event stream, so its repeats are of
        # bytecodes this instance has seen.
        self.inputs = StreamInputs(self.pool, self.seed, len(self.sent))
        self.sent.append(0)
        sink = JsonlSink(self.sink_dir / f"alerts-{len(self.sent)}.jsonl")
        scanner = StreamScanner.from_artifact(
            "production", store=self.store, shards=STREAM_SHARDS,
            max_batch=STREAM_MAX_BATCH,
            flush_deadline_seconds=STREAM_DEADLINE, sinks=[sink],
        )
        self.scores.append(Scores())
        scanner.add_observer(self.scores[-1])
        return scanner

    def close(self, scanner) -> None:
        scanner.close()
        self.sent[-1] = self.inputs.sequence
        self.alerts.update(a.address for a in scanner.alerts)
        for sink in scanner.sinks:
            if sink.path.exists():  # the sink opens its file lazily
                with open(sink.path, encoding="utf-8") as handle:
                    self.sink_lines += sum(1 for _ in handle)

    def _submit(self, scanner, due: float, rec: Recorder | None,
                phase: Phase | None) -> None:
        from repro.stream.events import ContractEvent

        address, code = self.inputs.next()
        event = ContractEvent(
            address=address, code=code, block_number=0, timestamp=0,
            tx_hash="", sequence=self.inputs.sequence, enqueued_at=due,
        )
        self._call(scanner.on_event, event, rec, phase)

    def _tick(self, scanner, rec: Recorder | None,
              phase: Phase | None) -> None:
        self._call(scanner.tick, None, rec, phase)

    def _call(self, method, argument, rec: Recorder | None,
              phase: Phase | None) -> None:
        """One call into the scanner; an exception is counted (the lost
        events then fail the verdict check) and the stream goes on."""
        span = rec.open(ROOT, root=True) if rec is not None else None
        started = time.perf_counter()
        try:
            if argument is None:
                method()
            else:
                method(argument)
        except Exception:  # noqa: BLE001 - counted, never fatal
            self.errors += 1
        finally:
            if phase is not None:
                phase.busy_seconds += time.perf_counter() - started
            if span is not None:
                rec.close(span)

    def _open_loop(self, scanner, seconds: float, rec, phase) -> None:
        """Submit events on a fixed schedule; a stall delays nothing but
        the events due during it, which are charged the wait."""
        count = int(seconds * STREAM_RATE)
        interval = 1.0 / STREAM_RATE
        started = time.perf_counter()
        for i in range(count):
            due = started + i * interval
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                self._tick(scanner, rec, phase)
                if phase is not None:
                    phase.steal.poll()
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
            if phase is not None:
                phase.generator_lag.append(now - due)
            self._submit(scanner, due, rec, phase)
        self._tick(scanner, rec, phase)

    def warm(self, scanner) -> None:
        self._open_loop(scanner, STREAM_WARMUP_SECONDS, None, None)
        scanner.flush()

    def run(self, scanner, seconds, rec, phase) -> None:
        before = scanner.stats.scanned
        phase.steal.poll(force=True)
        started = time.perf_counter()
        self._open_loop(scanner, seconds, rec, phase)
        while scanner.pending:
            self._tick(scanner, rec, phase)
            phase.steal.poll()
            time.sleep(STREAM_DEADLINE / 10)
        elapsed = time.perf_counter() - started
        phase.steal.finish()
        scored = scanner.stats.scanned - before
        # The scanner records latencies in the order it tells observers
        # of the events, so the two lists line up.
        phase.latencies.extend(scanner.stats.recent_latencies(scored))
        dues = self.scores[-1].dues
        phase.starts.extend(dues[len(dues) - scored:])
        phase.contracts += scored
        phase.elapsed_seconds += elapsed

    def verify(self) -> Check:
        """Every event sent must have been scored exactly once with the
        reference probability, every flagged event alerted, and every
        alert written to its sink."""
        from repro.serve.cache import FeatureCache

        model = self.reference()
        streams = []
        for stream, count in enumerate(self.sent):
            replay = StreamInputs(self.pool, self.seed, stream)
            streams.append([replay.next() for _ in range(count)])
        codes = sorted({code for events in streams for _, code in events})
        expected = dict(zip(codes, model.predict_proba(codes)[:, 1].tolist()))
        properties = Properties()
        wanted = set()
        mismatches = 0
        for events, scores in zip(streams, self.scores):
            got, twice = scores.by_sequence()
            mismatches += twice
            for sequence, (address, code) in enumerate(events, start=1):
                probability = expected[code]
                flagged = probability >= THRESHOLD
                properties.add(code, flagged)
                if flagged:
                    wanted.add(address)
                scored = got.pop(sequence, None)
                mismatches += (scored is None or abs(scored - probability)
                               > PROBABILITY_TOLERANCE)
            mismatches += len(got)  # scored events that were never sent
        mismatches += len(self.alerts ^ wanted)
        mismatches += abs(self.sink_lines - len(self.alerts))
        return Check(sum(self.sent), mismatches,
                     properties.report(FeatureCache().max_entries))


class Scores:
    """Scanner observer that keeps every scored event's probability
    and due time."""

    def __init__(self):
        self.sequences = array("q")
        self.probabilities = array("d")
        self.dues = array("d")

    def observe(self, *, shard, events, results, elapsed_seconds) -> None:
        for event, result in zip(events, results):
            self.sequences.append(event.sequence)
            self.probabilities.append(result.probability)
            self.dues.append(event.enqueued_at)

    def by_sequence(self) -> tuple[dict[int, float], int]:
        """``{sequence: probability}`` and how many events were scored
        more than once."""
        got: dict[int, float] = {}
        twice = 0
        for sequence, probability in zip(self.sequences, self.probabilities):
            twice += sequence in got
            got[sequence] = probability
        return got, twice


WORKLOADS = {w.name: w for w in (FleetOpen, StreamOpen)}


def _same(probability: float, flagged: int, expected: float) -> bool:
    return (abs(probability - expected) <= PROBABILITY_TOLERANCE
            and bool(flagged) == bool(expected >= THRESHOLD))
