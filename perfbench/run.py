"""PhishingHook benchmark: one workload, one run, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-open --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics instead, from a run whose
first half is untraced and whose second half records spans around each
layer's public functions (see :mod:`perfbench.spans`).

The first run in a checkout builds the model store and contract pool in
a child process (later runs reuse them). Each run times set-up, warms
up, measures for ``--seconds``, reads peak memory, and only then checks
every verdict it received against a fresh copy-loaded model with no
cache. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it (``DETAILS {...}``) carries the
machine fingerprint, the speed probe and stolen CPU share, sample
counts and the workload properties. The exit status is 0 whenever a
result line was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]

from perfbench import host  # noqa: E402
from perfbench.inputs import Pool  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.spans import Tracer, attribute  # noqa: E402
from perfbench.stats import (  # noqa: E402
    TAIL,
    latency_summary,
    min_samples,
    percentile,
)
from perfbench.workloads import WORKLOADS, Phase  # noqa: E402

#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = CHECKOUT / ".perfbench"

#: Instances opened and closed for ``setup_s`` before the measured one,
#: and again after it.
SETUP_OPENS = 5

#: Extra instances opened under tracing, for the set-up layer spans.
TRACED_SETUPS = 3

PREPARE_TIMEOUT = 600


def build() -> pathlib.Path:
    """The model store and contract pool for this source tree.

    Built once per checkout by a child process (see prepare.py) into a
    directory named after a digest of every source file that shapes
    them, and reused by later runs of the same tree.
    """
    digest = hashlib.sha256(sys.version.encode())
    sources = sorted((CHECKOUT / "src").rglob("*.py"))
    for path in sources + [CHECKOUT / "perfbench" / "prepare.py"]:
        digest.update(str(path.relative_to(CHECKOUT)).encode())
        digest.update(path.read_bytes())
    target = WORK_ROOT / f"build-{digest.hexdigest()[:16]}"
    if (target / "pool.npz").exists():
        return target
    staging = pathlib.Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="staging-"))
    try:
        prepare(staging)
        os.rename(staging, target)
    except OSError:
        if not (target / "pool.npz").exists():
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def prepare(workdir: pathlib.Path) -> None:
    """Build the store and pool in a child process (see prepare.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CHECKOUT / "src"), str(CHECKOUT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, "-m", "perfbench.prepare", str(workdir)],
        cwd=CHECKOUT, env=env, check=True, timeout=PREPARE_TIMEOUT,
    )


def measure(workload, seconds: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics and their details.

    One instance is warmed and measured for the whole of ``seconds``.
    The latency figures come from the samples during which the
    hypervisor stole no CPU time (``Phase.calm_latencies``); their
    share is reported as ``calm_share`` (1.0 when too few were calm and
    every sample was used).
    ``setup_s`` is the median set-up time of that instance and of
    ``SETUP_OPENS`` instances opened and closed before it and as many
    after it, so that it samples the host at two moments a run apart.
    """
    setup_times = []

    def setup_only() -> None:
        instance, took = workload.timed_open()
        setup_times.append(took)
        workload.close(instance)

    for _ in range(SETUP_OPENS):
        setup_only()
    phase = Phase()
    instance, took = workload.timed_open()
    setup_times.append(took)
    try:
        workload.warm(instance)
        workload.run(instance, seconds, None, phase)
        rss = workload.peak_rss_mib(instance)
    finally:
        workload.close(instance)
    for _ in range(SETUP_OPENS):
        setup_only()
    calm = phase.calm_latencies(min_samples())
    latency = latency_summary(calm)
    metrics = {
        "throughput_cps": (phase.throughput, "contracts/s"),
        "latency_p50_ms": (latency["p50_ms"], "ms"),
        "latency_p99_ms": (latency["p99_ms"], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    details = {
        "latency": latency,
        "calm_share": len(calm) / len(phase.latencies),
        "setup_s": setup_times,
        "contracts_timed": phase.contracts,
        "elapsed_s": phase.elapsed_seconds,
        "generator_lag_p99_ms": (
            percentile(phase.generator_lag, TAIL) * 1e3
            if phase.generator_lag else 0.0),
    }
    return metrics, details


def _phase(workload, seconds: float, rec=None) -> Phase:
    """Open, warm, measure and close one instance."""
    phase = Phase()
    instance, _took = workload.timed_open()
    try:
        workload.warm(instance)
        workload.run(instance, seconds, rec, phase)
    finally:
        workload.close(instance)
    return phase


def measure_traced(workload, seconds: float,
                   span_dir: pathlib.Path) -> tuple[dict, dict]:
    """The traced run: half untraced, half traced, on fresh instances.

    Every span, adopted into its request, is written to
    ``.perfbench/trace-<workload>.npz`` (see ``Spans.read``).
    """
    untraced = _phase(workload, seconds / 2)
    tracer = Tracer(span_dir).install()
    try:
        for _ in range(TRACED_SETUPS):
            instance, _took = workload.timed_open()
            workload.close(instance)
        traced = _phase(workload, seconds / 2, tracer.recorder)
    finally:
        tracer.uninstall()
    spans = tracer.all_spans()
    attribution = attribute(spans)
    spans.write(WORK_ROOT / f"trace-{workload.name}.npz")
    metrics = layer_metrics(attribution, traced, untraced)
    details = {
        "spans": len(spans),
        "requests": attribution.roots,
        "adopted": attribution.adopted,
        "outside_requests": attribution.outside,
        "contracts_timed": traced.contracts,
        "untraced_call_rate_cps": untraced.call_rate,
        "traced_call_rate_cps": traced.call_rate,
    }
    return metrics, details


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spin_before = host.spin_seconds()
    ticks_before = host.cpu_ticks()
    WORK_ROOT.mkdir(exist_ok=True)
    built = build()
    workdir = pathlib.Path(
        tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{args.workload}-")
    )
    try:
        workload = WORKLOADS[args.workload](
            built / "store", workdir, Pool.load(built / "pool.npz"),
            args.seed,
        )
        if args.trace:
            span_dir = workdir / "spans"
            span_dir.mkdir()
            metrics, details = measure_traced(workload, args.seconds, span_dir)
        else:
            metrics, details = measure(workload, args.seconds)
        check = workload.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal = host.steal_share(ticks_before, host.cpu_ticks())
    spin_after = host.spin_seconds()
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ expected)} disagree with "
            "BENCHMARK.json"
        )

    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": host.fingerprint(),
        "spin_s": {"before": spin_before, "after": spin_after},
        "steal_share": steal,
        "properties": check.properties,
        "request_errors": workload.errors,
    })
    print("DETAILS " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def main(argv=None) -> int:
    """:func:`run`, after which no process it started is left running."""
    try:
        return run(argv)
    finally:
        host.end_children()


if __name__ == "__main__":
    sys.exit(main())
