"""Steadiness report: repeat each workload and print each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload fleet-open

Runs ``perfbench/run.py --trace 0`` once per (seed, workload), seeds
``1..runs``, cycling through the workloads so that a slow stretch of
the host falls on all of them alike, and prints each run's speed probe
and stolen CPU share, and the share of latency samples that were calm,
next to its outcome. For every metric it prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), the
quartile distance over the median and ``(max - min) / median``, next to
the metric's bound from ``BENCHMARK.json``. A spread above a third of
its bound is marked ``WIDE``. The exit status is 1 when any run failed
or printed ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from collections import defaultdict

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT))

from perfbench.stats import spread  # noqa: E402

RUN_TIMEOUT = 900


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its details."""
    completed = subprocess.run(
        [sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=RUN_TIMEOUT,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    *_, details, result = completed.stdout.strip().splitlines()
    return json.loads(result), json.loads(details.removeprefix("DETAILS "))


def main(argv=None) -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {
        w: defaultdict(list) for w in workloads
    }
    units: dict[str, str] = {}
    failures = 0
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            try:
                result, details = run_once(workload, seed, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired,
                    ValueError) as error:
                print(f"FAILED {workload} seed {seed}: {error}", flush=True)
                failures += 1
                continue
            failures += not result["correct"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
                units[name] = metric["unit"]
            print(f"ran {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"spin={details['spin_s']['before']:.3f}/"
                  f"{details['spin_s']['after']:.3f}s "
                  f"steal={details['steal_share']:.4f} "
                  f"calm={details['calm_share']:.3f}", flush=True)

    report = {}
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':26s} {'unit':12s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
        report[workload] = {}
        for name, series in values[workload].items():
            summary = spread(series)
            bound = bounds[name]
            wide = summary["iqr_ratio"] > bound / 3
            print(f"  {name:26s} {units[name]:12s} {summary['median']:12.5g} "
                  f"{summary['q1']:12.5g} {summary['q3']:12.5g} "
                  f"{summary['iqr_ratio']:8.4f} {summary['range_ratio']:8.4f} "
                  f"{bound:>6}"
                  f"{'  WIDE' if wide else ''}")
            report[workload][name] = {**summary, "bound": bound,
                                      "values": series}
    print(json.dumps(report, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
