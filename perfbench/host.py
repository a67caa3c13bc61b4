"""Machine fingerprint and a fixed-work speed probe.

Shared virtual machines change speed from one second to the next. Each
run times the same pure-Python spin loop before and after its workload
and reads the share of CPU time the hypervisor stole during it, so a
slow set of runs can be traced to the host rather than the code.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import time

#: Iterations of the probe loop (about 0.1 s on a 2020s server core).
SPIN_ITERATIONS = 1_000_000


def spin_seconds(repeats: int = 3) -> float:
    """Median wall time of a fixed integer-summing loop."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(SPIN_ITERATIONS):
            total += i
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def cpu_ticks() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, ...), or ``[]``."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_ticks` readings (0.0 when unknown)."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    # guest time (fields 9 and 10) is already counted in user and nice
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    return delta[7] / sum(delta) if sum(delta) else 0.0


class StealWatch:
    """When, during a timed phase, the hypervisor stole CPU time.

    The machine-wide steal counter of ``/proc/stat`` (10 ms units) is
    read at most every ``every`` seconds from the timing loop (a read
    takes about 20 us). A latency sample is *calm* when the counter did
    not move between the last reading before it began and the first
    reading at least ``every`` after it ended; the extra reading covers
    steal that the guest accounts only at its next scheduler tick.

    Stalls of the program itself (a collection, a flush, a queue) move
    no steal counter, so excluding stolen samples removes the host's
    interference from a latency figure and nothing of the program's.
    """

    def __init__(self, every: float = 0.02):
        self.every = every
        self.times: list[float] = []
        self.ticks: list[int] = []
        self._next = 0.0

    def poll(self, force: bool = False) -> None:
        """Read the counter if ``every`` has passed since the last read."""
        now = time.perf_counter()
        if force or now >= self._next:
            ticks = cpu_ticks()
            self.times.append(now)
            self.ticks.append(ticks[7] if len(ticks) > 7 else 0)
            self._next = now + self.every

    def finish(self) -> None:
        """Take the reading that brackets the last sample."""
        time.sleep(self.every)
        self.poll(force=True)

    def calm(self, starts: list[float], ends: list[float]) -> list[bool]:
        """Whether each sample ``[start, end]`` ran with no steal; a
        sample not bracketed by readings counts as stolen."""
        import numpy

        times = numpy.asarray(self.times)
        ticks = numpy.asarray(self.ticks)
        before = numpy.searchsorted(times, starts, side="right") - 1
        after = numpy.searchsorted(
            times, numpy.asarray(ends) + self.every, side="left")
        bracketed = (before >= 0) & (after < len(times))
        last = len(times) - 1
        same = (ticks[numpy.clip(before, 0, last)]
                == ticks[numpy.clip(after, 0, last)])
        return (bracketed & same).tolist()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Cores, CPU model, Python and numpy versions."""
    import numpy

    return {
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mib() -> float:
    """This process's peak resident set (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process.

    Raises:
        OSError: If the process's status file cannot be read.
        ValueError: If it carries no ``VmHWM`` line.
    """
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def children() -> list[int]:
    """Process ids whose parent is this process, from ``/proc``."""
    found = []
    mine = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name is parenthesised and may hold spaces
        if int(stat.rsplit(")", 1)[1].split()[1]) == mine:
            found.append(int(entry))
    return found


def end_children(timeout: float = 10.0) -> None:
    """Stop every process this process started and wait until each
    has ended.

    The first shared-memory segment a fleet creates makes
    ``multiprocessing`` start a resource tracker, which outlives its
    parent by a moment unless told to stop; it is stopped first, so it
    can release anything still registered. Any other child is sent
    SIGTERM, and SIGKILL if it has not ended within ``timeout``.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    pids = children()
    for pid in pids:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + timeout
    for pid in pids:
        while not _reaped(pid):
            if time.monotonic() > deadline:
                _signal(pid, signal.SIGKILL)
                _reaped(pid, block=True)
                break
            time.sleep(0.01)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _reaped(pid: int, block: bool = False) -> bool:
    """Whether ``pid`` has ended (reaping it if it is our zombie)."""
    try:
        done, _status = os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid
