"""Host calibration: pin to one CPU and express times in reference-host units.

This host's speed drifts by tens of percent over seconds (frequency,
noisy neighbours, steal).  A fixed pure-Python loop that imports
nothing from the system under test, but does the kinds of work a
request does, is timed right before and right after every measured
slice; the slice's raw value is then rescaled to
what it would read on a *reference host*, one on which the loop takes
exactly :data:`REFERENCE_SECONDS`.  A time is multiplied by
``REFERENCE_SECONDS / measured``; a rate is divided by it.  ``measured``
is the median over all calibrations of a run: a single calibration
samples too short a stretch to track one slice, but their median tracks
how fast the host ran during the whole run.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import time

#: Rounds of :func:`reference_loop` per calibration sample.
REFERENCE_ROUNDS = 150

#: Seconds one :func:`reference_loop` call takes on the reference host.
#: The value is a definition, close to the loop's median on a 2-vCPU
#: Intel Xeon virtual machine running CPython 3.11.
REFERENCE_SECONDS = 0.0140

#: Loop samples per calibration; their median is the calibration value.
SAMPLES_PER_CALIBRATION = 3

#: Entries of the table the loop probes: a working set of a few MiB,
#: like the served stores and lexicons, so the loop feels cache
#: pressure the way a request does.
_TABLE_ENTRIES = 50_000
_TEXT = " what is the cancellation for delta and winter in the evening, tell me more " * 3
_PHRASES = ("winter", "delta", "evening", "summer", "south west", "united", "morning", "night")


class _Record:
    __slots__ = ("rank", "round", "label")

    def __init__(self, rank: int, round_: int, label: str):
        self.rank = rank
        self.round = round_
        self.label = label


@functools.cache
def _probe_table() -> tuple[dict[str, int], list[str]]:
    """The table the loop probes and the keys it probes, built once per process."""
    table = {"k%d" % index: index for index in range(_TABLE_ENTRIES)}
    keys = [f"k{(index * 7919) % _TABLE_ENTRIES}" for index in range(2000)]
    return table, keys


def reference_loop(rounds: int = REFERENCE_ROUNDS) -> int:
    """Fixed interpreter work shaped like serving one request.

    Each round encodes and decodes a small JSON envelope, searches a
    transcript for phrases with word-boundary regexes, probes a table
    of :data:`_TABLE_ENTRIES` entries, and builds and sorts small
    objects.  It imports nothing from the system under test.
    """
    table, keys = _probe_table()
    total = 0
    for round_ in range(rounds):
        envelope = {"schema_version": 1, "text": _TEXT[: 40 + round_ % 30], "round": round_}
        total += len(json.loads(json.dumps(envelope))["text"])
        for phrase in _PHRASES:
            if re.search(r"\b" + re.escape(phrase) + r"\b", _TEXT):
                total += 1
        for key in keys[round_ % 50::50]:
            total += table[key]
        records = [_Record(rank, round_, str(rank)) for rank in range(20)]
        records.sort(key=lambda record: -record.rank)
        total += records[0].rank
    return total


def calibrate(samples: int = SAMPLES_PER_CALIBRATION) -> float:
    """Median wall seconds of ``samples`` reference-loop calls."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def host_factor(measured: float) -> float:
    """Reference seconds over the measured calibration seconds."""
    return REFERENCE_SECONDS / measured


def scale_time(raw: float, factor: float) -> float:
    """A duration measured at ``factor`` expressed in reference-host units."""
    return raw * factor


def scale_rate(raw: float, factor: float) -> float:
    """A rate measured at ``factor`` expressed in reference-host units."""
    return raw / factor


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may run on; return that CPU.

    Must run before any thread starts: threads inherit the creating
    thread's affinity, so the service's executors and maintenance
    thread all share the one CPU with the load generator.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_ticks(cpu: int) -> tuple[int, int]:
    """(steal ticks, total ticks) of one CPU from ``/proc/stat``."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                values = [int(field) for field in line.split()[1:]]
                return values[7], sum(values)
    raise RuntimeError(f"/proc/stat has no line for cpu{cpu}")


def steal_share(start: tuple[int, int], end: tuple[int, int]) -> float:
    """Share of the CPU's ticks between two readings that the hypervisor stole."""
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total > 0 else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")
