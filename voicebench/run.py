"""Run one voice-serving workload and print its metrics.

Usage, from the root of a checkout::

    python3 voicebench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

Workloads: ``hot_hits``, ``cold_misses`` and ``appends`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics in
reference-host units; ``--trace 1`` makes a separate traced run and
reports the per-layer metrics instead.  The next-to-last line of
standard output holds the details (raw values, the tail, calibration,
per-phase counts); the last line is the result::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

The exit code is 0 only when every answer matched the reference.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot_hits", "cold_misses", "appends"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"voicebench: the system under test is not importable: {exc}", file=sys.stderr)
        return 2

    from voicebench import hostcal, tracing, workloads

    cpu = hostcal.pin_to_one_cpu()
    steal_start = hostcal.cpu_ticks(cpu)
    state = workloads.RunState(args.workload, args.seed, args.seconds, cpu)
    tracer = tracing.Tracer() if args.trace else None
    work_root = Path(tempfile.mkdtemp(prefix=".voicebench-", dir=CHECKOUT))
    try:
        asyncio.run(workloads.WORKLOADS[args.workload](state, work_root, tracer))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    details = workloads.details(state)
    details["steal_share"] = hostcal.steal_share(steal_start, hostcal.cpu_ticks(cpu))
    if tracer is not None:
        metrics = tracer.metrics(state)
        details["trace_calls"] = tracer.call_counts()
    else:
        metrics = workloads.end_to_end(state)
    details["examples"] = state.checker.examples
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    checker = state.checker
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
