"""The three workloads and the measurement schedule they share.

Every workload runs the whole system and its closed-loop load generator
in this one process, pinned to one CPU:

1. Set up the served deployment (timed, see :mod:`voicebench.deploy`).
2. Warm it up with :data:`WARMUP_REQUESTS` answered requests, so every
   timed slice sees a long-running server whose latency window is full.
3. Alternate timed slices: a ``qps`` slice with :data:`QPS_CLIENTS`
   clients and a ``p50`` slice with one client, with a host calibration
   between any two slices.  The median over slices is rescaled to
   reference-host units by the median of the run's calibrations
   (:mod:`voicebench.hostcal`).
4. Read the peak RSS, then set up again (timed) to build the reference
   engine, and check every answer against it (:mod:`voicebench.checks`).
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.system.persistence import canonical_store_payload
from repro.system.updates import IncrementalMaintainer

from voicebench import checks, deploy, hostcal, streams
from voicebench.loadgen import (
    Cursor,
    RawHttpConnection,
    SliceResult,
    closed_loop,
    drain,
    in_process_sender,
)
from voicebench.stats import median, percentile

#: Answered requests before the first timed slice.  Fixed at the
#: service's default latency-window size (100 000 when this benchmark
#: was written), so that a slice never straddles the point where the
#: window fills, and kept as a literal so a program that changes the
#: window is still measured after the same warm-up.
WARMUP_REQUESTS = 100_000
#: Concurrent in-process clients that send the warm-up requests.
WARMUP_CLIENTS = 16
#: Closed-loop clients of a ``qps`` slice: one per CPU of the 2-vCPU
#: host the benchmark was written on, although all share the pinned CPU.
QPS_CLIENTS = 2
#: Target length of one timed slice.
SLICE_SECONDS = 0.5
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Requests sent over HTTP before the first timed ``hot_hits`` slice.
HTTP_WARMUP_PER_CLIENT = 500
#: ``appends``: reads per slice; each slice starts with one append batch.
READS_PER_APPEND = 1500
#: ``appends``: held-out rows per append batch.
APPEND_BATCH_ROWS = 5
#: ``appends``: a slice whose batch is not served after this long fails.
APPEND_VISIBLE_WITHIN_SECONDS = 30.0


@dataclass
class TimedSlice:
    kind: str
    result: SliceResult


@dataclass
class RunState:
    """Everything one run measured, plus the checker."""

    workload: str
    seed: int
    seconds: float
    cpu: int
    checker: checks.AnswerChecker = field(default_factory=checks.AnswerChecker)
    setups: list[float] = field(default_factory=list)
    slices: list[TimedSlice] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    utility: float = 0.0
    notes: dict[str, Any] = field(default_factory=dict)
    #: Set when a workload ran out of input before ``seconds`` were measured.
    exhausted: bool = False

    def calibrate(self) -> float:
        value = hostcal.calibrate()
        self.calibrations.append(value)
        return value

    @property
    def factor(self) -> float:
        """Reference seconds over this run's median calibration seconds."""
        return hostcal.host_factor(median(self.calibrations))


def store_keys(store) -> list[streams.QueryKey]:
    """The stored query keys, as plain data for the stream generators."""
    return [(stored.query.target, tuple(stored.query.predicates)) for stored in store]


def average_utility(store) -> float:
    """Average scaled utility of the speeches a store serves."""
    speeches = list(store)
    return sum(stored.scaled_utility for stored in speeches) / len(speeches)


async def timed_setup(state: RunState, spec: deploy.DeploymentSpec, work_root: Path,
                      instrument=None) -> deploy.Deployment:
    """One set-up between two calibrations; records its seconds."""
    state.calibrate()
    deployment = await deploy.deploy(spec, work_root, instrument)
    state.calibrate()
    state.setups.append(deployment.ready_seconds)
    return deployment


def check_warm(state: RunState, deployment: deploy.Deployment) -> None:
    """The steady-state self-check: no timed slice before the warm-up is done."""
    completed = deployment.service.metrics.completed
    if completed < WARMUP_REQUESTS:
        raise RuntimeError(
            f"timed slice would start after {completed} answered requests; "
            f"the warm-up needs {WARMUP_REQUESTS}"
        )


async def warm_up(state: RunState, deployment: deploy.Deployment,
                  make_stream: Callable[[str], Iterator[streams.Ask]]) -> None:
    """Answer :data:`WARMUP_REQUESTS` requests in-process and check them."""
    per_client = -(-WARMUP_REQUESTS // WARMUP_CLIENTS)
    send = in_process_sender(deployment.client)
    cursors = [Cursor(client, make_stream(f"w{client}"), send)
               for client in range(WARMUP_CLIENTS)]
    record = state.checker.record
    await drain(cursors, per_client,
                lambda _client, ask, response: record(
                    "warmup", ask, None if response is None else checks.from_response(response)))


async def plain_slice(kind: str, clients: list[Cursor]) -> TimedSlice:
    """A closed-loop slice of :data:`SLICE_SECONDS`."""
    return TimedSlice(kind, await closed_loop(clients, SLICE_SECONDS))


async def measure(state: RunState, deployment: deploy.Deployment, cursors: list[Cursor],
                  normalise: Callable[[Any], checks.Answer | None],
                  run_slice=plain_slice) -> None:
    """Alternate ``qps`` and ``p50`` slices for ``state.seconds`` measured seconds."""
    measured = 0.0
    state.calibrate()
    while measured < state.seconds and not state.exhausted:
        for kind, clients in (("qps", cursors[:QPS_CLIENTS]), ("p50", cursors[:1])):
            if state.exhausted:
                break
            check_warm(state, deployment)
            timed = await run_slice(kind, clients)
            state.calibrate()
            state.slices.append(timed)
            measured += timed.result.wall_seconds
            file_answers(state, timed, normalise)


def file_answers(state: RunState, timed: TimedSlice,
                 normalise: Callable[[Any], checks.Answer | None]) -> None:
    """Decode a finished slice's answers and hand them to the checker."""
    for _client, ask, raw in timed.result.answers:
        state.checker.record(timed.kind, ask, None if raw is None else normalise(raw))
    timed.result.answers.clear()


def raw_figures(state: RunState) -> dict[str, float]:
    """Medians over set-ups and slices, as measured on this host."""
    qps = [s.result.qps for s in state.slices if s.kind == "qps"]
    p50 = [percentile(s.result.latencies, 0.5)[0] * 1000.0
           for s in state.slices if s.kind == "p50"]
    figures = {"setup_s": median(state.setups), "p50_ms": median(p50)}
    if qps:  # a traced run has no two-client slices
        figures["qps"] = median(qps)
    return figures


def end_to_end(state: RunState) -> dict[str, dict[str, float | str]]:
    """The end-to-end metrics; times and rates in reference-host units."""
    raw = raw_figures(state)
    factor = state.factor
    return {
        "setup_s": {"value": hostcal.scale_time(raw["setup_s"], factor), "unit": "s"},
        "qps": {"value": hostcal.scale_rate(raw["qps"], factor), "unit": "1/s"},
        "p50_ms": {"value": hostcal.scale_time(raw["p50_ms"], factor), "unit": "ms"},
        "rss_mb": {"value": state.rss_mb, "unit": "MiB"},
        "utility": {"value": state.utility, "unit": "score"},
    }


def details(state: RunState) -> dict[str, Any]:
    """Raw values, the tail, calibration and host facts (printed, not gated)."""
    pooled = [lat for s in state.slices if s.kind == "p50" for lat in s.result.latencies]
    p99, beyond = percentile(pooled, 0.99)
    attempted = sum(s.result.completed + s.result.failed for s in state.slices)
    failed = sum(s.result.failed for s in state.slices)
    report = {
        "raw": raw_figures(state),
        "setup_samples_s": [round(seconds, 4) for seconds in state.setups],
        "p99_ms": hostcal.scale_time(p99, state.factor) * 1000.0,
        "p99_raw_ms": p99 * 1000.0,
        "p99_samples_beyond": beyond,
        "p50_samples": len(pooled),
        "fail_ratio": failed / attempted if attempted else 0.0,
        "slices": len(state.slices),
        "calibration": {
            "reference_s": hostcal.REFERENCE_SECONDS,
            "median_s": median(state.calibrations),
            "min_s": min(state.calibrations),
            "max_s": max(state.calibrations),
            "samples": len(state.calibrations),
        },
        "nproc": os.cpu_count(),
        "pinned_cpu": state.cpu,
        "input_exhausted": state.exhausted,
        "phases": state.checker.report(),
    }
    report.update(state.notes)
    return report


# ----------------------------------------------------------------------
# hot_hits: HTTP over loopback, Zipf-repeated exact hits, some sessions
# ----------------------------------------------------------------------
async def hot_hits(state: RunState, work_root: Path, tracer=None) -> None:
    spec = deploy.SPECS["hot_hits"]
    deployment = await timed_setup(state, spec, work_root, tracer and tracer.instrument)
    connections: list[RawHttpConnection] = []
    try:
        keys = store_keys(deployment.engine.store)
        state.utility = average_utility(deployment.engine.store)
        await warm_up(state, deployment, lambda client: streams.hot_hits_stream(
            state.seed, keys, client, phase="warmup"))
        server = deployment.server
        for _ in range(QPS_CLIENTS):
            connections.append(await RawHttpConnection.open(server.host, server.port))
        def make_stream(client: int) -> Iterator[streams.Ask]:
            return streams.hot_hits_stream(state.seed, keys, client)

        cursors = [Cursor(client, make_stream(client), connections[client].send)
                   for client in range(QPS_CLIENTS)]
        await drain(cursors, HTTP_WARMUP_PER_CLIENT,
                    lambda _client, ask, raw: state.checker.record(
                        "warmup", ask, None if raw is None else checks.from_http(raw)))
        await serve(state, deployment, cursors, checks.from_http, tracer)
        note_repeat_share(state, cursors, make_stream)
    finally:
        for connection in connections:
            await connection.close()
        await deployment.close()
    await verify_static(state, spec, work_root)


async def serve(state: RunState, deployment: deploy.Deployment, cursors: list[Cursor],
                normalise, tracer, run_slice=plain_slice) -> None:
    """The timed slices (traced or not), then the peak RSS."""
    if tracer is not None:
        await tracer.run(state, deployment, cursors, normalise, run_slice)
    else:
        await measure(state, deployment, cursors, normalise, run_slice)
    state.rss_mb = hostcal.peak_rss_mb()


def note_repeat_share(state: RunState, cursors: list[Cursor],
                      make_stream: Callable[[int], Iterator[streams.Ask]]) -> None:
    """The share of sent transcripts that repeat an earlier one (regenerated from the seed)."""
    state.notes["repeat_share"] = streams.repeat_share(itertools.chain.from_iterable(
        itertools.islice(make_stream(cursor.client), cursor.taken) for cursor in cursors))


async def verify_static(state: RunState, spec: deploy.DeploymentSpec, work_root: Path) -> None:
    """The remaining set-ups; the first one's engine is the reference."""
    engines = []
    for _ in range(SETUPS - 1):
        deployment = await timed_setup(state, spec, work_root)
        await deployment.close()
        engines.append(deployment.engine)
    reference = engines[0]
    memo: dict[str, checks.Answer] = {}

    def answer(text: str) -> checks.Answer:
        if text not in memo:
            memo[text] = checks.from_response(reference.respond(text))
        return memo[text]

    state.checker.verify(answer)


# ----------------------------------------------------------------------
# cold_misses: in-process, unseen 3-4 predicate questions, advanced on
# ----------------------------------------------------------------------
async def cold_misses(state: RunState, work_root: Path, tracer=None) -> None:
    spec = deploy.SPECS["cold_misses"]
    deployment = await timed_setup(state, spec, work_root, tracer and tracer.instrument)
    try:
        engine = deployment.engine
        state.utility = average_utility(engine.store)
        keys = store_keys(engine.store)
        # Any answered request fills the latency window; the cold stream
        # is near-unique, so warming with it would prime nothing, and
        # cheap exact hits keep the warm-up short.
        await warm_up(state, deployment, lambda client: streams.hot_hits_stream(
            state.seed, keys, client, phase="warmup"))
        domains = {column: engine.table.column(column).distinct_values()
                   for column in engine.config.dimensions}
        def make_stream(client: int) -> Iterator[streams.Ask]:
            return streams.cold_misses_stream(state.seed, engine.config.targets, domains, client)

        send = in_process_sender(deployment.client)
        cursors = [Cursor(client, make_stream(client), send) for client in range(QPS_CLIENTS)]
        await serve(state, deployment, cursors, checks.from_response, tracer)
        note_repeat_share(state, cursors, make_stream)
    finally:
        await deployment.close()
    await verify_static(state, spec, work_root)


# ----------------------------------------------------------------------
# appends: in-process session reads beside journalled append batches
# ----------------------------------------------------------------------
@dataclass
class AppendSlice:
    """Bookkeeping of one ``appends`` slice (one batch, many reads)."""

    acked_at: float = 0.0
    version_at_ack: int = 0
    fresh_at: float | None = None
    reads: int = 0
    #: client -> snapshot version when its in-flight read was sent
    low: dict[int, int] = field(default_factory=dict)


async def appends(state: RunState, work_root: Path, tracer=None) -> None:
    spec = deploy.SPECS["appends"]
    deployment = await timed_setup(state, spec, work_root, tracer and tracer.instrument)
    service = deployment.service
    registry = service.registry
    clock = time.perf_counter
    batches = streams.append_batches(deployment.held_out, APPEND_BATCH_ROWS)
    acked: list[list[dict]] = []
    freshness: list[float] = []

    async def run_slice(kind: str, clients: list[Cursor]) -> TimedSlice:
        """One batch appended, then reads until ``READS_PER_APPEND`` are done,
        one read was served from a snapshot holding the batch, and
        maintenance is idle again."""
        book = AppendSlice()

        def before_send(client: int, _ask) -> None:
            book.low[client] = registry.version

        def after_answer(client: int, ask, response) -> None:
            book.reads += 1
            low = book.low[client]
            if book.fresh_at is None and low > book.version_at_ack:
                book.fresh_at = clock()
            state.checker.record_versioned(kind, ask, checks.from_response(response),
                                           low, registry.version)

        def keep_going() -> bool:
            if clock() - book.acked_at > APPEND_VISIBLE_WITHIN_SECONDS:
                return False
            return book.reads < READS_PER_APPEND or book.fresh_at is None or not idle.done()

        started = clock()
        book.version_at_ack = registry.version
        batch = batches[len(acked)]
        receipt = await deployment.client.append(batch)
        book.acked_at = clock()
        acked.append(batch)
        state.exhausted = len(acked) == len(batches)
        if receipt["accepted_rows"] == len(batch):
            state.checker.count_success("append")
        else:
            state.checker.count_failure("append", f"append receipt {receipt}")
        idle = asyncio.ensure_future(service.scheduler.quiesce())
        result = await closed_loop(clients, 0.0, keep_going, before_send, after_answer)
        if book.fresh_at is None or not idle.done():
            idle.cancel()
            raise RuntimeError(
                f"batch {len(acked)} was not served within {APPEND_VISIBLE_WITHIN_SECONDS:.0f} s")
        result.wall_seconds = clock() - started
        # Successful reads are already filed with their version window;
        # only failures are left for the caller to file.
        result.answers = [entry for entry in result.answers if entry[2] is None]
        freshness.append(book.fresh_at - book.acked_at)
        return TimedSlice(kind, result)

    try:
        state.utility = average_utility(deployment.engine.store)
        keys = store_keys(deployment.engine.store)
        await warm_up(state, deployment, lambda client: streams.session_reads_stream(
            state.seed, keys, client))
        def make_stream(client: int) -> Iterator[streams.Ask]:
            return streams.session_reads_stream(state.seed, keys, client)

        send = in_process_sender(deployment.client)
        cursors = [Cursor(client, make_stream(client), send) for client in range(QPS_CLIENTS)]
        await serve(state, deployment, cursors, checks.from_response, tracer, run_slice)
        note_repeat_share(state, cursors, make_stream)
        await service.scheduler.quiesce()
        served_digest = service.store_digest()["digest"]
        jobs = list(service.scheduler.jobs)
    finally:
        await deployment.close()
    state.notes["freshness_s"] = hostcal.scale_time(median(freshness), state.factor)
    state.notes["freshness_raw_s"] = median(freshness)
    state.notes["appended_batches"] = len(acked)
    state.notes["swaps"] = sum(1 for job in jobs if job.status == "completed")
    await verify_appends(state, spec, work_root, acked, jobs, served_digest)


async def verify_appends(state: RunState, spec: deploy.DeploymentSpec, work_root: Path,
                         acked: list[list[dict]], jobs, served_digest: str) -> None:
    """Replay the acked batches serially on a reference engine and check every read."""
    references = []
    for _ in range(SETUPS - 1):
        deployment = await timed_setup(state, spec, work_root)
        await deployment.close()
        references.append(deployment)
    reference = references[0]
    engine = reference.engine
    # Snapshot version -> acked batches it contains.
    applied = {0: 0}
    for job in jobs:
        if job.status != "completed":
            state.checker.count_failure("append", f"maintenance job {job.index} {job.status}")
            continue
        applied[job.snapshot_version] = applied[max(applied)] + job.batches
    state.checker.map_versions(applied)

    maintainer = IncrementalMaintainer(engine.config, engine.table,
                                       summarizer=engine.summarizer, realizer=engine.realizer)

    def replay():
        yield lambda text: checks.from_response(engine.respond(text))
        for rows in acked:
            maintainer.maintain(reference.service.build_append_table(rows), engine.store)
            engine.adopt_table(maintainer.table)
            yield lambda text: checks.from_response(engine.respond(text))

    state.checker.verify_versioned(replay())
    digest = hashlib.sha256(canonical_store_payload(engine.store)).hexdigest()
    if digest != served_digest:
        state.checker.count_failure(
            "append", "final store digest differs from a serial replay", attempted=0)


WORKLOADS = {"hot_hits": hot_hits, "cold_misses": cold_misses, "appends": appends}
