"""The traced run: in-memory spans around calls into the system's layers.

Spans are recorded by wrappers the benchmark installs from the outside:
on the objects it built (the engine, the maintainer, the service and
the service's metrics, sessions, journal and snapshot publisher) and,
for objects the system creates on its own, on their public classes
for the duration of the traced slices only.  Each span keeps its name,
start, end and the id of the span that caused it; a layer's self time
is its span's duration minus that of its direct children.

A traced run drives one client at a time, so the spans of one request
nest in time.  Spans on the service's offload thread take the open
offload wait as their parent; spans on the maintenance thread are
roots.  Untraced and traced one-client slices alternate for the run's
measured seconds, and the ratio of their throughputs is
``trace.overhead``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import VoiceRequest
from repro.api import http_server
from repro.store import CompactSpeechStore
from repro.storage.checkpoint import CheckpointManager
from repro.system.advanced import ComparisonAnswerer, ExtremumAnswerer
from repro.system.speech_store import SpeechStore

from voicebench import workloads
from voicebench.stats import median

#: Timed layers: metric name -> (span name, unit, scale from seconds).
LAYER_TIMES = {
    "nlq.parse_us": ("nlq.parse", "us", 1e6),
    "store.exact_us": ("store.exact", "us", 1e6),
    "store.best_us": ("store.best", "us", 1e6),
    "engine.respond_us": ("engine.respond", "us", 1e6),
    "advanced.answer_us": ("advanced.answer", "us", 1e6),
    "service.self_us": ("service.submit", "us", 1e6),
    "service.offload_wait_us": ("service.offload_wait", "us", 1e6),
    "service.observe_us": ("service.observe", "us", 1e6),
    "sessions.us": ("sessions", "us", 1e6),
    "scheduler.maintain_s": ("scheduler.maintain", "s", 1.0),
    "storage.journal_append_us": ("storage.journal_append", "us", 1e6),
    "storage.checkpoint_s": ("storage.checkpoint", "s", 1.0),
    "store.freeze_s": ("store.freeze", "s", 1.0),
    "engine.adopt_table_s": ("engine.adopt_table", "s", 1.0),
    "preprocessor.run_s": ("preprocessor.run", "s", 1.0),
}

#: Per-request HTTP layers, averaged over every traced HTTP request.
HTTP_LAYERS = {"api.encode_us": "api.encode", "api.decode_us": "api.decode"}

@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class _TracedJson:
    """Stands in for the ``json`` module inside the HTTP server."""

    def __init__(self, tracer: "Tracer"):
        self.loads = tracer.wrap(json.loads, "api.decode")
        self.dumps = tracer.wrap(json.dumps, "api.encode")
        self.JSONDecodeError = json.JSONDecodeError


@dataclass
class Tracer:
    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    rebuilt_speeches: list[int] = field(default_factory=list)
    probes: list[tuple[str, Any]] = field(default_factory=list)
    http_overheads: list[float] = field(default_factory=list)
    notes: dict[str, float] = field(default_factory=dict)
    _ids: Any = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _offload: int | None = None
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request_path: bool) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._offload if request_path else None)
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        else:
            stack.remove(span.id)
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str, request_path: bool = False,
             always: bool = False, on_result: Callable[[Any, tuple], None] | None = None):
        """A traced stand-in for ``fn``.

        ``request_path`` spans are skipped on the maintenance thread
        (maintenance probes the store it rebuilds) and, on a thread with
        no open span, attach to the open offload wait.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not (tracer.enabled or always) or (
                request_path and threading.current_thread().name.startswith("maintenance")
            ):
                return fn(*args, **kwargs)
            span = tracer._open(name, request_path)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def wrap_async(self, fn: Callable, name: str):
        tracer = self

        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            span = tracer._open(name, False)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def instrument(self, name: str, obj: Any) -> None:
        """Wrap the methods of an object the benchmark built (called during set-up)."""
        if name == "engine":
            obj.parse_and_classify = self.wrap(obj.parse_and_classify, "nlq.parse", True)
            obj.respond_to = self.wrap(obj.respond_to, "engine.respond", True)
            obj.adopt_table = self.wrap(obj.adopt_table, "engine.adopt_table")
            obj.preprocess = self.wrap(obj.preprocess, "preprocessor.run", always=True)
        elif name == "maintainer":
            obj.maintain = self.wrap(
                obj.maintain, "scheduler.maintain",
                on_result=lambda report, _args: self.rebuilt_speeches.append(
                    report.rebuilt_speeches))
        elif name == "service":
            obj.submit = self.wrap_async(obj.submit, "service.submit")
            metrics = obj.metrics
            metrics.observe = self.wrap(metrics.observe, "service.observe")
            sessions = obj.sessions
            sessions.record = self.wrap(sessions.record, "sessions")
            sessions.last_response = self.wrap(sessions.last_response, "sessions")
            if obj.durability is not None:
                obj.durability.log_append = self.wrap(
                    obj.durability.log_append, "storage.journal_append")
            if obj.publisher is not None:
                obj.publisher.publish = self.wrap(obj.publisher.publish, "store.freeze")

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _install_shared(self) -> None:
        """Wrap what the system builds by itself, for the traced slices only."""
        def probe(kind):
            def note(_result, args):
                self.probes.append((kind, args[1]))
            return note

        self._patch(SpeechStore, "exact_match", self.wrap(
            SpeechStore.exact_match, "store.exact", True, on_result=probe("exact")))
        self._patch(SpeechStore, "best_match", self.wrap(
            SpeechStore.best_match, "store.best", True, on_result=probe("best")))
        self._patch(ComparisonAnswerer, "compare",
                    self.wrap(ComparisonAnswerer.compare, "advanced.answer", True))
        self._patch(ExtremumAnswerer, "extremum",
                    self.wrap(ExtremumAnswerer.extremum, "advanced.answer", True))
        self._patch(CheckpointManager, "save",
                    self.wrap(CheckpointManager.save, "storage.checkpoint"))
        self._patch(http_server, "json", _TracedJson(self))
        self._patch(http_server, "response_to_dict",
                    self.wrap(http_server.response_to_dict, "api.encode"))
        self._patch(VoiceRequest, "from_dict", staticmethod(
            self.wrap(VoiceRequest.from_dict, "api.decode")))

    def _uninstall_shared(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _wrap_offload(self, loop) -> None:
        """Time the service's executor hand-off: from dispatch until the answer is back."""
        original = loop.run_in_executor
        tracer = self

        def run_in_executor(executor, func, *args):
            if not tracer.enabled or getattr(func, "__name__", "") != "_respond_offloaded":
                return original(executor, func, *args)
            span = tracer._open("service.offload_wait", False)
            tracer._stack().pop()
            tracer._offload = span.id
            future = original(executor, func, *args)

            def finished(_future) -> None:
                span.end = time.perf_counter()
                tracer.spans.append(span)
                tracer._offload = None

            future.add_done_callback(finished)
            return future

        loop.run_in_executor = run_in_executor

    # ------------------------------------------------------------------
    # The traced run
    # ------------------------------------------------------------------
    async def run(self, state, deployment, cursors, normalise, run_slice) -> None:
        """Alternate untraced and traced one-client slices (after the warm-up)."""
        self._wrap_offload(asyncio.get_running_loop())
        metrics = deployment.service.metrics
        http = deployment.server is not None
        counted = {"completed": 0, "exact_hits": 0, "offloaded": 0}
        qps: dict[str, list[float]] = {"untraced": [], "traced": []}
        measured = 0.0
        state.calibrate()
        while measured < state.seconds and not state.exhausted:
            for kind in ("untraced", "traced"):
                workloads.check_warm(state, deployment)
                before = {name: getattr(metrics, name) for name in counted}
                if kind == "traced":
                    self._install_shared()
                    self.enabled = True
                try:
                    timed = await run_slice("p50" if kind == "untraced" else kind, cursors[:1])
                finally:
                    self.enabled = False
                    self._uninstall_shared()
                state.calibrate()
                state.slices.append(timed)
                measured += timed.result.wall_seconds
                qps[kind].append(timed.result.qps)
                if kind == "traced":
                    for name in counted:
                        counted[name] += getattr(metrics, name) - before[name]
                    if http:
                        self._note_http(timed.result)
                workloads.file_answers(state, timed, normalise)
                if state.exhausted:
                    break

        self.notes["trace.overhead"] = median(qps["traced"]) / median(qps["untraced"])
        completed = max(1, counted["completed"])
        self.notes["service.exact_hit_share"] = counted["exact_hits"] / completed
        self.notes["service.offload_share"] = counted["offloaded"] / completed
        self.notes["http_requests"] = len(self.http_overheads)
        self.notes["preprocessor.fact_evaluations"] = deployment.engine.report.fact_evaluations
        self.notes["datasets.load_s"] = deployment.load_seconds
        self._probe_compact(deployment.service.registry.current.store)

    def _note_http(self, result) -> None:
        answered = [raw for _client, _ask, raw in result.answers if raw is not None]
        for latency, (_status, body) in zip(result.latencies, answered):
            self.http_overheads.append(latency - json.loads(body)["latency_seconds"])

    def _probe_compact(self, store) -> None:
        """Probe a compact store frozen from the served store with the traced queries."""
        compact = CompactSpeechStore.from_store(store)
        for kind in ("exact", "best"):
            method = compact.exact_match if kind == "exact" else compact.best_match
            queries = [query for probe_kind, query in self.probes if probe_kind == kind]
            clock = time.perf_counter
            started = clock()
            for query in queries:
                method(query)
            elapsed = clock() - started
            self.notes[f"store.compact_{kind}_us"] = (
                elapsed / len(queries) * 1e6 if queries else 0.0)

    # ------------------------------------------------------------------
    # Per-layer metrics
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, list[float]]:
        """Self seconds of every span, grouped by name."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
        grouped: dict[str, list[float]] = {}
        for span in self.spans:
            own = span.end - span.start - children.get(span.id, 0.0)
            grouped.setdefault(span.name, []).append(own)
        return grouped

    def call_counts(self) -> dict[str, int]:
        return {name: len(times) for name, times in sorted(self.self_times().items())}

    def metrics(self, state) -> dict[str, dict[str, float | str]]:
        grouped = self.self_times()
        out: dict[str, dict[str, float | str]] = {}
        for metric, (span, unit, scale) in LAYER_TIMES.items():
            times = grouped.get(span, [])
            out[metric] = {"value": sum(times) / len(times) * scale if times else 0.0,
                           "unit": unit}
            out[f"{span}.calls"] = {"value": len(times), "unit": "count"}
        requests = self.notes["http_requests"]
        for metric, span in HTTP_LAYERS.items():
            total = sum(grouped.get(span, []))
            out[metric] = {"value": total / requests * 1e6 if requests else 0.0, "unit": "us"}
        out["api.http_us"] = {
            "value": sum(self.http_overheads) / requests * 1e6 if requests else 0.0,
            "unit": "us"}
        for kind in ("exact", "best"):
            out[f"store.compact_{kind}_us"] = {
                "value": self.notes[f"store.compact_{kind}_us"], "unit": "us"}
        rebuilt = self.rebuilt_speeches
        out["updates.speeches_refreshed"] = {
            "value": sum(rebuilt) / len(rebuilt) if rebuilt else 0.0, "unit": "count"}
        out["preprocessor.fact_evaluations"] = {
            "value": self.notes["preprocessor.fact_evaluations"], "unit": "count"}
        out["datasets.load_s"] = {"value": self.notes["datasets.load_s"], "unit": "s"}
        for share in ("service.exact_hit_share", "service.offload_share", "trace.overhead"):
            out[share] = {"value": self.notes[share], "unit": "ratio"}
        out["workload.repeat_share"] = {"value": state.notes["repeat_share"], "unit": "ratio"}
        freshness = state.notes.get("freshness_s")
        out["freshness_s"] = {"value": freshness if freshness is not None else 0.0, "unit": "s"}
        return out

