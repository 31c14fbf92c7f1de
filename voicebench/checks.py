"""Correctness: every answer is compared with a reference engine built here.

Answers are normalised to :class:`Answer` whichever transport carried
them.  While serving, the checker only files answers under their
transcript (a transcript answered two ways is a failure on the spot);
after serving, each filed answer is compared once with what an
independently built reference engine answers.  A session "repeat" must
replay that session's previous answer byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

from voicebench.streams import REPEAT_TEXTS, Ask


class Answer(NamedTuple):
    kind: str
    text: str
    request_type: str
    query: tuple | None
    exact_match: bool


def from_response(response) -> Answer:
    """Normalise an in-process :class:`VoiceResponse`."""
    query = response.query
    return Answer(
        response.kind.value,
        response.text,
        response.request_type.value,
        None if query is None else (query.target, tuple(tuple(p) for p in query.predicates)),
        bool(response.exact_match),
    )


def from_payload(payload: dict) -> Answer:
    """Normalise a decoded ``/v1/ask`` JSON envelope."""
    query = payload["query"]
    return Answer(
        payload["kind"],
        payload["text"],
        payload["request_type"],
        None if query is None else (query["target"], tuple(tuple(p) for p in query["predicates"])),
        bool(payload["exact_match"]),
    )


def from_http(raw: tuple[bytes, bytes]) -> Answer | None:
    """Normalise an HTTP ``(status line, body)``; None for a non-200 answer."""
    status, body = raw
    if status.split(b" ", 2)[1] != b"200":
        return None
    return from_payload(json.loads(body))


@dataclass
class PhaseCount:
    attempted: int = 0
    failed: int = 0


@dataclass
class _Filed:
    answer: Answer
    count: int
    phase: str


@dataclass
class _VersionedRead:
    phase: str
    ask: Ask
    answer: Answer
    low: int
    high: int
    replay: str | None


@dataclass
class AnswerChecker:
    """Files answers while serving and verifies them against a reference."""

    phases: dict[str, PhaseCount] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)
    _filed: dict[tuple[str, str | None], _Filed] = field(default_factory=dict)
    _last_in_session: dict[str, str] = field(default_factory=dict)
    _versioned: list[_VersionedRead] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(count.attempted for count in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(count.failed for count in self.phases.values())

    def _fail(self, phase: str, count: int, why: str) -> None:
        self.phases[phase].failed += count
        if len(self.examples) < 5:
            self.examples.append(f"{phase}: {why}")

    def _replayed_text(self, ask: Ask, answer: Answer) -> str | None:
        """Track session state; the text a repeat must replay (None if not a repeat)."""
        if ask.session_id is None:
            return None
        if ask.text in REPEAT_TEXTS:
            return self._last_in_session.get(ask.session_id)
        if answer.kind != "repeat":
            self._last_in_session[ask.session_id] = answer.text
        return None

    def record(self, phase: str, ask: Ask, answer: Answer | None) -> None:
        """File one answer of a store that does not change while serving."""
        counts = self.phases.setdefault(phase, PhaseCount())
        counts.attempted += 1
        if answer is None:
            self._fail(phase, 1, f"request {ask.text!r} failed")
            return
        key = (ask.text, self._replayed_text(ask, answer))
        filed = self._filed.get(key)
        if filed is None:
            self._filed[key] = _Filed(answer, 1, phase)
        elif filed.answer == answer:
            filed.count += 1
        else:
            self._fail(phase, 1, f"{ask.text!r} answered two ways: {filed.answer} / {answer}")

    def record_versioned(self, phase: str, ask: Ask, answer: Answer | None,
                         low: int, high: int) -> None:
        """File a read that may see any store state from ``low`` to ``high``."""
        counts = self.phases.setdefault(phase, PhaseCount())
        counts.attempted += 1
        if answer is None:
            self._fail(phase, 1, f"read {ask.text!r} failed")
            return
        replay = self._replayed_text(ask, answer)
        self._versioned.append(_VersionedRead(phase, ask, answer, low, high, replay))

    def count_failure(self, phase: str, why: str, attempted: int = 1) -> None:
        """Record an operation outside the answer path (an append) that failed."""
        self.phases.setdefault(phase, PhaseCount()).attempted += attempted
        self._fail(phase, 1, why)

    def count_success(self, phase: str) -> None:
        """Record an operation outside the answer path (an append) that succeeded."""
        self.phases.setdefault(phase, PhaseCount()).attempted += 1

    @staticmethod
    def _expected(reference: Answer, replay: str | None) -> Answer:
        return reference if replay is None else reference._replace(text=replay)

    def verify(self, reference: Callable[[str], Answer]) -> None:
        """Compare every filed answer with ``reference(text)``."""
        for (text, replay), filed in self._filed.items():
            expected = self._expected(reference(text), replay)
            if filed.answer != expected:
                self._fail(filed.phase, filed.count,
                           f"{text!r}: served {filed.answer}, reference {expected}")

    def map_versions(self, applied: dict[int, int]) -> None:
        """Turn each read's snapshot-version window into a window of applied batches."""
        for read in self._versioned:
            read.low, read.high = applied[read.low], applied[read.high]

    def verify_versioned(self, states: Iterable[Callable[[str], Answer]]) -> None:
        """Each read must match the reference at some state of its window.

        ``states`` yields, in order, answer functions of a reference
        engine that applied the first 0, 1, 2, ... acknowledged batches;
        each is called only before the next one is drawn.
        """
        needed: dict[int, set[str]] = {}
        for read in self._versioned:
            high = read.low if read.replay is not None else read.high
            for state in range(read.low, high + 1):
                needed.setdefault(state, set()).add(read.ask.text)
        answers: dict[tuple[int, str], Answer] = {}
        for state, answer in enumerate(states):
            for text in needed.get(state, ()):
                answers[state, text] = answer(text)
        for read in self._versioned:
            high = read.low if read.replay is not None else read.high
            if not any(
                self._expected(answers[state, read.ask.text], read.replay) == read.answer
                for state in range(read.low, high + 1)
            ):
                self._fail(read.phase, 1,
                           f"{read.ask.text!r}: {read.answer} matches no state "
                           f"in [{read.low}, {read.high}]")

    def report(self) -> dict[str, Any]:
        return {
            name: {"attempted": count.attempted, "failed": count.failed}
            for name, count in self.phases.items()
        }
