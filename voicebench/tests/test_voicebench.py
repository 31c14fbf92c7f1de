"""Tests of the benchmark itself: streams, arithmetic, mixes and the verdict."""

from __future__ import annotations

import asyncio
import itertools
import os
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[2]
for entry in (str(CHECKOUT / "src"), str(CHECKOUT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.api import VoiceRequest  # noqa: E402

from voicebench import checks, deploy, hostcal, streams, workloads  # noqa: E402
from voicebench.stats import percentile  # noqa: E402

KEYS = [
    ("delay", ()),
    ("delay", (("season", "Winter"),)),
    ("delay", (("region", "East"),)),
    ("delay", (("region", "East"), ("season", "Winter"))),
]
DOMAINS = {
    "region": ["East", "West", "North"],
    "destination": ["East", "West", "North"],
    "season": ["Winter", "Summer"],
    "airline": ["AA", "DL", "UA"],
    "hour": ["Morning", "Night"],
}


def take(stream, count=300):
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("make", [
    lambda seed: streams.hot_hits_stream(seed, KEYS, 0),
    lambda seed: streams.cold_misses_stream(seed, ["delay"], DOMAINS, 0),
    lambda seed: streams.session_reads_stream(seed, KEYS, 1),
])
def test_same_seed_same_stream_other_seed_other_stream(make):
    assert take(make(7)) == take(make(7))
    assert take(make(7)) != take(make(8))


def test_append_batches_keep_table_order():
    rows = [{"row": index} for index in range(12)]
    batches = streams.append_batches(rows, 5)
    assert [len(batch) for batch in batches] == [5, 5, 2]
    assert [row for batch in batches for row in batch] == rows


def test_clients_get_distinct_streams_and_sessions():
    first = take(streams.hot_hits_stream(3, KEYS, 0), 2000)
    second = take(streams.hot_hits_stream(3, KEYS, 1), 2000)
    assert first != second
    sessions = {ask.session_id for ask in first if ask.session_id}
    assert sessions and all(session.startswith("c0-") for session in sessions)


def test_cold_questions_name_three_or_four_values_of_distinct_dimensions():
    assert streams._clashing_dimensions(DOMAINS)["region"] == {"destination"}
    asks = take(streams.cold_misses_stream(5, ["delay"], DOMAINS, 0), 500)
    data = [ask.text for ask in asks if not ask.text.startswith(("compare", "which"))]
    assert 0.8 * len(asks) <= len(data) < len(asks)
    for text in data:
        spoken = text.split(" for " if " for " in text else " in ", 1)[1].split(" and ")
        assert 3 <= len(spoken) <= 4
        assert len({v for v in spoken if v in DOMAINS["region"]}) <= 1


def test_reference_units():
    factor = hostcal.host_factor(2 * hostcal.REFERENCE_SECONDS)
    assert factor == pytest.approx(0.5)
    # A host twice as slow as the reference: times halve, rates double.
    assert hostcal.scale_time(0.8, factor) == pytest.approx(0.4)
    assert hostcal.scale_rate(1000.0, factor) == pytest.approx(2000.0)
    assert hostcal.scale_time(1.0, hostcal.host_factor(hostcal.REFERENCE_SECONDS)) == 1.0


def test_percentile_and_its_sample_count():
    values = list(range(1, 1001))
    assert percentile(values, 0.5) == (500, 500)
    assert percentile(values, 0.99) == (990, 10)
    assert percentile([3.0], 0.99) == (3.0, 0)
    assert percentile([5, 1, 4, 2, 3], 0.5) == (3, 2)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_checker_fails_a_wrong_answer_and_a_wrong_repeat():
    right = checks.Answer("speech", "It is 5.", "S-Query", ("delay", ()), True)
    checker = checks.AnswerChecker()
    checker.record("qps", streams.Ask("what is the delay", "c0-s1"), right)
    checker.record("qps", streams.Ask("repeat", "c0-s1"),
                   checks.Answer("repeat", "It is 6.", "Repeat", None, False))
    checker.record("qps", streams.Ask("what is the delay"), right._replace(text="It is 7."))
    references = {
        "what is the delay": right,
        "repeat": checks.Answer("repeat", "help", "Repeat", None, False),
    }
    checker.verify(references.__getitem__)
    assert checker.attempted == 3
    assert checker.failed == 2


# ----------------------------------------------------------------------
# Mixes on the real deployments
# ----------------------------------------------------------------------
async def _answer_all(spec_name: str, make_stream, count: int, work_root: Path):
    deployment = await deploy.deploy(deploy.SPECS[spec_name], work_root)
    try:
        stream = make_stream(deployment)
        for ask in itertools.islice(stream, count):
            await deployment.client.ask(VoiceRequest(ask.text, session_id=ask.session_id))
        return deployment.service.metrics
    finally:
        await deployment.close()


def test_hot_hits_are_exact_hits_that_mostly_repeat(tmp_path):
    asks = []

    def make(deployment):
        keys = workloads.store_keys(deployment.engine.store)
        asks.extend(take(streams.hot_hits_stream(1, keys, 0), 2000))
        return iter(asks)

    metrics = asyncio.run(_answer_all("hot_hits", make, 2000, tmp_path))
    assert metrics.exact_hits / metrics.completed >= 0.95
    assert streams.repeat_share(asks) >= 0.6


def test_cold_misses_are_offloaded(tmp_path):
    def make(deployment):
        engine = deployment.engine
        domains = {column: engine.table.column(column).distinct_values()
                   for column in engine.config.dimensions}
        return streams.cold_misses_stream(1, engine.config.targets, domains, 0)

    metrics = asyncio.run(_answer_all("cold_misses", make, 400, tmp_path))
    assert metrics.offloaded / metrics.completed >= 0.90
    assert metrics.exact_hits / metrics.completed <= 0.05


@pytest.fixture()
def short_runs(monkeypatch):
    """Runs with a tiny warm-up and two set-ups, for testing the machinery only.

    Pinned to one CPU like the benchmark: with the event loop and the
    maintenance thread on different CPUs, maintenance can wait seconds
    for the interpreter lock under read load.
    """
    monkeypatch.setattr(workloads, "WARMUP_REQUESTS", 300)
    monkeypatch.setattr(workloads, "SETUPS", 2)
    monkeypatch.setattr(workloads, "READS_PER_APPEND", 300)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _run(name: str, seconds: float, tmp_path: Path) -> workloads.RunState:
    state = workloads.RunState(name, 4, seconds, cpu=0)
    asyncio.run(workloads.WORKLOADS[name](state, tmp_path))
    return state


def test_appends_run_swaps_several_times_and_checks_out(short_runs, tmp_path):
    state = _run("appends", 1.5, tmp_path)
    assert state.checker.failed == 0, state.checker.examples
    assert state.notes["swaps"] >= 3
    assert state.notes["swaps"] == state.notes["appended_batches"]
    assert state.notes["freshness_s"] > 0
    metrics = workloads.end_to_end(state)
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_a_wrong_answer_fails_the_run(short_runs, tmp_path, monkeypatch):
    served = []
    original = deploy.deploy

    async def deploy_with_a_bug(spec, work_root, instrument=None):
        deployment = await original(spec, work_root, instrument)
        if not served:
            served.append(deployment)
            respond_to = deployment.engine.respond_to
            calls = itertools.count()

            def wrong(*args, **kwargs):
                response = respond_to(*args, **kwargs)
                if next(calls) % 50 == 49:
                    response.text += " Also, it rained."
                return response

            deployment.engine.respond_to = wrong
        return deployment

    monkeypatch.setattr(workloads.deploy, "deploy", deploy_with_a_bug)
    state = _run("hot_hits", 0.5, tmp_path)
    assert state.checker.failed > 0


def test_warm_up_self_check_refuses_an_early_slice(short_runs, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "warm_up", lambda *args, **kwargs: asyncio.sleep(0))
    with pytest.raises(RuntimeError, match="warm-up"):
        _run("cold_misses", 0.2, tmp_path)
