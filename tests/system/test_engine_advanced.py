"""Tests for the engine's comparison / extremum extension and persistence."""

import pytest

from repro.system.config import SummarizationConfig
from repro.system.engine import ResponseKind, VoiceQueryEngine
from repro.system.nlq import RequestKind


def build_engine(example_table, enable_advanced: bool) -> VoiceQueryEngine:
    config = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=1,
        max_facts_per_speech=2,
        max_fact_dimensions=1,
        algorithm="G-B",
    )
    engine = VoiceQueryEngine(
        config,
        example_table,
        target_synonyms={"delay": ["delays"]},
        enable_advanced_queries=enable_advanced,
    )
    engine.preprocess()
    return engine


@pytest.fixture()
def advanced_engine(example_table) -> VoiceQueryEngine:
    return build_engine(example_table, enable_advanced=True)


@pytest.fixture()
def plain_engine(example_table) -> VoiceQueryEngine:
    return build_engine(example_table, enable_advanced=False)


class TestComparisonRequests:
    def test_comparison_answered_when_enabled(self, advanced_engine):
        response = advanced_engine.ask("compare the delay between Winter and Summer")
        assert response.kind is ResponseKind.COMPARISON
        assert "Winter" in response.text
        assert "Summer" in response.text

    def test_comparison_unsupported_when_disabled(self, plain_engine):
        response = plain_engine.ask("compare the delay between Winter and Summer")
        assert response.kind is ResponseKind.UNSUPPORTED

    def test_comparison_with_single_value_falls_back(self, advanced_engine):
        response = advanced_engine.ask("compare the delay for Winter")
        assert response.kind is ResponseKind.UNSUPPORTED

    def test_comparison_without_target_falls_back(self, advanced_engine):
        response = advanced_engine.ask("compare Winter and Summer")
        # No target column mentioned -> parsed without a query -> apology/help.
        assert response.kind is ResponseKind.UNSUPPORTED


class TestExtremumRequests:
    def test_extremum_answered_when_enabled(self, advanced_engine):
        response = advanced_engine.ask("which region has the highest delay")
        assert response.kind is ResponseKind.EXTREMUM
        assert "North" in response.text
        assert "highest" in response.text

    def test_minimum_request(self, advanced_engine):
        response = advanced_engine.ask("which region has the lowest delay")
        assert response.kind is ResponseKind.EXTREMUM
        assert "lowest" in response.text

    @pytest.mark.parametrize("word", ["fewest", "smallest"])
    def test_fewest_and_smallest_are_minimum_requests(self, advanced_engine, word):
        response = advanced_engine.ask(f"which region has the {word} delay")
        parsed = advanced_engine.session_log.requests[-1]
        assert parsed.kind is RequestKind.EXTREMUM
        assert parsed.wants_minimum
        assert response.kind is ResponseKind.EXTREMUM
        assert "lowest" in response.text

    def test_extremum_with_base_predicate(self, advanced_engine):
        response = advanced_engine.ask("which region has the highest delay in Summer")
        assert response.kind is ResponseKind.EXTREMUM
        assert "South" in response.text

    def test_extremum_unsupported_when_disabled(self, plain_engine):
        response = plain_engine.ask("which region has the highest delay")
        assert response.kind is ResponseKind.UNSUPPORTED


class TestSpeechPersistenceOnEngine:
    def test_save_and_load_round_trip(self, plain_engine, example_table, tmp_path):
        path = tmp_path / "speeches.json"
        plain_engine.save_speeches(str(path))

        config = plain_engine.config
        fresh = VoiceQueryEngine(config, example_table, target_synonyms={"delay": ["delays"]})
        loaded = fresh.load_speeches(str(path))
        assert loaded == len(plain_engine.store)
        response = fresh.ask("what is the delay in Winter")
        assert response.kind is ResponseKind.SPEECH
