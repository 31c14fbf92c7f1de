"""Unit tests for the end-to-end voice query engine (repro.system.engine)."""

import pytest

from repro.relational.column import ColumnType
from repro.relational.table import Table
from repro.system.classification import RequestType
from repro.system.config import SummarizationConfig
from repro.system.engine import ResponseKind, VoiceQueryEngine
from repro.system.queries import DataQuery


@pytest.fixture()
def engine(example_table) -> VoiceQueryEngine:
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
    )
    engine.preprocess()
    return engine


class TestPreprocessing:
    def test_report_available(self, engine):
        assert engine.report is not None
        assert engine.report.speeches_generated == 9
        assert len(engine.store) == 9
        assert engine.table.num_rows == 16

    def test_engine_without_preprocessing_returns_no_data(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays", ("region", "season"), ("delay",), algorithm="G-B"
        )
        cold_engine = VoiceQueryEngine(config, example_table)
        response = cold_engine.ask("what is the delay in Winter")
        assert response.kind is ResponseKind.NO_DATA


class TestAsk:
    def test_supported_query_returns_speech(self, engine):
        response = engine.ask("what is the delay in Winter")
        assert response.kind is ResponseKind.SPEECH
        assert response.request_type is RequestType.SUPPORTED_QUERY
        assert response.exact_match
        assert "Winter" in response.text
        assert response.latency_seconds > 0

    def test_help(self, engine):
        response = engine.ask("help")
        assert response.kind is ResponseKind.HELP
        assert "ask" in response.text.lower()

    def test_repeat_returns_last_answer(self, engine):
        first = engine.ask("what is the delay in Winter")
        repeat = engine.ask("repeat that please")
        assert repeat.kind is ResponseKind.REPEAT
        assert repeat.text == first.text

    def test_repeat_without_history_falls_back_to_help(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays", ("region", "season"), ("delay",), algorithm="G-B"
        )
        engine = VoiceQueryEngine(config, example_table)
        engine.preprocess(max_problems=1)
        response = engine.ask("repeat that")
        assert response.kind is ResponseKind.REPEAT
        assert "ask" in response.text.lower()

    def test_unsupported_query(self, engine):
        response = engine.ask("which region has the highest delay")
        assert response.kind is ResponseKind.UNSUPPORTED
        assert response.request_type is RequestType.UNSUPPORTED_QUERY

    def test_other_request_gets_help_text(self, engine):
        response = engine.ask("play some music")
        assert response.kind is ResponseKind.UNSUPPORTED
        assert response.request_type is RequestType.OTHER

    def test_session_log_records_everything(self, engine):
        engine.ask("help")
        engine.ask("what is the delay in Winter")
        assert len(engine.session_log.requests) >= 2
        assert len(engine.session_log.responses) >= 2


class TestAnswerQuery:
    def test_exact_lookup(self, engine):
        response = engine.answer_query(DataQuery.create("delay", {"season": "Winter"}))
        assert response.kind is ResponseKind.SPEECH
        assert response.exact_match

    def test_fallback_to_containing_subset(self, engine):
        response = engine.answer_query(
            DataQuery.create("delay", {"season": "Winter", "region": "North"})
        )
        assert response.kind is ResponseKind.SPEECH
        assert not response.exact_match

    def test_unknown_target(self, engine):
        response = engine.answer_query(DataQuery.create("price", {}))
        assert response.kind is ResponseKind.NO_DATA


class TestHelpText:
    @staticmethod
    def expected(example: str) -> str:
        return (
            "You can ask about a value for a data subset, for example "
            f"'what is the delay for {example}?'. I answer with a short summary "
            "of the relevant data."
        )

    def test_help_text_is_exact_and_follows_adopted_table(self, engine, example_table):
        assert engine.ask("help").text == self.expected("East")
        assert engine.ask("play some music").text == self.expected("East")
        rows = [("Central", "Winter", 12.0)]
        rows += [(row["region"], row["season"], row["delay"]) for row in example_table.to_dicts()]
        engine.adopt_table(
            Table.from_rows(
                "flight_delays",
                ["region", "season", "delay"],
                [ColumnType.CATEGORICAL, ColumnType.CATEGORICAL, ColumnType.NUMERIC],
                rows,
            )
        )
        assert engine.ask("help").text == self.expected("Central")
        assert engine.ask("play some music").text == self.expected("Central")
        engine.adopt_table(example_table)
        assert engine.ask("help").text == self.expected("East")
