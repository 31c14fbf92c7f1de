"""Parity tests: the single-pass parser vs. the full-vocabulary scan oracle.

``NaturalLanguageParser`` verifies only the lexicon phrases whose
leading word token occurs in the request, against one tokenization of
it.  Its parsed output must be identical — field by field — to the
full scan of ``tests/oracles/nlq_scan.py`` on every input the
engine/nlq suites exercise, on arbitrary texts assembled from (and
around) the example vocabulary, and on texts drawn from every dataset's
lexicon in the shapes the voicebench request streams generate.
"""

from __future__ import annotations

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import available_datasets, load_dataset
from repro.system import nlq
from repro.system.config import SummarizationConfig
from repro.system.nlq import NaturalLanguageParser
from tests.oracles.nlq_scan import ScanParser
from voicebench import streams

#: Every transcript the engine/nlq test suites feed the parser, plus
#: edge cases: punctuation, casing, numbers, unknown words, phrases
#: without word characters and multi-value mentions.
CORPUS = [
    "help",
    "What can I ask you?",
    "how do I use this",
    "instructions please",
    "repeat that",
    "can you say that again",
    "once more",
    "thanks",
    "play some music",
    "good morning",
    "what is the delay in Winter?",
    "delays for North in Winter",
    "how bad are late arrivals in Summer",
    "what is the average delay",
    "DELAYS IN WINTER",
    "delays for Northern airlines",
    "what about the East",
    "compare the delay between East and West",
    "which region has the highest delay",
    "delay in wintertime",
    "what is the delay in Winter",
    "repeat that please",
    "which season has the lowest delay",
    "difference between North and South delays",
    "delay for the South in Summer",
    "is winter worse than summer for delays",
    "delay!!! winter,,, east...",
    "  what   is the   delay  ",
    "",
    "delay delay delay winter winter",
    "what is the delay for 2020",
    "übermäßige delays in winter",
    "which region has the fewest delays",
    "which season has the smallest delay for the East",
    "which region has the least delay",
    "the most delays in\twinter",
    "delay_winter east_",
]


def make_parsers(table):
    config = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=2,
    )
    kwargs = dict(
        target_synonyms={"delay": ["delays", "late arrivals"]},
        dimension_synonyms={"nyc": ("region", "East")},
    )
    return NaturalLanguageParser(config, table, **kwargs), ScanParser(config, table, **kwargs)


def assert_same_parse(parser, oracle, text):
    left = parser.parse(text)
    right = oracle.parse(text)
    assert left.text == right.text, text
    assert left.kind is right.kind, text
    assert left.query == right.query, text
    assert left.matched_values == right.matched_values, text
    assert left.value_mentions == right.value_mentions, text
    assert left.mentioned_dimension == right.mentioned_dimension, text
    assert left.wants_minimum == right.wants_minimum, text


@pytest.fixture()
def parsers(example_table):
    return make_parsers(example_table)


class TestCorpusParity:
    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_identical(self, parsers, text):
        parser, oracle = parsers
        assert_same_parse(parser, oracle, text)

    @pytest.mark.parametrize("text", ["delays for nyc", "compare nyc and West delays"])
    def test_dimension_synonyms_identical(self, parsers, text):
        parser, oracle = parsers
        assert_same_parse(parser, oracle, text)

    def test_helper_outputs_identical(self, parsers):
        parser, oracle = parsers
        for text in CORPUS:
            assert parser.extract_value_mentions(text) == oracle.extract_value_mentions(text)
            assert parser.extract_dimension_mention(text) == oracle.extract_dimension_mention(
                text
            )

    def test_pickled_parser_parses_identically(self, parsers):
        parser, oracle = parsers
        restored = pickle.loads(pickle.dumps(parser))
        for text in CORPUS:
            assert_same_parse(restored, oracle, text)

    @pytest.mark.parametrize("text", ["which region has the fewest delays", "smallest delay"])
    def test_fewest_and_smallest_ask_for_the_minimum(self, parsers, text):
        for parsed in (parser.parse(text) for parser in parsers):
            assert parsed.kind is nlq.RequestKind.EXTREMUM
            assert parsed.wants_minimum


class TestPhraseShapes:
    """Lexicon phrases whose edges are not word characters keep regex semantics."""

    @pytest.fixture()
    def shaped(self, example_table):
        config = SummarizationConfig.create(
            "flight_delays",
            dimensions=("region", "season"),
            targets=("delay",),
            max_query_length=2,
        )
        kwargs = dict(
            target_synonyms={"delay": ["+delay", "delay!", "late - arrivals", "-"]},
            dimension_synonyms={
                "5000+": ("region", "East"),
                "(nyc)": ("region", "West"),
                "20+ years": ("season", "Winter"),
                "north america": ("region", "North"),
                "north  america": ("region", "South"),
                "": ("season", "Fall"),
            },
        )
        return (
            NaturalLanguageParser(config, example_table, **kwargs),
            ScanParser(config, example_table, **kwargs),
        )

    @pytest.mark.parametrize(
        "text",
        [
            "delay for 5000+ people",
            "delay for 5000+people",
            "delay for 5000",
            "delay in (nyc) and 20+ years",
            "+delay for 20+ yearsx",
            "delay! north america",
            "late - arrivals in north  america then north america",
            "late - arrivalsx for north americas",
            "- delay -",
            "delay",
            "",
            "?",
        ],
    )
    def test_parse_identical(self, shaped, text):
        parser, oracle = shaped
        assert_same_parse(parser, oracle, text)


WORDS = st.sampled_from(
    [
        "delay",
        "delays",
        "late",
        "arrivals",
        "winter",
        "summer",
        "east",
        "west",
        "north",
        "south",
        "region",
        "season",
        "nyc",
        "the",
        "in",
        "for",
        "compare",
        "versus",
        "highest",
        "lowest",
        "help",
        "repeat",
        "zzz",
        "42",
        "?",
        "north-east",
        "wintertime",
    ]
)


class TestPropertyParity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(WORDS, min_size=0, max_size=8))
    def test_random_texts_parse_identically(self, words):
        parser, oracle = make_parsers(_table())
        assert_same_parse(parser, oracle, " ".join(words))


def _table():
    from tests.conftest import build_example_table

    return build_example_table()


# ----------------------------------------------------------------------
# Every dataset's lexicon
# ----------------------------------------------------------------------
#: Words around the lexicon phrases: category keywords (with and
#: without their padding), template words and noise.
_KEYWORDS = sorted(
    {
        word
        for patterns in (
            nlq._HELP_PATTERNS,
            nlq._REPEAT_PATTERNS,
            nlq._COMPARISON_PATTERNS,
            nlq._EXTREMUM_PATTERNS,
            nlq._MINIMUM_PATTERNS,
        )
        for pattern in patterns
        for word in (pattern, pattern.strip())
    }
)
_FILLER = ["what", "is", "the", "for", "in", "and", "which", "has", "of", "zzz", "42", "x"]
_NOISE = ["?", "!", ",", ".", "-", "+", "'s", "_", "  ", "\t", "é", "ß", "(", ")"]
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "", "-", ", ", "\t", "_"])


@functools.lru_cache(maxsize=None)
def _dataset_parsers(name: str):
    dataset = load_dataset(name, num_rows=300)
    config = SummarizationConfig.create(
        dataset.spec.key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
    )
    parser = NaturalLanguageParser(config, dataset.table)
    oracle = ScanParser(config, dataset.table)
    domains = {
        dimension: dataset.table.column(dimension).distinct_values()
        for dimension in dataset.spec.dimensions
    }
    return parser, oracle, config, domains


def _phrases(config, domains) -> list[str]:
    values = [str(value) for values in domains.values() for value in values]
    columns = [streams.phrase(name) for name in (*config.targets, *config.dimensions)]
    words = [word for column in columns for word in column.split()]
    return values + columns + words


def _casing(text: str, style: int) -> str:
    return (text, text.lower(), text.upper(), text.title())[style]


@st.composite
def _lexicon_text(draw, name: str) -> str:
    """Phrases, keywords, filler and noise joined by varied separators."""
    _, _, config, domains = _dataset_parsers(name)
    piece = st.one_of(
        st.sampled_from(_phrases(config, domains)),
        st.sampled_from(_KEYWORDS),
        st.sampled_from(_FILLER),
        st.sampled_from(_NOISE),
    )
    pieces = draw(st.lists(piece, max_size=10))
    text = ""
    for part in pieces:
        text += draw(_SEPARATORS) + _casing(part, draw(st.integers(0, 3)))
    return text


@st.composite
def _stream_text(draw, name: str) -> str:
    """A transcript in one of the shapes the voicebench streams generate."""
    _, _, config, domains = _dataset_parsers(name)
    target = draw(st.sampled_from(config.targets))
    columns = sorted(domains)
    shape = draw(st.integers(0, 3))
    if shape == 0:
        chosen = draw(st.lists(st.sampled_from(columns), max_size=4, unique=True))
        values = [draw(st.sampled_from(list(domains[column]))) for column in chosen]
        return streams.data_question(target, values, draw(st.integers(0, 2)))
    if shape == 1:
        return draw(st.sampled_from(streams.REPEAT_TEXTS))
    column = draw(st.sampled_from(columns))
    if shape == 2:
        first = draw(st.sampled_from(list(domains[column])))
        second = draw(st.sampled_from(list(domains[column])))
        return f"compare the {streams.phrase(target)} for {first} versus {second}"
    other = draw(st.sampled_from(columns))
    value = draw(st.sampled_from(list(domains[other])))
    extreme = draw(st.sampled_from(("highest", "lowest", "fewest", "smallest")))
    return (
        f"which {streams.phrase(column)} has the {extreme} "
        f"{streams.phrase(target)} for {value}"
    )


@pytest.mark.parametrize("name", available_datasets())
class TestDatasetLexiconParity:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lexicon_texts_parse_identically(self, name, data):
        parser, oracle, _, _ = _dataset_parsers(name)
        assert_same_parse(parser, oracle, data.draw(_lexicon_text(name)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stream_shapes_parse_identically(self, name, data):
        parser, oracle, _, _ = _dataset_parsers(name)
        assert_same_parse(parser, oracle, data.draw(_stream_text(name)))

    def test_every_lexicon_phrase_alone_and_in_a_question(self, name):
        parser, oracle, config, domains = _dataset_parsers(name)
        for phrase in _phrases(config, domains):
            for text in (phrase, f"what is the {phrase}?", f"{phrase}s and x{phrase}"):
                assert_same_parse(parser, oracle, text)

    def test_every_pair_of_lexicon_phrases(self, name):
        # Pairs exercise the tie-breaks: equally long target or dimension
        # phrases (the first one wins) and values of one dimension.  Only
        # comparisons and extrema report the dimension named.
        parser, oracle, config, domains = _dataset_parsers(name)
        phrases = _phrases(config, domains)
        for first in phrases:
            for second in phrases:
                assert_same_parse(parser, oracle, f"{first} {second}")
                assert_same_parse(parser, oracle, f"compare {first} {second}")
