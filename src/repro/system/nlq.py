"""Natural-language request parsing (text → query).

The deployed system relies on the Google Assistant framework, trained
with a few samples, to extract a target column and equality predicates
from the voice transcript (Section III).  This module provides the
offline equivalent: a lexicon-based extractor built from the table's
column metadata plus optional synonyms.  Its output contract matches
the original — a target column and a set of equality predicates — and
it additionally detects the request categories the deployment analysis
distinguishes (help, repeat, comparisons, extrema, other).

Parsing must stay cheap at serving time — the paper's run-time budget is
"near zero" (Figure 10) and the serving service parses on the event
loop — so :meth:`NaturalLanguageParser.parse` makes one pass over the
transcript and builds no pattern per request:

* the category keywords are precompiled alternations, one per category
  (help, repeat, comparison, extremum, and the minimum direction of an
  extremum), behind one alternation of all of them that lets a plain
  data question skip every category test;
* the target, value and dimension-name phrases share one table, built
  at construction, keyed by each phrase's leading word token.  The
  transcript is tokenized once and only phrases indexed under its
  tokens are verified, once each, in the order a full scan would visit
  them.  A phrase that starts and ends with a word character is verified
  in a transcript of only alphanumerics and spaces by one ``str.find``
  of the phrase padded by spaces, which is exactly where the
  word-boundary regex ``\\b`` + phrase + ``\\b`` matches; any other phrase,
  and any phrase in any other transcript, keeps that regex, compiled
  once at construction;
* the value matches form one scan-ordered list of ``(phrase, first
  start)`` from which both the predicates and the value mentions are
  derived, with the longest-first order and the containment and
  first-dimension tie-breaks of the full scan.

The original full-vocabulary scan (one ``re.search`` per lexicon phrase
and request) lives on as the parity oracle in
``tests/oracles/nlq_scan.py``; ``tests/system/test_nlq_token_index.py``
checks that both give identical parses, field by field, on a fixed
corpus and on random texts drawn from every dataset's lexicon.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Any, Mapping, Sequence

from repro.system.config import SummarizationConfig
from repro.system.queries import DataQuery
from repro.relational.table import Table


class RequestKind(Enum):
    """Coarse categories of an incoming voice request."""

    HELP = "help"
    REPEAT = "repeat"
    QUERY = "query"
    COMPARISON = "comparison"
    EXTREMUM = "extremum"
    OTHER = "other"


@dataclass
class ParsedRequest:
    """Result of parsing one voice request.

    ``query`` is populated for data-access requests; comparisons and
    extrema also carry the extracted query skeleton when possible so the
    analysis can count them among data-access queries.
    ``value_mentions`` lists *every* recognised dimension value (possibly
    several for the same dimension, as in "between East and West") and
    ``mentioned_dimension`` records a dimension referenced by name
    ("which region ..."); both feed the comparison/extremum extension.
    """

    text: str
    kind: RequestKind
    query: DataQuery | None = None
    matched_values: dict[str, Any] = field(default_factory=dict)
    value_mentions: list[tuple[str, Any]] = field(default_factory=list)
    mentioned_dimension: str | None = None
    wants_minimum: bool = False


#: Word tokens: the ``\w`` runs between which ``\b`` sees a boundary.
_WORD_TOKEN = re.compile(r"\w+")

_HELP_PATTERNS = ("help", "what can i ask", "what can you do", "how do i", "instructions")
_REPEAT_PATTERNS = ("repeat", "say that again", "once more", "come again")
_COMPARISON_PATTERNS = ("compare", "comparison", " versus ", " vs ", "difference between")
_EXTREMUM_PATTERNS = (
    "highest",
    "lowest",
    "most ",
    "least ",
    "maximum",
    "minimum",
    "fewest",
    "smallest",
    "worst",
    "best ",
    "which has the",
    "who has the",
)
_MINIMUM_PATTERNS = ("lowest", "least ", "minimum", "fewest", "smallest")


def _keywords(patterns: Sequence[str]) -> re.Pattern[str]:
    """One alternation that matches wherever any of ``patterns`` occurs."""
    return re.compile("|".join(re.escape(pattern) for pattern in patterns))


_HELP = _keywords(_HELP_PATTERNS)
_REPEAT = _keywords(_REPEAT_PATTERNS)
_COMPARISON = _keywords(_COMPARISON_PATTERNS)
_EXTREMUM = _keywords(_EXTREMUM_PATTERNS)
_MINIMUM = _keywords(_MINIMUM_PATTERNS)
#: Any category keyword at all: most requests have none, and one search
#: then rules out every category.
_ANY_KEYWORD = _keywords(
    _HELP_PATTERNS + _REPEAT_PATTERNS + _COMPARISON_PATTERNS + _EXTREMUM_PATTERNS
)

_FIRST = itemgetter(0)

#: A lexicon match: ``(phrase, start of its first match, payload)``.
_Match = tuple[str, int, Any]

#: Kinds of lexicon phrase.
_TARGET, _VALUE, _DIMENSION = range(3)


def _is_word_char(char: str) -> bool:
    return _WORD_TOKEN.match(char) is not None


class _PhraseTable:
    """Target, value and dimension-name phrases, indexed by leading word token.

    A phrase occurs in a text when it matches there as a whole, i.e.
    ``\\b`` + phrase + ``\\b`` matches.  Such a match implies that the
    phrase's leading word token occurs as a whole token of the text, so
    only phrases indexed under the text's tokens are verified (phrases
    without any word token are candidates of every text), in scan order:
    kind by kind, and within a kind in the order of the given lists.

    Most transcripts are *plain*: alphanumeric characters and spaces
    only.  In a plain text the whole matches of a phrase that starts and
    ends with a word character are exactly the occurrences of the phrase
    padded by one space on each side, so one ``str.find`` verifies it.
    Every other phrase, and every phrase in any other text, is verified
    by its word-boundary regex.  The table is not modified after
    construction, so concurrent parses may share it.
    """

    __slots__ = ("_lexicons", "_by_token", "_always")

    def __init__(self, lexicons: Sequence[Sequence[tuple[str, Any]]]):
        self._lexicons = lexicons
        # One entry per phrase: (scan position, kind, phrase, the phrase
        # padded by spaces or None when it is not bounded by word
        # characters, its word-boundary regex, payload).
        self._by_token: dict[str, list[tuple]] = {}
        self._always: list[tuple] = []
        position = 0
        for kind, lexicon in enumerate(lexicons):
            for phrase, payload in lexicon:
                bounded = phrase and _is_word_char(phrase[0]) and _is_word_char(phrase[-1])
                entry = (
                    position,
                    kind,
                    phrase,
                    f" {phrase} " if bounded else None,
                    re.compile(r"\b" + re.escape(phrase) + r"\b"),
                    payload,
                )
                tokens = _WORD_TOKEN.findall(phrase)
                if tokens:
                    self._by_token.setdefault(tokens[0], []).append(entry)
                else:
                    self._always.append(entry)
                position += 1

    def __reduce__(self):
        # Pickled as its lexicons alone, rebuilding the index and the
        # regexes on load: shards start from a pickled engine.
        return _PhraseTable, (self._lexicons,)

    def scan(self, text: str) -> tuple[Any, list[_Match], Any]:
        """The target, every value match and the dimension named in ``text``.

        ``text`` is a normalised transcript (stripped, lower-cased and
        padded by one space).  The target and the dimension are the
        payloads of their longest matched phrase (the first one on
        ties); value matches come in scan order.
        """
        core = text[1:-1]
        plain = core.replace(" ", "").isalnum()
        tokens = set(core.split(" ") if plain else _WORD_TOKEN.findall(text))
        candidates = self._always.copy()
        for token in tokens:
            entries = self._by_token.get(token)
            if entries is not None:
                candidates += entries
        candidates.sort(key=_FIRST)
        target = dimension = None
        target_length = dimension_length = 0
        values: list[_Match] = []
        for _, kind, phrase, padded, pattern, payload in candidates:
            if plain and padded is not None:
                start = text.find(padded) + 1
                if not start:
                    continue
            else:
                match = pattern.search(text)
                if match is None:
                    continue
                start = match.start()
            if kind == _VALUE:
                values.append((phrase, start, payload))
            elif kind == _TARGET:
                if len(phrase) > target_length:
                    target = payload
                    target_length = len(phrase)
            elif len(phrase) > dimension_length:
                dimension = payload
                dimension_length = len(phrase)
        return target, values, dimension


def _predicates_and_mentions(values: list[_Match]) -> tuple[dict[str, Any], list[tuple[str, Any]]]:
    """Equality predicates and value mentions from the scan-ordered value matches.

    Both walk the matches longest-first and skip a phrase contained in an
    already kept longer one (e.g. "north" inside "northeast").
    Predicates keep the first value per dimension, and only a phrase that
    set a predicate shadows shorter ones; mentions keep every value and
    are returned in text order of first match.
    """
    predicates: dict[str, Any] = {}
    predicate_phrases: list[str] = []
    mentions: list[tuple[int, tuple[str, Any]]] = []
    mention_phrases: list[str] = []
    for phrase, start, pair in values:
        for longer in mention_phrases:
            if phrase in longer:
                break
        else:
            mention_phrases.append(phrase)
            mentions.append((start, pair))
        if pair[0] in predicates:
            continue
        for longer in predicate_phrases:
            if phrase in longer:
                break
        else:
            predicates[pair[0]] = pair[1]
            predicate_phrases.append(phrase)
    mentions.sort(key=_FIRST)
    return predicates, [pair for _, pair in mentions]


def _normalise(text: str) -> str:
    return f" {text.strip().lower()} "


class NaturalLanguageParser:
    """Lexicon-based extractor for target columns and equality predicates.

    Parameters
    ----------
    config:
        Summarization configuration (names the dimensions and targets).
    table:
        The data table; its distinct dimension values form the predicate
        lexicon.
    target_synonyms:
        Extra phrases that map to a target column, e.g.
        ``{"cancellation": ["cancellations", "cancelled flights"]}``.
    dimension_synonyms:
        Extra phrases that map a *value* to a (dimension, value) pair,
        e.g. ``{"nyc": ("borough", "Manhattan")}``.
    """

    def __init__(
        self,
        config: SummarizationConfig,
        table: Table,
        target_synonyms: Mapping[str, Sequence[str]] | None = None,
        dimension_synonyms: Mapping[str, tuple[str, Any]] | None = None,
    ):
        target_lexicon = self._build_target_lexicon(config.targets, target_synonyms)
        value_lexicon = self._build_value_lexicon(config.dimensions, table)
        for phrase, (dimension, value) in (dimension_synonyms or {}).items():
            value_lexicon[phrase.lower()] = (dimension, value)
        # Scan orders: targets in insertion order; values longest-first
        # (ties by insertion), which the containment tie-break relies on;
        # dimension names in configuration order, full name before head
        # noun ("origin region", then "region").
        ranked_values = sorted(value_lexicon.items(), key=lambda item: len(item[0]), reverse=True)
        dimension_phrases: list[tuple[str, str]] = []
        for dimension in config.dimensions:
            phrase = dimension.replace("_", " ").lower()
            dimension_phrases.append((phrase, dimension))
            if " " in phrase:
                dimension_phrases.append((phrase.split()[-1], dimension))
        self._phrases = _PhraseTable(
            (list(target_lexicon.items()), ranked_values, dimension_phrases)
        )

    # ------------------------------------------------------------------
    # Lexicon construction
    # ------------------------------------------------------------------
    @staticmethod
    def _build_target_lexicon(
        targets: Sequence[str],
        synonyms: Mapping[str, Sequence[str]] | None,
    ) -> dict[str, str]:
        lexicon: dict[str, str] = {}
        for target in targets:
            phrase = target.replace("_", " ").lower()
            lexicon[phrase] = target
            # Individual informative words of the column name also map to it.
            for word in phrase.split():
                if len(word) > 3:
                    lexicon.setdefault(word, target)
        for target, phrases in (synonyms or {}).items():
            for phrase in phrases:
                lexicon[phrase.lower()] = target
        return lexicon

    @staticmethod
    def _build_value_lexicon(dimensions: Sequence[str], table: Table) -> dict[str, tuple[str, Any]]:
        lexicon: dict[str, tuple[str, Any]] = {}
        for dimension in dimensions:
            for value in table.column(dimension).distinct_values():
                phrase = str(value).lower()
                # Values shared by several dimensions keep the first
                # dimension (stable order); callers can disambiguate
                # through dimension_synonyms.
                lexicon.setdefault(phrase, (dimension, value))
        return lexicon

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    def parse(self, text: str) -> ParsedRequest:
        """Parse one voice request into a :class:`ParsedRequest`."""
        normalised = _normalise(text)
        keyword = _ANY_KEYWORD.search(normalised) is not None
        if keyword and _HELP.search(normalised) is not None:
            return ParsedRequest(text=text, kind=RequestKind.HELP)
        if keyword and _REPEAT.search(normalised) is not None:
            return ParsedRequest(text=text, kind=RequestKind.REPEAT)

        target, values, dimension = self._phrases.scan(normalised)
        predicates, mentions = _predicates_and_mentions(values)
        if keyword and _COMPARISON.search(normalised) is not None:
            kind = RequestKind.COMPARISON
        elif keyword and _EXTREMUM.search(normalised) is not None:
            kind = RequestKind.EXTREMUM
        elif target is None:
            return ParsedRequest(text=text, kind=RequestKind.OTHER, matched_values=predicates)
        else:
            return ParsedRequest(
                text=text,
                kind=RequestKind.QUERY,
                query=DataQuery.create(target, predicates),
                matched_values=predicates,
                value_mentions=mentions,
            )
        wants_minimum = kind is RequestKind.EXTREMUM and _MINIMUM.search(normalised) is not None
        return ParsedRequest(
            text=text,
            kind=kind,
            query=DataQuery.create(target, predicates) if target else None,
            matched_values=predicates,
            value_mentions=mentions,
            mentioned_dimension=dimension,
            wants_minimum=wants_minimum,
        )

    def extract_value_mentions(self, text: str) -> list[tuple[str, Any]]:
        """Every recognised dimension value, in text order of first match.

        Unlike the predicates, a dimension may contribute several values
        ("between East and West"); phrases contained in a longer matched
        phrase are still skipped.
        """
        return _predicates_and_mentions(self._phrases.scan(_normalise(text))[1])[1]

    def extract_dimension_mention(self, text: str) -> str | None:
        """A dimension column referenced by name in the text, if any.

        Candidate phrases are each dimension's full name plus, for
        multi-word names, its head noun ("region" for "origin region");
        the longest matching phrase wins.
        """
        return self._phrases.scan(_normalise(text))[2]
