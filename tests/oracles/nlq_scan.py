"""Full-vocabulary scan parser: the parity oracle of ``repro.system.nlq``.

This is the original request parser: per request it probes every
target, value and dimension-name phrase with its own word-boundary
regex (``\\b`` + phrase + ``\\b``) and tests the category keywords with
substring scans.  :class:`repro.system.nlq.NaturalLanguageParser` must
give identical parses, field by field.
"""

from __future__ import annotations

import re
from typing import Any, Mapping, Sequence

from repro.relational.table import Table
from repro.system.config import SummarizationConfig
from repro.system.nlq import ParsedRequest, RequestKind
from repro.system.queries import DataQuery

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


class ScanParser:
    """The full-scan parser; same constructor and outputs as the production parser."""

    def __init__(
        self,
        config: SummarizationConfig,
        table: Table,
        target_synonyms: Mapping[str, Sequence[str]] | None = None,
        dimension_synonyms: Mapping[str, tuple[str, Any]] | None = None,
    ):
        self._config = config
        self._target_lexicon = self._build_target_lexicon(config.targets, target_synonyms)
        self._value_lexicon = self._build_value_lexicon(config.dimensions, table)
        for phrase, (dimension, value) in (dimension_synonyms or {}).items():
            self._value_lexicon[phrase.lower()] = (dimension, value)
        # Values are probed longest-first (ties by insertion), targets in
        # insertion order.
        self._ranked_value_phrases = sorted(self._value_lexicon, key=len, reverse=True)
        self._target_phrases = list(self._target_lexicon)
        # Dimension name phrases: (candidate, dimension) pairs in
        # configuration order, full name before head noun.
        self._dimension_phrases: list[tuple[str, str]] = []
        for dimension in config.dimensions:
            phrase = dimension.replace("_", " ").lower()
            self._dimension_phrases.append((phrase, dimension))
            if " " in phrase:
                self._dimension_phrases.append((phrase.split()[-1], dimension))

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
        normalised = f" {text.strip().lower()} "
        if self._matches_any(normalised, _HELP_PATTERNS):
            return ParsedRequest(text=text, kind=RequestKind.HELP)
        if self._matches_any(normalised, _REPEAT_PATTERNS):
            return ParsedRequest(text=text, kind=RequestKind.REPEAT)

        target = self._extract_target(normalised)
        predicates = self._extract_predicates(normalised)
        mentions = self.extract_value_mentions(normalised)
        dimension = self.extract_dimension_mention(normalised)

        if self._matches_any(normalised, _COMPARISON_PATTERNS):
            query = DataQuery.create(target, predicates) if target else None
            return ParsedRequest(
                text=text,
                kind=RequestKind.COMPARISON,
                query=query,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=dimension,
            )
        if self._matches_any(normalised, _EXTREMUM_PATTERNS):
            query = DataQuery.create(target, predicates) if target else None
            wants_minimum = self._matches_any(
                normalised, ("lowest", "least ", "minimum", "fewest", "smallest")
            )
            return ParsedRequest(
                text=text,
                kind=RequestKind.EXTREMUM,
                query=query,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=dimension,
                wants_minimum=wants_minimum,
            )
        if target is None:
            return ParsedRequest(text=text, kind=RequestKind.OTHER, matched_values=predicates)
        return ParsedRequest(
            text=text,
            kind=RequestKind.QUERY,
            query=DataQuery.create(target, predicates),
            matched_values=predicates,
            value_mentions=mentions,
        )

    # ------------------------------------------------------------------
    # Extraction internals
    # ------------------------------------------------------------------
    @staticmethod
    def _matches_any(text: str, patterns: Sequence[str]) -> bool:
        return any(pattern in text for pattern in patterns)

    def _extract_target(self, text: str) -> str | None:
        """The target column whose longest synonym appears in the text."""
        best: str | None = None
        best_length = 0
        for phrase in self._target_phrases:
            if len(phrase) > best_length and self._phrase_in_text(phrase, text):
                best = self._target_lexicon[phrase]
                best_length = len(phrase)
        return best

    def extract_value_mentions(self, text: str) -> list[tuple[str, Any]]:
        """Every recognised dimension value, in text order of first match.

        Unlike :meth:`_extract_predicates`, a dimension may contribute
        several values ("between East and West"); phrases contained in a
        longer matched phrase are still skipped.
        """
        normalised = f" {text.strip().lower()} "
        mentions: list[tuple[str, int]] = []
        matched_phrases: list[str] = []
        for phrase in self._ranked_value_phrases:
            match = re.search(r"\b" + re.escape(phrase) + r"\b", normalised)
            if not match:
                continue
            if any(phrase in longer for longer in matched_phrases):
                continue
            matched_phrases.append(phrase)
            mentions.append((phrase, match.start()))
        mentions.sort(key=lambda item: item[1])
        return [self._value_lexicon[phrase] for phrase, _ in mentions]

    def extract_dimension_mention(self, text: str) -> str | None:
        """A dimension column referenced by name in the text, if any.

        Candidate phrases (each dimension's full name plus, for
        multi-word names, its head noun — "region" for "origin region")
        are precomputed in ``__init__``; the longest matching phrase
        wins.
        """
        normalised = f" {text.strip().lower()} "
        best: str | None = None
        best_length = 0
        for candidate, dimension in self._dimension_phrases:
            if len(candidate) > best_length and self._phrase_in_text(candidate, normalised):
                best = dimension
                best_length = len(candidate)
        return best

    def _extract_predicates(self, text: str) -> dict[str, Any]:
        """Equality predicates for every dimension value mentioned in the text."""
        predicates: dict[str, Any] = {}
        matched_phrases: list[str] = []
        for phrase in self._ranked_value_phrases:
            if not self._phrase_in_text(phrase, text):
                continue
            # Skip phrases fully contained in an already matched longer phrase
            # (e.g. "north" inside "northeast").
            if any(phrase in longer for longer in matched_phrases):
                continue
            dimension, value = self._value_lexicon[phrase]
            if dimension not in predicates:
                predicates[dimension] = value
                matched_phrases.append(phrase)
        return predicates

    @staticmethod
    def _phrase_in_text(phrase: str, text: str) -> bool:
        pattern = r"\b" + re.escape(phrase) + r"\b"
        return re.search(pattern, text) is not None
