"""Seeded request streams for the three workloads.

Everything here is plain data: the generators see the deployment's
catalogue (stored query keys, dimension domains, held-out rows) and a
seed, and return transcripts.  The same seed always yields the same
stream; the system under test only ever receives the generated text.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

#: A stored query key as ``(target, ((column, value), ...))``.
QueryKey = tuple[str, tuple[tuple[str, Any], ...]]

#: Phrasings of a data question; ``{t}`` is the target, ``{v}`` the values.
DATA_TEMPLATES = (
    "what is the {t} for {v}",
    "tell me the {t} for {v}",
    "how about the {t} in {v}",
)
ROOT_TEMPLATES = ("what is the {t}", "tell me the {t}", "how about the {t}")
REPEAT_TEXTS = ("repeat", "say that again", "repeat that please")

#: Zipf exponent of the hot_hits popularity curve.
ZIPF_EXPONENT = 1.1
#: Share of hot_hits requests carrying a session, and of those, repeats.
SESSION_SHARE = 0.10
REPEAT_SHARE_OF_SESSIONS = 0.25
#: Sessions per client (sessions never cross clients, so each session's
#: request order is the order its one client sent them in).
SESSIONS_PER_CLIENT = 32
#: Share of cold_misses requests that are comparisons or extrema.
ADVANCED_SHARE = 0.10
#: Share of appends reads that ask to repeat the session's last answer.
APPEND_REPEAT_SHARE = 0.10


@dataclass(frozen=True)
class Ask:
    """One request of a stream: a transcript and an optional session."""

    text: str
    session_id: str | None = None


def _rng(seed: int, *labels: object) -> random.Random:
    # String seeds hash with SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def phrase(name: str) -> str:
    """How a column name is spoken."""
    return name.replace("_", " ")


def data_question(target: str, values: Sequence[Any], template: int) -> str:
    """A data question naming ``target`` restricted to ``values``."""
    if not values:
        return ROOT_TEMPLATES[template].format(t=phrase(target))
    spoken = " and ".join(str(value) for value in values)
    return DATA_TEMPLATES[template].format(t=phrase(target), v=spoken)


class Zipf:
    """Draw ranks ``0..n-1`` with probability proportional to ``1/(rank+1)**s``."""

    def __init__(self, n: int, exponent: float):
        if n < 1:
            raise ValueError("Zipf needs at least one rank")
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        self._cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)


def _with_session(rng: random.Random, client: int | str, text: str, session_share: float,
                  repeat_share: float) -> Ask:
    if rng.random() >= session_share:
        return Ask(text)
    session = f"c{client}-s{rng.randrange(SESSIONS_PER_CLIENT)}"
    if rng.random() < repeat_share:
        return Ask(rng.choice(REPEAT_TEXTS), session)
    return Ask(text, session)


def hot_hits_stream(seed: int, keys: Sequence[QueryKey], client: int | str,
                    phase: str = "measure") -> Iterator[Ask]:
    """Zipf-popular questions about stored queries.

    The popularity ranking runs over (query, phrasing, predicate order)
    triples shuffled by the seed, so most transcripts repeat verbatim
    and almost every one is an exact store hit.
    """
    variants = []
    for target, predicates in sorted(keys, key=repr):
        values = [value for _, value in predicates]
        orders = {tuple(order) for order in itertools.permutations(values)}
        for order in sorted(orders, key=repr):
            for template in range(len(DATA_TEMPLATES)):
                variants.append(data_question(target, order, template))
    universe = sorted(set(variants))
    _rng(seed, "hot_hits", "universe").shuffle(universe)
    zipf = Zipf(len(universe), ZIPF_EXPONENT)
    rng = _rng(seed, "hot_hits", phase, client)
    while True:
        yield _with_session(rng, client, universe[zipf.draw(rng)], SESSION_SHARE,
                            REPEAT_SHARE_OF_SESSIONS)


def _clashing_dimensions(domains: dict[str, Sequence[Any]]) -> dict[str, set[str]]:
    """For each dimension, the dimensions sharing a spoken value with it.

    A question naming values of two such dimensions is ambiguous (the
    spoken value cannot tell which dimension it restricts), so the
    cold stream never combines them.
    """
    spoken = {column: {str(value).lower() for value in values}
              for column, values in domains.items()}
    return {
        column: {other for other in domains if other != column and spoken[column] & spoken[other]}
        for column in domains
    }


def cold_misses_stream(seed: int, targets: Sequence[str], domains: dict[str, Sequence[Any]],
                       client: int) -> Iterator[Ask]:
    """Near-unique 3-4 predicate questions, plus comparisons and extrema."""
    rng = _rng(seed, "cold_misses", client)
    clashes = _clashing_dimensions(domains)
    columns = sorted(domains)
    while True:
        target = rng.choice(list(targets))
        if rng.random() < ADVANCED_SHARE:
            yield Ask(_advanced_question(rng, target, domains, columns))
            continue
        wanted = rng.choice((3, 4))
        chosen: list[str] = []
        for column in rng.sample(columns, len(columns)):
            if not clashes[column] & set(chosen):
                chosen.append(column)
                if len(chosen) == wanted:
                    break
        values = [rng.choice(list(domains[column])) for column in chosen]
        yield Ask(data_question(target, values, rng.randrange(len(DATA_TEMPLATES))))


def _advanced_question(rng: random.Random, target: str, domains: dict[str, Sequence[Any]],
                       columns: list[str]) -> str:
    wide = [column for column in columns if len(domains[column]) >= 2]
    column = rng.choice(wide)
    if rng.random() < 0.5:
        first, second = rng.sample(list(domains[column]), 2)
        return f"compare the {phrase(target)} for {first} versus {second}"
    other = rng.choice([c for c in columns if c != column])
    value = rng.choice(list(domains[other]))
    extreme = rng.choice(("highest", "lowest"))
    return f"which {phrase(column)} has the {extreme} {phrase(target)} for {value}"


def session_reads_stream(seed: int, keys: Sequence[QueryKey],
                         client: int | str) -> Iterator[Ask]:
    """Session-bound reads of stored queries, about a tenth asking to repeat."""
    rng = _rng(seed, "appends", "reads", client)
    ordered = sorted(keys, key=repr)
    while True:
        target, predicates = rng.choice(ordered)
        text = data_question(target, [value for _, value in predicates],
                             rng.randrange(len(DATA_TEMPLATES)))
        yield _with_session(rng, client, text, 1.0, APPEND_REPEAT_SHARE)


def append_batches(rows: Sequence[dict], batch_rows: int) -> list[list[dict]]:
    """Held-out rows in table order, cut into batches of ``batch_rows``.

    The order does not depend on the seed: batches differ in how many
    speeches they refresh, and a fixed sequence keeps that cost the same
    on every run, so the seed varies only the reads.
    """
    return [list(rows[start:start + batch_rows]) for start in range(0, len(rows), batch_rows)]


def repeat_share(asks: Iterable[Ask]) -> float:
    """Share of requests whose transcript already occurred earlier in the stream."""
    seen: set[str] = set()
    total = repeats = 0
    for ask in asks:
        total += 1
        if ask.text in seen:
            repeats += 1
        seen.add(ask.text)
    return repeats / total if total else 0.0
