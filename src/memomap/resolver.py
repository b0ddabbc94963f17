"""Match reference fragments to bibliographic records.

Lexical weighted-overlap scoring with a threshold and an acceptance margin;
the remote client is an optional fallback for fragments the index cannot
place. Ambiguous near-ties stay unresolved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .biblio import MAX_YEAR, MIN_YEAR, ArticleRecord, BiblioIndex
from .corpus import ReferenceFragment
from .remote import RemoteLookupClient, RemoteUnavailableError

METHOD_LEXICAL = "lexical"
METHOD_REMOTE = "remote_fallback"
METHOD_UNRESOLVED = "unresolved"

_YEAR_RE = re.compile(r"\b(\d{4})\b")


@dataclass(frozen=True)
class ResolverConfig:
    threshold: float = 0.55
    margin: float = 0.05
    k: int = 10


@dataclass(frozen=True)
class ResolutionResult:
    memo_id: str
    ordinal: int
    article_id: str | None
    score: float | None
    method: str


def fragment_years(normalized_text: str) -> list[int]:
    """All plausible 4-digit publication years in a normalized fragment."""
    return [int(y) for y in _YEAR_RE.findall(normalized_text) if MIN_YEAR <= int(y) <= MAX_YEAR]


Views = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]


def record_views(record: ArticleRecord) -> Views:
    """A record's distinct title, journal and surname tokens, as ``score_candidate`` reads them."""
    title, journal, _, surnames = record.tokens()
    return tuple(title), tuple(journal), tuple(surnames)


def _overlap(fragment_tokens: frozenset[str], record_tokens: tuple[str, ...]) -> float:
    if not record_tokens:
        return 0.0
    return len(fragment_tokens.intersection(record_tokens)) / len(record_tokens)


def score_candidate(
    tokens: frozenset[str], years: list[int], views: Views, pub_year: int | None
) -> float:
    """Weighted word-overlap score in [0, 1] of a fragment's token set and
    ``fragment_years`` against a record's ``record_views`` and year.

    0.6 title overlap + 0.2 author-surname overlap + 0.1 journal overlap +
    0.1 year agreement (1 for an exact year in the fragment, 0.5 within one
    year). Each component is a fraction of the record side, so a fragment
    built verbatim from the record scores 1.0.
    """
    year = 0.0
    if pub_year is not None:
        for candidate_year in years:
            if candidate_year == pub_year:
                year = 1.0
                break
            if abs(candidate_year - pub_year) <= 1:
                year = max(year, 0.5)

    title, journal, family_names = views
    score = 0.6 * _overlap(tokens, title) + 0.2 * _overlap(tokens, family_names)
    return min(score + 0.1 * _overlap(tokens, journal) + 0.1 * year, 1.0)


def resolve_fragment(
    fragment: ReferenceFragment,
    index: BiblioIndex,
    config: ResolverConfig,
    remote: RemoteLookupClient | None = None,
    views: dict[str, Views] | None = None,
) -> ResolutionResult:
    """Resolve one fragment to at most one record.

    The best lexical candidate is accepted only when it clears the score
    threshold and beats the runner-up by the margin; otherwise the remote
    fallback is consulted when available. A remote miss (an offline cache
    miss, a malformed or an ambiguous answer) leaves the fragment
    unresolved; a remote failure past its retries raises
    RemoteUnavailableError, its message starting with ``memo_id[ordinal]``,
    so a failed lookup is never written as a miss. ``views`` maps article
    ids to ``record_views``; a candidate missing from it is tokenized and
    added, so a caller that shares it tokenizes each record once.
    """
    tokens = frozenset(fragment.normalized_text.split())
    years = fragment_years(fragment.normalized_text)
    candidates = index.search(tokens, year_hint=years[0] if years else None, k=config.k)

    views = {} if views is None else views
    scored = []
    for record in candidates:
        view = views.get(record.article_id)
        if view is None:
            view = views[record.article_id] = record_views(record)
        scored.append((score_candidate(tokens, years, view, record.pub_year), record))
    scored.sort(key=lambda pair: (-pair[0], pair[1].article_id))
    if scored:
        best_score, best = scored[0]
        second_score = scored[1][0] if len(scored) > 1 else 0.0
        if best_score >= config.threshold and best_score - second_score >= config.margin:
            return ResolutionResult(
                fragment.memo_id, fragment.ordinal, best.article_id, best_score, METHOD_LEXICAL
            )

    article_id = None
    if remote is not None:
        try:
            article_id = remote.lookup(fragment.raw_text)
        except RemoteUnavailableError as exc:
            raise RemoteUnavailableError(f"{fragment.memo_id}[{fragment.ordinal}]: {exc}") from exc
    method = METHOD_UNRESOLVED if article_id is None else METHOD_REMOTE
    return ResolutionResult(fragment.memo_id, fragment.ordinal, article_id, None, method)


def resolve_corpus(
    fragments: Iterable[ReferenceFragment],
    index: BiblioIndex,
    config: ResolverConfig,
    remote: RemoteLookupClient | None = None,
) -> list[ResolutionResult]:
    """Resolve every fragment, ordered by (memo_id, ordinal) regardless of input
    order. Each candidate record is tokenized once per call, on first use."""
    ordered = sorted(fragments, key=lambda f: (f.memo_id, f.ordinal))
    views: dict[str, Views] = {}
    return [resolve_fragment(f, index, config, remote, views) for f in ordered]


def cited_articles(resolution: Iterable[ResolutionResult]) -> dict[str, list[str]]:
    """Each memo with a resolution row, in sorted order, mapped to the distinct
    article ids its resolved rows cite, sorted; a memo whose rows are all
    unresolved cites none."""
    cited: dict[str, set[str]] = {}
    for row in resolution:
        ids = cited.setdefault(row.memo_id, set())
        if row.article_id is not None:
            ids.add(row.article_id)
    return {memo_id: sorted(cited[memo_id]) for memo_id in sorted(cited)}
