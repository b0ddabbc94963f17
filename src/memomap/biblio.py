"""Local bibliographic index: record ingestion and token search."""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .artifacts import decoded_rows
from .corpus import normalize_fragment


class IngestError(Exception):
    """Records file violates the article schema."""


MIN_YEAR = 1800
MAX_YEAR = 2100


@dataclass(frozen=True)
class GrantTag:
    award_text: str
    funder_text: str


@dataclass(frozen=True)
class ArticleRecord:
    article_id: str
    title: str
    authors: tuple[str, ...]
    journal: str
    pub_year: int | None
    volume: str | None = None
    pages: str | None = None
    grant_tags: tuple[GrantTag, ...] = ()
    retracted: bool = False

    def title_tokens(self) -> frozenset[str]:
        return frozenset(t for t in normalize_fragment(self.title).split() if len(t) >= 2)

    def journal_tokens(self) -> frozenset[str]:
        return frozenset(t for t in normalize_fragment(self.journal).split() if len(t) >= 2)

    def author_tokens(self) -> frozenset[str]:
        tokens: set[str] = set()
        for author in self.authors:
            tokens.update(normalize_fragment(author).split())
        return frozenset(tokens)

    def surnames(self) -> frozenset[str]:
        # Surname is the first token of each "Surname AB" author string.
        names = set()
        for author in self.authors:
            parts = normalize_fragment(author).split()
            if parts:
                names.add(parts[0])
        return frozenset(names)


class BiblioIndex:
    """Inverted token index over title, author and journal tokens.

    Built once, in the constructor, from records already validated and keyed
    by id; it has no way to add a record later. Title and journal contribute
    normalized tokens of length >= 2 while author tokens (including bare
    initials) are indexed in full.
    """

    def __init__(self, records: Mapping[str, ArticleRecord]) -> None:
        self._records = records
        self._postings: dict[str, set[str]] = {}
        for article_id, record in records.items():
            for token in record.title_tokens() | record.journal_tokens() | record.author_tokens():
                self._postings.setdefault(token, set()).add(article_id)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def token_count(self) -> int:
        return len(self._postings)

    def get(self, article_id: str) -> ArticleRecord | None:
        return self._records.get(article_id)

    def records(self) -> Iterable[ArticleRecord]:
        for article_id in sorted(self._records):
            yield self._records[article_id]

    def search(
        self,
        tokens: Iterable[str],
        year_hint: int | None = None,
        k: int = 10,
    ) -> list[ArticleRecord]:
        """Top-k records by shared-token count.

        Ties break on |pub_year - year_hint| (when a hint is given; records
        without a year sort last), then on ascending article_id, so the
        ranking is a total order. Only records whose shared count reaches
        the k-th largest count (the smallest, when fewer than k records
        match) are sorted: the ranking orders by count first, so no other
        record can enter the top k, and the result, ties included, equals a
        full sort of every candidate.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        shared: Counter[str] = Counter()
        for token in set(tokens):
            shared.update(self._postings.get(token, ()))
        if not shared:
            return []

        far = MAX_YEAR - MIN_YEAR + 1

        def sort_key(article_id: str) -> tuple:
            record = self._records[article_id]
            if year_hint is not None:
                distance = abs(record.pub_year - year_hint) if record.pub_year is not None else far
            else:
                distance = 0
            return (-shared[article_id], distance, article_id)

        kth = heapq.nlargest(k, shared.values())[-1]
        ranked = sorted((a for a, count in shared.items() if count >= kth), key=sort_key)
        return [self._records[a] for a in ranked[:k]]


def read_records(path: str | Path, digest: Any = None) -> dict[str, ArticleRecord]:
    """Parse a records JSONL file into records by id, in file order.

    Schema violations and duplicate ids raise IngestError naming the line.
    Stages that only look records up by id use this and skip the index.
    ``digest`` (a hashlib object), when given, is updated with the file's bytes.
    """
    records: dict[str, ArticleRecord] = {}
    for where, record in decoded_rows(Path(path), ArticleRecord, IngestError, digest):
        if not record.article_id:
            raise IngestError(f"{where}: article_id must be a non-empty string")
        year = record.pub_year
        if year is not None and not MIN_YEAR <= year <= MAX_YEAR:
            raise IngestError(f"{where}: pub_year {year!r} outside [{MIN_YEAR}, {MAX_YEAR}]")
        if record.article_id in records:
            raise IngestError(f"{where}: duplicate article_id {record.article_id!r}")
        records[record.article_id] = record
    return records


def ingest_records(path: str | Path, digest: Any = None) -> BiblioIndex:
    """The search index over a records JSONL file, read by ``read_records``."""
    return BiblioIndex(read_records(path, digest))
