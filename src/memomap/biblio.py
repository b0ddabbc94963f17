"""Local bibliographic index: record ingestion and token search."""

from __future__ import annotations

import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .artifacts import InputError, decoded_rows
from .corpus import normalize_fragment


class IngestError(InputError):
    """Records file violates the article schema."""


MIN_YEAR = 1800
MAX_YEAR = 2100

# Title and journal words are the normalized tokens of length >= 2; author
# words keep bare initials.
_WORDS = re.compile(r"[a-z0-9]{2,}")
_PARTS = re.compile(r"[a-z0-9]+")


def _words(pattern: re.Pattern[str], text: str) -> list[str]:
    """The maximal runs ``pattern`` matches in ``text`` as ``normalize_fragment``
    leaves it: ``[a-z0-9]`` runs of the case-folded text, NFKD and the
    combining-mark filter applied only to non-ASCII text, which alone needs them."""
    return pattern.findall(text.casefold() if text.isascii() else normalize_fragment(text))


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

    def tokens(self) -> tuple[frozenset[str], ...]:
        """Title, journal, author and surname tokens, one ``findall`` per string.

        Title and journal keep tokens of length >= 2; author tokens keep bare
        initials; a surname is the first token of each "Surname AB" author.
        """
        authors = [_words(_PARTS, author) for author in self.authors]
        return (
            frozenset(_words(_WORDS, self.title)),
            frozenset(_words(_WORDS, self.journal)),
            frozenset(t for parts in authors for t in parts),
            frozenset(parts[0] for parts in authors if parts),
        )


class BiblioIndex:
    """Inverted token index over title, author and journal tokens, as record bitmaps.

    Built once, in the constructor, from records already validated and keyed
    by id; it has no way to add a record later. Title and journal contribute
    normalized tokens of length >= 2 while author tokens (including bare
    initials) are indexed in full.

    Record i in ascending ``article_id`` order is bit i. A token's posting is
    an ``int`` bitmap of its records when that takes no more bits than an
    ``array("i")`` of their positions, and that array otherwise, so memory
    stays linear in the total posting length however many records there
    are. ``search`` adds the query's bitmaps into bit-sliced counts (O'Neil
    and Quass 1997): plane j holds bit j of each record's shared-token count.
    """

    def __init__(self, records: Mapping[str, ArticleRecord]) -> None:
        self._ordered = [records[article_id] for article_id in sorted(records)]
        positions: defaultdict[str, array] = defaultdict(lambda: array("i"))
        for i, record in enumerate(self._ordered):
            # A space splits every rule's runs, so one joined string gives the
            # union of its parts' tokens, in fewer calls.
            words = _words(_WORDS, f"{record.title} {record.journal}")
            for token in {*words, *_words(_PARTS, " ".join(record.authors))}:
                positions[token].append(i)
        # A bitmap needs posting[-1] + 1 bits, the array 32 per position.
        self._postings: dict[str, int | array] = {
            token: _bitmap(posting) if posting[-1] < 32 * len(posting) else posting
            for token, posting in positions.items()
        }

    def __len__(self) -> int:
        return len(self._ordered)

    @property
    def token_count(self) -> int:
        return len(self._postings)

    def search(
        self,
        tokens: Iterable[str],
        year_hint: int | None = None,
        k: int = 10,
    ) -> list[ArticleRecord]:
        """Top-k records by shared-token count (``config.validate_config`` keeps k >= 1).

        Ties break on |pub_year - year_hint| (when a hint is given; records
        without a year sort last), then on ascending article_id, so the
        ranking is a total order. Each query token's bitmap is added into
        the count planes with a ripple carry. Splitting the matching records
        by the planes, from the top, gives one bitmap per count, highest
        count first; only these groups are read, each sorted by year
        distance, until k records are ranked. The ranking orders by count
        first, so no record of a later group can enter the top k, and the
        result, ties included, equals a full sort of every candidate.
        """
        planes: list[int] = []
        matched = 0
        for token in set(tokens):
            posting = self._postings.get(token)
            if posting is None:
                continue
            carry = posting if isinstance(posting, int) else _bitmap(posting)
            matched |= carry
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        if not matched:
            return []

        # Split the matching records by one plane at a time, from the top,
        # records with the bit set first: the final groups hold one count
        # each, in descending order. Within a group, positions (ids) ascend.
        groups = [matched]
        for plane in reversed(planes):
            groups = [g for group in groups for g in (group & plane, group & ~plane) if g]
        ranked: list[int] = []
        for group in groups:
            members = _positions(group)
            if year_hint is not None:
                members.sort(key=lambda i: _distance(self._ordered[i].pub_year, year_hint))
            ranked += members
            if len(ranked) >= k:
                break
        return [self._ordered[i] for i in ranked[:k]]


def _distance(year: int | None, year_hint: int) -> int:
    return abs(year - year_hint) if year is not None else MAX_YEAR - MIN_YEAR + 1


def _bitmap(positions: array) -> int:
    """The ``int`` with exactly the bits at ``positions`` (ascending) set."""
    bits = bytearray(positions[-1] // 8 + 1)
    for i in positions:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _positions(bitmap: int) -> list[int]:
    """The indexes of the set bits of a non-negative ``bitmap``, ascending."""
    bits = format(bitmap, "b")[::-1]
    found = []
    i = bits.find("1")
    while i >= 0:
        found.append(i)
        i = bits.find("1", i + 1)
    return found


def read_records(path: str | Path, digest: Any = None) -> dict[str, ArticleRecord]:
    """Parse a records JSONL file into records by id, in file order.

    Schema violations and duplicate ids raise IngestError naming the line;
    keys that are not fields are ignored. ``digest`` (a hashlib object),
    when given, is updated with the file's bytes.
    """
    path = Path(path)
    records: dict[str, ArticleRecord] = {}
    for line, record in decoded_rows(path, ArticleRecord, IngestError, digest):
        if not record.article_id:
            raise IngestError(f"{path}:{line}: article_id must be a non-empty string")
        year = record.pub_year
        if year is not None and not MIN_YEAR <= year <= MAX_YEAR:
            raise IngestError(f"{path}:{line}: pub_year {year!r} outside [{MIN_YEAR}, {MAX_YEAR}]")
        if record.article_id in records:
            raise IngestError(f"{path}:{line}: duplicate article_id {record.article_id!r}")
        records[record.article_id] = record
    return records


def ingest_records(records: Mapping[str, ArticleRecord]) -> BiblioIndex:
    """The search index over records by id, as ``read_records`` returns them."""
    return BiblioIndex(records)
