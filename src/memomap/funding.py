"""Article-award linkage: two-direction lookup, funder aliases, year imputation."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from .artifacts import InputError, csv_rows, decoded_rows
from .biblio import ArticleRecord

logger = logging.getLogger(__name__)

UNMAPPED = "UNMAPPED"
SOURCE_ARTICLE = "article_metadata"
SOURCE_AWARD_DB = "award_database"
# The funder alias table shipped with the package, used when the config names none.
DEFAULT_ALIASES = Path(__file__).parent / "data" / "funder_aliases.csv"

# Retired funder codes folded into their successor.
_FUNDER_MERGES = {"NCRR": "NCATS"}
_RAW_MERGES = {"ncrr": "NCATS", "national center for research resources": "NCATS"}

_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
_WS_RE = re.compile(r"\s+")


class FundingError(InputError):
    """Malformed award database, alias table, or award identifier."""


class UnmappedFunderError(FundingError):
    """A funder string missed the alias table while policy is 'fail'."""


@dataclass(frozen=True)
class Award:
    full_project_number: str
    core_project_number: str
    funder_code: str
    fiscal_year: int
    org_id: str | None = None
    org_name: str | None = None
    cited_article_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ArticleAwardLink:
    article_id: str
    core_project_number: str
    funder_code: str
    source: str
    imputed_full_project: str | None = None
    imputed_year: int | None = None
    org_id: str | None = None
    org_name: str | None = None


class FunderAliasTable:
    """Maps raw funder strings to canonical codes.

    Lookup keys are normalized (case-folded, punctuation stripped); retired
    codes are folded into their successors. ``on_unmapped`` is "warn" or
    "fail".
    """

    def __init__(self, mapping: dict[str, str], on_unmapped: str = "warn") -> None:
        if on_unmapped not in ("warn", "fail"):
            raise FundingError(f"bad on_unmapped policy {on_unmapped!r}")
        self._mapping = {_normalize_name(raw): code.strip() for raw, code in mapping.items()}
        self.on_unmapped = on_unmapped

    @property
    def vocabulary(self) -> frozenset[str]:
        codes = set(self._mapping.values()) | set(_FUNDER_MERGES.values())
        return frozenset(codes - set(_FUNDER_MERGES))

    def lookup(self, raw: str) -> str:
        key = _normalize_name(raw)
        code = self._mapping.get(key)
        if code is None:
            code = _RAW_MERGES.get(key, UNMAPPED)
        return _FUNDER_MERGES.get(code, code)


def _normalize_name(raw: str) -> str:
    return _WS_RE.sub(" ", _PUNCT_RE.sub(" ", raw.casefold())).strip()


def load_aliases(
    path: str | Path, on_unmapped: str = "warn", digest: Any = None
) -> FunderAliasTable:
    """Read a two-column raw_name,canonical_code CSV.

    ``digest`` (a hashlib object), when given, is updated with the file's bytes.
    """
    mapping: dict[str, str] = {}
    path = Path(path)
    for index, (line, row) in enumerate(csv_rows(path, FundingError, digest)):
        if not row or row[0].startswith("#"):
            continue
        if index == 0 and [c.strip().lower() for c in row[:2]] == ["raw_name", "canonical_code"]:
            continue
        if len(row) < 2 or not row[0].strip() or not row[1].strip():
            raise FundingError(f"{path}:{line}: alias rows need raw_name,canonical_code")
        mapping[row[0].strip()] = row[1].strip()
    return FunderAliasTable(mapping, on_unmapped=on_unmapped)


def parse_core_project(award_text: str) -> str:
    """Reduce an award identifier to its core project number.

    Strips the year/amendment suffix after the first hyphen and removes
    whitespace, e.g. "R01 CA031770-02" -> "R01CA031770".
    """
    head = award_text.split("-", 1)[0]
    return _WS_RE.sub("", head).upper()


class AwardDatabase:
    """Awards sorted by full project number (unique: ``load_award_db`` checks) and indexed,
    once, by core number and by cited article; lookups return the stored sequences."""

    def __init__(self, awards: Iterable[Award]) -> None:
        self._awards = sorted(awards, key=lambda award: award.full_project_number)
        self._by_core: dict[str, list[Award]] = {}
        self._by_article: dict[str, list[Award]] = {}
        for award in self._awards:
            self._by_core.setdefault(award.core_project_number, []).append(award)
            for article_id in award.cited_article_ids:
                self._by_article.setdefault(article_id, []).append(award)

    def all_awards(self) -> Sequence[Award]:
        return self._awards

    def records_for_core(self, core: str) -> Sequence[Award]:
        return self._by_core.get(core, ())

    def awards_citing(self, article_id: str) -> Sequence[Award]:
        return self._by_article.get(article_id, ())


def load_award_db(path: str | Path, digest: Any = None) -> AwardDatabase:
    """Award records from a JSONL file.

    Schema violations and duplicate full numbers raise FundingError naming
    the line; keys that are not fields are ignored. A file without awards
    raises FundingError naming it: the statistics need the pool. ``digest``
    (a hashlib object), when given, is updated with the file's bytes.
    """
    path = Path(path)
    awards: dict[str, Award] = {}
    for line, award in decoded_rows(path, Award, FundingError, digest):
        full, core = award.full_project_number, award.core_project_number
        if not (full == core or full.startswith(core + "-")):
            raise FundingError(f"{path}:{line}: full number {full!r} does not extend core {core!r}")
        if full in awards:
            raise FundingError(f"{path}:{line}: duplicate full_project_number {full!r}")
        awards[full] = award
    if not awards:
        raise FundingError(f"{path}: no award rows; the award pool must not be empty")
    return AwardDatabase(awards.values())


def extract_article_awards(
    record: ArticleRecord, aliases: FunderAliasTable
) -> list[ArticleAwardLink]:
    """Link drafts from the award identifiers listed in the article itself."""
    drafts = []
    for tag in record.grant_tags:
        core = parse_core_project(tag.award_text)
        if not core:
            logger.warning("article %s: empty award text in grant tag, skipped", record.article_id)
            continue
        funder = aliases.lookup(tag.funder_text)
        if funder == UNMAPPED:
            if aliases.on_unmapped == "fail":
                raise UnmappedFunderError(
                    f"article {record.article_id}: unmapped funder {tag.funder_text!r}"
                )
            logger.warning(
                "article %s: unmapped funder %r", record.article_id, tag.funder_text
            )
        drafts.append(
            ArticleAwardLink(
                article_id=record.article_id,
                core_project_number=core,
                funder_code=funder,
                source=SOURCE_ARTICLE,
            )
        )
    return drafts


def lookup_awards_citing(article_id: str, award_db: AwardDatabase) -> list[ArticleAwardLink]:
    """Link drafts from award records that cite the article."""
    return [
        ArticleAwardLink(
            article_id=article_id,
            core_project_number=award.core_project_number,
            funder_code=award.funder_code,
            source=SOURCE_AWARD_DB,
            org_id=award.org_id,
            org_name=award.org_name,
        )
        for award in award_db.awards_citing(article_id)
    ]


def _closest(records: Sequence[Award], pub_year: int | None) -> Award:
    """Of non-empty ``records``, the award whose d = pub_year - fiscal_year is
    closest to one; ties go to the larger d (the project strictly before
    publication), then to the smallest full project number, which alone
    decides when ``pub_year`` is None."""
    if pub_year is None:
        return min(records, key=lambda award: award.full_project_number)
    return min(
        records,
        key=lambda award: (
            abs((pub_year - award.fiscal_year) - 1),
            -(pub_year - award.fiscal_year),
            award.full_project_number,
        ),
    )


def merge_drafts(drafts: Iterable[ArticleAwardLink]) -> list[ArticleAwardLink]:
    """Collapse drafts to one link per (article, core project number).

    The award-database draft wins when both directions found the same pair,
    since only the database carries organization identity.
    """
    merged: dict[tuple[str, str], ArticleAwardLink] = {}
    for draft in drafts:
        key = (draft.article_id, draft.core_project_number)
        current = merged.get(key)
        if current is None or (
            current.source == SOURCE_ARTICLE and draft.source == SOURCE_AWARD_DB
        ):
            merged[key] = draft
    return [merged[key] for key in sorted(merged)]


def build_links(
    articles: Iterable[ArticleRecord],
    award_db: AwardDatabase,
    aliases: FunderAliasTable,
) -> list[ArticleAwardLink]:
    """Full two-direction linkage with imputed years and org identity.

    Per article: drafts from its own grant tags plus from award records
    citing it, merged per core number; each link then gets the imputed
    full project number and year, and org/funder fields of the chosen
    award record when one exists. Deterministic and idempotent.
    """
    links: list[ArticleAwardLink] = []
    for record in sorted(articles, key=lambda r: r.article_id):
        drafts = extract_article_awards(record, aliases)
        drafts += lookup_awards_citing(record.article_id, award_db)
        for link in merge_drafts(drafts):
            records = award_db.records_for_core(link.core_project_number)
            if records:
                chosen = _closest(records, record.pub_year)
                link = replace(
                    link,
                    imputed_full_project=chosen.full_project_number,
                    imputed_year=None if record.pub_year is None else chosen.fiscal_year,
                    funder_code=chosen.funder_code,
                    org_id=chosen.org_id,
                    org_name=chosen.org_name,
                )
            elif record.pub_year is not None:
                link = replace(link, imputed_year=record.pub_year - 1)
            links.append(link)
    return links
