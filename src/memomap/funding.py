"""Article-award linkage, funder aliases and year imputation.

``build_links`` makes each article's links in one pass over its grant tags
and the award rows citing it; ``source`` records whether a citing award row
has the link's core (``award_database``) or only a tag does. The alias table
alone maps funder strings, and only a link whose core has no award rows
takes one; what an unmapped one means, a warning or an error, is the
config's ``funding.on_unmapped``, which ``build_links`` takes.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
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

_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
# One trailing parenthesized group, such as the "(NIH)" of "National Cancer Institute (NIH)".
_QUALIFIER_RE = re.compile(r"\([^()]*\)\s*$")
_WS_RE = re.compile(r"\s+")


class FundingError(InputError):
    """Malformed award database, alias table, or award identifier."""


class UnmappedFunderError(FundingError):
    """A funder string that a link takes missed the alias table while policy is 'fail'."""


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

    The table's rows are the only fold: a retired code maps to its successor
    by a row of its own. Lookup keys are normalized (case-folded, ``&`` read
    as ``and``, punctuation stripped). A string that misses is tried once
    more without one trailing parenthesized group.
    """

    def __init__(self, mapping: dict[str, str]) -> None:
        self._mapping = {_normalize_name(raw): code.strip() for raw, code in mapping.items()}

    def lookup(self, raw: str) -> str:
        code = self._mapping.get(_normalize_name(raw))
        if code is None:
            code = self._mapping.get(_normalize_name(_QUALIFIER_RE.sub("", raw)), UNMAPPED)
        return code


def _normalize_name(raw: str) -> str:
    return _WS_RE.sub(" ", _PUNCT_RE.sub(" ", raw.casefold().replace("&", " and "))).strip()


def load_aliases(path: str | Path, digest: Any = None) -> FunderAliasTable:
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
    return FunderAliasTable(mapping)


def parse_core_project(award_text: str) -> str:
    """Reduce an award identifier to its core project number.

    Strips the year/amendment suffix after the first hyphen and removes
    whitespace, e.g. "R01 CA031770-02" -> "R01CA031770".
    """
    head = award_text.split("-", 1)[0]
    return _WS_RE.sub("", head).upper()


def load_award_db(path: str | Path, digest: Any = None) -> list[Award]:
    """Award records from a JSONL file, in file order.

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
    return list(awards.values())


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


def build_links(
    articles: Iterable[ArticleRecord],
    awards: Iterable[Award],
    aliases: FunderAliasTable,
    on_unmapped: str,
) -> list[ArticleAwardLink]:
    """One link per (article, core project number), articles in id order.

    An article's cores are those of its grant tags and those of the award
    records citing it, each core once, in sorted order. ``source`` is
    ``award_database`` when a citing record has the core, ``article_metadata``
    otherwise. A core with award records takes the full number, fiscal year
    (None for an undated article), funder and org of the closest one; any
    other takes its first tag's funder string, looked up in ``aliases``, and
    imputes the year before publication. Grant tags with empty award text are
    skipped and logged in one warning. Links whose funder string is unmapped
    are logged in one warning when ``on_unmapped`` is "warn"; when it is
    "fail", the first such link raises UnmappedFunderError naming its article
    and string.
    """
    by_core: dict[str, list[Award]] = {}
    cited_cores: dict[str, set[str]] = {}
    for award in awards:
        by_core.setdefault(award.core_project_number, []).append(award)
        for article_id in award.cited_article_ids:
            cited_cores.setdefault(article_id, set()).add(award.core_project_number)
    unmapped: Counter[str] = Counter()
    empty: Counter[str] = Counter()
    links: list[ArticleAwardLink] = []
    for record in sorted(articles, key=lambda r: r.article_id):
        article_id, pub_year = record.article_id, record.pub_year
        cited = cited_cores.get(article_id, set())
        tag_funders: dict[str, str] = {}
        for tag in record.grant_tags:
            core = parse_core_project(tag.award_text)
            if core:
                tag_funders.setdefault(core, tag.funder_text)
            else:
                empty[article_id] += 1
        for core in sorted(cited | tag_funders.keys()):
            source = SOURCE_AWARD_DB if core in cited else SOURCE_ARTICLE
            records = by_core.get(core)
            if records:
                chosen = _closest(records, pub_year)
                year = None if pub_year is None else chosen.fiscal_year
                link = ArticleAwardLink(
                    article_id, core, chosen.funder_code, source,
                    chosen.full_project_number, year, chosen.org_id, chosen.org_name,
                )
            else:
                raw = tag_funders[core]
                funder = aliases.lookup(raw)
                if funder == UNMAPPED:
                    if on_unmapped == "fail":
                        raise UnmappedFunderError(f"article {article_id}: unmapped funder {raw!r}")
                    unmapped[raw] += 1
                year = None if pub_year is None else pub_year - 1
                link = ArticleAwardLink(article_id, core, funder, source, None, year)
            links.append(link)
    if empty:
        logger.warning(
            "empty award text in %d grant tags of %d articles, skipped: %s",
            sum(empty.values()),
            len(empty),
            ", ".join(sorted(empty)),
        )
    if unmapped:
        counts = sorted(unmapped.items(), key=lambda item: (-item[1], item[0]))
        logger.warning(
            "unmapped funder in %d links, %d distinct: %s",
            sum(unmapped.values()),
            len(unmapped),
            ", ".join(f"{name!r} ({count})" for name, count in counts),
        )
    return links
