"""Independent reference implementations the tests check the package against.

These deliberately avoid the package's own code paths: the signed-rank
oracle walks every sign pattern, the year-imputation oracle applies the
selection rule as explicit filter passes, and the search oracle scores every
record against the query and sorts them all.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from memomap.biblio import ArticleRecord
from memomap.funding import Award


def enumeration_p(xs: list[float]) -> float:
    """Two-sided signed-rank p-value by enumerating all 2^n sign patterns."""
    diffs = [x for x in xs if x != 0]
    n = len(diffs)
    magnitudes = sorted(abs(d) for d in diffs)
    rank_of = {m: i + 1 for i, m in enumerate(magnitudes)}
    observed = sum(rank_of[abs(d)] for d in diffs if d > 0)
    le = ge = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = sum(rank_of[abs(d)] for s, d in zip(signs, diffs) if s > 0)
        le += w <= observed
        ge += w >= observed
    return min(2 * min(le, ge), 2**n) / 2**n


def oracle_impute(pub_year: int, records: list[Award]) -> tuple[str | None, int]:
    """Year imputation by explicit filtering: min |d-1|, then max d, then id."""
    if not records:
        return None, pub_year - 1
    best_dist = min(abs((pub_year - r.fiscal_year) - 1) for r in records)
    closest = [r for r in records if abs((pub_year - r.fiscal_year) - 1) == best_dist]
    largest_d = max(pub_year - r.fiscal_year for r in closest)
    preferred = [r for r in closest if pub_year - r.fiscal_year == largest_d]
    chosen = min(preferred, key=lambda r: r.full_project_number)
    return chosen.full_project_number, chosen.fiscal_year


def oracle_search(
    records: Iterable[ArticleRecord], tokens: Iterable[str], year_hint: int | None, k: int
) -> list[str]:
    """Top-k article ids by a full sort of every record sharing a query token.

    Order: most shared tokens, then smallest |pub_year - year_hint| (records
    without a year last when a hint is given), then ascending article_id.
    """
    query = set(tokens)
    ranked = []
    for record in records:
        indexed = record.title_tokens() | record.journal_tokens() | record.author_tokens()
        shared = len(query & indexed)
        if not shared:
            continue
        if year_hint is None:
            distance = 0.0
        elif record.pub_year is None:
            distance = float("inf")
        else:
            distance = float(abs(record.pub_year - year_hint))
        ranked.append((-shared, distance, record.article_id))
    ranked.sort()
    return [article_id for _, _, article_id in ranked[:k]]
