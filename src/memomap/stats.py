"""Share differences, signed-rank inference, and concentration measures.

One-sample Wilcoxon signed-rank p-values are exact (full distribution of the
rank-sum statistic) for tie-free samples up to n = 20 and otherwise use a
normal approximation with tie-corrected variance, continuity correction, and
a fourth-moment refinement. Interval estimates are Hodges-Lehmann:
Walsh-average order statistics at signed-rank quantiles.
"""

from __future__ import annotations

import functools
import logging
import math
import statistics
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Sequence, TypeVar

from .artifacts import InputError

logger = logging.getLogger(__name__)

EXACT_MAX_N = 20

_H = TypeVar("_H", bound=Hashable)


class StatsError(InputError):
    """Invalid statistical input (bad proportions, empty pool)."""


class DegenerateSampleError(StatsError):
    """No observations remain after discarding values at the null location."""


class InsufficientDataError(StatsError):
    """Too few observations for the requested estimate."""


@dataclass(frozen=True)
class FunderYearShare:
    entity: str
    year: int
    memo_pct: float
    pool_pct: float

    @property
    def diff_pct(self) -> float:
        return self.memo_pct - self.pool_pct


@dataclass(frozen=True)
class StatResult:
    entity: str
    n: int
    median_diff: float
    ci_lo: float
    ci_hi: float
    p_value: float


@dataclass(frozen=True)
class KLDRecord:
    memo_id: str
    kld_funders: float
    kld_orgs: float
    n_entities_f: int
    n_entities_ro: int


@dataclass(frozen=True)
class PairedWilcoxonResult:
    n: int
    pseudo_median: float
    ci_lo: float
    ci_hi: float
    p_value: float


def share_of_total(count: int, total: int) -> float:
    """Percent share of a count in a total (tables round to 2 decimals)."""
    if total <= 0:
        raise StatsError("total must be positive")
    if not 0 <= count <= total:
        raise StatsError(f"count {count} outside [0, {total}]")
    return 100.0 * count / total


def yearly_shares(
    memo_awards: Iterable[tuple[str, int]],
    pool_awards: Iterable[tuple[str, int]],
    denominator: str = "pool_entities",
) -> list[FunderYearShare]:
    """Per-entity-per-year award shares in the memo set vs. the pool set.

    The entity universe is restricted to entities present in the pool.
    Rows exist only for years in which both sets have awards (no 0/0), and
    an entity with awards in only one set that year still gets a row (its
    other share is zero). With denominator "pool_entities" the memo share
    is taken over memo awards from pool entities only; "all" divides by
    every memo award that year. ``config.validate_config`` admits only
    these two modes.
    """
    pool_pairs = [(entity, year) for entity, year in pool_awards]
    memo_pairs = [(entity, year) for entity, year in memo_awards]
    if not pool_pairs:
        raise StatsError("pool award set is empty")

    universe = {e for e, _ in pool_pairs}
    pool_counts = Counter(pool_pairs)
    memo_counts = Counter((e, t) for e, t in memo_pairs if e in universe)

    pool_totals = Counter(t for _, t in pool_pairs)
    if denominator == "pool_entities":
        memo_totals = Counter(t for e, t in memo_pairs if e in universe)
    else:
        memo_totals = Counter(t for _, t in memo_pairs)

    years = sorted(t for t in memo_totals if memo_totals[t] > 0 and pool_totals.get(t, 0) > 0)
    rows = []
    for year in years:
        entities = sorted(
            {e for e in universe if memo_counts[(e, year)] or pool_counts[(e, year)]}
        )
        for entity in entities:
            rows.append(
                FunderYearShare(
                    entity=entity,
                    year=year,
                    memo_pct=100.0 * memo_counts[(entity, year)] / memo_totals[year],
                    pool_pct=100.0 * pool_counts[(entity, year)] / pool_totals[year],
                )
            )
    rows.sort(key=lambda r: (r.entity, r.year))
    return rows


def _midranks(values: Sequence[float]) -> tuple[list[float], list[int]]:
    """Midranks of |values| plus the tie-group sizes."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_sizes = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        mid = (i + 1 + j) / 2.0
        for idx in order[i:j]:
            ranks[idx] = mid
        tie_sizes.append(j - i)
        i = j
    return ranks, tie_sizes


@functools.cache
def _signed_rank_counts(n: int) -> tuple[int, ...]:
    """counts[w] = number of rank subsets of {1..n} summing to w; built once per n."""
    counts = [1]
    for rank in range(1, n + 1):
        grown = counts + [0] * rank
        for w in range(len(counts) - 1, -1, -1):
            grown[w + rank] += counts[w]
        counts = grown
    return tuple(counts)


def wilcoxon_signed_rank(xs: Sequence[float], method: str = "auto") -> float:
    """Two-sided p-value of the one-sample Wilcoxon signed-rank test.

    Zero observations are discarded (classical zero handling); an all-zero
    sample is degenerate. ``method`` is "auto", "exact", or "approx"; auto
    picks exact for tie-free samples up to n = 20.
    """
    if method not in ("auto", "exact", "approx"):
        raise StatsError(f"bad method {method!r}")
    diffs = [x for x in xs if x != 0]
    if not diffs:
        raise DegenerateSampleError("no observations differ from the null location")
    n = len(diffs)
    magnitudes = [abs(d) for d in diffs]
    ranks, tie_sizes = _midranks(magnitudes)
    has_ties = any(t > 1 for t in tie_sizes)
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)

    if method == "auto":
        method = "exact" if (n <= EXACT_MAX_N and not has_ties) else "approx"

    if method == "exact":
        if has_ties:
            raise StatsError("exact p-value requires tie-free magnitudes")
        counts = _signed_rank_counts(n)
        w = round(w_plus)
        c_le = sum(counts[: w + 1])
        c_ge = sum(counts[w:])
        numerator = min(2 * min(c_le, c_ge), 2**n)
        return numerator / 2**n

    # Moments from the midranks directly; sum(r^2)/4 equals the textbook
    # tie-corrected variance n(n+1)(2n+1)/24 - sum(t^3 - t)/48.
    mean = sum(ranks) / 2.0
    variance = sum(r * r for r in ranks) / 4.0
    if variance <= 0:
        raise StatsError("zero variance in normal approximation")
    excess_kurtosis = (-sum(r**4 for r in ranks) / 8.0) / variance**2
    z = (abs(w_plus - mean) - 0.5) / math.sqrt(variance)
    density = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    # Continuity-corrected upper tail plus the symmetric fourth-moment
    # (Edgeworth) term; without it mid-range p-values are off by ~0.015
    # at n ~ 10-16.
    tail = 0.5 * math.erfc(z / math.sqrt(2.0)) + density * (excess_kurtosis / 24.0) * (
        z**3 - 3.0 * z
    )
    return min(1.0, max(0.0, 2.0 * tail))


def _walsh_averages(xs: Sequence[float]) -> list[float]:
    walsh = [
        (xs[i] + xs[j]) / 2.0 for i in range(len(xs)) for j in range(i, len(xs))
    ]
    walsh.sort()
    return walsh


def _hl_offset(n: int, level: float) -> int:
    """Number of Walsh averages trimmed at each end of the interval."""
    alpha = 1.0 - level
    if n <= EXACT_MAX_N:
        counts = _signed_rank_counts(n)
        total = 2**n
        k = -1
        cumulative = 0
        for w, c in enumerate(counts):
            cumulative += c
            if cumulative / total <= alpha / 2.0:
                k = w
            else:
                break
        return max(k, 0)
    mean = n * (n + 1) / 4.0
    sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return max(math.floor(mean - z * sd - 0.5), 0)


def hodges_lehmann_ci(xs: Sequence[float], level: float = 0.95) -> tuple[float, float, float]:
    """Pseudo-median and confidence interval from Walsh averages.

    The point estimate is the median of all n(n+1)/2 pairwise means
    (i <= j); the interval endpoints are the Walsh order statistics at
    signed-rank distribution quantiles. For very small n the widest
    achievable interval (the full Walsh range) is returned. ``level`` is
    in (0, 1), as ``config.validate_config`` checks for ``stats.ci_level``.
    """
    n = len(xs)
    if n < 2:
        raise InsufficientDataError("need at least 2 observations for an interval")
    walsh = _walsh_averages(xs)
    pseudo_median = statistics.median(walsh)
    k = _hl_offset(n, level)
    k = min(k, (len(walsh) - 1) // 2)
    return pseudo_median, walsh[k], walsh[len(walsh) - 1 - k]


def kld(proportions: Sequence[float]) -> float:
    """Divergence of a discrete distribution from uniform: sum p ln(N p).

    Zero proportions contribute nothing; proportions must be nonnegative
    and sum to one within 1e-9.
    """
    if any(p < 0 for p in proportions):
        raise StatsError("proportions must be nonnegative")
    total = math.fsum(proportions)
    if abs(total - 1.0) > 1e-9:
        raise StatsError(f"proportions sum to {total}, not 1")
    n = len(proportions)
    return math.fsum(p * math.log(n * p) for p in proportions if p > 0)


def split_weights(groups: Iterable[Iterable[_H]]) -> tuple[dict[_H, int], int, int]:
    """Each group's weight 1 split equally over its distinct items, exactly.

    Returns (numerators, denominator, counted groups). A group of n
    distinct items gives each ``denominator // n``, where the denominator
    is the least common multiple of every such n, so an item's weight is
    exactly its numerator / denominator. Empty groups are skipped and not
    counted; with none left the denominator is 1.
    """
    distinct_groups = [distinct for distinct in map(set, groups) if distinct]
    denominator = math.lcm(*{len(distinct) for distinct in distinct_groups})
    numerators: dict[_H, int] = {}
    for distinct in distinct_groups:
        share = denominator // len(distinct)
        for item in distinct:
            numerators[item] = numerators.get(item, 0) + share
    return numerators, denominator, len(distinct_groups)


def memo_kld(article_entities: Iterable[Iterable[str]]) -> tuple[float, int] | None:
    """Concentration of one entity class over a memo's articles.

    Returns (kld, number of entities), or None when no article carries
    entity data.
    """
    weights, denominator, counted = split_weights(article_entities)
    if counted == 0:
        return None
    # Integer true division is correctly rounded, so each proportion is the
    # float nearest the exact weight / counted.
    scale = denominator * counted
    proportions = [weights[e] / scale for e in sorted(weights)]
    return kld(proportions), len(weights)


def paired_wilcoxon(
    kld_f: Sequence[float], kld_ro: Sequence[float], level: float = 0.95
) -> PairedWilcoxonResult:
    """Paired signed-rank comparison of two matched measure vectors."""
    if len(kld_f) != len(kld_ro):
        raise StatsError("paired vectors must have equal length")
    diffs = [f - r for f, r in zip(kld_f, kld_ro)]
    if all(d == 0 for d in diffs):
        raise DegenerateSampleError("no nonzero differences")
    p_value = wilcoxon_signed_rank(diffs)
    pseudo_median, ci_lo, ci_hi = hodges_lehmann_ci(diffs, level)
    return PairedWilcoxonResult(
        n=len(diffs), pseudo_median=pseudo_median, ci_lo=ci_lo, ci_hi=ci_hi, p_value=p_value
    )


def compute_entity_stats(
    shares: Iterable[FunderYearShare], min_obs: int = 5, level: float = 0.95
) -> list[StatResult]:
    """Signed-rank test and Hodges-Lehmann interval per entity.

    Entities observed in fewer than ``min_obs`` years are excluded, as are
    entities whose differences are all exactly zero (no test possible);
    exclusions are logged, not errors, in one line per reason.
    """
    by_entity: dict[str, list[float]] = {}
    for row in shares:
        by_entity.setdefault(row.entity, []).append(row.diff_pct)

    results, few, zero = [], [], []
    for entity in sorted(by_entity):
        diffs = by_entity[entity]
        if len(diffs) < min_obs:
            few.append(f"{entity} ({len(diffs)})")
            continue
        try:
            p_value = wilcoxon_signed_rank(diffs)
        except DegenerateSampleError:
            zero.append(entity)
            continue
        pseudo_median, ci_lo, ci_hi = hodges_lehmann_ci(diffs, level)
        results.append(
            StatResult(
                entity=entity,
                n=len(diffs),
                median_diff=pseudo_median,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                p_value=p_value,
            )
        )
    if few:
        logger.info("entities in fewer than %d years, excluded: %s", min_obs, ", ".join(few))
    if zero:
        logger.info("entities with all differences zero, excluded: %s", ", ".join(zero))
    return results
