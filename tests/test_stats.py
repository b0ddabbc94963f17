from __future__ import annotations

import logging
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    convolution_p,
    enumeration_p,
    oracle_entity_weights,
    oracle_memo_proportions,
    oracle_share_diffs,
)

from memomap.stats import (
    DegenerateSampleError,
    FunderYearShare,
    InsufficientDataError,
    StatsError,
    compute_entity_stats,
    hodges_lehmann_ci,
    kld,
    memo_kld,
    normal_approximation_p,
    paired_wilcoxon,
    share_of_total,
    split_weights,
    wilcoxon_signed_rank,
    yearly_shares,
)


def tie_free_sample(rng: random.Random, n: int) -> list[float]:
    while True:
        xs = [round(rng.uniform(-50, 50), 4) for _ in range(n)]
        xs = [x or 1.0 for x in xs]
        if len({abs(x) for x in xs}) == len(xs):
            return xs


def tied_sample(rng: random.Random, n: int) -> list[Fraction]:
    """n differences of small-denominator shares, so magnitudes often tie
    exactly; a few are zero, but never all of them."""
    while True:
        xs = [Fraction(rng.randint(-4, 4), rng.choice((2, 3, 6))) for _ in range(n)]
        if any(xs):
            return xs


class TestShareOfTotal:
    def test_published_share_cells(self):
        # Count/percent pairs from the public funder share table (N = 2742).
        assert round(share_of_total(566, 2742), 2) == 20.64
        assert round(share_of_total(552, 2742), 2) == 20.13
        assert round(share_of_total(200, 2742), 2) == 7.29

    def test_zero_count(self):
        assert share_of_total(0, 2742) == 0.0

    def test_validation(self):
        with pytest.raises(StatsError):
            share_of_total(1, 0)
        with pytest.raises(StatsError):
            share_of_total(5, 4)


class TestYearlyShares:
    def test_identical_sets_all_zero(self):
        pairs = [("A", 2000), ("A", 2000), ("B", 2000), ("A", 2001)]
        rows = yearly_shares(pairs, pairs)
        assert rows
        assert all(r.diff_pct == 0.0 for r in rows)

    def test_hand_example(self):
        memo = [("A", 1999)] * 3 + [("B", 1999)]
        pool = [("A", 1999)] * 50 + [("B", 1999)] * 50
        rows = {r.entity: r for r in yearly_shares(memo, pool)}
        assert rows["A"].memo_pct == pytest.approx(75.0)
        assert rows["A"].pool_pct == pytest.approx(50.0)
        assert rows["A"].diff_pct == pytest.approx(25.0)
        assert rows["B"].diff_pct == pytest.approx(-25.0)

    def test_zero_numerator_entity(self):
        memo = [("A", 1999)] * 7
        pool = [("A", 1999)] * 70 + [("C", 1999)] * 30
        rows = {r.entity: r for r in yearly_shares(memo, pool)}
        assert rows["C"].memo_pct == 0.0
        assert rows["C"].diff_pct == pytest.approx(-30.0)

    def test_year_without_memo_awards_skipped(self):
        memo = [("A", 1999)]
        pool = [("A", 1999), ("A", 2000)]
        years = {r.year for r in yearly_shares(memo, pool)}
        assert years == {1999}

    def test_entities_outside_pool_excluded(self):
        memo = [("A", 1999), ("X", 1999)]
        pool = [("A", 1999), ("B", 1999)]
        rows = yearly_shares(memo, pool)
        assert {r.entity for r in rows} == {"A", "B"}
        # "all" mode keeps the out-of-pool award in the denominator
        by_mode = {r.entity: r for r in yearly_shares(memo, pool, denominator="all")}
        assert by_mode["A"].memo_pct == pytest.approx(50.0)
        ic_only = {r.entity: r for r in yearly_shares(memo, pool)}
        assert ic_only["A"].memo_pct == pytest.approx(100.0)

    def test_units_are_exact_differences_on_one_scale(self):
        rng = random.Random(13)
        for _ in range(50):
            entities = "ABCD"[: rng.randint(2, 4)]
            memo = [(rng.choice(entities), rng.randint(2000, 2005)) for _ in range(30)]
            pool = [(rng.choice(entities), rng.randint(2000, 2005)) for _ in range(90)]
            rows = yearly_shares(memo, pool)
            exact = oracle_share_diffs(memo, pool)
            # Each entity's rows are in year order, as are its oracle differences.
            pairs = [(r.diff_units, exact[r.entity].pop(0)) for r in rows]
            unit, difference = next((u, d) for u, d in pairs if d)
            assert all(Fraction(u, unit) == d / difference for u, d in pairs)

    def test_empty_pool_rejected(self):
        with pytest.raises(StatsError, match="pool"):
            yearly_shares([("A", 1999)], [])

    def test_diffs_sum_to_zero_per_year(self):
        rng = random.Random(11)
        for _ in range(50):
            entities = "ABCDEF"[: rng.randint(2, 6)]
            memo = [(rng.choice(entities), rng.randint(2000, 2004)) for _ in range(40)]
            pool = [(rng.choice(entities), rng.randint(2000, 2004)) for _ in range(200)]
            rows = yearly_shares(memo, pool)
            for year in {r.year for r in rows}:
                assert abs(math.fsum(r.diff_pct for r in rows if r.year == year)) < 1e-9

    def test_swap_negates_exactly(self):
        rng = random.Random(12)
        for _ in range(20):
            entities = "ABCD"
            memo = [(rng.choice(entities), rng.randint(2000, 2002)) for _ in range(30)]
            pool = [(rng.choice(entities), rng.randint(2000, 2002)) for _ in range(30)]
            try:
                forward = yearly_shares(memo, pool)
                backward = yearly_shares(pool, memo)
            except StatsError:
                continue
            forward_map = {(r.entity, r.year): r.diff_pct for r in forward}
            backward_map = {(r.entity, r.year): r.diff_pct for r in backward}
            shared = forward_map.keys() & backward_map.keys()
            assert shared
            for key in shared:
                assert backward_map[key] == -forward_map[key]


class TestWilcoxon:
    def test_all_positive_five(self):
        assert wilcoxon_signed_rank([1, 2, 3, 4, 5]) == 0.0625

    def test_symmetric_sample_is_one(self):
        assert wilcoxon_signed_rank([-2, -1, 1, 2]) == 1.0

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            wilcoxon_signed_rank([0, 0, 0])

    def test_zero_observations_discarded(self):
        assert wilcoxon_signed_rank([0, 1, 2, 0, 3, 4, 5]) == 0.0625

    def test_exact_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(100):
            xs = tie_free_sample(rng, rng.randint(1, 10))
            assert wilcoxon_signed_rank(xs) == enumeration_p(xs)

    def test_two_tied_observations_is_half(self):
        # Two observations give no two-sided p below 0.5, tied or not.
        assert wilcoxon_signed_rank([3, 3]) == 0.5
        assert wilcoxon_signed_rank([Fraction(2, 3), Fraction(-2, 3), 0]) == 1.0

    def test_ties_match_enumeration(self):
        rng = random.Random(7)
        for _ in range(200):
            xs = tied_sample(rng, rng.randint(1, 12))
            assert wilcoxon_signed_rank(xs) == enumeration_p(xs), xs

    def test_ties_up_to_twenty_match_convolution(self):
        rng = random.Random(8)
        for n in range(15, 21):
            xs = tied_sample(rng, n)
            assert wilcoxon_signed_rank(xs) == convolution_p(xs), xs

    def test_approximation_close_to_exact(self):
        rng = random.Random(4)
        for _ in range(50):
            xs = tie_free_sample(rng, rng.randint(10, 20))
            assert abs(wilcoxon_signed_rank(xs) - normal_approximation_p(xs)) <= 0.01

    def test_large_n_uses_approximation(self):
        rng = random.Random(5)
        xs = tie_free_sample(rng, 25)
        assert wilcoxon_signed_rank(xs) == normal_approximation_p(xs)
        tied = [x for x in tied_sample(rng, 30) if x]
        assert wilcoxon_signed_rank(tied) == normal_approximation_p(tied)

    def test_p_in_unit_interval_with_ties(self):
        rng = random.Random(6)
        for _ in range(50):
            xs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(2, 30))]
            if all(x == 0 for x in xs):
                continue
            assert 0.0 <= wilcoxon_signed_rank(xs) <= 1.0


class TestHodgesLehmann:
    def test_constant_sample(self):
        assert hodges_lehmann_ci([4.0, 4.0, 4.0]) == (4.0, 4.0, 4.0)

    def test_two_points(self):
        pm, lo, hi = hodges_lehmann_ci([1, 3])
        assert (pm, lo, hi) == (2.0, 1.0, 3.0)

    def test_five_points_walsh_median(self):
        # Oracle: median of the 15 explicit Walsh averages.
        xs = [1, 2, 3, 4, 5]
        walsh = sorted((a + b) / 2 for i, a in enumerate(xs) for b in xs[i:])
        assert len(walsh) == 15
        pm, _, _ = hodges_lehmann_ci(xs)
        assert pm == walsh[7] == 3.0

    def test_interval_brackets_pseudo_median(self):
        rng = random.Random(8)
        for _ in range(50):
            xs = [rng.gauss(2, 5) for _ in range(rng.randint(2, 40))]
            pm, lo, hi = hodges_lehmann_ci(xs)
            assert lo <= pm <= hi

    def test_translation_equivariance(self):
        rng = random.Random(9)
        xs = [rng.gauss(0, 3) for _ in range(12)]
        shift = 17.25
        base = hodges_lehmann_ci(xs)
        moved = hodges_lehmann_ci([x + shift for x in xs])
        for a, b in zip(base, moved):
            assert b == pytest.approx(a + shift, abs=1e-9)

    def test_exact_quantile_known_cases(self):
        # n = 6: trimming even one Walsh average would reject with
        # probability 4/64 > 0.05, so the interval is the full range.
        xs6 = [1, 2, 3, 4, 5, 6]
        walsh6 = sorted((a + b) / 2 for i, a in enumerate(xs6) for b in xs6[i:])
        _, lo, hi = hodges_lehmann_ci(xs6, level=0.95)
        assert (lo, hi) == (walsh6[0], walsh6[-1])

        # n = 7: P(W <= 2) = 3/128 <= 0.025 < P(W <= 3) = 5/128, so two
        # Walsh averages come off each end.
        xs7 = [1, 2, 3, 4, 5, 6, 7]
        walsh7 = sorted((a + b) / 2 for i, a in enumerate(xs7) for b in xs7[i:])
        _, lo, hi = hodges_lehmann_ci(xs7, level=0.95)
        assert (lo, hi) == (walsh7[2], walsh7[-3]) == (2.0, 6.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            hodges_lehmann_ci([1.0])

    def test_wider_level_nests(self):
        rng = random.Random(10)
        xs = [rng.gauss(0, 1) for _ in range(15)]
        _, lo90, hi90 = hodges_lehmann_ci(xs, level=0.90)
        _, lo99, hi99 = hodges_lehmann_ci(xs, level=0.99)
        assert lo99 <= lo90 and hi90 <= hi99


class TestKld:
    def test_uniform_is_zero(self):
        for n in range(2, 65):
            assert abs(kld([1.0 / n] * n)) <= 1e-12

    def test_point_mass_is_log_n(self):
        assert kld([1.0, 0.0, 0.0, 0.0]) == pytest.approx(math.log(4))

    def test_frozen_example(self):
        # Direct evaluation: 0.5 ln 1.5 + 0.25 ln 0.75 + 0.25 ln 0.75.
        assert kld([0.5, 0.25, 0.25]) == pytest.approx(0.0588915178, abs=1e-9)

    def test_validation(self):
        with pytest.raises(StatsError):
            kld([0.5, 0.4])
        with pytest.raises(StatsError):
            kld([1.2, -0.2])

    def test_bounds_on_random_simplex(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 12)
            raw = [rng.random() for _ in range(n)]
            total = sum(raw)
            p = [x / total for x in raw]
            value = kld(p)
            assert 0.0 <= value <= math.log(n) + 1e-12


class TestMemoKld:
    def test_single_entity_is_zero(self):
        value, n = memo_kld([["A"], ["A"]])
        assert value == 0.0
        assert n == 1

    def test_four_way_split(self):
        weights, denominator, counted = split_weights([["A", "B", "C", "D"]])
        assert counted == 1
        assert all(Fraction(w, denominator) == Fraction(1, 4) for w in weights.values())

    def test_fractional_count_example(self):
        # Oracle by hand: weights A = 2.5, B = 1.5 over 4 articles, so
        # p = (0.625, 0.375) and the divergence is 0.625 ln 1.25 + 0.375 ln 0.75.
        value, n = memo_kld([["A"], ["A"], ["B"], ["A", "B"]])
        assert n == 2
        assert value == pytest.approx(0.0315839424, abs=1e-9)

    def test_articles_without_entities_skipped(self):
        with_gap = memo_kld([["A"], [], ["B"]])
        without_gap = memo_kld([["A"], ["B"]])
        assert with_gap == without_gap

    def test_no_data_is_none(self):
        assert memo_kld([[], []]) is None

    def test_duplicate_entities_collapse(self):
        assert memo_kld([["A", "A", "B"]]) == memo_kld([["A", "B"]])

    def test_weights_sum_to_article_count(self):
        rng = random.Random(14)
        for _ in range(50):
            articles = [
                [rng.choice("ABCDE") for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 10))
            ]
            weights, denominator, counted = split_weights(articles)
            assert sum(weights.values()) == counted * denominator  # exact arithmetic

    def test_matches_fraction_oracle(self):
        # Integer sums over a common denominator give the same weights and
        # bit-identical proportions as Fraction sums.
        rng = random.Random(15)
        entities = [f"E{i}" for i in range(12)]
        for _ in range(300):
            articles = [
                [rng.choice(entities) for _ in range(rng.choice([0, 1, 1, 2, 3, 5, 7, 11]))]
                for _ in range(rng.randint(0, 25))
            ]
            weights, denominator, counted = split_weights(articles)
            exact = {e: Fraction(w, denominator) for e, w in weights.items()}
            assert (exact, counted) == oracle_entity_weights(articles)
            proportions = oracle_memo_proportions(articles)
            if proportions is None:
                assert memo_kld(articles) is None
            else:
                assert memo_kld(articles) == (kld(proportions), len(proportions))


class TestPairedWilcoxon:
    def test_identical_vectors_degenerate(self):
        with pytest.raises(DegenerateSampleError, match="no nonzero differences"):
            paired_wilcoxon([0.5, 0.2, 0.9], [0.5, 0.2, 0.9])

    def test_reduces_to_one_sample(self):
        result = paired_wilcoxon([2, 4, 6, 8, 10], [1, 2, 3, 4, 5])
        assert result.p_value == 0.0625
        assert result.pseudo_median == 3.0

    def test_length_mismatch(self):
        with pytest.raises(StatsError):
            paired_wilcoxon([1, 2], [1])


class TestEntityStats:
    def shares(self, entity, diffs, start_year=2000):
        return [
            FunderYearShare(entity, start_year + i, memo_pct=d, pool_pct=0.0, diff_units=d)
            for i, d in enumerate(diffs)
        ]

    def test_small_entities_excluded(self):
        rows = self.shares("A", [1, 2, 3]) + self.shares("B", [1, 2, 3, 4, 5])
        results = compute_entity_stats(rows, "funders", min_obs=5)
        assert [r.entity for r in results] == ["B"]
        assert results[0].n == 5
        assert results[0].p_value == 0.0625

    def test_all_zero_entity_excluded(self):
        rows = self.shares("Z", [0, 0, 0, 0, 0])
        assert compute_entity_stats(rows, "funders", min_obs=5) == []

    def test_exact_differences_tie_where_floats_split(self):
        # A's difference is 0/1 - 2/3 in three years and 1/1 - 1/3 in two. As
        # floats the magnitudes are 66.66666666666667 and 66.66666666666666;
        # ranked as floats, the sample would read p = 0.25.
        memo, pool = [], []
        for year, (m, p) in zip(range(2000, 2005), [(0, 2)] * 3 + [(1, 1)] * 2):
            memo += [("A", year)] * m + [("B", year)] * (1 - m)
            pool += [("A", year)] * p + [("B", year)] * (3 - p)
        rows = [r for r in yearly_shares(memo, pool) if r.entity == "A"]
        assert len({abs(r.diff_pct) for r in rows}) == 2
        assert len({abs(r.diff_units) for r in rows}) == 1
        [result] = compute_entity_stats(rows, "funders", min_obs=5)
        assert result.p_value == enumeration_p(oracle_share_diffs(memo, pool)["A"]) == 1.0

    def test_interval_brackets_median(self):
        rows = self.shares("A", [3, 5, 2, 8, 6, 4, 9])
        result = compute_entity_stats(rows, "funders", min_obs=5)[0]
        assert result.ci_lo <= result.median_diff <= result.ci_hi

    def test_exclusions_logged_in_one_line_per_reason(self, caplog):
        rows = (
            self.shares("C", [1, 2])
            + self.shares("A", [1, 2, 3])
            + self.shares("Z", [0, 0, 0, 0, 0])
            + self.shares("Y", [0, 0, 0, 0, 0, 0])
            + self.shares("B", [1, 2, 3, 4, 5])
        )
        with caplog.at_level(logging.INFO, logger="memomap.stats"):
            assert [r.entity for r in compute_entity_stats(rows, "funders", min_obs=5)] == ["B"]
            compute_entity_stats(self.shares("B", [1, 2, 3, 4, 5]), "orgs", min_obs=5)  # no line
        assert [r.getMessage() for r in caplog.records] == [
            "funders in fewer than 5 years, excluded: A (3), C (2)",
            "funders with all differences zero, excluded: Y, Z",
        ]
