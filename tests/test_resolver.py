from __future__ import annotations

import random

import pytest

from memomap.biblio import ArticleRecord, ingest_records, read_records
from memomap.corpus import ReferenceFragment, normalize_fragment
from memomap.pipeline import RESOLUTION
from memomap.remote import RemoteUnavailableError
from memomap.resolver import (
    METHOD_LEXICAL,
    METHOD_REMOTE,
    METHOD_UNRESOLVED,
    ResolutionResult,
    ResolverConfig,
    cited_articles,
    coverage_summary,
    fragment_years,
    resolve_corpus,
    resolve_fragment,
    score_candidate,
)

from conftest import article_row, write_jsonl


CONFIG = ResolverConfig()


def fragment(text: str, memo_id: str = "m", ordinal: int = 0) -> ReferenceFragment:
    return ReferenceFragment(
        memo_id=memo_id, ordinal=ordinal, raw_text=text, normalized_text=normalize_fragment(text)
    )


def score(frag: ReferenceFragment, record: ArticleRecord) -> float:
    """``score_candidate`` on the token set and years ``resolve_fragment`` takes from ``frag``."""
    text = frag.normalized_text
    return score_candidate(frozenset(text.split()), fragment_years(text), record)


class StubRemote:
    def __init__(self, answer=None, fail=False):
        self.answer = answer
        self.fail = fail
        self.calls = 0

    def lookup(self, text):
        self.calls += 1
        if self.fail:
            raise RemoteUnavailableError("remote down")
        return self.answer


class TestScore:
    def test_verbatim_citation_scores_one(self, small_records):
        record = small_records["1001"]
        frag = fragment(
            "Adams JQ, Brown TL. Cardiac outcomes after elective revascularization. "
            "N Engl J Med. 2004;350(12):1123-1130."
        )
        assert score(frag, record) == 1.0

    def test_disjoint_scores_zero(self, small_records):
        frag = fragment("Totally unrelated words everywhere 1955")
        assert score(frag, small_records["1002"]) == 0.0

    def test_title_only_scores_point_six(self, tmp_path):
        rows = [
            article_row(
                "50",
                "Antibiotic stewardship reduces resistance rates",
                authors=["Zhou KL"],
                journal="Clin Infect Dis",
                pub_year=2014,
            )
        ]
        records = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        frag = fragment("Antibiotic stewardship reduces resistance rates")
        assert score(frag, records["50"]) == pytest.approx(0.6)

    def test_year_within_one_gets_half_credit(self, tmp_path):
        rows = [article_row("60", "unique sentinel phrase", pub_year=2005)]
        record = read_records(write_jsonl(tmp_path / "r.jsonl", rows))["60"]
        base = score(fragment("unique sentinel phrase"), record)
        near = score(fragment("unique sentinel phrase 2006"), record)
        exact = score(fragment("unique sentinel phrase 2005"), record)
        assert near - base == pytest.approx(0.05)
        assert exact - base == pytest.approx(0.10)

    def test_token_permutation_invariant(self, small_records):
        record = small_records["1001"]
        words = "adams brown cardiac outcomes after elective revascularization 2004".split()
        rng = random.Random(5)
        reference = score(fragment(" ".join(words)), record)
        for _ in range(10):
            rng.shuffle(words)
            assert score(fragment(" ".join(words)), record) == reference


class TestResolveFragment:
    def test_verbatim_fragment_resolves_lexically(self, small_index):
        frag = fragment(
            "Adams JQ, Brown TL. Cardiac outcomes after elective revascularization. "
            "N Engl J Med. 2004;350(12):1123-1130."
        )
        result = resolve_fragment(frag, small_index, CONFIG)
        assert result.method == METHOD_LEXICAL
        assert result.article_id == "1001"
        assert result.score == 1.0

    def test_unindexed_citation_unresolved(self, small_index):
        frag = fragment("Gray H. Anatomy of the Human Body. 20th ed. Lea and Febiger; 1918.")
        result = resolve_fragment(frag, small_index, CONFIG)
        assert result.method == METHOD_UNRESOLVED
        assert result.article_id is None
        assert result.score is None

    def test_near_tie_rejected(self, tmp_path):
        # Two records differing by one word in a 13-token title: both clear
        # the threshold, the margin rule refuses to pick one.
        shared = "a randomized controlled trial of endovascular repair versus open surgery for abdominal aneurysm"
        rows = [
            article_row("71", shared + " alpha", authors=["Nguyen PT"], pub_year=2015),
            article_row("72", shared + " omega", authors=["Nguyen PT"], pub_year=2015),
        ]
        records = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        index = ingest_records(records)
        frag = fragment(f"Nguyen PT. {shared} alpha. J Test Med. 2015.")
        best = score(frag, records["71"])
        second = score(frag, records["72"])
        config = ResolverConfig()
        assert best >= config.threshold
        assert second >= config.threshold
        assert best - second < config.margin
        assert resolve_fragment(frag, index, config).method == METHOD_UNRESOLVED

    def test_remote_fallback_used_when_lexical_fails(self, small_index):
        remote = StubRemote(answer="9999")
        frag = fragment("FDA guidance on premarket device submissions, 2016 edition")
        result = resolve_fragment(frag, small_index, CONFIG, remote)
        assert result.method == METHOD_REMOTE
        assert result.article_id == "9999"
        assert result.score is None
        assert remote.calls == 1

    def test_remote_not_consulted_after_lexical_hit(self, small_index):
        remote = StubRemote(answer="9999")
        frag = fragment(
            "Adams JQ, Brown TL. Cardiac outcomes after elective revascularization. "
            "N Engl J Med. 2004;350(12):1123-1130."
        )
        result = resolve_fragment(frag, small_index, CONFIG, remote)
        assert result.method == METHOD_LEXICAL
        assert remote.calls == 0

    def test_remote_failure_raises_naming_the_fragment(self, small_index):
        # A failed lookup is not a miss: it must never be written as unresolved.
        remote = StubRemote(fail=True)
        frag = fragment("Unfindable citation text with no index overlap whatsoever", "m7", 3)
        with pytest.raises(RemoteUnavailableError, match=r"^m7\[3\]: remote down$"):
            resolve_fragment(frag, small_index, CONFIG, remote)
        assert remote.calls == 1


class TestResolveCorpus:
    def make_fragments(self, small_index):
        return [
            fragment(
                "Adams JQ, Brown TL. Cardiac outcomes after elective revascularization. "
                "N Engl J Med. 2004;350(12):1123-1130.",
                memo_id="m1",
                ordinal=0,
            ),
            fragment(
                "Baker RS. Long term dialysis survival in elderly cohorts. JAMA. 2001;285(4):421-429.",
                memo_id="m1",
                ordinal=1,
            ),
            fragment(
                "Edwards PL, Fisher A. Amyloid imaging in early dementia. Lancet Neurol. 2012;11(8):669-678.",
                memo_id="m2",
                ordinal=0,
            ),
            fragment("Completely unmatchable guidance document citation", memo_id="m2", ordinal=1),
        ]

    def test_ordering_and_coverage(self, small_index):
        frags = self.make_fragments(small_index)
        results, coverage = resolve_corpus(reversed(frags), small_index, CONFIG)
        assert [(r.memo_id, r.ordinal) for r in results] == [
            ("m1", 0),
            ("m1", 1),
            ("m2", 0),
            ("m2", 1),
        ]
        by_memo = {c.memo_id: c for c in coverage}
        assert by_memo["m1"].linked_count == 2
        assert by_memo["m1"].linked_pct == 100.0
        assert by_memo["m2"].linked_count == 1
        assert by_memo["m2"].linked_pct == 50.0

    def test_memo_without_fragments_absent(self, small_index):
        _, coverage = resolve_corpus(self.make_fragments(small_index), small_index, CONFIG)
        assert {c.memo_id for c in coverage} == {"m1", "m2"}

    def test_deterministic_bytes(self, small_index):
        frags = self.make_fragments(small_index)
        runs = []
        for _ in range(2):
            results, _ = resolve_corpus(frags, small_index, CONFIG)
            runs.append(b"".join(RESOLUTION.encode(results)))
        assert runs[0] and runs[0] == runs[1]

    def test_threshold_monotonicity(self, small_index):
        frags = self.make_fragments(small_index)
        previous = None
        for threshold in (0.2, 0.4, 0.6, 0.8, 0.95):
            _, coverage = resolve_corpus(
                frags, small_index, ResolverConfig(threshold=threshold)
            )
            linked = {c.memo_id: c.linked_count for c in coverage}
            if previous is not None:
                assert all(linked[m] <= previous[m] for m in linked)
            previous = linked


class TestCoverageSummary:
    def test_two_memos(self):
        from memomap.resolver import CoverageStats

        stats = [CoverageStats("a", 10, 6), CoverageStats("b", 10, 8)]
        summary = coverage_summary(stats)
        assert summary["median_linked_pct"] == pytest.approx(70.0)
        assert summary["n"] == 2

    def test_empty(self):
        summary = coverage_summary([])
        assert summary == {"n": 0, "median_linked_pct": None, "iqr_linked_pct": None}

    def test_all_full_coverage(self):
        from memomap.resolver import CoverageStats

        stats = [CoverageStats(m, 5, 5) for m in "abcd"]
        summary = coverage_summary(stats)
        assert summary["median_linked_pct"] == 100.0
        assert summary["iqr_linked_pct"] == 0.0


class TestCitedArticles:
    ROWS = [
        ResolutionResult("m2", 0, "A9", 0.9, METHOD_LEXICAL),
        ResolutionResult("m2", 1, "A1", 0.8, METHOD_LEXICAL),
        ResolutionResult("m2", 2, "A9", 0.7, METHOD_LEXICAL),  # A9 again, at another ordinal
        ResolutionResult("m2", 3, None, None, METHOD_UNRESOLVED),
        ResolutionResult("m1", 0, None, None, METHOD_UNRESOLVED),
        ResolutionResult("m1", 1, None, None, METHOD_UNRESOLVED),
        ResolutionResult("m3", 0, "A5", None, METHOD_REMOTE),
        ResolutionResult("m3", 1, "A0", 0.6, METHOD_LEXICAL),
        ResolutionResult("m0", 0, "A2", 0.9, METHOD_LEXICAL),
    ]

    def test_shuffled_rows(self):
        expected = {"m0": ["A2"], "m1": [], "m2": ["A1", "A9"], "m3": ["A0", "A5"]}
        rows = list(self.ROWS)
        rng = random.Random(20)
        for _ in range(20):
            rng.shuffle(rows)
            cited = cited_articles(iter(rows))
            assert cited == expected
            assert list(cited) == sorted(expected)
