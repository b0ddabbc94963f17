from __future__ import annotations

import random
from collections import Counter

import pytest

from memomap import biblio, corpus
from memomap.biblio import ArticleRecord, ingest_records, read_records
from memomap.config import load_config
from memomap.corpus import ReferenceFragment, normalize_fragment
from memomap.pipeline import RESOLUTION
from memomap.remote import RemoteUnavailableError
from memomap.report import coverage_summary
from memomap.resolver import (
    METHOD_LEXICAL,
    METHOD_REMOTE,
    METHOD_UNRESOLVED,
    ResolutionResult,
    ResolverConfig,
    cited_articles,
    fragment_years,
    record_views,
    resolve_corpus,
    resolve_fragment,
    score_candidate,
)

from conftest import article_row, write_jsonl
from oracles import oracle_resolve, oracle_score
from test_biblio import seeded_records
from test_scale_goldens import _gen


CONFIG = ResolverConfig()


def fragment(text: str, memo_id: str = "m", ordinal: int = 0) -> ReferenceFragment:
    return ReferenceFragment(
        memo_id=memo_id, ordinal=ordinal, raw_text=text, normalized_text=normalize_fragment(text)
    )


def score(frag: ReferenceFragment, record: ArticleRecord) -> float:
    """``score_candidate`` on the token set and years ``resolve_fragment`` takes from ``frag``."""
    text = frag.normalized_text
    views = record_views(record)
    return score_candidate(frozenset(text.split()), fragment_years(text), views, record.pub_year)


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


def citing_fragments(records: dict[str, ArticleRecord], seed: int) -> list[ReferenceFragment]:
    """Two citations, in memos m1 and m2, of each of 60 records, each missing
    about a fifth of its words, so that fragments share candidates."""
    rng = random.Random(seed)
    fragments = []
    for ordinal, record in enumerate(rng.sample(list(records.values()), 60)):
        words = " ".join([*record.authors, record.title, record.journal, str(record.pub_year)])
        for memo_id in ("m1", "m2"):
            kept = [w for w in words.split() if rng.random() < 0.8]
            fragments.append(fragment(" ".join(kept), memo_id, ordinal))
    return fragments


def resolve_inputs(case, tmp_path) -> tuple[dict, list[ReferenceFragment], ResolverConfig]:
    """Records, fragments and resolver settings: a seeded set for an int
    ``case``, else that benchmark workload at smoke size."""
    if isinstance(case, int):
        records = seeded_records(case)
        return records, citing_fragments(records, case), CONFIG
    _gen().generate(case, 11, tmp_path, "smoke")
    config = load_config(tmp_path / "config.yaml")
    fragments = [
        f
        for memo in corpus.load_corpus(config.corpus_path)
        for f in corpus.extract_fragments(memo, config.segmenter)
    ]
    return read_records(config.records_path), fragments, config.resolver


CASES = [0, 1, 2, "resolve-zipf", "tail-rerun"]


class TestMatchesOracles:
    """The regex tokens and the per-call views give the oracle's floats and rows."""

    @pytest.mark.parametrize("case", CASES)
    def test_every_candidate_score(self, tmp_path, case):
        records, fragments, config = resolve_inputs(case, tmp_path)
        index = ingest_records(records)
        pairs = 0
        for frag in fragments:
            tokens = frozenset(frag.normalized_text.split())
            years = fragment_years(frag.normalized_text)
            hint = years[0] if years else None
            for record in index.search(tokens, year_hint=hint, k=config.k):
                got = score_candidate(tokens, years, record_views(record), record.pub_year)
                assert got == oracle_score(tokens, years, record), (frag, record)
                pairs += 1
        assert pairs > len(fragments)

    @pytest.mark.parametrize("case", CASES)
    def test_each_record_tokenized_once(self, tmp_path, monkeypatch, case):
        records, fragments, config = resolve_inputs(case, tmp_path)
        expected = oracle_resolve(fragments, records, config)
        words, rules = biblio._words, Counter()
        tokens, tokenized = ArticleRecord.tokens, Counter()

        def counting_words(pattern, text):
            rules[pattern.pattern] += 1
            return words(pattern, text)

        def counting_tokens(record):
            tokenized[record.article_id] += 1
            return tokens(record)

        monkeypatch.setattr(biblio, "_words", counting_words)
        monkeypatch.setattr(ArticleRecord, "tokens", counting_tokens)
        index = ingest_records(records)
        # One findall per rule: the title and journal joined, the authors joined.
        assert rules == {"[a-z0-9]{2,}": len(records), "[a-z0-9]+": len(records)}
        assert not tokenized

        slots = Counter()
        for frag in fragments:
            years = fragment_years(frag.normalized_text)
            hint = years[0] if years else None
            found = index.search(frag.normalized_text.split(), year_hint=hint, k=config.k)
            slots.update(record.article_id for record in found)
        assert sum(slots.values()) > len(slots)  # the fragments share candidates

        results = resolve_corpus(fragments, index, config)
        assert tokenized == Counter(set(slots))
        assert results == expected
        assert any(row.method == METHOD_LEXICAL for row in results)


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
        results = resolve_corpus(reversed(frags), small_index, CONFIG)
        assert [(r.memo_id, r.ordinal, r.method != METHOD_UNRESOLVED) for r in results] == [
            ("m1", 0, True),
            ("m1", 1, True),
            ("m2", 0, True),
            ("m2", 1, False),
        ]

    def test_memo_without_fragments_absent(self, small_index):
        results = resolve_corpus(self.make_fragments(small_index), small_index, CONFIG)
        assert {r.memo_id for r in results} == {"m1", "m2"}

    def test_deterministic_bytes(self, small_index):
        frags = self.make_fragments(small_index)
        runs = []
        for _ in range(2):
            results = resolve_corpus(frags, small_index, CONFIG)
            runs.append(b"".join(RESOLUTION.encode(results)))
        assert runs[0] and runs[0] == runs[1]

    def test_threshold_monotonicity(self, small_index):
        frags = self.make_fragments(small_index)
        previous = None
        for threshold in (0.2, 0.4, 0.6, 0.8, 0.95):
            results = resolve_corpus(frags, small_index, ResolverConfig(threshold=threshold))
            linked = Counter(r.memo_id for r in results if r.method != METHOD_UNRESOLVED)
            if previous is not None:
                assert all(linked[m] <= previous[m] for m in linked)
            previous = linked


class TestCoverageSummary:
    def test_two_memos(self):
        summary = coverage_summary([60.0, 80.0])
        assert summary["median_linked_pct"] == pytest.approx(70.0)
        assert summary["n"] == 2

    def test_empty(self):
        summary = coverage_summary([])
        assert summary == {"n": 0, "median_linked_pct": None, "iqr_linked_pct": None}

    def test_all_full_coverage(self):
        summary = coverage_summary([100.0] * 4)
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
