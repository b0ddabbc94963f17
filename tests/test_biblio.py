from __future__ import annotations

import json
import random
from typing import Callable

import pytest

from memomap import corpus
from memomap.biblio import ArticleRecord, IngestError, ingest_records, read_records
from memomap.config import load_config
from memomap.resolver import fragment_years

from conftest import article_row, perfbench_gen, write_jsonl
from oracles import oracle_record_tokens, oracle_search
from test_pipeline import FIXTURES


class TestIngest:
    def test_empty_source(self, tmp_path):
        index = ingest_records(read_records(write_jsonl(tmp_path / "r.jsonl", [])))
        assert len(index) == 0
        assert index.token_count == 0

    def test_counts_from_file(self, tmp_path):
        rows = [article_row(str(i), f"Title number {i} alpha beta") for i in range(1, 11)]
        index = ingest_records(read_records(write_jsonl(tmp_path / "r.jsonl", rows)))
        assert len(index) == 10

    def test_duplicate_id_names_line(self, tmp_path):
        rows = [article_row(str(i), f"Title {i}") for i in range(1, 7)]
        rows.append(article_row("3", "A repeat"))
        path = write_jsonl(tmp_path / "r.jsonl", rows)
        with pytest.raises(IngestError, match=r"r\.jsonl:7.*'3'"):
            read_records(path)

    def test_schema_violation_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        good = json.dumps(article_row("1", "Fine"))
        bad = json.dumps({"article_id": "2", "title": "No authors", "journal": "J"})
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"r\.jsonl:2"):
            read_records(path)

    def test_pub_year_range_enforced(self, tmp_path):
        path = write_jsonl(tmp_path / "r.jsonl", [article_row("1", "T", pub_year=1492)])
        with pytest.raises(IngestError, match=r"r\.jsonl:1: pub_year"):
            read_records(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(article_row("1", "ok")) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"r\.jsonl:2"):
            read_records(path)


class TestSearch:
    def test_self_retrieval(self, small_records, small_index):
        record = small_records["1001"]
        title, *_ = record.tokens()
        hits = small_index.search(title, k=5)
        assert hits[0].article_id == "1001"

    def test_disjoint_tokens_empty(self, small_index):
        assert small_index.search(["zz", "qq", "vv"], k=5) == []

    def test_year_hint_breaks_token_tie(self, tmp_path):
        shared_title = "common words shared across both records"
        rows = [
            article_row("2000", shared_title, pub_year=2000),
            article_row("2010", shared_title, pub_year=2010),
        ]
        index = ingest_records(read_records(write_jsonl(tmp_path / "r.jsonl", rows)))
        tokens = shared_title.split()
        assert index.search(tokens, year_hint=2009, k=2)[0].article_id == "2010"
        assert index.search(tokens, year_hint=2001, k=2)[0].article_id == "2000"

    def test_id_breaks_remaining_tie(self, tmp_path):
        shared_title = "identical in every indexed way"
        rows = [
            article_row("b", shared_title, pub_year=2005),
            article_row("a", shared_title, pub_year=2005),
        ]
        index = ingest_records(read_records(write_jsonl(tmp_path / "r.jsonl", rows)))
        hits = index.search(shared_title.split(), year_hint=2005, k=2)
        assert [h.article_id for h in hits] == ["a", "b"]

    def test_ranking_independent_of_insertion_order(self, tmp_path):
        rows = [
            article_row("1", "alpha beta gamma delta"),
            article_row("2", "alpha beta gamma epsilon"),
            article_row("3", "alpha beta zeta eta"),
        ]
        forward = ingest_records(read_records(write_jsonl(tmp_path / "forward.jsonl", rows)))
        backward = ingest_records(
            read_records(write_jsonl(tmp_path / "backward.jsonl", rows[::-1]))
        )
        tokens = ["alpha", "beta", "gamma", "delta"]
        assert [r.article_id for r in forward.search(tokens, k=3)] == [
            r.article_id for r in backward.search(tokens, k=3)
        ]

    def test_repeated_calls_identical(self, small_index):
        tokens = ["amyloid", "imaging", "dementia"]
        first = [r.article_id for r in small_index.search(tokens, k=3)]
        second = [r.article_id for r in small_index.search(tokens, k=3)]
        assert first == second

    def test_single_letters_reach_only_authors(self, tmp_path):
        rows = [article_row("1", "A b of x", authors=["Quayle J"], journal="Q J")]
        index = ingest_records(read_records(write_jsonl(tmp_path / "r.jsonl", rows)))
        # 'a', 'b', 'x' are too short for the title field; 'j' matches the author initial.
        assert index.search(["a"], k=3) == []
        assert [r.article_id for r in index.search(["j"], k=3)] == ["1"]
        assert [r.article_id for r in index.search(["quayle"], k=3)] == ["1"]


NAMES = ["Ñúñez MÁ", "Øster K", "Müller-Lüdenscheidt H", "O'Brien", "Smith J", "Smith K",
         "van der Berg A", "Ō", "— ...", "Li", "ÉCOLE Q R", "\u0301Smith J", "-., ;", "Ng 42"]
WORDS = ["a", "b", "of", "x", "Über", "naïve", "trial", "2004", "α-synuclein", "cell", "—",
         "7", "42", "z", "cell\ttrial", "of\nx"]


def seeded_records(seed: int, n: int = 200) -> dict[str, ArticleRecord]:
    """Records by id drawn from ``NAMES`` and ``WORDS``: empty author lists and
    fields, one-letter and digit-only words, tabs and newlines, a leading
    combining mark, punctuation-only authors, repeated surnames."""
    rng = random.Random(seed)
    records = {}
    for i in range(n):
        records[str(i)] = ArticleRecord(
            article_id=str(i),
            title=" ".join(rng.choices(WORDS, k=rng.randint(0, 8))),
            authors=tuple(rng.choices(NAMES, k=rng.randint(0, 5))),
            journal=" ".join(rng.choices(WORDS, k=rng.randint(0, 3))),
            pub_year=rng.choice([None, 2000, 2001, 2003]),
        )
    return records


class TestRecordTokens:
    """One ``findall`` per string gives the four views the four rules gave,
    and the index posts each record under exactly the union of its views."""

    def test_fixture_records(self):
        records = read_records(FIXTURES / "articles.jsonl")
        assert records
        for record in records.values():
            assert record.tokens() == oracle_record_tokens(record), record.article_id

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_records(self, seed):
        for record in seeded_records(seed).values():
            assert record.tokens() == oracle_record_tokens(record), record

    def test_edge_cases(self):
        record = ArticleRecord(
            "1", "A\tb2 of\n2004 x", ("\u0301Smith J", "...", "Ng 42"), "7 J\tMed", None
        )
        assert record.tokens() == oracle_record_tokens(record)
        assert record.tokens() == (
            frozenset({"b2", "of", "2004"}),
            frozenset({"med"}),
            frozenset({"smith", "j", "ng", "42"}),
            frozenset({"smith", "ng"}),
        )
        empty = ArticleRecord("2", "", (), "", None)
        assert empty.tokens() == oracle_record_tokens(empty) == (frozenset(),) * 4

    @pytest.mark.parametrize("seed", range(4))
    def test_index_search_matches_oracle(self, seed):
        records = seeded_records(seed)
        index = ingest_records(records)
        views = tokens_once(records.values())
        indexed = [set().union(*views(record)[:3]) for record in records.values()]
        # Title and journal words of one letter are posted nowhere.
        vocabulary = sorted(set().union(*indexed) | set("abxz7"))
        rng = random.Random(seed)
        queries = [sorted(tokens) for tokens in indexed]
        queries += [rng.sample(vocabulary, rng.randint(1, 6)) for _ in range(100)]
        for tokens in queries:
            year_hint = rng.choice([None, 2001])
            full = oracle_search(records.values(), tokens, year_hint, len(records), views)
            for k in (1, 5, len(records)):
                got = [r.article_id for r in index.search(tokens, year_hint=year_hint, k=k)]
                assert got == full[:k], tokens


def tokens_once(records) -> Callable[[ArticleRecord], tuple[frozenset[str], ...]]:
    """``oracle_record_tokens`` for ``oracle_search``, each record's views computed once."""
    views = {record.article_id: oracle_record_tokens(record) for record in records}
    return lambda record: views[record.article_id]


class TestTopKMatchesFullSort:
    """search() reads only the count groups it needs for k records; the
    oracle sorts every candidate. Small vocabularies force heavy ties; long
    posting lists and long queries force bitmap postings and five count planes."""

    WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    SURNAMES = ["Adams", "Baker", "Chen"]

    def random_rows(self, rng: random.Random, n: int) -> list[dict]:
        rows = []
        for i in range(n):
            rows.append(
                article_row(
                    f"{rng.randrange(10**6):06d}-{i}",
                    " ".join(rng.sample(self.WORDS, rng.randint(1, 4))),
                    authors=[f"{rng.choice(self.SURNAMES)} {rng.choice('AB')}"],
                    journal=rng.choice(["J Test Med", "Lancet", "JAMA"]),
                    pub_year=rng.choice([None, 1999, 2000, 2001, 2004, 2010]),
                )
            )
        return rows

    def check(self, index, records, tokens, year_hint, k):
        got = [r.article_id for r in index.search(tokens, year_hint=year_hint, k=k)]
        assert got == oracle_search(records.values(), tokens, year_hint, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_indexes(self, tmp_path, seed):
        rng = random.Random(seed)
        rows = self.random_rows(rng, rng.randint(5, 60))
        records = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        index = ingest_records(records)
        query_pool = self.WORDS + ["adams", "chen", "a", "b", "lancet", "med", "nothing"]
        for _ in range(30):
            tokens = rng.sample(query_pool, rng.randint(1, 5))
            year_hint = rng.choice([None, 2000, 2003, 2010])
            for k in (1, 2, 5, 10, len(index), len(index) + 7):
                self.check(index, records, tokens, year_hint, k)

    @pytest.mark.parametrize("year_hint", [None, 2002])
    @pytest.mark.parametrize("k", [1, 4, 9, 40])
    def test_tie_at_kth_count(self, tmp_path, k, year_hint):
        # Twelve records share all three query tokens, so k < 12 cuts inside
        # one tie group that only year distance and id can order.
        rows = [
            article_row(f"t{i:02d}", "alpha beta gamma", pub_year=(None if i % 4 == 0 else 1998 + i))
            for i in range(12)
        ]
        rows += [article_row(f"u{i:02d}", "alpha beta", pub_year=2002) for i in range(6)]
        records = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        index = ingest_records(records)
        self.check(index, records, ["alpha", "beta", "gamma"], year_hint, k)
        self.check(index, records, ["alpha", "beta"], year_hint, k)

    ZIPF_WORDS = [f"w{rank:03d}" for rank in range(400)]

    def zipf_rows(self, rng: random.Random, n: int) -> list[dict]:
        weights = [1 / (rank + 1) for rank in range(len(self.ZIPF_WORDS))]
        surnames = [f"Name{i:03d}" for i in range(150)]
        return [
            article_row(
                f"z{rng.randrange(10**6):06d}-{i}",
                " ".join(rng.choices(self.ZIPF_WORDS, weights, k=rng.randint(4, 24))),
                authors=[
                    f"{rng.choice(surnames)} {rng.choice('ABC')}" for _ in range(rng.randint(1, 3))
                ],
                journal=rng.choice(["J Test Med", "Lancet", "JAMA", "BMJ", "Cell Rep"]),
                pub_year=rng.choice([None, *range(1990, 2016)]),
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("seed", range(2))
    def test_long_postings(self, tmp_path, seed):
        rng = random.Random(seed)
        rows = self.zipf_rows(rng, 2000 + 300 * seed)
        mapping = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        index = ingest_records(mapping)
        stored = {isinstance(p, int) for p in index._postings.values()}
        assert stored == {True, False}  # both bitmap and sparse postings
        records = [mapping[article_id] for article_id in sorted(mapping)]
        views = tokens_once(records)
        top_shared = 0
        for _ in range(40):
            own = sorted(views(rng.choice(records))[0])
            pool = own + rng.sample(self.ZIPF_WORDS, 10) + ["nothing"]
            tokens = rng.sample(pool, min(len(pool), rng.randint(1, 30)))
            year_hint = rng.choice([None, 1989, 2003, 2020])
            full = oracle_search(records, tokens, year_hint, len(records), views)
            for k in (1, 10, 50, len(full) + 1):
                got = [r.article_id for r in index.search(tokens, year_hint=year_hint, k=k)]
                assert got == full[:k]
            if full:
                top_shared = max(top_shared, len(set(tokens) & views(mapping[full[0]])[0]))
        assert top_shared >= 16  # counts of five bits

    def test_benchmark_fragments(self, tmp_path):
        perfbench_gen().generate("resolve-zipf", 11, tmp_path, "smoke")
        config = load_config(tmp_path / "config.yaml")
        mapping = read_records(config.paths.records)
        index = ingest_records(mapping)
        records = list(mapping.values())
        views = tokens_once(records)
        fragments = [
            fragment
            for memo in corpus.load_corpus(config.paths.corpus)
            for fragment in corpus.extract_fragments(memo, config.corpus)
        ]
        assert len(fragments) >= 20
        for fragment in fragments:
            tokens = fragment.normalized_text.split()
            year_hint = next(iter(fragment_years(fragment.normalized_text)), None)
            full = oracle_search(records, tokens, year_hint, len(records), views)
            for k in (1, 10, 50):
                got = [r.article_id for r in index.search(tokens, year_hint=year_hint, k=k)]
                assert got == full[:k]
