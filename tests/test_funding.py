from __future__ import annotations

import json
import logging
import random
import shutil
from collections import Counter
from pathlib import Path

import pytest

from memomap.biblio import ArticleRecord, GrantTag, read_records
from memomap.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from memomap.funding import (
    SOURCE_ARTICLE,
    SOURCE_AWARD_DB,
    UNMAPPED,
    Award,
    FunderAliasTable,
    FundingError,
    UnmappedFunderError,
    build_links,
    extract_article_awards,
    load_award_db,
    parse_core_project,
)

from conftest import alias_codes, article_row, imputed_award, write_jsonl
from oracles import oracle_impute, oracle_links

FIXTURES = Path(__file__).parent / "fixtures" / "pipeline"


class TestParseCore:
    def test_suffix_and_whitespace_stripped(self):
        assert parse_core_project("R01 CA031770-02") == "R01CA031770"

    def test_no_suffix_passthrough(self):
        assert parse_core_project("u01hl123456") == "U01HL123456"

    def test_only_first_hyphen_cuts(self):
        assert parse_core_project("HHSN268201-2011-00026C") == "HHSN268201"


class TestAliases:
    def test_full_name_maps(self, aliases):
        assert aliases.lookup("National Cancer Institute") == "NCI"

    def test_retired_code_folds_into_successor(self, aliases):
        # The merge applies even when the alias file itself has no NCRR row.
        assert aliases.lookup("NCRR") == "NCATS"
        assert aliases.lookup("National Center for Research Resources") == "NCATS"

    def test_unknown_is_unmapped(self, aliases):
        assert aliases.lookup("Acme Trust") == UNMAPPED

    def test_idempotent_and_total(self, aliases, alias_csv):
        for raw in ("NCI", "nci", "N.C.I.", "Acme Trust", ""):
            code = aliases.lookup(raw)
            assert code in alias_codes(alias_csv) | {UNMAPPED}
            if code != UNMAPPED:
                assert aliases.lookup(code) == code

    def test_punctuation_insensitive(self, aliases):
        assert aliases.lookup("national cancer institute.") == "NCI"

    @staticmethod
    def workspace(tmp_path, policy):
        """The pipeline fixture in ``tmp_path``, its config setting ``funding.on_unmapped``."""
        for path in FIXTURES.iterdir():
            if path.is_file():
                shutil.copy(path, tmp_path / path.name)
        config = tmp_path / "config.yaml"
        with config.open("a", encoding="utf-8") as fh:
            fh.write(f"funding:\n  on_unmapped: {policy}\n")
        return config

    def test_bad_policy_rejected(self, tmp_path, caplog):
        # The policy is the config's alone: the alias table carries none.
        config = self.workspace(tmp_path, "explode")
        assert main(["all", "--config", str(config)]) == EXIT_CONFIG
        assert "funding.on_unmapped 'explode' unknown" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy, status", [("warn", EXIT_OK), ("fail", EXIT_INPUT)])
    def test_config_policy_reaches_link(self, tmp_path, caplog, policy, status):
        config = self.workspace(tmp_path, policy)
        articles = tmp_path / "articles.jsonl"
        rows = [json.loads(line) for line in articles.read_text(encoding="utf-8").splitlines()]
        assert rows[1]["article_id"] == "8000002" and rows[1]["grant_tags"]  # a cited article
        rows[1]["grant_tags"][0]["funder_text"] = "Mystery Fund"
        articles.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        assert main(["all", "--config", str(config)]) == status
        if policy == "fail":
            assert "article 8000002: unmapped funder 'Mystery Fund'" in caplog.text
            assert not (tmp_path / "out" / "link").exists()
        else:
            assert "unmapped funder in 1 grant tags, 1 distinct: 'Mystery Fund' (1)" in caplog.text


class TestExtract:
    @pytest.fixture
    def make_record(self, tmp_path):
        def make(tags):
            rows = [article_row("10", "T", grant_tags=tags)]
            return read_records(write_jsonl(tmp_path / "r.jsonl", rows))["10"]

        return make

    def test_suffix_stripped_and_funder_mapped(self, aliases, make_record):
        record = make_record([{"award_text": "R01 CA031770-02", "funder_text": "NCI"}])
        pairs = extract_article_awards(record, aliases, Counter(), Counter())
        assert pairs == [("R01CA031770", "NCI")]

    def test_no_tags_empty(self, aliases, make_record):
        assert extract_article_awards(make_record([]), aliases, Counter(), Counter()) == []

    def test_empty_award_text_is_one_line_per_run(self, aliases, caplog):
        # Seeded articles, some with tags whose award text parses to no core.
        rng = random.Random(30)
        records, expected = [], Counter()
        for i in range(40):
            tags = []
            for j in range(rng.randint(0, 4)):
                if rng.random() < 0.3:
                    tags.append(GrantTag(rng.choice(["", " ", "-02", " -1"]), "NCI"))
                    expected[f"A{i:02d}"] += 1
                else:
                    tags.append(GrantTag(f"R01CA{i}{j}-01", "NCI"))
            records.append(ArticleRecord(f"A{i:02d}", "T", (), "J", 2005, grant_tags=tuple(tags)))
        rng.shuffle(records)
        assert len(expected) > 1
        with caplog.at_level(logging.WARNING):
            links = build_links(records, [], aliases, "warn")
        assert len(links) == sum(len(r.grant_tags) for r in records) - sum(expected.values())
        [line] = [r.getMessage() for r in caplog.records if "award text" in r.getMessage()]
        assert line == (
            f"empty award text in {sum(expected.values())} grant tags of {len(expected)} "
            f"articles, skipped: {', '.join(sorted(expected))}"
        )

    def test_unmapped_warns_and_continues(self, aliases, caplog):
        tags = [
            GrantTag("R01CA1-01", "NCI"),
            GrantTag("XY99-7", "Mystery Fund"),
            GrantTag("K23AG2-02", "NIA"),
            GrantTag("XY98-1", "Acme Trust"),
        ]
        records = [
            ArticleRecord("10", "T", (), "J", 2005, grant_tags=tuple(tags)),
            ArticleRecord("11", "T", (), "J", 2005, grant_tags=(GrantTag("Q1", "Mystery Fund"),)),
        ]
        with caplog.at_level(logging.WARNING):
            links = build_links(records, [], aliases, "warn")
        assert [(l.core_project_number, l.funder_code) for l in links] == [
            ("K23AG2", "NIA"),
            ("R01CA1", "NCI"),
            ("XY98", UNMAPPED),
            ("XY99", UNMAPPED),
            ("Q1", UNMAPPED),
        ]
        [line] = [r.getMessage() for r in caplog.records if "unmapped funder" in r.getMessage()]
        assert line == (
            "unmapped funder in 3 grant tags, 2 distinct: 'Mystery Fund' (2), 'Acme Trust' (1)"
        )

    def test_unmapped_can_hard_fail(self, caplog):
        # Raised after the first article with one, naming its first unmapped string.
        def article(article_id, *funders):
            tags = tuple(GrantTag(f"R01CA{i}-01", f) for i, f in enumerate(funders))
            return ArticleRecord(article_id, "T", (), "J", 2005, grant_tags=tags)

        records = [
            article("12", "Zeta Fund"),
            article("11", "NCI", "Mystery Fund", "Acme Trust"),
            article("10", "NCI"),
        ]
        table = FunderAliasTable({"NCI": "NCI"})
        with pytest.raises(UnmappedFunderError) as caught:
            build_links(records, [], table, "fail")
        assert str(caught.value) == "article 11: unmapped funder 'Mystery Fund'"
        assert "unmapped funder in" not in caplog.text  # no warning under 'fail'


class TestLookup:
    """Links from the award records citing an article, as ``build_links`` makes them."""

    def untagged(self, article_id):
        return ArticleRecord(article_id, "T", (), "J", 2004)

    def test_two_citing_awards_two_links(self, aliases, award_db):
        links = build_links([self.untagged("1001")], award_db, aliases, "warn")
        assert [l.core_project_number for l in links] == ["R01CA031770", "R01HL040050"]
        assert all(l.source == SOURCE_AWARD_DB for l in links)
        assert [l.org_id for l in links] == ["075700000", "049800000"]

    def test_uncited_article_empty(self, aliases, award_db):
        assert build_links([self.untagged("zzz")], award_db, aliases, "warn") == []


class TestMerge:
    """One link per core found in both directions."""

    def test_award_db_wins_shared_core(self, tmp_path, aliases, award_db):
        rows = [
            article_row(
                "1001",
                "Cardiac outcomes after elective revascularization",
                pub_year=2004,
                grant_tags=[{"award_text": "R01 CA031770-01", "funder_text": "NCI"}],
            )
        ]
        records = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        links = build_links([records["1001"]], award_db, aliases, "warn")
        assert len(links) == 2  # CA core collapsed, HL core from the db side
        ca = next(l for l in links if l.core_project_number == "R01CA031770")
        assert ca.source == SOURCE_AWARD_DB
        assert ca.org_id == "075700000"

    def test_award_citing_twice_gives_one_link(self, aliases):
        award = Award("R01CA9-01", "R01CA9", "NCI", 2003, "075700000", "Duke", ("1", "1"))
        tags = (GrantTag("R01 CA9-02", "NIA"), GrantTag("R01CA9", "NCI"))
        record = ArticleRecord("1", "T", (), "J", 2004, grant_tags=tags)
        [link] = build_links([record], [award], aliases, "warn")
        assert (link.source, link.funder_code, link.org_id) == (SOURCE_AWARD_DB, "NCI", "075700000")


class TestImputeYear:
    """The award behind a link, as ``build_links`` imputes it."""

    def awards_with_years(self, years):
        return [
            Award(f"R01XX000001-{i:02d}", "R01XX000001", "NCI", year)
            for i, year in enumerate(sorted(years), start=1)
        ]

    def test_closest_to_one_before_publication(self):
        awards = self.awards_with_years([2001, 2003, 2004, 2006])
        assert imputed_award(awards, "R01XX000001", 2005) == ("R01XX000001-03", 2004)

    def test_absent_core_falls_back_to_prior_year(self):
        awards = self.awards_with_years([2001])
        assert imputed_award(awards, "R99ZZ999999", 1990) == (None, 1989)

    def test_tie_prefers_larger_difference(self):
        # d in {2, 0} ties at |d-1| = 1; the earlier (pre-publication) year wins.
        awards = self.awards_with_years([2003, 2005])
        _, year = imputed_award(awards, "R01XX000001", 2005)
        assert year == 2003

    def test_remaining_tie_breaks_on_project_number(self):
        awards = [
            Award("R01XX000001-05", "R01XX000001", "NCI", 2004),
            Award("R01XX000001-02", "R01XX000001", "NCI", 2004),
        ]
        assert imputed_award(awards, "R01XX000001", 2005) == ("R01XX000001-02", 2004)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            pub_year = rng.randint(1990, 2020)
            years = [rng.randint(1985, 2022) for _ in range(rng.randint(1, 8))]
            awards = [
                Award(f"R01AB0000{i:02d}-01", "CORE", "NCI", year)
                for i, year in enumerate(years)
            ]
            assert imputed_award(awards, "CORE", pub_year) == oracle_impute(pub_year, awards)


class TestBuildLinks:
    @pytest.fixture
    def articles(self, tmp_path):
        rows = [
            article_row(
                "1001",
                "Cardiac outcomes after elective revascularization",
                pub_year=2004,
                grant_tags=[{"award_text": "R01 CA031770-01", "funder_text": "NCI"}],
            ),
            article_row("1002", "Long term dialysis survival in elderly cohorts", pub_year=2001),
            article_row(
                "1003",
                "Amyloid imaging in early dementia",
                pub_year=2012,
                grant_tags=[{"award_text": "EY999", "funder_text": "Acme Trust"}],
            ),
        ]
        records = read_records(write_jsonl(tmp_path / "articles.jsonl", rows))
        return [records[a] for a in ("1001", "1002", "1003")]

    def test_links_carry_imputed_year_and_org(self, aliases, award_db, articles):
        links = build_links(articles, award_db, aliases, "warn")
        by_key = {(l.article_id, l.core_project_number): l for l in links}

        ca = by_key[("1001", "R01CA031770")]
        assert ca.imputed_year == 2003  # pub 2004, years {2001,2003,2004,2006}, d=1
        assert ca.imputed_full_project == "R01CA031770-03"
        assert ca.org_id == "075700000"

        hl = by_key[("1001", "R01HL040050")]
        assert hl.imputed_year == 1998

        # metadata-only award with no database record: prior-year fallback
        acme = by_key[("1003", "EY999")]
        assert acme.imputed_year == 2011
        assert acme.imputed_full_project is None
        assert acme.funder_code == UNMAPPED

    def test_undated_article_takes_smallest_full_number(self, tmp_path, aliases, award_db):
        rows = [
            article_row(
                "2001",
                "Undated report",
                pub_year=None,
                grant_tags=[
                    {"award_text": "R01 CA031770-05", "funder_text": "NIA"},
                    {"award_text": "U01 ZZ000001-01", "funder_text": "NHLBI"},
                ],
            )
        ]
        records = read_records(write_jsonl(tmp_path / "r.jsonl", rows))
        links = build_links([records["2001"]], award_db, aliases, "warn")
        by_core = {l.core_project_number: l for l in links}
        assert sorted(by_core) == ["R01CA031770", "U01ZZ000001"]

        # the database record with the smallest full number supplies project, funder and org
        ca = by_core["R01CA031770"]
        assert ca.imputed_full_project == "R01CA031770-01"
        assert ca.imputed_year is None
        assert (ca.funder_code, ca.org_id, ca.org_name) == ("NCI", "075700000", "Duke University")

        # no database record and no year: nothing to impute
        zz = by_core["U01ZZ000001"]
        assert zz.imputed_full_project is None
        assert zz.imputed_year is None
        assert zz.funder_code == "NHLBI"
        assert zz.source == SOURCE_ARTICLE

    def test_every_funder_in_vocabulary(self, aliases, alias_csv, award_db, articles):
        links = build_links(articles, award_db, aliases, "warn")
        vocab = alias_codes(alias_csv) | {UNMAPPED, "NIA"}  # db codes are canonical already
        assert all(l.funder_code in vocab for l in links)

    def test_idempotent(self, aliases, award_db, articles):
        first = build_links(articles, award_db, aliases, "warn")
        assert build_links(articles, award_db, aliases, "warn") == first

    def test_imputed_year_minimizes_oracle_criterion(self, aliases, award_db, articles):
        for link in build_links(articles, award_db, aliases, "warn"):
            records = [a for a in award_db if a.core_project_number == link.core_project_number]
            if not records:
                continue
            pub_year = {"1001": 2004, "1002": 2001, "1003": 2012}[link.article_id]
            assert (link.imputed_full_project, link.imputed_year) == oracle_impute(
                pub_year, records
            )


class TestAwardDb:
    def test_core_prefix_violation_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "a.jsonl",
            [
                {
                    "full_project_number": "R01CA9-01",
                    "core_project_number": "R01CB9",
                    "funder_code": "NCI",
                    "fiscal_year": 2000,
                }
            ],
        )
        with pytest.raises(FundingError, match="does not extend core"):
            load_award_db(path)

    def test_duplicate_full_number_rejected(self, tmp_path):
        row = {"full_project_number": "R01CA9-01", "core_project_number": "R01CA9"}
        path = write_jsonl(
            tmp_path / "a.jsonl",
            [
                {**row, "funder_code": "NCI", "fiscal_year": 2000},
                {**row, "funder_code": "NCI", "fiscal_year": 2001},
            ],
        )
        with pytest.raises(FundingError, match=r"a\.jsonl:2: duplicate full_project_number"):
            load_award_db(path)

    def test_missing_field_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "a.jsonl",
            [{"full_project_number": "X-01", "core_project_number": "X", "funder_code": "NCI"}],
        )
        with pytest.raises(FundingError, match=r"a\.jsonl:1"):
            load_award_db(path)

    def test_rows_kept_in_file_order(self, tmp_path):
        rows = [
            {"full_project_number": f"R01CA9-0{i}", "core_project_number": "R01CA9",
             "funder_code": "NCI", "fiscal_year": 2000 + i}
            for i in (3, 1, 2)
        ]
        awards = load_award_db(write_jsonl(tmp_path / "a.jsonl", rows))
        assert [a.full_project_number for a in awards] == ["R01CA9-03", "R01CA9-01", "R01CA9-02"]


class TestOracleLinks:
    """``build_links`` against the draft-and-merge linkage it replaced."""

    FUNDERS = ("NCI", "NIA", "National Heart Lung and Blood Institute", "Mystery Fund", "Acme")

    def random_case(self, rng):
        cores = [f"R01XX{n:04d}" for n in range(rng.randint(1, 6))]
        article_ids = [f"A{n}" for n in range(rng.randint(1, 5))]
        awards = []
        for number in range(rng.randint(0, 12)):
            core = rng.choice(cores)
            org = rng.choice([None, ("ORG1", "Duke"), ("ORG2", "Mayo")])
            awards.append(
                Award(
                    f"{core}-{number:02d}",
                    core,
                    rng.choice(("NCI", "NIA", "NHLBI")),
                    rng.randint(1995, 2012),
                    *(org or (None, None)),
                    tuple(rng.choice(article_ids) for _ in range(rng.randint(0, 3))),
                )
            )
        tag_cores = cores + ["U01ZZ0001", "K23ZZ0002"]  # the last two have no award row
        articles = [
            ArticleRecord(
                article_id,
                "T",
                (),
                "J",
                rng.choice([None, rng.randint(1998, 2014)]),
                grant_tags=tuple(
                    GrantTag(
                        rng.choice(tag_cores) + rng.choice(("", "-01", "-07")),
                        rng.choice(self.FUNDERS),
                    )
                    for _ in range(rng.randint(0, 4))
                ),
            )
            for article_id in article_ids
        ]
        return articles, awards

    def test_matches_oracle_links(self, aliases):
        rng = random.Random(19)
        seen: Counter[str] = Counter()
        for _ in range(400):
            articles, awards = self.random_case(rng)
            rng.shuffle(articles)
            links = build_links(articles, awards, aliases, "warn")
            assert links == oracle_links(articles, awards, aliases)
            by_core = {a.core_project_number for a in awards}
            for record in articles:
                tag_cores = [parse_core_project(t.award_text) for t in record.grant_tags]
                funders = {}
                for core, tag in zip(tag_cores, record.grant_tags):
                    funders.setdefault(core, set()).add(aliases.lookup(tag.funder_text))
                citing = [a for a in awards if record.article_id in a.cited_article_ids]
                cited_cores = {a.core_project_number for a in citing}
                seen["both directions"] += bool(cited_cores & set(tag_cores))
                seen["shared core, two funders"] += any(len(f) > 1 for f in funders.values())
                seen["undated"] += record.pub_year is None
                seen["no award row"] += bool(set(tag_cores) - by_core)
                seen["cited twice"] += any(
                    a.cited_article_ids.count(record.article_id) > 1 for a in citing
                )
                seen["no tags"] += not record.grant_tags
        assert len(seen) == 6 and min(seen.values()) >= 20, seen
