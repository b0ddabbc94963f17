from __future__ import annotations

import logging
import random

import pytest

from memomap.biblio import read_records
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
    lookup_awards_citing,
    merge_drafts,
    parse_core_project,
)

from conftest import article_row, imputed_award, write_jsonl
from oracles import oracle_impute


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

    def test_idempotent_and_total(self, aliases):
        for raw in ("NCI", "nci", "N.C.I.", "Acme Trust", ""):
            code = aliases.lookup(raw)
            assert code in aliases.vocabulary | {UNMAPPED}
            if code != UNMAPPED:
                assert aliases.lookup(code) == code

    def test_punctuation_insensitive(self, aliases):
        assert aliases.lookup("national cancer institute.") == "NCI"

    def test_bad_policy_rejected(self):
        with pytest.raises(FundingError):
            FunderAliasTable({}, on_unmapped="explode")


class TestExtract:
    @pytest.fixture
    def make_record(self, tmp_path):
        def make(tags):
            rows = [article_row("10", "T", grant_tags=tags)]
            return read_records(write_jsonl(tmp_path / "r.jsonl", rows))["10"]

        return make

    def test_suffix_stripped_and_funder_mapped(self, aliases, make_record):
        record = make_record([{"award_text": "R01 CA031770-02", "funder_text": "NCI"}])
        drafts = extract_article_awards(record, aliases)
        assert len(drafts) == 1
        assert drafts[0].core_project_number == "R01CA031770"
        assert drafts[0].funder_code == "NCI"
        assert drafts[0].source == SOURCE_ARTICLE
        assert drafts[0].org_id is None

    def test_no_tags_empty(self, aliases, make_record):
        assert extract_article_awards(make_record([]), aliases) == []

    def test_unmapped_warns_and_continues(self, aliases, caplog, make_record):
        record = make_record(
            [
                {"award_text": "R01CA1-01", "funder_text": "NCI"},
                {"award_text": "XY99-7", "funder_text": "Mystery Fund"},
                {"award_text": "K23AG2-02", "funder_text": "NIA"},
            ]
        )
        with caplog.at_level(logging.WARNING):
            drafts = extract_article_awards(record, aliases)
        assert len(drafts) == 3
        assert [d.funder_code for d in drafts] == ["NCI", UNMAPPED, "NIA"]
        assert sum("unmapped funder" in r.message for r in caplog.records) == 1

    def test_unmapped_can_hard_fail(self, make_record):
        strict = FunderAliasTable({"NCI": "NCI"}, on_unmapped="fail")
        record = make_record([{"award_text": "Z01-1", "funder_text": "Mystery Fund"}])
        with pytest.raises(UnmappedFunderError):
            extract_article_awards(record, strict)


class TestLookup:
    def test_two_award_records_two_drafts(self, award_db):
        drafts = lookup_awards_citing("1001", award_db)
        assert len(drafts) == 2
        assert {d.core_project_number for d in drafts} == {"R01CA031770", "R01HL040050"}
        assert all(d.source == SOURCE_AWARD_DB for d in drafts)
        assert {d.org_id for d in drafts} == {"075700000", "049800000"}

    def test_uncited_article_empty(self, award_db):
        assert lookup_awards_citing("zzz", award_db) == []


class TestMerge:
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
        drafts = extract_article_awards(records["1001"], aliases)
        drafts += lookup_awards_citing("1001", award_db)
        merged = merge_drafts(drafts)
        assert len(merged) == 2  # CA core collapsed, HL core from the db side
        ca = next(l for l in merged if l.core_project_number == "R01CA031770")
        assert ca.source == SOURCE_AWARD_DB
        assert ca.org_id == "075700000"

    def test_merge_is_idempotent(self, award_db):
        drafts = lookup_awards_citing("1001", award_db) * 2
        merged_once = merge_drafts(drafts)
        merged_twice = merge_drafts(merged_once)
        assert merged_once == merged_twice


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
        links = build_links(articles, award_db, aliases)
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
        links = build_links([records["2001"]], award_db, aliases)
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

    def test_every_funder_in_vocabulary(self, aliases, award_db, articles):
        links = build_links(articles, award_db, aliases)
        vocab = aliases.vocabulary | {UNMAPPED, "NIA"}  # db codes are canonical already
        assert all(l.funder_code in vocab for l in links)

    def test_idempotent(self, aliases, award_db, articles):
        assert build_links(articles, award_db, aliases) == build_links(articles, award_db, aliases)

    def test_imputed_year_minimizes_oracle_criterion(self, aliases, award_db, articles):
        for link in build_links(articles, award_db, aliases):
            records = award_db.records_for_core(link.core_project_number)
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
