from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from memomap.artifacts import DecodeError, decode
from memomap.biblio import ArticleRecord
from memomap.pipeline import COVERAGE
from memomap.resolver import CoverageStats


@dataclass(frozen=True)
class Inner:
    name: str


@dataclass(frozen=True)
class Row:
    count: int
    ratio: float
    note: str | None
    flag: bool = False
    items: tuple[Inner, ...] = ()
    tags: tuple[str, ...] = ("default",)
    when: datetime.date | None = None


class TestDecode:
    def test_valid_mapping(self):
        row = decode(Row, {"count": 2, "ratio": 1, "note": None, "items": [{"name": "a"}]})
        assert row == Row(2, 1.0, None, items=(Inner("a"),))
        assert type(row.ratio) is float  # an int loads as the equal float

    def test_absent_fields(self):
        # An absent `X | None` field is None; a defaulted one takes its default.
        assert decode(Row, {"count": 1, "ratio": 0.5}) == Row(1, 0.5, None)

    def test_keys_that_are_not_fields_are_ignored(self):
        assert decode(Row, {"count": 1, "ratio": 0.5, "other": [1]}) == Row(1, 0.5, None)
        nested = {"count": 1, "ratio": 0.5, "items": [{"name": "a", "other": 1}]}
        assert decode(Row, nested) == Row(1, 0.5, None, items=(Inner("a"),))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"other": [1]}, "other: not a field"),
            ({"items": [{"name": "a"}, {"name": "b", "other": 1}]}, "items[1].other: not a field"),
        ],
    )
    def test_exact_rejects_keys_that_are_not_fields_at_every_level(self, extra, message):
        with pytest.raises(DecodeError) as caught:
            decode(Row, {"count": 1, "ratio": 0.5, **extra}, exact=True)
        assert str(caught.value) == message

    def test_date_from_iso_string(self):
        row = decode(Row, {"count": 1, "ratio": 0.5, "when": "2010-05-04"})
        assert row.when == datetime.date(2010, 5, 4)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"count": True}, "count: expected an integer, got True"),
            ({"count": 1.0}, "count: expected an integer, got 1.0"),
            ({"ratio": "0.5"}, "ratio: expected a number, got '0.5'"),
            ({"ratio": False}, "ratio: expected a number, got False"),
            ({"note": 3}, "note: expected a string or null, got 3"),
            ({"flag": "no"}, "flag: expected true or false, got 'no'"),
            ({"flag": None}, "flag: expected true or false, got None"),
            ({"tags": "abc"}, "tags: expected a list, got 'abc'"),
            ({"tags": ("a",)}, "tags: expected a list, got ('a',)"),
            ({"tags": ["a", 5]}, "tags[1]: expected a string, got 5"),
            ({"items": [{"name": "a"}, "b"]}, "items[1]: expected a mapping, got 'b'"),
            ({"items": [{"name": 1}]}, "items[0].name: expected a string, got 1"),
            ({"items": [{}]}, "items[0].name: expected a string, got nothing"),
            ({"when": "2004-13-01"}, "when: expected an ISO date string or null, got '2004-13-01'"),
            ({"when": 20041101}, "when: expected an ISO date string or null, got 20041101"),
        ],
    )
    def test_wrong_value_names_the_field(self, change, message):
        with pytest.raises(DecodeError) as caught:
            decode(Row, {"count": 1, "ratio": 0.5, "note": "n", **change})
        assert str(caught.value) == message

    def test_absent_required_field(self):
        with pytest.raises(DecodeError, match="^ratio: expected a number, got nothing$"):
            decode(Row, {"count": 1})

    def test_article_record_round_trip(self):
        row = {
            "article_id": "1",
            "title": "T",
            "authors": ["Smith JA"],
            "journal": "J",
            "pub_year": None,
            "grant_tags": [{"award_text": "R01 CA1-01", "funder_text": "NCI"}],
            "retracted": True,
        }
        record = decode(ArticleRecord, row)
        assert record.authors == ("Smith JA",) and record.grant_tags[0].funder_text == "NCI"
        # As the artifact writer serializes it: tuples as lists, nested rows as objects.
        assert decode(ArticleRecord, json.loads(json.dumps(vars(record), default=vars))) == record


def test_csv_string_field_keeps_its_cell(tmp_path):
    # Cells of non-string fields are read as JSON; a string field's cell never is.
    rows = [CoverageStats("0123", 2, 1), CoverageStats("true", 1, 1), CoverageStats("null", 3, 0)]
    (tmp_path / "resolve").mkdir()
    COVERAGE.write(rows, tmp_path / COVERAGE.path)
    assert COVERAGE.read(SimpleNamespace(workdir=tmp_path)).objects == rows
