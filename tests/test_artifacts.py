from __future__ import annotations

import dataclasses
import json
import math
import types
from dataclasses import dataclass, field, fields, is_dataclass
from types import SimpleNamespace
from typing import Any, get_args, get_origin, get_type_hints

import pytest

from memomap import biblio, config, corpus, funding, pipeline, remote, resolver
from memomap.artifacts import Artifact, DecodeError, decode, jsonl_rows
from memomap.biblio import ArticleRecord
from memomap.pipeline import TESTS_FUNDERS
from memomap.stats import StatResult
from oracles import oracle_decode, oracle_jsonl


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
            ({"ratio": math.nan}, "ratio: expected a finite number, got nan"),
            ({"ratio": -math.inf}, "ratio: expected a finite number, got -inf"),
            ({"ratio": 10**400}, f"ratio: expected a finite number, got {10**400}"),
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
    rows = [StatResult(entity, 5, 0.5, -1.0, 2.0, 0.25) for entity in ("0123", "true", "null")]
    (tmp_path / "stats").mkdir()
    (tmp_path / TESTS_FUNDERS.path).write_bytes(b"".join(TESTS_FUNDERS.encode(rows)))
    config = SimpleNamespace(paths=SimpleNamespace(workdir=tmp_path))
    assert TESTS_FUNDERS.read(config).objects == rows


@dataclass(frozen=True)
class Made:
    tags: tuple[str, ...] = field(default_factory=lambda: ("made",))
    count: int = 0
    label: str | None = None


ARTIFACT_ROWS = sorted(
    {a.row_type for a in vars(pipeline).values() if isinstance(a, Artifact) and a.row_type},
    key=lambda t: t.__name__,
)
RAW_ROWS = [corpus.Memo, biblio.ArticleRecord, biblio.GrantTag, funding.Award]
CONFIG_ROWS = [
    config.PipelineConfig,
    config._Paths,
    config._Funding,
    config._Report,
    config.StatsOptions,
    corpus.SegmenterConfig,
    resolver.ResolverConfig,
    remote.RemoteConfig,
]
ROW_TYPES = ARTIFACT_ROWS + RAW_ROWS + CONFIG_ROWS + [Row, Inner, Made]
# The row types a JSONL artifact can hold: no field nests a dataclass.
FLAT_JSON_ROW_TYPES = [
    t for t in ROW_TYPES
    if not any(is_dataclass(a) for h in get_type_hints(t).values() for a in (h, *get_args(h)))
]
# Values put in each field in turn: wrong types, an int for a float, a bool for
# an int, zero counts, lists and mappings, non-ASCII text.
CANDIDATES = [
    None, True, False, 0, 1, -1, 1.5, 2.0, math.nan, math.inf, -math.inf, 10**400,
    "x", "Zoë – café",
    [], ["x"], [1], [None], [{"award_text": "R01", "funder_text": "NCI"}], [{"name": 1}],
    {}, {"name": "a"}, {"name": "a", "other": 1},
]


def sample(annotation: Any) -> Any:
    """A valid JSON value for ``annotation``, its text non-ASCII."""
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation is str:
        return "Zoë – café"
    if annotation in (bool, int, float):
        return {bool: True, int: 7, float: 0.25}[annotation]
    if origin is types.UnionType:
        return sample(args[0])
    if origin is tuple:
        return [sample(args[0]), sample(args[0])]
    assert is_dataclass(annotation), annotation
    hints = get_type_hints(annotation)
    return {f.name: sample(hints[f.name]) for f in fields(annotation)}


def mappings(row_type: type) -> list[dict]:
    full = sample(row_type)
    cases = [full, {}, {**full, "other": 1}]
    for name in full:
        cases.append({k: v for k, v in full.items() if k != name})
        cases += [{**full, name: value} for value in CANDIDATES]
        if isinstance(full[name], list) and isinstance(full[name][0], dict):
            cases.append({**full, name: [full[name][0], {**full[name][0], "other": 1}]})
    return cases


def outcome(decoder, row_type: type, mapping: dict, exact: bool) -> tuple:
    """What decoding gives: the row, with its fields' types, repr and hash, or the error."""
    try:
        row = decoder(row_type, mapping, exact)
    except Exception as exc:  # DecodeError and a row type's own checks alike
        return ("error", type(exc), str(exc))
    state = [(k, type(v), v) for k, v in vars(row).items()]
    return ("row", row, state, repr(row), hash(row))


class TestCodecOracle:
    @pytest.mark.parametrize("row_type", ROW_TYPES, ids=lambda t: t.__name__)
    @pytest.mark.parametrize("exact", [False, True])
    def test_decode_matches_keyword_init_decoder(self, row_type, exact):
        for mapping in mappings(row_type):
            expected = outcome(oracle_decode, row_type, mapping, exact)
            assert outcome(decode, row_type, mapping, exact) == expected, mapping

    def test_cases_cover_defaults_factories_and_post_init(self):
        assert decode(Made, {}) == Made() and decode(Made, {}).tags == ("made",)
        with pytest.raises(DecodeError, match=r"^headings: expected a non-empty list, got \[\]$"):
            decode(corpus.SegmenterConfig, {"headings": []})
        assert type(decode(resolver.ResolverConfig, {"threshold": 1}).threshold) is float
        with pytest.raises(DecodeError, match="^k: expected an integer, got True$"):
            decode(resolver.ResolverConfig, {"k": True})

    @pytest.mark.parametrize("row_type", ROW_TYPES, ids=lambda t: t.__name__)
    def test_rows_stay_frozen(self, row_type):
        row = decode(row_type, sample(row_type))
        name = fields(row_type)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, getattr(row, name))

    @pytest.mark.parametrize("row_type", FLAT_JSON_ROW_TYPES, ids=lambda t: t.__name__)
    def test_jsonl_bytes_match_sorted_keys_writer(self, row_type, tmp_path):
        hints = get_type_hints(row_type)
        optional = tuple(n for n, h in hints.items() if type(None) in get_args(h))
        full = sample(row_type)
        rows = [decode(row_type, full), decode(row_type, {**full, **dict.fromkeys(optional)})]
        for omit in ((), optional):
            artifact = Artifact("stage/rows.jsonl", row_type, omit_none=omit)
            data = b"".join(artifact.encode(rows))
            assert data == oracle_jsonl(rows, omit)
            (tmp_path / "stage").mkdir(exist_ok=True)
            (tmp_path / artifact.path).write_bytes(data)
            config = SimpleNamespace(paths=SimpleNamespace(workdir=tmp_path))
            assert artifact.read(config).objects == rows

    @pytest.mark.parametrize(
        "artifact",
        [a for a in vars(pipeline).values() if isinstance(a, Artifact) and a.omit_none],
        ids=lambda a: a.path,
    )
    def test_pipeline_jsonl_artifacts_match_sorted_keys_writer(self, artifact):
        hints = get_type_hints(artifact.row_type)
        full = sample(artifact.row_type)
        nulls = {n: None for n, h in hints.items() if type(None) in get_args(h)}
        rows = [decode(artifact.row_type, full), decode(artifact.row_type, {**full, **nulls})]
        assert b"".join(artifact.encode(rows)) == oracle_jsonl(rows, artifact.omit_none)


@pytest.mark.parametrize(
    "line",
    [
        '{"a": 1}',
        '  {"a": [1, 2.5, "é"]}  ',
        '\t{"a": {"b": null}}\r',
        '{"a": 1} x',
        '{"a": 1}{}',
        '{"a": }',
        "{",
        '"text"',
        "[1]",
        "\ufeff{}",
        "{}\x0b",
        '{"a": 1e400}',
        '{"a": "\\ud800"}',
    ],
)
def test_jsonl_line_parses_as_json_loads(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(line.encode("utf-8") + b"\n")
    try:
        loaded = json.loads(line + "\n")
    except ValueError as exc:
        expected = f"{path}:1: invalid JSON: {exc}"
    else:
        expected = None if type(loaded) is dict else "expected a JSON object"
    try:
        rows = list(jsonl_rows(path, ValueError))
    except ValueError as exc:
        assert expected is not None and expected in str(exc)
    else:
        assert expected is None and rows == [(1, loaded)]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constants_rejected(tmp_path, constant):
    path = tmp_path / "rows.jsonl"
    path.write_text(f'{{"a": [1, {constant}]}}\n', encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        list(jsonl_rows(path, ValueError))
    assert str(caught.value) == f"{path}:1: invalid JSON: {constant} is not a JSON value"
