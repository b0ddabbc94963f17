from __future__ import annotations

import builtins
import hashlib
import json
import logging
import random
import re
import shutil
from collections import Counter
from pathlib import Path
from urllib.parse import quote_plus

import pytest
import yaml

from memomap.cli import (
    EXIT_CONFIG,
    EXIT_DEPENDENCY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REMOTE,
    build_parser,
    main,
)
from memomap import biblio, funding, pipeline, remote, report
from memomap.artifacts import Artifact, InputError
from memomap.biblio import IngestError
from memomap.config import ConfigError, load_config
from memomap.corpus import CorpusError
from memomap.funding import FundingError
from memomap.resolver import (
    METHOD_LEXICAL,
    METHOD_REMOTE,
    METHOD_UNRESOLVED,
    ResolutionResult,
    fragment_years,
)
from memomap.pipeline import (
    FLAGS,
    RESOLUTION,
    StageDependencyError,
    run_all,
    run_ingest,
    run_link,
    run_report,
    run_resolve,
    run_stats,
)
from oracles import oracle_search

FIXTURES = Path(__file__).parent / "fixtures" / "pipeline"
INPUT_FILES = ("memos.jsonl", "articles.jsonl", "awards.jsonl", "aliases.csv", "config.yaml")


@pytest.fixture
def workspace(tmp_path):
    for name in INPUT_FILES:
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


def count_reads(monkeypatch, root: Path) -> Counter:
    """Count, by path, every opening for reading of a file under ``root``."""
    reads: Counter = Counter()
    real_path_open, real_open = Path.open, builtins.open

    def note(file, mode: str) -> None:
        if isinstance(file, (str, Path)) and "r" in mode and "+" not in mode:
            path = Path(file)
            if path.is_relative_to(root):
                reads[path] += 1

    def path_open(self, mode="r", *args, **kwargs):
        note(self, mode)
        return real_path_open(self, mode, *args, **kwargs)

    def builtin_open(file, mode="r", *args, **kwargs):
        note(file, mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", path_open)
    monkeypatch.setattr(builtins, "open", builtin_open)
    return reads


def truncate_first_line(data: bytes) -> bytes:
    end = data.index(b"\n")
    return data[: end // 2] + data[end:]


class TestStages:
    def test_all_produces_expected_artifacts(self, workspace):
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_OK
        out = workspace / "out"
        for artifact in (
            "ingest/fragments.jsonl",
            "resolve/resolution.jsonl",
            "link/links.jsonl",
            "stats/kld.csv",
            "report/funder_table.csv",
            "report/sankey/CAG-00101N.json",
        ):
            assert (out / artifact).is_file(), artifact
        for stage in ("ingest", "resolve", "link", "stats", "report"):
            assert (out / stage / "manifest.json").is_file()
        resolve = {"resolution.jsonl", "retraction_flags.csv", "manifest.json"}
        assert set(read_tree(out / "resolve")) == resolve
        manifest = json.loads((out / "report" / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["inputs"]) == [
            "link/links.jsonl",
            "resolve/resolution.jsonl",
            "stats/tests_funders.csv",
            "stats/tests_orgs.csv",
        ]

    def test_rerun_is_byte_identical(self, workspace):
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        first = read_tree(workspace / "out")
        assert main(["all", "--config", config]) == EXIT_OK
        second = read_tree(workspace / "out")
        assert first == second  # manifests included: no timestamps anywhere

    def test_config_path_spelling_does_not_change_bytes(self, workspace, monkeypatch):
        monkeypatch.chdir(workspace)
        assert main(["all", "--config", "config.yaml"]) == EXIT_OK
        relative = read_tree(workspace / "out")
        shutil.rmtree(workspace / "out")
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_OK
        assert read_tree(workspace / "out") == relative  # manifests included

    @pytest.mark.parametrize("seed", [7, 8])
    def test_input_row_order_does_not_change_bytes(self, workspace, seed):
        rng = random.Random(seed)
        for name, header in (
            ("memos.jsonl", 0),
            ("articles.jsonl", 0),
            ("awards.jsonl", 0),
            ("aliases.csv", 1),
        ):
            path = workspace / name
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            rows = lines[header:]
            shuffled = rows[:]
            while len(rows) > 1 and shuffled == rows:
                rng.shuffle(shuffled)
            path.write_text("".join(lines[:header] + shuffled), encoding="utf-8")
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_OK
        produced = read_tree(workspace / "out")
        # The manifests record the input digests, which shuffling changes.
        produced = {k: v for k, v in produced.items() if not k.endswith("manifest.json")}
        assert produced == read_tree(FIXTURES / "golden")

    def test_stage_isolation(self, workspace):
        config = load_config(workspace / "config.yaml")
        run_all(config)
        stats_dir = workspace / "out" / "stats"
        before = read_tree(stats_dir)
        shutil.rmtree(stats_dir)
        run_stats(config)
        assert read_tree(stats_dir) == before

    def test_missing_upstream_artifact_names_file(self, workspace):
        config = load_config(workspace / "config.yaml")
        with pytest.raises(StageDependencyError, match=r"links\.jsonl"):
            run_stats(config)

    def test_stage_order_enforced_via_cli(self, workspace):
        assert main(["stats", "--config", str(workspace / "config.yaml")]) == EXIT_DEPENDENCY

    def test_single_memo_report(self, workspace):
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config, "--memo", "CAG-00202R"]) == EXIT_OK
        sankey = workspace / "out" / "report" / "sankey"
        assert (sankey / "CAG-00202R.json").is_file()
        assert not (sankey / "CAG-00101N.json").exists()

    def test_unknown_memo_rejected(self, workspace):
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        assert main(["report", "--config", config, "--memo", "CAG-NOPE"]) == EXIT_DEPENDENCY

    def test_memo_report_removes_stale_files(self, workspace):
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        assert main(["report", "--config", config, "--memo", "CAG-00202R"]) == EXIT_OK
        report_dir = workspace / "out" / "report"
        manifest = json.loads((report_dir / "manifest.json").read_text(encoding="utf-8"))
        assert "sankey/CAG-00202R.json" in manifest["outputs"]
        assert set(read_tree(report_dir)) == set(manifest["outputs"]) | {"manifest.json"}

    # Paths under the fixture directory: stage artifacts under out/, and the raw
    # article, award and alias files, which a stage after ingest reads again.
    @pytest.mark.parametrize(
        "target, command, corrupt",
        [
            ("out/ingest/fragments.jsonl", "resolve", lambda data: data[:-10]),
            (
                "out/link/links.jsonl",
                "stats",
                lambda data: data.replace(b'"article_id": "8000001", ', b"", 1),
            ),
            (
                "out/stats/tests_funders.csv",
                "report",
                lambda data: data.replace(b"\nNCI,5,", b"\nNCI,five,", 1),
            ),
            ("articles.jsonl", "link", truncate_first_line),
            ("awards.jsonl", "stats", truncate_first_line),
            ("aliases.csv", "link", lambda data: data + b"orphan name without code\n"),
            (
                "out/link/links.jsonl",
                "stats",
                lambda data: re.sub(rb'"imputed_year": (\d+)', rb'"imputed_year": "\1"', data, 1),
            ),
            (
                "out/link/links.jsonl",
                "stats",
                lambda data: data.replace(b'{"article_id"', b'{"added": 1, "article_id"', 1),
            ),
            ("articles.jsonl", "link", lambda data: b'{"added": 1, ' + data[1:]),
            ("awards.jsonl", "stats", lambda data: b'{"added": 1, ' + data[1:]),
            (
                "awards.jsonl",
                "link",
                lambda data: re.sub(rb'"fiscal_year": (\d+)', rb'"fiscal_year": "\1"', data, 1),
            ),
            ("awards.jsonl", "link", lambda data: data + data.split(b"\n", 1)[0] + b"\n"),
            (
                "articles.jsonl",
                "link",
                lambda data: data.replace(b'"grant_tags": [{', b'"grant_tags": [{"added": 1, ', 1),
            ),
            (
                "articles.jsonl",
                "resolve",
                lambda data: data.replace(b'"Circulation"', b'"Circulation Res"', 1),
            ),
            (
                "awards.jsonl",
                "stats",
                lambda data: data.replace(b'"Duke University"', b'"Duke Univ."', 1),
            ),
        ],
        ids=[
            "truncated-fragments",
            "link-without-article-id",
            "non-integer-n-obs",
            "truncated-articles",
            "truncated-awards",
            "alias-without-code",
            "link-year-as-string",
            "link-extra-field",
            "articles-extra-field",
            "awards-extra-field",
            "awards-year-as-string",
            "awards-duplicate-row",
            "articles-nested-extra-field",
            "articles-edited-still-valid",
            "awards-edited-still-valid",
        ],
    )
    def test_malformed_artifact_is_dependency_error(
        self, workspace, caplog, target, command, corrupt
    ):
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        path = workspace / target
        data = path.read_bytes()
        assert corrupt(data) != data
        path.write_bytes(corrupt(data))
        assert main([command, "--config", config]) == EXIT_DEPENDENCY
        assert f"{path}:" in caplog.text

    @pytest.mark.parametrize("command", ["resolve", "link", "stats"])
    @pytest.mark.parametrize(
        "replacement, message",
        [(None, "missing manifest {}"), (b'{"inputs": [1]}\n', "{}: not a stage manifest")],
        ids=["missing", "no-inputs-mapping"],
    )
    def test_missing_ingest_manifest_is_dependency_error(
        self, workspace, caplog, command, replacement, message
    ):
        # The stages that read a raw input again check it against ingest's digest.
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        manifest = workspace / "out" / "ingest" / "manifest.json"
        if replacement is None:
            manifest.unlink()
        else:
            manifest.write_bytes(replacement)
        assert main([command, "--config", config]) == EXIT_DEPENDENCY
        assert message.format(manifest) in caplog.text

    @pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_json_constant_in_artifact_exits_4(self, workspace, caplog, constant):
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        path = workspace / "out" / "stats" / "tests_funders.csv"
        data = path.read_bytes()
        assert data.endswith(b",0.75\nNIA,5,0.0,-50.0,16.66666666666667,1.0\n")
        path.write_bytes(data.replace(b",0.75\n", b"," + constant + b"\n"))
        assert main(["report", "--config", config]) == EXIT_DEPENDENCY
        assert f"{path}:3: p_value: expected a number, got {constant.decode()!r}" in caplog.text
        links = workspace / "out" / "link" / "links.jsonl"
        data = links.read_bytes()
        links.write_bytes(data.replace(b'"imputed_year": 1996', b'"imputed_year": ' + constant, 1))
        assert main(["stats", "--config", config]) == EXIT_DEPENDENCY
        assert f"{links}:1: invalid JSON: {constant.decode()} is not a JSON value" in caplog.text

    @pytest.mark.parametrize(
        "cell, got",
        [(b"1_0", "'1_0'"), (b"5.0", "5.0"), (b"", "''"), (b'"""5"""', "'5'")],
        ids=["underscore", "float", "empty", "json-string"],
    )
    def test_bad_count_cell_names_line(self, workspace, caplog, cell, got):
        # A CSV cell is its field's JSON value: an integer field takes no other.
        config = str(workspace / "config.yaml")
        assert main(["all", "--config", config]) == EXIT_OK
        path = workspace / "out" / "stats" / "tests_funders.csv"
        data = path.read_bytes()
        assert b"\nNCI,5," in data
        path.write_bytes(data.replace(b"\nNCI,5,", b"\nNCI," + cell + b",", 1))
        assert main(["report", "--config", config]) == EXIT_DEPENDENCY
        assert f"{path}:2: n: expected an integer, got {got}" in caplog.text


class TestLoadOnce:
    def test_all_loads_articles_and_awards_once(self, workspace, monkeypatch):
        calls = {"ingest_records": 0, "load_award_db": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(biblio, "ingest_records", counted("ingest_records", biblio.ingest_records))
        monkeypatch.setattr(funding, "load_award_db", counted("load_award_db", funding.load_award_db))
        run_all(load_config(workspace / "config.yaml"))
        assert calls == {"ingest_records": 1, "load_award_db": 1}
        produced = read_tree(workspace / "out")
        for name, expected in sorted(read_tree(FIXTURES / "golden").items()):
            assert produced[name] == expected, f"artifact differs: {name}"

    def test_single_stage_resolve_indexes_the_records_all_hands_on(self, workspace, monkeypatch):
        indexed = []
        real = biblio.ingest_records

        def spy(records):
            indexed.append(records)
            return real(records)

        monkeypatch.setattr(biblio, "ingest_records", spy)
        config = load_config(workspace / "config.yaml")
        run_all(config)
        run_resolve(config)
        handed_on, read_back = indexed
        assert handed_on == read_back == biblio.read_records(workspace / "articles.jsonl")
        fragments = [
            json.loads(line)["normalized_text"]
            for line in (workspace / "out" / "ingest" / "fragments.jsonl").read_text().splitlines()
        ]
        assert fragments
        index = real(read_back)
        for text in fragments:
            years = fragment_years(text)
            for year_hint in (None, years[0] if years else 2005):
                for k in (1, 10, len(index)):
                    expected = oracle_search(read_back.values(), text.split(), year_hint, k)
                    found = index.search(text.split(), year_hint, k)
                    assert [r.article_id for r in found] == expected

    def test_rewritten_articles_are_reloaded(self, workspace):
        config = load_config(workspace / "config.yaml")
        run_all(config)
        resolution_path = workspace / "out" / "resolve" / "resolution.jsonl"
        resolved = {
            json.loads(line).get("article_id")
            for line in resolution_path.read_text(encoding="utf-8").splitlines()
        } - {None}
        assert resolved
        articles_path = workspace / "articles.jsonl"
        kept = [
            line
            for line in articles_path.read_text(encoding="utf-8").splitlines(keepends=True)
            if json.loads(line)["article_id"] not in resolved
        ]
        articles_path.write_text("".join(kept), encoding="utf-8")
        run_ingest(config)
        run_resolve(config)
        rows = [json.loads(line) for line in resolution_path.read_text(encoding="utf-8").splitlines()]
        assert rows and all(row.get("article_id") not in resolved for row in rows)


class TestSingleStageLoads:
    """What a single-stage command (a fresh process) reads and builds."""

    @pytest.fixture
    def primed(self, workspace):
        config = load_config(workspace / "config.yaml")
        run_all(config)
        return config

    def test_link_and_report_build_no_index(self, primed, workspace, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("link and report must not build the inverted index")

        monkeypatch.setattr(biblio, "ingest_records", forbidden)
        monkeypatch.setattr(biblio.BiblioIndex, "__init__", forbidden)
        run_link(primed)
        run_report(primed)
        produced = read_tree(workspace / "out")
        for name, expected in sorted(read_tree(FIXTURES / "golden").items()):
            if name.startswith(("link/", "report/")):
                assert produced[name] == expected, f"artifact differs: {name}"

    @pytest.mark.parametrize("memo_id", [None, "CAG-00202R"])
    def test_report_reads_no_article_record(self, primed, monkeypatch, memo_id):
        def forbidden(*args, **kwargs):
            raise AssertionError("report must not decode the article records")

        monkeypatch.setattr(biblio, "read_records", forbidden)
        reads = count_reads(monkeypatch, primed.workdir)
        run_report(primed, memo_id)
        assert reads and not [p for p in reads if p.is_relative_to(primed.workdir / "ingest")]

    def test_resolve_flags_its_own_retracted_results(self, primed):
        shutil.rmtree(primed.workdir / "resolve")
        run_resolve(primed)
        manifest = json.loads((primed.workdir / "resolve" / "manifest.json").read_bytes())
        assert "retraction_flags.csv" in manifest["outputs"]
        expected = report.flag_retracted(
            RESOLUTION.read(primed).objects, biblio.read_records(primed.records_path)
        )
        assert len(expected) == 3
        assert FLAGS.read(primed).objects == expected

    def test_each_input_opened_once(self, primed, monkeypatch):
        # Each upstream artifact and raw input once; ingest's manifest at most
        # once, and not at all by ingest, which parses the raw inputs.
        out = primed.workdir
        raw = {
            "corpus": primed.corpus_path,
            "records": primed.records_path,
            "award_db": primed.award_db_path,
            "aliases": primed.aliases_path,
        }
        reads = count_reads(monkeypatch, out.parent)
        stages = (
            ("ingest", run_ingest),
            ("resolve", run_resolve),
            ("link", run_link),
            ("stats", run_stats),
            ("report", run_report),
        )
        for stage, run in stages:
            reads.clear()
            run(primed)
            opened = dict(reads)
            manifest_reads = opened.pop(out / "ingest" / "manifest.json", 0)
            assert manifest_reads <= (0 if stage == "ingest" else 1), stage
            manifest = json.loads((out / stage / "manifest.json").read_text(encoding="utf-8"))
            assert opened == {raw.get(name, out / name): 1 for name in manifest["inputs"]}, stage

    def test_report_passes_each_memo_only_its_links(self, primed, monkeypatch):
        calls = []
        real = report.build_flow_graph

        def spy(memo_id, links, top_k=10):
            links = list(links)
            calls.append((memo_id, links))
            return real(memo_id, links, top_k)

        monkeypatch.setattr(report, "build_flow_graph", spy)
        run_report(primed)
        out = primed.workdir
        all_rows = [
            json.loads(line)
            for line in (out / "resolve" / "resolution.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        all_links = [
            json.loads(line)
            for line in (out / "link" / "links.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert [memo_id for memo_id, _ in calls] == sorted({row["memo_id"] for row in all_rows})
        for memo_id, links in calls:
            cited = {row.get("article_id") for row in all_rows if row["memo_id"] == memo_id}
            cited.discard(None)
            assert len(links) == sum(l["article_id"] in cited for l in all_links)
            assert all(l.article_id in cited for l in links)


def use_directory_corpus(workspace: Path, memos: dict[str, bytes]) -> Path:
    """Point the config's corpus at a directory holding ``memos`` as ``<id>.txt`` files."""
    corpus_dir = workspace / "memos"
    corpus_dir.mkdir()
    for memo_id, body in memos.items():
        (corpus_dir / f"{memo_id}.txt").write_bytes(body)
    path = workspace / "config.yaml"
    data = yaml.safe_load(path.read_text())
    data["paths"]["corpus"] = "memos"
    path.write_text(yaml.safe_dump(data))
    return corpus_dir


class TestIngestLoads:
    def test_alias_table_opened_once(self, workspace, monkeypatch):
        config = load_config(workspace / "config.yaml")
        reads = count_reads(monkeypatch, workspace)
        run_ingest(config)
        assert reads[workspace / "aliases.csv"] == 1

    def test_corpus_file_opened_once(self, workspace, monkeypatch):
        config = load_config(workspace / "config.yaml")
        reads = count_reads(monkeypatch, workspace)
        run_ingest(config)
        assert reads[workspace / "memos.jsonl"] == 1

    def test_corpus_directory_read_once_and_hashed(self, workspace, monkeypatch):
        memos = {"CAG-2": b"Second\n", "CAG-1": b"First\n"}
        corpus_dir = use_directory_corpus(workspace, memos)
        (corpus_dir / "notes.md").write_bytes(b"not a memo\n")
        config = load_config(workspace / "config.yaml")
        reads = count_reads(monkeypatch, corpus_dir)
        run_ingest(config)
        assert dict(reads) == {corpus_dir / f"{m}.txt": 1 for m in memos}
        # Each .txt file framed as name, NUL, bytes, NUL, in name order.
        framed = b"".join(f"{m}.txt".encode() + b"\0" + memos[m] + b"\0" for m in sorted(memos))
        manifest = json.loads((config.workdir / "ingest" / "manifest.json").read_bytes())
        assert manifest["inputs"]["corpus"] == hashlib.sha256(framed).hexdigest()

    def test_ingest_builds_no_index(self, workspace, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ingest must not build the inverted index")

        monkeypatch.setattr(biblio, "ingest_records", forbidden)
        monkeypatch.setattr(biblio.BiblioIndex, "__init__", forbidden)
        run_ingest(load_config(workspace / "config.yaml"))
        produced = read_tree(workspace / "out")
        for name, expected in sorted(read_tree(FIXTURES / "golden").items()):
            if name.startswith("ingest/"):
                assert produced[name] == expected, f"artifact differs: {name}"


class TestLogLines:
    """A condition that recurs over memos or entities is logged in one line."""

    def test_memos_without_fragments_in_one_line(self, workspace, caplog):
        with (workspace / "memos.jsonl").open("a", encoding="utf-8") as fh:
            for memo_id in ("ZZ-2", "AA-1"):
                fh.write(json.dumps({"memo_id": memo_id, "body_text": "No section.\n"}) + "\n")
        with caplog.at_level(logging.INFO, logger="memomap"):
            run_ingest(load_config(workspace / "config.yaml"))
        lines = [r.getMessage() for r in caplog.records if "reference fragments" in r.getMessage()]
        assert lines == ["2 memos without reference fragments: AA-1, ZZ-2"]

    def test_memos_without_entity_data_in_one_line(self, workspace, caplog):
        config = load_config(workspace / "config.yaml")
        awards = funding.load_award_db(config.award_db_path)
        resolution = [
            ResolutionResult("M3", 0, "X3", 1.0, METHOD_LEXICAL),
            ResolutionResult("M2", 0, "X1", 1.0, METHOD_LEXICAL),
            ResolutionResult("M1", 0, "X2", None, METHOD_REMOTE),
            ResolutionResult("M0", 0, None, None, METHOD_UNRESOLVED),  # cites nothing: no line
        ]
        links = [  # X1: only an unmapped funder; X2: no link; X3: a funder but no org
            funding.ArticleAwardLink("X1", "C1", funding.UNMAPPED, funding.SOURCE_ARTICLE),
            funding.ArticleAwardLink("X3", "C3", "NCI", funding.SOURCE_ARTICLE),
        ]
        with caplog.at_level(logging.INFO, logger="memomap"):
            outputs = pipeline._stats(config, links, awards, resolution)
        assert outputs[pipeline.KLD] == []
        lines = [r.getMessage() for r in caplog.records if "entity data" in r.getMessage()]
        assert lines == ["3 memos without entity data, no concentration: M1, M2, M3"]

    def test_offline_cache_misses_in_one_line(self, workspace, caplog):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["remote"] = {"enabled": True, "offline": True}
        path.write_text(yaml.safe_dump(data))
        with caplog.at_level(logging.INFO, logger="memomap"):
            assert main(["all", "--config", str(path)]) == EXIT_OK
        lines = [r.getMessage() for r in caplog.records if "cache miss" in r.getMessage()]
        assert lines == ["offline mode: 6 remote cache misses, lookups skipped"]

    def test_each_stage_logs_its_files_and_wall_time(self, workspace, caplog):
        config = workspace / "config.yaml"
        with caplog.at_level(logging.INFO, logger="memomap"):
            assert main(["all", "--config", str(config)]) == EXIT_OK
        out = load_config(config).workdir
        pattern = re.compile(r"stage (\w+): wrote (\d+) artifacts to (.+) in \d+\.\d\d s")
        found = [pattern.fullmatch(r.getMessage()) for r in caplog.records]
        logged = [(m[1], int(m[2]), m[3]) for m in found if m]
        expected = []
        for stage in ("ingest", "resolve", "link", "stats", "report"):
            manifest = json.loads((out / stage / "manifest.json").read_bytes())
            expected.append((stage, len(manifest["outputs"]), str(out / stage)))
        assert logged == expected


class TestStageTable:
    """The CLI and run_all derive from pipeline.STAGES."""

    NAMES = ["ingest", "resolve", "link", "stats", "report"]

    def test_all_calls_each_run_attribute_in_order(self, workspace, monkeypatch):
        # run_all looks each run_<name> up when it calls it, so a wrapper bound
        # in its place (a tracer's span recorder) is what runs.
        assert [stage.name for stage in pipeline.STAGES] == self.NAMES
        calls = []

        def spy(name, real):
            def run(config, *args, upstream, **kwargs):
                calls.append((name, [*args, *kwargs.values()]))
                return real(config, *args, upstream=upstream, **kwargs)

            return run

        for name in self.NAMES:
            monkeypatch.setattr(pipeline, f"run_{name}", spy(name, getattr(pipeline, f"run_{name}")))
        run_all(load_config(workspace / "config.yaml"), "CAG-00202R")
        assert calls == [(name, ["CAG-00202R"] if name == "report" else []) for name in self.NAMES]
        assert (workspace / "out" / "report" / "sankey" / "CAG-00202R.json").is_file()

    def test_parser_has_each_stage_and_all_with_its_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no wrapped help lines
        parser = build_parser()
        usage = parser.format_help()
        commands = [(s.name, s.help) for s in pipeline.STAGES] + [("all", "run every stage in order")]
        assert [name for name, _ in commands] == [*self.NAMES, "all"]
        for name, help_line in commands:
            assert parser.parse_args([name, "--config", "c.yaml"]).command == name
            assert re.search(rf"^ +{name} +{re.escape(help_line)}$", usage, re.M), name

    @pytest.mark.parametrize("command", [*NAMES, "all"])
    def test_memo_only_for_report_and_all(self, command, capsys):
        argv = [command, "--config", "c.yaml", "--memo", "X"]
        if command in ("report", "all"):
            assert build_parser().parse_args(argv).memo == "X"
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --memo X" in capsys.readouterr().err


class TestHandOff:
    def test_all_reads_nothing_and_matches_single_stages(self, workspace, monkeypatch):
        config = load_config(workspace / "config.yaml")
        reads = count_reads(monkeypatch, config.workdir)
        run_all(config)
        assert not reads
        monkeypatch.undo()
        handed_on = read_tree(config.workdir)
        shutil.rmtree(config.workdir)
        for run in (run_ingest, run_resolve, run_link, run_stats, run_report):
            run(config)
        assert read_tree(config.workdir) == handed_on

    def test_handed_on_equals_read_back(self, workspace):
        # Every input a stage got and every artifact it wrote is handed on, as the
        # objects and digest that reading the file back gives.
        config = load_config(workspace / "config.yaml")
        upstream: dict = {}
        for run in (run_ingest, run_resolve, run_link, run_stats, run_report):
            run(config, upstream=upstream)
        artifacts = [a for a in vars(pipeline).values() if isinstance(a, Artifact)]
        raw = [pipeline.CORPUS, pipeline.RECORDS, pipeline.AWARD_DB, pipeline.ALIASES]
        assert len(artifacts) == 9 and set(artifacts + raw) <= upstream.keys()

        def comparable(loaded):
            # The award database and the alias table have no __eq__: compare their attributes.
            objects = loaded.objects
            return loaded.artifact, getattr(objects, "__dict__", objects), loaded.digest

        for artifact in artifacts:
            assert comparable(upstream[artifact]) == comparable(artifact.read(config)), artifact
        for item in raw:
            assert comparable(upstream[item]) == comparable(item.parse(config)), item.key


class TestRemoteOutage:
    """A remote lookup that fails past its retries stops resolve with exit 5."""

    @pytest.fixture
    def outage(self, workspace, monkeypatch):
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_OK
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["remote"] = {"enabled": True, "base_url": "http://127.0.0.1:9/none", "max_retries": 1}
        path.write_text(yaml.safe_dump(data))
        fetched = []

        def refuse(url, params):
            # As requests words it: the message holds the URL, citation included.
            fetched.append(params["term"])
            raise ConnectionError(f"{url}?term={quote_plus(params['term'])}: connection refused")

        monkeypatch.setattr(remote, "_default_fetch", refuse)
        return path, fetched

    @pytest.mark.parametrize("command", ["all", "resolve"])
    def test_outage_exits_5_naming_the_fragment(self, workspace, outage, caplog, command):
        path, fetched = outage
        resolve_dir = workspace / "out" / "resolve"
        before = read_tree(resolve_dir)
        rows = [json.loads(line) for line in before["resolution.jsonl"].splitlines()]
        first = next(row for row in rows if row["method"] == METHOD_UNRESOLVED)
        assert main([command, "--config", str(path)]) == EXIT_REMOTE
        assert len(fetched) == 2
        [error] = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert error.startswith(
            f"remote service unavailable: {first['memo_id']}[{first['ordinal']}]: "
            "remote lookup failed after 2 attempts"
        )
        assert read_tree(resolve_dir) == before
        assert not (workspace / "out" / "remote_cache").exists()

    def test_outage_logs_no_citation_text(self, workspace, outage, caplog):
        path, fetched = outage
        caplog.set_level(logging.INFO)  # the default level of the command line
        assert main(["all", "--config", str(path)]) == EXIT_REMOTE
        rows = (workspace / "out" / "resolve" / "resolution.jsonl").read_text().splitlines()
        first = next(row for row in map(json.loads, rows) if row["method"] == METHOD_UNRESOLVED)
        [outage_line] = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert outage_line == (
            f"remote service unavailable: {first['memo_id']}[{first['ordinal']}]: "
            "remote lookup failed after 2 attempts: ConnectionError"
        )
        text = fetched[0]
        for record in caplog.records:
            assert "term=" not in record.getMessage() and text not in record.getMessage()


class TestBundledAliases:
    def test_config_without_aliases_reads_the_bundled_table(self, workspace):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        del data["paths"]["aliases"]
        path.write_text(yaml.safe_dump(data))
        assert load_config(path).aliases_path == funding.DEFAULT_ALIASES
        assert main(["all", "--config", str(path)]) == EXIT_OK
        out = workspace / "out"
        bundled = hashlib.sha256(funding.DEFAULT_ALIASES.read_bytes()).hexdigest()
        for stage in ("ingest", "link"):
            manifest = json.loads((out / stage / "manifest.json").read_bytes())
            assert manifest["inputs"]["aliases"] == bundled, stage
        links_path = out / "link" / "links.jsonl"
        links = links_path.read_bytes()
        assert links
        links_path.unlink()
        assert main(["link", "--config", str(path)]) == EXIT_OK
        assert links_path.read_bytes() == links


class TestCliErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("stats", "min_obs", 0),
            ("stats", "ci_level", 0.0),
            ("stats", "ci_level", 1.0),
            ("stats", "denominator", "x"),
            ("resolver", "k", 0),
        ],
    )
    def test_out_of_range_config_value(self, workspace, caplog, section, key, value):
        # The only range check on these keys: the stages take them as given.
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data[section][key] = value
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}.{key}" in caplog.text
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("report", "top_k", "three"),
            ("resolver", "threshold", [1]),
            ("remote", "enabled", "false"),
            ("corpus", "headings", "References"),
            ("corpus", "headings", [1, 2]),
            ("resolver", "k", 2.9),
            ("report", "top_k", True),
            ("stats", "min_obs", 4.5),
            ("remote", "base_url", None),
            ("paths", "workdir", ["out"]),
            ("paths", "aliases", 5),
            ("remote", "cache_dir", [1]),
        ],
    )
    def test_config_value_of_wrong_type(self, workspace, caplog, section, key, value):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data[section][key] = value
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}.{key}" in caplog.text
        assert "expected" in caplog.text  # reported as a wrong type, not as a missing file

    @pytest.mark.parametrize("section, value", [("stats", False), ("report", []), ("remote", 0)])
    def test_falsy_section_is_config_error(self, workspace, caplog, section, value):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data[section] = value
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert f"section {section!r}" in caplog.text

    @pytest.mark.parametrize(
        "section, key",
        [
            ("paths", "work_dir"),
            ("corpus", "min_fragment_char"),
            ("resolver", "treshold"),
            ("remote", "enabeld"),
            ("remote", "cachedir"),
            ("funding", "on_unmaped"),
            ("stats", "min_ob"),
            ("report", "topk"),
        ],
    )
    def test_misspelled_key_is_config_error(self, workspace, caplog, section, key):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data.setdefault(section, {})[key] = 1
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}.{key}: not a field" in caplog.text

    @pytest.mark.parametrize(
        "section", ["path", "corpsu", "reslover", "remtoe", "fundng", "stat", "reports"]
    )
    def test_misspelled_section_is_config_error(self, workspace, caplog, section):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data[section] = {}
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}: not a config section" in caplog.text
        assert not (workspace / "out").exists()

    def test_remote_section_takes_cache_dir_beside_client_keys(self, workspace):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["remote"] = {"enabled": True, "offline": True, "cache_dir": "answers"}
        path.write_text(yaml.safe_dump(data))
        config = load_config(path)
        assert config.remote.offline and config.cache_dir() == workspace / "answers"

    def test_null_section_takes_defaults(self, workspace):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["report"] = None
        path.write_text(yaml.safe_dump(data))
        assert load_config(path).top_k == 10

    def test_missing_input_path(self, workspace):
        (workspace / "articles.jsonl").unlink()
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_CONFIG

    def test_corrupt_records_is_input_error(self, workspace):
        (workspace / "articles.jsonl").write_text('{"article_id": "x"}\n', encoding="utf-8")
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT

    def test_duplicate_award_row_names_line(self, workspace, caplog):
        awards = workspace / "awards.jsonl"
        first = awards.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        with awards.open("a", encoding="utf-8") as fh:
            fh.write(first)
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        assert "awards.jsonl:" in caplog.text

    @pytest.mark.parametrize("name", ["memos.jsonl", "articles.jsonl", "awards.jsonl"])
    def test_non_object_row_is_input_error(self, workspace, name):
        with (workspace / name).open("a", encoding="utf-8") as fh:
            fh.write("7\n")
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("articles.jsonl", "title", None),
            ("articles.jsonl", "retracted", "no"),
            ("articles.jsonl", "volume", 12),
            ("awards.jsonl", "funder_code", None),
            ("awards.jsonl", "org_id", 44387102),
            ("memos.jsonl", "body_text", 12345),
            ("memos.jsonl", "title", None),
        ],
    )
    def test_input_field_of_wrong_type(self, workspace, caplog, name, field, value):
        path = workspace / name
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        row = json.loads(first)
        row[field] = value
        path.write_text(json.dumps(row) + "\n" + rest, encoding="utf-8")
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        assert f"{path}:1: {field}" in caplog.text

    @pytest.mark.parametrize(
        "name, text, error, message",
        [
            ("memos.jsonl", "7\n", CorpusError, "expected a JSON object"),
            (
                "memos.jsonl",
                '{"memo_id": "EMPTY-1", "title": "t"}\n',
                CorpusError,
                "memos.jsonl:1: memo 'EMPTY-1' has empty body_text",
            ),
            ("articles.jsonl", '{"article_id": "x"}\n', IngestError, "title: expected"),
            ("aliases.csv", "orphan name without code\n", FundingError, "raw_name,canonical_code"),
            ("awards.jsonl", "", FundingError, "awards.jsonl: no award rows"),
        ],
    )
    def test_each_input_error_class_exits_3(self, workspace, caplog, name, text, error, message):
        assert issubclass(error, InputError)
        (workspace / name).write_text(text, encoding="utf-8")
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        [record] = [r for r in caplog.records if r.msg == "input error: %s"]
        assert isinstance(record.args[0], error) and message in str(record.args[0])
        assert not (workspace / "out" / "resolve").exists()  # every one stops in ingest

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "name, field", [("articles.jsonl", "pub_year"), ("awards.jsonl", "fiscal_year")]
    )
    def test_non_json_constant_in_input_exits_3(self, workspace, caplog, name, field, constant):
        path = workspace / name
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        edited = re.sub(f'"{field}": \\d+', f'"{field}": {constant}', first)
        assert edited != first
        path.write_text(edited + "\n" + rest, encoding="utf-8")
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        assert f"{path}:1: invalid JSON: {constant} is not a JSON value" in caplog.text

    def test_duplicate_memo_id_names_line(self, workspace, caplog):
        memos = workspace / "memos.jsonl"
        first = memos.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        with memos.open("a", encoding="utf-8") as fh:
            fh.write(first)
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        assert f"{memos}:4: duplicate memo_id" in caplog.text

    @pytest.mark.parametrize("memo_id", ["../../escaped", "sub/dir", "a\0b"])
    def test_memo_id_naming_another_path_exits_3(self, workspace, caplog, memo_id):
        memos = workspace / "memos.jsonl"
        first, rest = memos.read_text(encoding="utf-8").split("\n", 1)
        memos.write_text(json.dumps({**json.loads(first), "memo_id": memo_id}) + "\n" + rest)
        before = set(workspace.rglob("*"))
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        assert f"{memos}:1: memo_id {memo_id!r} contains" in caplog.text
        assert not (workspace / "out" / "resolve").exists()
        assert set(workspace.rglob("*")) == before  # ingest stops before writing a file

    def test_memo_file_not_utf8_is_input_error(self, workspace, caplog):
        corpus_dir = use_directory_corpus(workspace, {"CAG-1": b"Title\n\xff\xfe References\n"})
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_INPUT
        assert f"{corpus_dir / 'CAG-1.txt'}: not UTF-8" in caplog.text

    def test_negative_max_retries_is_config_error(self, workspace, caplog):
        # With no attempt allowed, every fallback would fail without a request.
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["remote"] = {"enabled": True, "base_url": "http://127.0.0.1:9/none", "max_retries": -1}
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert "remote.max_retries must be >= 0" in caplog.text
        assert not (workspace / "out").exists()


class TestConfig:
    def test_defaults_applied(self, workspace):
        config = load_config(workspace / "config.yaml")
        assert config.resolver.threshold == 0.55
        assert config.stats.min_obs == 5
        assert config.remote.enabled is False
        assert config.top_k == 3

    def test_paths_resolved_relative_to_config(self, workspace):
        config = load_config(workspace / "config.yaml")
        assert config.corpus_path == workspace / "memos.jsonl"
        assert config.workdir == workspace / "out"

    def test_remote_requires_base_url(self, workspace):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["remote"] = {"enabled": True}
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ConfigError, match="base_url"):
            load_config(path)

    @pytest.mark.parametrize("key", ["enabled", "offline"])
    def test_remote_switches_take_only_booleans(self, workspace, key):
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data["remote"] = {"base_url": "http://localhost:1", key: "false"}
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ConfigError, match=f"remote.{key}"):
            load_config(path)

    @pytest.mark.parametrize(
        "name, make, key",
        [
            ("articles.jsonl", Path.mkdir, "paths.records"),
            ("awards.jsonl", Path.mkdir, "paths.award_db"),
            ("aliases.csv", Path.mkdir, "paths.aliases"),
            ("out", Path.touch, "paths.workdir"),
        ],
        ids=["records-directory", "award-db-directory", "aliases-directory", "workdir-file"],
    )
    def test_path_of_wrong_kind_is_config_error(self, workspace, caplog, name, make, key):
        target = workspace / name
        target.unlink(missing_ok=True)
        make(target)
        assert main(["all", "--config", str(workspace / "config.yaml")]) == EXIT_CONFIG
        assert f"{key} is not a" in caplog.text

    @pytest.mark.parametrize(
        "section, key",
        [("paths", "corpus"), ("paths", "aliases"), ("paths", "workdir"), ("remote", "cache_dir")],
    )
    def test_empty_path_is_config_error(self, workspace, caplog, section, key):
        # An empty path would name the config file's directory: an empty corpus,
        # the bundled alias table or a workdir beside the inputs.
        path = workspace / "config.yaml"
        data = yaml.safe_load(path.read_text())
        data.setdefault(section, {})[key] = ""
        path.write_text(yaml.safe_dump(data))
        assert main(["all", "--config", str(path)]) == EXIT_CONFIG
        assert f"{section}.{key}: expected a path, got ''" in caplog.text
        assert not (workspace / "out").exists()

    def test_canonical_dict_is_stable(self, workspace):
        config = load_config(workspace / "config.yaml")
        assert config.to_canonical_dict() == config.to_canonical_dict()

    def test_directory_corpus_accepted(self, workspace):
        body = b"Title\nReferences\n1. A citation long enough to keep around for the split.\n"
        use_directory_corpus(workspace, {"CAG-1": body})
        assert main(["ingest", "--config", str(workspace / "config.yaml")]) == EXIT_OK
        fragments = (workspace / "out" / "ingest" / "fragments.jsonl").read_text()
        assert "CAG-1" in fragments
