from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from memomap.biblio import ArticleRecord, GrantTag, ingest_records, read_records
from memomap.funding import Award, FunderAliasTable, build_links, load_aliases
from memomap.resolver import cited_articles


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's input generator, loaded by path
    (it imports nothing from the package)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")
    return path


def article_row(article_id: str, title: str, **kwargs) -> dict:
    row = {
        "article_id": article_id,
        "title": title,
        "authors": kwargs.pop("authors", ["Smith JA"]),
        "journal": kwargs.pop("journal", "J Test Med"),
        "pub_year": kwargs.pop("pub_year", 2005),
    }
    row.update(kwargs)
    return row


def cited_links(memo_id, links, resolution) -> list:
    """The links of the articles ``memo_id`` cites, in input order: what
    ``report.build_flow_graph`` expects, with the citations taken from
    ``resolver.cited_articles``."""
    cited = set(cited_articles(resolution).get(memo_id, ()))
    return [link for link in links if link.article_id in cited]


def imputed_award(awards: list[Award], core: str, pub_year: int) -> tuple[str | None, int]:
    """The full project number and year ``build_links`` imputes for the one link
    of an article published in ``pub_year`` whose one grant tag names ``core``."""
    record = ArticleRecord("A1", "T", (), "J", pub_year, grant_tags=(GrantTag(core, "NCI"),))
    [link] = build_links([record], awards, FunderAliasTable({"NCI": "NCI"}), "warn")
    return link.imputed_full_project, link.imputed_year


@pytest.fixture
def small_records(tmp_path):
    rows = [
        article_row(
            "1001",
            "Cardiac outcomes after elective revascularization",
            authors=["Adams JQ", "Brown TL"],
            journal="N Engl J Med",
            pub_year=2004,
        ),
        article_row(
            "1002",
            "Long term dialysis survival in elderly cohorts",
            authors=["Baker RS"],
            journal="JAMA",
            pub_year=2001,
        ),
        article_row(
            "1003",
            "Amyloid imaging in early dementia",
            authors=["Edwards PL", "Fisher A"],
            journal="Lancet Neurol",
            pub_year=2012,
            retracted=True,
        ),
    ]
    return read_records(write_jsonl(tmp_path / "small_records.jsonl", rows))


@pytest.fixture
def small_index(small_records):
    return ingest_records(small_records)


@pytest.fixture
def alias_csv(tmp_path):
    path = tmp_path / "alias_table.csv"
    path.write_text(
        "raw_name,canonical_code\n"
        "National Cancer Institute,NCI\n"
        "NCI,NCI\n"
        "National Heart Lung and Blood Institute,NHLBI\n"
        "NHLBI,NHLBI\n"
        "National Institute on Aging,NIA\n"
        "NIA,NIA\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def aliases(alias_csv):
    return load_aliases(alias_csv)


def alias_codes(path: Path) -> set[str]:
    """The canonical codes an alias CSV maps to."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return {row.split(",")[1] for row in rows}


@pytest.fixture
def award_db():
    return [
        Award("R01CA031770-01", "R01CA031770", "NCI", 2001, "075700000", "Duke University", ("1001",)),
        Award("R01CA031770-03", "R01CA031770", "NCI", 2003, "075700000", "Duke University", ()),
        Award("R01CA031770-04", "R01CA031770", "NCI", 2004, "075700000", "Duke University", ()),
        Award("R01CA031770-06", "R01CA031770", "NCI", 2006, "075700000", "Duke University", ()),
        Award("R01HL040050-01", "R01HL040050", "NHLBI", 1998, "049800000", "Mayo Clinic", ("1001", "1002")),
        Award("K23AG012345-02", "K23AG012345", "NIA", 2010, None, None, ("1003",)),
    ]
