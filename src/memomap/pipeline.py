"""Stage orchestration with content-hash manifests.

Each stage reads the previous stage's artifacts from the working directory,
writes its own under ``workdir/<stage>/``, and records a manifest of config
and input/output hashes. Outputs carry no timestamps, so re-running an
unchanged stage reproduces every byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from . import biblio, corpus, funding, report, resolver, stats
from .config import PipelineConfig
from .remote import RemoteLookupClient
from .stats import DegenerateSampleError, InsufficientDataError

logger = logging.getLogger(__name__)

STAGE_INGEST = "ingest"
STAGE_RESOLVE = "resolve"
STAGE_LINK = "link"
STAGE_STATS = "stats"
STAGE_REPORT = "report"
STAGES = (STAGE_INGEST, STAGE_RESOLVE, STAGE_LINK, STAGE_STATS, STAGE_REPORT)


class StageDependencyError(Exception):
    """An upstream artifact this stage needs is missing."""


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_path(path: Path) -> str:
    if path.is_dir():
        digest = hashlib.sha256()
        for file in sorted(p for p in path.rglob("*") if p.is_file()):
            digest.update(file.relative_to(path).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
        return digest.hexdigest()
    return _sha256_bytes(path.read_bytes())


def _config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(config.to_canonical_dict(), sort_keys=True)
    return _sha256_bytes(canonical.encode("utf-8"))


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise StageDependencyError(f"stage '{stage}' requires missing artifact: {path}")
    return path


# Upstream artifacts already loaded in this process: kind -> (sha256 of the
# file's bytes, loaded object). The key is the content, not the path, so an
# edited file is never served stale, and each kind holds one entry, so a long
# session does not accumulate indexes. This lets `all` parse each artifact once.
_loaded: dict[str, tuple[str, Any]] = {}

_T = TypeVar("_T")


def _load_once(kind: str, path: Path, load: Callable[[Path], _T]) -> tuple[_T, str]:
    """The loaded object and the sha256 of the file's bytes (for the manifest)."""
    digest = _sha256_path(path)
    cached = _loaded.get(kind)
    if cached is None or cached[0] != digest:
        cached = _loaded[kind] = (digest, load(path))
    return cached[1], digest


def _load_articles(path: Path) -> tuple[biblio.BiblioIndex, str]:
    return _load_once("articles", path, lambda p: biblio.ingest_records(p)[0])


def _load_records(path: Path) -> tuple[dict[str, biblio.ArticleRecord], str]:
    """Records by id, without the search index: for stages that only look ids up."""
    return _load_once("records", path, biblio.read_records)


def _load_awards(path: Path) -> tuple[funding.AwardDatabase, str]:
    return _load_once("awards", path, funding.load_award_db)


_K = TypeVar("_K")


def _group(items: Iterable[_T], key: Callable[[_T], _K]) -> dict[_K, list[_T]]:
    """Items in input order, grouped by key."""
    groups: dict[_K, list[_T]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _jsonl_bytes(rows: Iterable[dict]) -> bytes:
    out = io.StringIO()
    for row in rows:
        out.write(json.dumps(row, sort_keys=True, ensure_ascii=True))
        out.write("\n")
    return out.getvalue().encode("utf-8")


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def _write_stage(
    stage: str,
    config: PipelineConfig,
    inputs: dict[str, Path | str],
    outputs: dict[str, bytes],
) -> dict[str, Path]:
    """Write a stage's artifacts plus its manifest; returns written paths.

    Each input is a path to hash, or the sha256 of its bytes when the stage
    already took it while loading, so no input is read twice.
    """
    stage_dir = config.workdir / stage
    stage_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    output_hashes: dict[str, str] = {}
    for name, data in sorted(outputs.items()):
        path = stage_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        written[name] = path
        output_hashes[name] = _sha256_bytes(data)
    manifest = {
        "stage": stage,
        "config_hash": _config_hash(config),
        "inputs": {
            name: source if isinstance(source, str) else _sha256_path(source)
            for name, source in sorted(inputs.items())
        },
        "outputs": output_hashes,
    }
    manifest_path = stage_dir / "manifest.json"
    manifest_path.write_bytes((json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    written["manifest.json"] = manifest_path
    logger.info("stage %s: wrote %d artifacts to %s", stage, len(outputs), stage_dir)
    return written


def _load_aliases(config: PipelineConfig) -> funding.FunderAliasTable:
    if config.aliases_path is None:
        return funding.load_default_aliases(on_unmapped=config.on_unmapped)
    return funding.load_aliases(config.aliases_path, on_unmapped=config.on_unmapped)


def _aliases_bytes(config: PipelineConfig) -> bytes:
    if config.aliases_path is not None:
        return config.aliases_path.read_bytes()
    from importlib import resources

    return resources.files("memomap.data").joinpath("funder_aliases.csv").read_bytes()


def run_ingest(config: PipelineConfig) -> dict[str, Path]:
    """Validate raw inputs and normalize them into workdir artifacts."""
    memos = corpus.load_corpus(config.corpus_path)
    fragments: list[corpus.ReferenceFragment] = []
    for memo in sorted(memos, key=lambda m: m.memo_id):
        memo_fragments = corpus.extract_fragments(memo, config.segmenter)
        if not memo_fragments:
            logger.info("memo %s: no reference fragments found", memo.memo_id)
        fragments.extend(memo_fragments)

    index, index_stats = biblio.ingest_records(config.records_path)
    award_db = funding.load_award_db(config.award_db_path)
    _load_aliases(config)  # validates the alias table early

    outputs = {
        "fragments.jsonl": _jsonl_bytes(corpus.fragment_to_row(f) for f in fragments),
        "articles.jsonl": _jsonl_bytes(biblio.record_to_row(r) for r in index.records()),
        "awards.jsonl": _jsonl_bytes(funding.award_to_row(a) for a in award_db.all_awards()),
        "aliases.csv": _aliases_bytes(config),
        "index_stats.json": (
            json.dumps(
                {"record_count": index_stats.record_count, "token_count": index_stats.token_count},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        ).encode("utf-8"),
    }
    # Rows round-trip to equal records, so later stages reading these bytes
    # may reuse the objects built from the raw inputs.
    articles_digest = _sha256_bytes(outputs["articles.jsonl"])
    _loaded["articles"] = (articles_digest, index)
    _loaded["records"] = (articles_digest, {r.article_id: r for r in index.records()})
    _loaded["awards"] = (_sha256_bytes(outputs["awards.jsonl"]), award_db)
    inputs = {
        "corpus": config.corpus_path,
        "records": config.records_path,
        "award_db": config.award_db_path,
    }
    if config.aliases_path is not None:
        inputs["aliases"] = config.aliases_path
    return _write_stage(STAGE_INGEST, config, inputs, outputs)


def run_resolve(config: PipelineConfig) -> dict[str, Path]:
    """Resolve fragments against the article index; emit coverage."""
    ingest_dir = config.workdir / STAGE_INGEST
    fragments_path = _require(ingest_dir / "fragments.jsonl", STAGE_RESOLVE)
    articles_path = _require(ingest_dir / "articles.jsonl", STAGE_RESOLVE)

    fragments = [corpus.fragment_from_row(row) for row in _read_jsonl(fragments_path)]
    index, articles_digest = _load_articles(articles_path)

    remote_client = None
    if config.remote.enabled:
        remote_client = RemoteLookupClient(config.remote, config.cache_dir())

    results, coverage = resolver.resolve_corpus(fragments, index, config.resolver, remote_client)

    coverage_buffer = io.StringIO()
    writer = csv.writer(coverage_buffer, lineterminator="\n")
    writer.writerow(["memo_id", "fragment_count", "linked_count", "linked_pct"])
    for row in coverage:
        writer.writerow([row.memo_id, row.fragment_count, row.linked_count, str(row.linked_pct)])

    outputs = {
        "resolution.jsonl": _jsonl_bytes(resolver.result_to_row(r) for r in results),
        "coverage.csv": coverage_buffer.getvalue().encode("utf-8"),
    }
    inputs = {"ingest/fragments.jsonl": fragments_path, "ingest/articles.jsonl": articles_digest}
    return _write_stage(STAGE_RESOLVE, config, inputs, outputs)


def run_link(config: PipelineConfig) -> dict[str, Path]:
    """Two-direction article-award linkage for every resolved article."""
    ingest_dir = config.workdir / STAGE_INGEST
    resolve_dir = config.workdir / STAGE_RESOLVE
    resolution_path = _require(resolve_dir / "resolution.jsonl", STAGE_LINK)
    articles_path = _require(ingest_dir / "articles.jsonl", STAGE_LINK)
    awards_path = _require(ingest_dir / "awards.jsonl", STAGE_LINK)
    aliases_path = _require(ingest_dir / "aliases.csv", STAGE_LINK)

    resolution = [resolver.result_from_row(row) for row in _read_jsonl(resolution_path)]
    records, articles_digest = _load_records(articles_path)
    award_db, awards_digest = _load_awards(awards_path)
    aliases = funding.load_aliases(aliases_path, on_unmapped=config.on_unmapped)

    resolved_ids = sorted({r.article_id for r in resolution if r.article_id is not None})
    articles = [records[a] for a in resolved_ids if a in records]
    links = funding.build_links(articles, award_db, aliases)

    outputs = {"links.jsonl": _jsonl_bytes(funding.link_to_row(l) for l in links)}
    inputs = {
        "resolve/resolution.jsonl": resolution_path,
        "ingest/articles.jsonl": articles_digest,
        "ingest/awards.jsonl": awards_digest,
        "ingest/aliases.csv": aliases_path,
    }
    return _write_stage(STAGE_LINK, config, inputs, outputs)


def _shares_csv(rows: list[stats.FunderYearShare]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["entity", "year", "memo_pct", "pool_pct", "diff_pct"])
    for row in rows:
        writer.writerow(
            [row.entity, row.year, str(row.memo_pct), str(row.pool_pct), str(row.diff_pct)]
        )
    return buffer.getvalue().encode("utf-8")


def _tests_csv(results: list[stats.StatResult]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["entity", "n_obs", "median_diff", "ci_lo", "ci_hi", "p_value"])
    for r in results:
        writer.writerow(
            [r.entity, r.n, str(r.median_diff), str(r.ci_lo), str(r.ci_hi), str(r.p_value)]
        )
    return buffer.getvalue().encode("utf-8")


def _memo_entity_lists(
    resolution: list[resolver.ResolutionResult],
    links: list[funding.ArticleAwardLink],
) -> dict[str, tuple[list[list[str]], list[list[str]]]]:
    """Per memo: (funder lists, org lists), one inner list per cited article."""
    links_by_article = _group(links, lambda l: l.article_id)

    memo_articles: dict[str, set[str]] = {}
    for r in resolution:
        if r.article_id is not None:
            memo_articles.setdefault(r.memo_id, set()).add(r.article_id)

    out: dict[str, tuple[list[list[str]], list[list[str]]]] = {}
    for memo_id in sorted(memo_articles):
        funder_lists: list[list[str]] = []
        org_lists: list[list[str]] = []
        for article_id in sorted(memo_articles[memo_id]):
            article_links = links_by_article.get(article_id, [])
            funders = sorted(
                {l.funder_code for l in article_links if l.funder_code != funding.UNMAPPED}
            )
            orgs = sorted({l.org_id for l in article_links if l.org_id is not None})
            funder_lists.append(funders)
            org_lists.append(orgs)
        out[memo_id] = (funder_lists, org_lists)
    return out


def run_stats(config: PipelineConfig) -> dict[str, Path]:
    """Share differences, signed-rank tests, and concentration measures."""
    ingest_dir = config.workdir / STAGE_INGEST
    resolve_dir = config.workdir / STAGE_RESOLVE
    link_dir = config.workdir / STAGE_LINK
    links_path = _require(link_dir / "links.jsonl", STAGE_STATS)
    awards_path = _require(ingest_dir / "awards.jsonl", STAGE_STATS)
    resolution_path = _require(resolve_dir / "resolution.jsonl", STAGE_STATS)

    links = [funding.link_from_row(row) for row in _read_jsonl(links_path)]
    award_db, awards_digest = _load_awards(awards_path)
    resolution = [resolver.result_from_row(row) for row in _read_jsonl(resolution_path)]

    memo_funder_pairs = [
        (l.funder_code, l.imputed_year)
        for l in links
        if l.funder_code != funding.UNMAPPED and l.imputed_year is not None
    ]
    pool_funder_pairs = [(a.funder_code, a.fiscal_year) for a in award_db.all_awards()]
    funder_shares = stats.yearly_shares(
        memo_funder_pairs, pool_funder_pairs, denominator=config.stats.denominator
    )
    funder_results = stats.compute_entity_stats(
        funder_shares, min_obs=config.stats.min_obs, level=config.stats.ci_level
    )

    memo_org_pairs = [
        (l.org_id, l.imputed_year) for l in links if l.org_id is not None and l.imputed_year is not None
    ]
    pool_org_pairs = [
        (a.org_id, a.fiscal_year) for a in award_db.all_awards() if a.org_id is not None
    ]
    if pool_org_pairs:
        org_shares = stats.yearly_shares(
            memo_org_pairs, pool_org_pairs, denominator=config.stats.denominator
        )
        org_results = stats.compute_entity_stats(
            org_shares, min_obs=config.stats.min_obs, level=config.stats.ci_level
        )
    else:
        logger.warning("award database carries no org identities; org shares skipped")
        org_shares, org_results = [], []

    kld_rows = []
    for memo_id, (funder_lists, org_lists) in _memo_entity_lists(resolution, links).items():
        funder_kld = stats.memo_kld(funder_lists)
        org_kld = stats.memo_kld(org_lists)
        if funder_kld is None or org_kld is None:
            logger.info("memo %s: insufficient entity data for concentration, skipped", memo_id)
            continue
        kld_rows.append(
            stats.KLDRecord(
                memo_id=memo_id,
                kld_funders=funder_kld[0],
                kld_orgs=org_kld[0],
                n_entities_f=funder_kld[1],
                n_entities_ro=org_kld[1],
            )
        )

    kld_buffer = io.StringIO()
    writer = csv.writer(kld_buffer, lineterminator="\n")
    writer.writerow(["memo_id", "kld_f", "kld_ro", "n_f", "n_ro"])
    for row in kld_rows:
        writer.writerow(
            [row.memo_id, str(row.kld_funders), str(row.kld_orgs), row.n_entities_f, row.n_entities_ro]
        )

    comparison: dict
    try:
        paired = stats.paired_wilcoxon(
            [r.kld_funders for r in kld_rows],
            [r.kld_orgs for r in kld_rows],
            level=config.stats.ci_level,
        )
        comparison = {
            "n": paired.n,
            "pseudo_median_diff": paired.pseudo_median,
            "ci_lo": paired.ci_lo,
            "ci_hi": paired.ci_hi,
            "p_value": paired.p_value,
        }
    except (DegenerateSampleError, InsufficientDataError, stats.StatsError) as exc:
        logger.warning("paired concentration comparison unavailable: %s", exc)
        comparison = {"n": len(kld_rows), "error": str(exc)}

    outputs = {
        "shares_funders.csv": _shares_csv(funder_shares),
        "shares_orgs.csv": _shares_csv(org_shares),
        "tests_funders.csv": _tests_csv(funder_results),
        "tests_orgs.csv": _tests_csv(org_results),
        "kld.csv": kld_buffer.getvalue().encode("utf-8"),
        "kld_comparison.json": (json.dumps(comparison, sort_keys=True, indent=2) + "\n").encode(
            "utf-8"
        ),
    }
    inputs = {
        "link/links.jsonl": links_path,
        "ingest/awards.jsonl": awards_digest,
        "resolve/resolution.jsonl": resolution_path,
    }
    return _write_stage(STAGE_STATS, config, inputs, outputs)


def _read_stat_results(path: Path) -> list[stats.StatResult]:
    results = []
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            results.append(
                stats.StatResult(
                    entity=row["entity"],
                    n=int(row["n_obs"]),
                    median_diff=float(row["median_diff"]),
                    ci_lo=float(row["ci_lo"]),
                    ci_hi=float(row["ci_hi"]),
                    p_value=float(row["p_value"]),
                )
            )
    return results


def _read_coverage(path: Path) -> list[resolver.CoverageStats]:
    coverage = []
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            coverage.append(
                resolver.CoverageStats(
                    memo_id=row["memo_id"],
                    fragment_count=int(row["fragment_count"]),
                    linked_count=int(row["linked_count"]),
                )
            )
    return coverage


def run_report(config: PipelineConfig, memo_id: str | None = None) -> dict[str, Path]:
    """Tables, per-memo flow diagrams, retraction flags, coverage report."""
    ingest_dir = config.workdir / STAGE_INGEST
    resolve_dir = config.workdir / STAGE_RESOLVE
    link_dir = config.workdir / STAGE_LINK
    stats_dir = config.workdir / STAGE_STATS
    links_path = _require(link_dir / "links.jsonl", STAGE_REPORT)
    resolution_path = _require(resolve_dir / "resolution.jsonl", STAGE_REPORT)
    coverage_path = _require(resolve_dir / "coverage.csv", STAGE_REPORT)
    articles_path = _require(ingest_dir / "articles.jsonl", STAGE_REPORT)
    tests_funders_path = _require(stats_dir / "tests_funders.csv", STAGE_REPORT)
    tests_orgs_path = _require(stats_dir / "tests_orgs.csv", STAGE_REPORT)

    links = [funding.link_from_row(row) for row in _read_jsonl(links_path)]
    resolution = [resolver.result_from_row(row) for row in _read_jsonl(resolution_path)]
    coverage = _read_coverage(coverage_path)
    records, articles_digest = _load_records(articles_path)
    funder_stats = _read_stat_results(tests_funders_path)
    org_stats = _read_stat_results(tests_orgs_path)

    funder_table, recipient_table = report.emit_tables(links, funder_stats, org_stats)
    flags = report.flag_retracted(resolution, records)
    scatter_csv, summary_csv = report.coverage_report(coverage)

    flags_buffer = io.StringIO()
    writer = csv.writer(flags_buffer, lineterminator="\n")
    writer.writerow(["memo_id", "article_id", "note"])
    for flag in flags:
        writer.writerow([flag.memo_id, flag.article_id, flag.note])

    rows_by_memo = _group(resolution, lambda r: r.memo_id)
    memo_ids = sorted(rows_by_memo)
    if memo_id is not None:
        if memo_id not in rows_by_memo:
            raise StageDependencyError(f"stage 'report': memo {memo_id!r} not in resolution")
        memo_ids = [memo_id]

    outputs = {
        "funder_table.csv": funder_table.encode("utf-8"),
        "recipient_table.csv": recipient_table.encode("utf-8"),
        "retraction_flags.csv": flags_buffer.getvalue().encode("utf-8"),
        "coverage_scatter.csv": scatter_csv.encode("utf-8"),
        "coverage_summary.csv": summary_csv.encode("utf-8"),
    }
    links_by_article = _group(links, lambda l: l.article_id)
    for mid in memo_ids:
        rows = rows_by_memo[mid]
        cited = sorted({r.article_id for r in rows if r.article_id is not None})
        memo_links = [l for a in cited for l in links_by_article.get(a, ())]
        graph = report.build_flow_graph(mid, memo_links, rows, top_k=config.top_k)
        outputs[f"sankey/{mid}.json"] = report.emit_sankey(graph, "json")
        outputs[f"sankey/{mid}.svg"] = report.emit_sankey(graph, "svg")

    inputs = {
        "link/links.jsonl": links_path,
        "resolve/resolution.jsonl": resolution_path,
        "resolve/coverage.csv": coverage_path,
        "ingest/articles.jsonl": articles_digest,
        "stats/tests_funders.csv": tests_funders_path,
        "stats/tests_orgs.csv": tests_orgs_path,
    }
    return _write_stage(STAGE_REPORT, config, inputs, outputs)


def run_all(config: PipelineConfig, memo_id: str | None = None) -> dict[str, Path]:
    written: dict[str, Path] = {}
    for name, path in run_ingest(config).items():
        written[f"{STAGE_INGEST}/{name}"] = path
    for name, path in run_resolve(config).items():
        written[f"{STAGE_RESOLVE}/{name}"] = path
    for name, path in run_link(config).items():
        written[f"{STAGE_LINK}/{name}"] = path
    for name, path in run_stats(config).items():
        written[f"{STAGE_STATS}/{name}"] = path
    for name, path in run_report(config, memo_id).items():
        written[f"{STAGE_REPORT}/{name}"] = path
    return written
