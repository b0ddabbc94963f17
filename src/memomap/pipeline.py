"""Stage orchestration over declared artifacts, with content-hash manifests.

Each stage artifact is declared once below: its path under the working
directory, its row type, and its CSV columns or the JSONL fields left out
when None. So is each raw input: the memo corpus, which only ``ingest``
reads, and the article records, the award database and the funder alias
table, which ``ingest`` checks and hashes but does not copy and later stages
read again. Every stage after ``ingest`` is a ``run_*`` function that names
the inputs it reads and a compute function, which maps their objects to the
files the stage writes and reads and writes no stage file itself. One
runner, ``_run``, does the rest: a single-stage command reads the inputs
through the artifact layer, a raw input only while its digest is the one in
``ingest``'s manifest. ``ingest`` parses the raw inputs, then finishes like
every other stage in ``_write_stage``: it writes the files under
``workdir/<stage>/``, hashing each chunk as it writes it, removes the files
there that it did not write, and records a manifest of the config hash and
the sha256 of each input and output. One hand-on rule holds for every
stage: under ``run_all`` it hands on every input it got and every artifact
it wrote, as objects and digest, so no later stage reads back a file. The
config hash leaves out every path and outputs carry no timestamps, so
re-running an unchanged stage reproduces every byte, however the config
file's path is spelled.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from . import biblio, corpus, funding, report, resolver, stats
from .artifacts import Artifact, Loaded, RawInput, StageDependencyError
from .config import PipelineConfig
from .remote import RemoteLookupClient

logger = logging.getLogger(__name__)


# The loaders look the parsers up on each call, so a wrapper bound in their place runs.
CORPUS = RawInput("corpus", "corpus_path", lambda path, digest: corpus.load_corpus(path, digest))
RECORDS = RawInput(
    "records", "records_path", lambda path, digest: biblio.read_records(path, digest)
)
AWARD_DB = RawInput(
    "award_db", "award_db_path", lambda path, digest: funding.load_award_db(path, digest)
)
ALIASES = RawInput(
    "aliases", "aliases_path", lambda path, digest: funding.load_aliases(path, digest)
)
FRAGMENTS = Artifact("ingest/fragments.jsonl", corpus.ReferenceFragment)
RESOLUTION = Artifact(
    "resolve/resolution.jsonl", resolver.ResolutionResult, omit_none=("article_id", "score")
)
COVERAGE = Artifact(
    "resolve/coverage.csv",
    resolver.CoverageStats,
    ("memo_id", "fragment_count", "linked_count", "linked_pct"),
)
LINKS = Artifact("link/links.jsonl", funding.ArticleAwardLink, omit_none=("org_id", "org_name"))
_SHARE_COLUMNS = ("entity", "year", "memo_pct", "pool_pct", "diff_pct")
SHARES_FUNDERS = Artifact("stats/shares_funders.csv", stats.FunderYearShare, _SHARE_COLUMNS)
SHARES_ORGS = Artifact("stats/shares_orgs.csv", stats.FunderYearShare, _SHARE_COLUMNS)
_TEST_COLUMNS = ("entity", "n_obs=n", "median_diff", "ci_lo", "ci_hi", "p_value")
TESTS_FUNDERS = Artifact("stats/tests_funders.csv", stats.StatResult, _TEST_COLUMNS)
TESTS_ORGS = Artifact("stats/tests_orgs.csv", stats.StatResult, _TEST_COLUMNS)
KLD = Artifact(
    "stats/kld.csv",
    stats.KLDRecord,
    ("memo_id", "kld_f=kld_funders", "kld_ro=kld_orgs", "n_f=n_entities_f", "n_ro=n_entities_ro"),
)
FLAGS = Artifact(
    "resolve/retraction_flags.csv", report.RetractionFlag, ("memo_id", "article_id", "note")
)


def _json_document(document: dict) -> bytes:
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(config.to_canonical_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_T = TypeVar("_T")
_K = TypeVar("_K")


def _group(items: Iterable[_T], key: Callable[[_T], _K]) -> dict[_K, list[_T]]:
    """Items in input order, grouped by key."""
    groups: dict[_K, list[_T]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


# What `run_all` hands from stage to stage: each input's objects and digest.
# A stage given one takes its inputs from it and puts there every input it
# got and every artifact it wrote; a stage run on its own reads its inputs
# from the working directory and the raw files.
Input = Artifact | RawInput
Upstream = dict[Input, Loaded]
# A stage's files: an Artifact key holds the rows to write, a name holds bytes.
Outputs = dict[Artifact | str, Any]


def _write_stage(
    stage: str,
    config: PipelineConfig,
    loaded: list[Loaded],
    outputs: Outputs,
    upstream: Upstream | None,
) -> dict[str, Path]:
    """Write a stage's files and manifest, remove its other files, hand on.

    ``loaded`` holds the stage's inputs, whose digests the manifest records.
    With ``upstream`` (``run_all``), every input and every artifact written
    is handed on there, as objects equal to what the files read back into.
    Returns the written paths, manifest included.
    """
    stage_dir = config.workdir / stage
    written: dict[str, Path] = {}
    digests: dict[str, str] = {}
    for key, value in outputs.items():
        name = key.name if isinstance(key, Artifact) else key
        path = written[name] = stage_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        with path.open("wb") as fh:
            for chunk in key.encode(value) if isinstance(key, Artifact) else [value]:
                digest.update(chunk)
                fh.write(chunk)
        digests[name] = digest.hexdigest()
    manifest = {
        "stage": stage,
        "config_hash": _config_hash(config),
        "inputs": dict(sorted((_key(item.artifact), item.digest) for item in loaded)),
        "outputs": digests,
    }
    manifest_path = stage_dir / "manifest.json"
    manifest_path.write_bytes(_json_document(manifest))
    written["manifest.json"] = manifest_path
    # Files from an earlier run (another memo's flow diagrams) would pass
    # for this run's outputs.
    keep = {str(path) for path in written.values()}
    for root, _, names in os.walk(stage_dir):
        for name in names:
            if os.path.join(root, name) not in keep:
                os.remove(os.path.join(root, name))
    logger.info("stage %s: wrote %d artifacts to %s", stage, len(outputs), stage_dir)
    if upstream is not None:
        upstream.update((item.artifact, item) for item in loaded)
        for key, value in outputs.items():
            if isinstance(key, Artifact):
                upstream[key] = Loaded(key, value, digests[key.name])
    return written


def _key(item: Input) -> str:
    """An input's key in the manifests: an artifact's path, a raw input's name."""
    return item.path if isinstance(item, Artifact) else item.key


def _ingested(config: PipelineConfig) -> dict[str, Any]:
    """The raw input digests that ``ingest`` recorded in its manifest."""
    path = config.workdir / "ingest" / "manifest.json"
    try:
        return dict(json.loads(path.read_bytes())["inputs"])
    except FileNotFoundError:
        raise StageDependencyError(f"missing manifest {path}; run stage 'ingest' first") from None
    except (ValueError, KeyError, TypeError):  # not JSON, or no inputs mapping
        raise StageDependencyError(f"{path}: not a stage manifest") from None


def _read(config: PipelineConfig, inputs: tuple[Input, ...]) -> list[Loaded]:
    """Each input read from disk in order, raw inputs checked against the digests in
    ``ingest``'s manifest, which is read at the first of them."""
    loaded: list[Loaded] = []
    ingested = None
    for item in inputs:
        if isinstance(item, Artifact):
            loaded.append(item.read(config))
        else:
            ingested = ingested if ingested is not None else _ingested(config)
            loaded.append(item.read(config, ingested))
    return loaded


def _run(
    stage: str,
    inputs: tuple[Input, ...],
    compute: Callable[..., Outputs],
    config: PipelineConfig,
    upstream: Upstream | None,
    *extra: Any,
) -> dict[str, Path]:
    """Run a stage: take or read its inputs, compute, write and hand on.

    ``compute(config, *objects, *extra)`` gets the objects of ``inputs`` in
    the order declared. It neither reads nor writes a stage file; this
    runner does both for it.
    """
    loaded = [upstream[i] for i in inputs] if upstream is not None else _read(config, inputs)
    outputs = compute(config, *(item.objects for item in loaded), *extra)
    return _write_stage(stage, config, loaded, outputs, upstream)


def run_ingest(config: PipelineConfig, *, upstream: Upstream | None = None) -> dict[str, Path]:
    """Validate raw inputs, record their digests and extract the reference fragments."""
    raw = [item.parse(config) for item in (CORPUS, RECORDS, AWARD_DB, ALIASES)]
    fragments: list[corpus.ReferenceFragment] = []
    without: list[str] = []
    for memo in sorted(raw[0].objects, key=lambda m: m.memo_id):
        memo_fragments = corpus.extract_fragments(memo, config.segmenter)
        if not memo_fragments:
            without.append(memo.memo_id)
        fragments.extend(memo_fragments)
    if without:
        logger.info("%d memos without reference fragments: %s", len(without), ", ".join(without))
    return _write_stage("ingest", config, raw, {FRAGMENTS: fragments}, upstream)


def _resolve(config: PipelineConfig, fragments, records) -> Outputs:
    index = biblio.ingest_records(records)
    client = None
    if config.remote.enabled:
        client = RemoteLookupClient(config.remote, config.cache_dir())
    results, coverage = resolver.resolve_corpus(fragments, index, config.resolver, client)
    if client is not None and client.offline_misses:
        logger.info("offline mode: %d remote cache misses, lookups skipped", client.offline_misses)
    return {
        RESOLUTION: results,
        COVERAGE: coverage,
        FLAGS: report.flag_retracted(results, records),
        "index_stats.json": _json_document(
            {"record_count": len(index), "token_count": index.token_count}
        ),
    }


def run_resolve(config: PipelineConfig, *, upstream: Upstream | None = None) -> dict[str, Path]:
    """Build the article index, resolve fragments against it; emit coverage and retractions."""
    return _run("resolve", (FRAGMENTS, RECORDS), _resolve, config, upstream)


def _link(config: PipelineConfig, resolution, records, awards, aliases) -> Outputs:
    cited = [records[a] for a in {r.article_id for r in resolution} if a in records]
    return {LINKS: funding.build_links(cited, awards, aliases, config.on_unmapped)}


def run_link(config: PipelineConfig, *, upstream: Upstream | None = None) -> dict[str, Path]:
    """Article-award linkage for every resolved article."""
    return _run("link", (RESOLUTION, RECORDS, AWARD_DB, ALIASES), _link, config, upstream)


def _stats(config: PipelineConfig, links, awards, resolution) -> Outputs:
    options = config.stats

    def shares_and_tests(memo_pairs: list, pool_pairs: list) -> tuple[list, list]:
        shares = stats.yearly_shares(memo_pairs, pool_pairs, denominator=options.denominator)
        tests = stats.compute_entity_stats(shares, min_obs=options.min_obs, level=options.ci_level)
        return shares, tests

    dated = [l for l in links if l.imputed_year is not None]
    funder_shares, funder_results = shares_and_tests(
        [(l.funder_code, l.imputed_year) for l in dated if l.funder_code != funding.UNMAPPED],
        [(a.funder_code, a.fiscal_year) for a in awards],
    )
    pool_org_pairs = [(a.org_id, a.fiscal_year) for a in awards if a.org_id is not None]
    if pool_org_pairs:
        org_shares, org_results = shares_and_tests(
            [(l.org_id, l.imputed_year) for l in dated if l.org_id is not None], pool_org_pairs
        )
    else:
        logger.warning("award database carries no org identities; org shares skipped")
        org_shares, org_results = [], []

    links_by_article = _group(links, lambda l: l.article_id)
    kld_rows, skipped = [], []
    for memo_id, article_ids in resolver.cited_articles(resolution).items():
        if not article_ids:
            continue
        groups = [links_by_article.get(a, ()) for a in article_ids]
        # Each cited article's entity set; memo_kld orders the entities itself.
        funders = stats.memo_kld({l.funder_code for l in g} - {funding.UNMAPPED} for g in groups)
        orgs = stats.memo_kld({l.org_id for l in g} - {None} for g in groups)
        if funders is None or orgs is None:
            skipped.append(memo_id)
            continue
        kld_rows.append(stats.KLDRecord(memo_id, funders[0], orgs[0], funders[1], orgs[1]))
    if skipped:
        memos = ", ".join(skipped)
        logger.info("%d memos without entity data, no concentration: %s", len(skipped), memos)

    comparison: dict
    try:
        paired = stats.paired_wilcoxon(
            [r.kld_funders for r in kld_rows],
            [r.kld_orgs for r in kld_rows],
            level=options.ci_level,
        )
        comparison = {
            "n": paired.n,
            "pseudo_median_diff": paired.pseudo_median,
            "ci_lo": paired.ci_lo,
            "ci_hi": paired.ci_hi,
            "p_value": paired.p_value,
        }
    except stats.StatsError as exc:  # a degenerate or too small sample included
        logger.warning("paired concentration comparison unavailable: %s", exc)
        comparison = {"n": len(kld_rows), "error": str(exc)}

    return {
        SHARES_FUNDERS: funder_shares,
        SHARES_ORGS: org_shares,
        TESTS_FUNDERS: funder_results,
        TESTS_ORGS: org_results,
        KLD: kld_rows,
        "kld_comparison.json": _json_document(comparison),
    }


def run_stats(config: PipelineConfig, *, upstream: Upstream | None = None) -> dict[str, Path]:
    """Share differences, signed-rank tests, and concentration measures."""
    return _run("stats", (LINKS, AWARD_DB, RESOLUTION), _stats, config, upstream)


def _report(
    config: PipelineConfig, links, resolution, coverage, tests_funders, tests_orgs, memo_id
) -> Outputs:
    funder_table, recipient_table = report.emit_tables(links, tests_funders, tests_orgs)
    scatter_csv, summary_csv = report.coverage_report(coverage)

    cited = resolver.cited_articles(resolution)
    memo_ids = list(cited)
    if memo_id is not None:
        if memo_id not in cited:
            raise StageDependencyError(f"stage 'report': memo {memo_id!r} not in resolution")
        memo_ids = [memo_id]

    outputs: Outputs = {
        "funder_table.csv": funder_table.encode("utf-8"),
        "recipient_table.csv": recipient_table.encode("utf-8"),
        "coverage_scatter.csv": scatter_csv.encode("utf-8"),
        "coverage_summary.csv": summary_csv.encode("utf-8"),
    }
    links_by_article = _group(links, lambda l: l.article_id)
    for mid in memo_ids:
        memo_links = [l for a in cited[mid] for l in links_by_article.get(a, ())]
        graph = report.build_flow_graph(mid, memo_links, top_k=config.top_k)
        outputs[f"sankey/{mid}.json"], outputs[f"sankey/{mid}.svg"] = report.emit_sankey(graph)
    return outputs


def run_report(
    config: PipelineConfig, memo_id: str | None = None, *, upstream: Upstream | None = None
) -> dict[str, Path]:
    """Tables, per-memo flow diagrams, coverage report."""
    inputs = (LINKS, RESOLUTION, COVERAGE, TESTS_FUNDERS, TESTS_ORGS)
    return _run("report", inputs, _report, config, upstream, memo_id)


def run_all(config: PipelineConfig, memo_id: str | None = None) -> None:
    """Every stage in order, each taking the objects the stages before it made."""
    upstream: Upstream = {}
    run_ingest(config, upstream=upstream)
    run_resolve(config, upstream=upstream)
    run_link(config, upstream=upstream)
    run_stats(config, upstream=upstream)
    run_report(config, memo_id, upstream=upstream)
