"""Stage orchestration over declared artifacts, with content-hash manifests.

Each stage artifact is declared once below: its path under the working
directory, its row type, and its CSV columns or the JSONL fields left out
when None. So is each raw input: the memo corpus, which only ``ingest``
reads, and the article records, the award database and the funder alias
table, which ``ingest`` checks and hashes but does not copy and later stages
read again. ``STAGES`` lists the stages in run order, each with its name, CLI
help line, the inputs it reads and a compute function, which maps their
objects to the files the stage writes and reads and writes no stage file
itself; the CLI, ``run_all`` and every ``run_<stage>`` derive from it. One
runner, ``_run``, does the rest for every stage: it reads the inputs through
the artifact layer (``ingest`` parses the raw inputs, a later stage reads one
only while its digest is the one in ``ingest``'s manifest), then writes the
files under ``workdir/<stage>/``, hashing each chunk as it writes it,
removes the files there that it did not write, and records a manifest of
the config hash and the sha256 of each input and output. One hand-on rule
holds for every stage: under ``run_all`` it hands on every input it got and
every artifact it wrote, as objects and digest, so no later stage reads back
a file. The config hash leaves out every path and outputs carry no
timestamps, so re-running an unchanged stage reproduces every byte, however
the config file's path is spelled.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, TypeVar

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


class Stage(NamedTuple):
    """A stage: ``compute(config, *objects)`` maps the objects of ``inputs`` to its files."""

    name: str
    help: str  # the CLI subcommand's help line
    inputs: tuple[Input, ...]
    compute: Callable[..., Outputs]
    memo: bool = False  # takes --memo: restrict flow diagrams to one memo


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


def _read(config: PipelineConfig, stage: Stage) -> list[Loaded]:
    """Each input read from disk in order. ``ingest`` parses the raw inputs; a later
    stage checks each against the digests in ``ingest``'s manifest, read at the first."""
    if stage.name == "ingest":
        return [item.parse(config) for item in stage.inputs]
    loaded: list[Loaded] = []
    ingested = None
    for item in stage.inputs:
        if isinstance(item, Artifact):
            loaded.append(item.read(config))
        else:
            ingested = ingested if ingested is not None else _ingested(config)
            loaded.append(item.read(config, ingested))
    return loaded


def _run(
    stage: Stage,
    config: PipelineConfig,
    memo_id: str | None = None,
    *,
    upstream: Upstream | None = None,
) -> dict[str, Path]:
    """Run a stage: take or read its inputs, compute, write its files and
    manifest, remove its other files, hand on.

    ``stage.compute(config, *objects)`` gets the objects of ``stage.inputs``
    in the order declared, and ``memo_id`` when one is given; it neither
    reads nor writes a stage file. The manifest records the digest of each
    input and output. With ``upstream`` (``run_all``), the inputs are taken
    from there once it holds any (``ingest`` parses its own), and every input
    and every artifact written is handed on there, as objects equal to what
    the files read back into. Returns the written paths, manifest included.
    """
    started = time.perf_counter()
    loaded = [upstream[i] for i in stage.inputs] if upstream else _read(config, stage)
    options = {"memo_id": memo_id} if memo_id is not None else {}
    outputs = stage.compute(config, *(item.objects for item in loaded), **options)
    stage_dir = config.workdir / stage.name
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
        "stage": stage.name,
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
    message = "stage %s: wrote %d artifacts to %s in %.2f s"
    logger.info(message, stage.name, len(outputs), stage_dir, time.perf_counter() - started)
    if upstream is not None:
        upstream.update((item.artifact, item) for item in loaded)
        for key, value in outputs.items():
            if isinstance(key, Artifact):
                upstream[key] = Loaded(key, value, digests[key.name])
    return written


def _ingest(config: PipelineConfig, memos, records, awards, aliases) -> Outputs:
    """Extract the reference fragments; the other raw inputs are only checked and hashed."""
    fragments: list[corpus.ReferenceFragment] = []
    without: list[str] = []
    for memo in sorted(memos, key=lambda m: m.memo_id):
        memo_fragments = corpus.extract_fragments(memo, config.segmenter)
        if not memo_fragments:
            without.append(memo.memo_id)
        fragments.extend(memo_fragments)
    if without:
        logger.info("%d memos without reference fragments: %s", len(without), ", ".join(without))
    return {FRAGMENTS: fragments}


def _resolve(config: PipelineConfig, fragments, records) -> Outputs:
    """Build the article index, resolve fragments against it, flag cited retracted articles."""
    index = biblio.ingest_records(records)
    logger.info("article index: %d records, %d tokens", len(index), index.token_count)
    client = None
    if config.remote.enabled:
        client = RemoteLookupClient(config.remote, config.cache_dir())
    results = resolver.resolve_corpus(fragments, index, config.resolver, client)
    if client is not None and client.offline_misses:
        logger.info("offline mode: %d remote cache misses, lookups skipped", client.offline_misses)
    return {RESOLUTION: results, FLAGS: report.flag_retracted(results, records)}


def _link(config: PipelineConfig, resolution, records, awards, aliases) -> Outputs:
    """Article-award linkage for every resolved article."""
    cited = [records[a] for a in {r.article_id for r in resolution} if a in records]
    return {LINKS: funding.build_links(cited, awards, aliases, config.on_unmapped)}


def _stats(config: PipelineConfig, links, awards, resolution) -> Outputs:
    """Share differences, signed-rank tests, and concentration measures."""
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


def _report(
    config: PipelineConfig, links, resolution, tests_funders, tests_orgs, memo_id=None
) -> Outputs:
    """Funder and recipient tables, per-memo flow diagrams, coverage from the resolution rows."""
    funder_table, recipient_table = report.emit_tables(links, tests_funders, tests_orgs)
    scatter_csv, summary_csv = report.coverage_report(resolution)

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


# The stages in run order.
STAGES = (
    Stage("ingest", "validate inputs and extract reference fragments",
          (CORPUS, RECORDS, AWARD_DB, ALIASES), _ingest),
    Stage("resolve", "match fragments to article records and flag retracted citations",
          (FRAGMENTS, RECORDS), _resolve),
    Stage("link", "link resolved articles to funding awards",
          (RESOLUTION, RECORDS, AWARD_DB, ALIASES), _link),
    Stage("stats", "compute shares, signed-rank tests, and concentration",
          (LINKS, AWARD_DB, RESOLUTION), _stats),
    Stage("report", "emit funder and recipient tables, flow diagrams, and coverage",
          (LINKS, RESOLUTION, TESTS_FUNDERS, TESTS_ORGS), _report, memo=True),
)
run_ingest, run_resolve, run_link, run_stats, run_report = (partial(_run, s) for s in STAGES)


def run_all(config: PipelineConfig, memo_id: str | None = None) -> None:
    """Every stage in order, each taking the objects the stages before it made."""
    upstream: Upstream = {}
    for stage in STAGES:
        # Looked up on each call, so a wrapper bound in its place is what runs.
        run = globals()[f"run_{stage.name}"]
        run(config, **({"memo_id": memo_id} if stage.memo else {}), upstream=upstream)
