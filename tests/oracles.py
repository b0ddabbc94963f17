"""Independent reference implementations the tests check the package against.

These deliberately avoid the package's own code paths: the signed-rank
oracles rank by ``Fraction`` midranks, each counted from the values below
and equal to it, and either list the rank sum of every sign pattern or
convolve a dict of sums one rank at a time; the share oracle recomputes
each entity's yearly share differences as ``Fraction``s from the links and
award rows; the year-imputation oracle applies the
selection rule as explicit filter passes, the linkage oracle builds
half-filled draft links from both directions and merges them per core, as
``funding.build_links`` did before it made each link in one pass, the
record-token oracle normalizes each field again for each view, as the four
``ArticleRecord`` token methods did, the search oracle scores every record
against the query and sorts them all, the score oracle takes a record's
views from the record-token oracle on every call, the resolution oracle
ranks each fragment's candidates with those two, and the flow-graph and
entity-weight oracles sum ``Fraction``s over every link and resolution row, as the first
implementation did, and read a graph's integer weights as the
``Fraction``s they stand for. The codec
oracle decodes a row with a loop over a per-field plan and the row type's
keyword ``__init__``, checking a float for finiteness after it converts
it, and writes a JSONL row with ``sort_keys``, as
``artifacts`` did before it built rows positionally and sorted each row
type's keys once. The retraction oracle joins every resolved (memo, article)
pair against the records in one set, as ``report.flag_retracted`` did before
it took each memo's citations from ``resolver.cited_articles``. The coverage
oracle counts each memo's fragments and linked fragments into one row per
memo first, as ``resolve`` did for the ``resolve/coverage.csv`` that
``report`` read before it counted the resolution rows itself.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import json
import math
import statistics
import types
from dataclasses import MISSING, fields, is_dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, get_args, get_origin, get_type_hints

from memomap.artifacts import DecodeError

from memomap.biblio import ArticleRecord
from memomap.corpus import ReferenceFragment, normalize_fragment
from memomap.funding import (
    SOURCE_ARTICLE,
    SOURCE_AWARD_DB,
    ArticleAwardLink,
    Award,
    FunderAliasTable,
    parse_core_project,
)
from memomap.report import (
    KIND_FUNDER,
    KIND_MEMO,
    KIND_ORG,
    KIND_OTHER,
    KIND_UNKNOWN,
    OTHER_ORG_ID,
    UNKNOWN_ORG_ID,
    FlowEdge,
    FlowGraph,
    FlowNode,
    RetractionFlag,
)
from memomap.resolver import (
    METHOD_LEXICAL,
    METHOD_UNRESOLVED,
    ResolutionResult,
    ResolverConfig,
    fragment_years,
)


def oracle_midranks(values: list) -> list[Fraction]:
    """Each value's rank, tied values sharing the mean of the ranks they span:
    the count of values below it plus the mean of 1..k over the k equal to it."""
    return [
        sum(v < x for v in values) + Fraction(sum(v == x for v in values) + 1, 2)
        for x in values
    ]


def _signed_ranks(xs: list) -> tuple[list[Fraction], Fraction]:
    """The midranks of the nonzero ``xs``' magnitudes and the positive ones' sum."""
    diffs = [x for x in xs if x != 0]
    ranks = oracle_midranks([abs(d) for d in diffs])
    return ranks, sum((r for r, d in zip(ranks, diffs) if d > 0), Fraction(0))


def _two_sided_p(null: Mapping[Fraction, int], observed: Fraction, n: int) -> float:
    at_most = sum(c for w, c in null.items() if w <= observed)
    at_least = sum(c for w, c in null.items() if w >= observed)
    return min(2 * min(at_most, at_least), 2**n) / 2**n


def enumeration_p(xs: list) -> float:
    """Two-sided signed-rank p-value from the positive-rank sum of each of the
    2^n sign patterns. ``xs`` may hold ties and be ``Fraction``s."""
    ranks, observed = _signed_ranks(xs)
    sums = [Fraction(0)]
    for rank in ranks:
        sums += [w + rank for w in sums]
    return _two_sided_p(collections.Counter(sums), observed, len(ranks))


def convolution_p(xs: list) -> float:
    """``enumeration_p`` from a {sum: count} null grown one rank at a time, for
    samples too large to list every sign pattern of."""
    ranks, observed = _signed_ranks(xs)
    null = {Fraction(0): 1}
    for rank in ranks:
        grown = dict(null)
        for w, count in null.items():
            grown[w + rank] = grown.get(w + rank, 0) + count
        null = grown
    return _two_sided_p(null, observed, len(ranks))


def oracle_share_diffs(
    memo_pairs: list[tuple[str, int]], pool_pairs: list[tuple[str, int]]
) -> dict[str, list[Fraction]]:
    """Each pool entity's memo share minus pool share per year, as ``Fraction``s,
    in year order: for every year in which both sets have an award of a pool
    entity, and every entity either set has that year. Memo shares are taken
    over the memo awards of pool entities (the "pool_entities" denominator)."""
    universe = {e for e, _ in pool_pairs}
    memo_pairs = [(e, t) for e, t in memo_pairs if e in universe]
    diffs: dict[str, list[Fraction]] = {}
    for year in sorted({t for _, t in memo_pairs} & {t for _, t in pool_pairs}):
        memo = [e for e, t in memo_pairs if t == year]
        pool = [e for e, t in pool_pairs if t == year]
        for entity in sorted(set(memo) | set(pool)):
            memo_share = Fraction(memo.count(entity), len(memo))
            pool_share = Fraction(pool.count(entity), len(pool))
            diffs.setdefault(entity, []).append(memo_share - pool_share)
    return diffs


def oracle_impute(pub_year: int, records: list[Award]) -> tuple[str | None, int]:
    """Year imputation by explicit filtering: min |d-1|, then max d, then id."""
    if not records:
        return None, pub_year - 1
    best_dist = min(abs((pub_year - r.fiscal_year) - 1) for r in records)
    closest = [r for r in records if abs((pub_year - r.fiscal_year) - 1) == best_dist]
    largest_d = max(pub_year - r.fiscal_year for r in closest)
    preferred = [r for r in closest if pub_year - r.fiscal_year == largest_d]
    chosen = min(preferred, key=lambda r: r.full_project_number)
    return chosen.full_project_number, chosen.fiscal_year


def oracle_links(
    articles: Iterable[ArticleRecord], awards: Iterable[Award], aliases: FunderAliasTable
) -> list[ArticleAwardLink]:
    """Linkage by drafts and merge: per article, a draft per grant tag and per
    award record citing it; the first draft per core wins, except that an
    award-database draft replaces an article-metadata one; each merged link
    then takes the imputed award's number, year, funder and org."""
    awards = sorted(awards, key=lambda a: a.full_project_number)
    links = []
    for record in sorted(articles, key=lambda r: r.article_id):
        drafts = []
        for tag in record.grant_tags:
            core = parse_core_project(tag.award_text)
            if core:
                funder = aliases.lookup(tag.funder_text)
                drafts.append(ArticleAwardLink(record.article_id, core, funder, SOURCE_ARTICLE))
        for award in awards:
            for article_id in award.cited_article_ids:
                if article_id == record.article_id:
                    drafts.append(
                        ArticleAwardLink(
                            article_id,
                            award.core_project_number,
                            award.funder_code,
                            SOURCE_AWARD_DB,
                            org_id=award.org_id,
                            org_name=award.org_name,
                        )
                    )
        merged: dict[str, ArticleAwardLink] = {}
        for draft in drafts:
            current = merged.get(draft.core_project_number)
            if current is None or (
                current.source == SOURCE_ARTICLE and draft.source == SOURCE_AWARD_DB
            ):
                merged[draft.core_project_number] = draft
        for core in sorted(merged):
            link = merged[core]
            records = [a for a in awards if a.core_project_number == core]
            if records:
                if record.pub_year is None:
                    full, year = min(a.full_project_number for a in records), None
                else:
                    full, year = oracle_impute(record.pub_year, records)
                [chosen] = [a for a in records if a.full_project_number == full]
                link = replace(
                    link,
                    imputed_full_project=full,
                    imputed_year=year,
                    funder_code=chosen.funder_code,
                    org_id=chosen.org_id,
                    org_name=chosen.org_name,
                )
            elif record.pub_year is not None:
                link = replace(link, imputed_year=record.pub_year - 1)
            links.append(link)
    return links


def oracle_flag_retracted(
    resolution: Iterable[ResolutionResult], records: Mapping[str, ArticleRecord]
) -> list[RetractionFlag]:
    """One flag per (memo, retracted article) pair, sorted."""
    pairs = sorted(
        {(r.memo_id, r.article_id) for r in resolution if r.article_id is not None}
    )
    flags = []
    for memo_id, article_id in pairs:
        record = records.get(article_id)
        if record is not None and record.retracted:
            flags.append(
                RetractionFlag(memo_id=memo_id, article_id=article_id, note=record.title)
            )
    return flags


def oracle_coverage(resolution: Iterable[ResolutionResult]) -> tuple[str, str]:
    """The coverage scatter and summary CSV texts from one (memo, fragment count,
    linked count) row per memo with a resolution row."""
    per_memo: dict[str, list[ResolutionResult]] = {}
    for row in resolution:
        per_memo.setdefault(row.memo_id, []).append(row)
    coverage = [
        (memo_id, len(rows), sum(1 for r in rows if r.method != METHOD_UNRESOLVED))
        for memo_id, rows in sorted(per_memo.items())
    ]
    pcts = [100.0 * linked / count for _, count, linked in coverage]
    if not pcts:
        summary = [0, None, None]
    elif len(pcts) == 1:
        summary = [1, pcts[0], 0.0]
    else:
        q1, _, q3 = statistics.quantiles(sorted(pcts), n=4, method="inclusive")
        summary = [len(pcts), statistics.median(pcts), q3 - q1]

    def text(rows: list[list]) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()

    scatter = [["memo_id", "fragment_count", "linked_pct"]]
    scatter += [[m, count, pct] for (m, count, _), pct in zip(coverage, pcts)]
    return text(scatter), text([["n", "median_linked_pct", "iqr_linked_pct"], summary])


def oracle_record_tokens(record: ArticleRecord) -> tuple[frozenset[str], ...]:
    """Title, journal, author and surname tokens, each by its own rule and
    its own normalization, as the four ``ArticleRecord`` methods gave them
    before ``ArticleRecord.tokens`` replaced them."""
    title = frozenset(t for t in normalize_fragment(record.title).split() if len(t) >= 2)
    journal = frozenset(t for t in normalize_fragment(record.journal).split() if len(t) >= 2)
    authors: set[str] = set()
    for author in record.authors:
        authors.update(normalize_fragment(author).split())
    # Surname is the first token of each "Surname AB" author string.
    surnames = set()
    for author in record.authors:
        parts = normalize_fragment(author).split()
        if parts:
            surnames.add(parts[0])
    return title, journal, frozenset(authors), frozenset(surnames)


def oracle_search(
    records: Iterable[ArticleRecord],
    tokens: Iterable[str],
    year_hint: int | None,
    k: int,
    views: Callable[[ArticleRecord], tuple[frozenset[str], ...]] = oracle_record_tokens,
) -> list[str]:
    """Top-k article ids by a full sort of every record sharing a query token.

    A record's indexed tokens are the union of its title, journal and author
    ``views``. Order: most shared tokens, then smallest |pub_year - year_hint|
    (records without a year last when a hint is given), then ascending
    article_id.
    """
    query = set(tokens)
    ranked = []
    for record in records:
        title, journal, authors, _ = views(record)
        shared = len(query & (title | journal | authors))
        if not shared:
            continue
        if year_hint is None:
            distance = 0.0
        elif record.pub_year is None:
            distance = float("inf")
        else:
            distance = float(abs(record.pub_year - year_hint))
        ranked.append((-shared, distance, record.article_id))
    ranked.sort()
    return [article_id for _, _, article_id in ranked[:k]]


def oracle_score(tokens: frozenset[str], years: list[int], record: ArticleRecord) -> float:
    """0.6 title + 0.2 surname + 0.1 journal overlap + 0.1 year agreement,
    each overlap a share of the record's ``oracle_record_tokens`` view, summed
    in that order so the float is the scorer's own."""
    title, journal, _, surnames = oracle_record_tokens(record)

    def overlap(view: frozenset[str]) -> float:
        return len(tokens & view) / len(view) if view else 0.0

    year = 0.0
    if record.pub_year is not None:
        if record.pub_year in years:
            year = 1.0
        elif any(abs(y - record.pub_year) <= 1 for y in years):
            year = 0.5
    return min(
        0.6 * overlap(title) + 0.2 * overlap(surnames) + 0.1 * overlap(journal) + 0.1 * year,
        1.0,
    )


def oracle_resolve(
    fragments: Iterable[ReferenceFragment],
    records: Mapping[str, ArticleRecord],
    config: ResolverConfig,
) -> list[ResolutionResult]:
    """Lexical resolution rows in (memo_id, ordinal) order: each fragment's
    ``oracle_search`` candidates ranked by ``oracle_score``, then id; the best
    is accepted when it clears the threshold and leads the next by the margin."""
    views = {article_id: oracle_record_tokens(r) for article_id, r in records.items()}
    rows = []
    for fragment in sorted(fragments, key=lambda f: (f.memo_id, f.ordinal)):
        tokens = frozenset(fragment.normalized_text.split())
        years = fragment_years(fragment.normalized_text)
        hint = years[0] if years else None
        found = oracle_search(
            records.values(), tokens, hint, config.k, lambda r: views[r.article_id]
        )
        scores = {a: oracle_score(tokens, years, records[a]) for a in found}
        ranked = sorted(found, key=lambda a: (-scores[a], a))
        best = scores[ranked[0]] if ranked else 0.0
        second = scores[ranked[1]] if len(ranked) > 1 else 0.0
        if ranked and best >= config.threshold and best - second >= config.margin:
            row = (ranked[0], best, METHOD_LEXICAL)
        else:
            row = (None, None, METHOD_UNRESOLVED)
        rows.append(ResolutionResult(fragment.memo_id, fragment.ordinal, *row))
    return rows


_KIND_RANK = {KIND_FUNDER: 0, KIND_ORG: 1, KIND_OTHER: 2, KIND_UNKNOWN: 3, KIND_MEMO: 4}


def oracle_build_flow_graph(
    memo_id: str,
    links: Iterable[ArticleAwardLink],
    resolution: Iterable[ResolutionResult],
    top_k: int = 10,
) -> FlowGraph:
    """The flow graph by ``Fraction`` sums over every link and every row."""
    links_by_article: dict[str, list[ArticleAwardLink]] = {}
    for link in links:
        links_by_article.setdefault(link.article_id, []).append(link)

    cited = sorted(
        {r.article_id for r in resolution if r.memo_id == memo_id and r.article_id is not None}
    )

    pair_weights: dict[tuple[str, str | None], Fraction] = {}
    org_names: dict[str, str] = {}
    for article_id in cited:
        article_links = links_by_article.get(article_id)
        if not article_links:
            continue
        pairs = sorted(
            {(l.funder_code, l.org_id) for l in article_links},
            key=lambda p: (p[0], p[1] or ""),
        )
        share = Fraction(1, len(pairs))
        for pair in pairs:
            pair_weights[pair] = pair_weights.get(pair, Fraction(0)) + share
        for l in article_links:
            if l.org_id is not None and l.org_name:
                current = org_names.get(l.org_id)
                if current is None or l.org_name < current:
                    org_names[l.org_id] = l.org_name

    if not pair_weights:
        return FlowGraph(memo_id=memo_id, nodes=(), edges=())

    org_totals: dict[str | None, Fraction] = {}
    for (_, org_id), weight in pair_weights.items():
        org_totals[org_id] = org_totals.get(org_id, Fraction(0)) + weight

    ranked = sorted(
        (org_id for org_id in org_totals if org_id is not None),
        key=lambda o: (-org_totals[o], o),
    )
    named = set(ranked[:top_k])

    def org_node_id(org_id: str | None) -> str:
        if org_id is None:
            return UNKNOWN_ORG_ID
        if org_id in named:
            return f"org:{org_id}"
        return OTHER_ORG_ID

    funder_edges: dict[tuple[str, str], Fraction] = {}
    for (funder, org_id), weight in pair_weights.items():
        key = (f"funder:{funder}", org_node_id(org_id))
        funder_edges[key] = funder_edges.get(key, Fraction(0)) + weight

    memo_node_id = f"memo:{memo_id}"
    org_edges: dict[tuple[str, str], Fraction] = {}
    for (_, dst), weight in funder_edges.items():
        org_edges[(dst, memo_node_id)] = org_edges.get((dst, memo_node_id), Fraction(0)) + weight

    nodes: dict[str, FlowNode] = {}
    for funder in sorted({f for f, _ in pair_weights}):
        nodes[f"funder:{funder}"] = FlowNode(id=f"funder:{funder}", label=funder, kind=KIND_FUNDER)
    for org_id in sorted(named):
        nodes[f"org:{org_id}"] = FlowNode(
            id=f"org:{org_id}", label=org_names.get(org_id, org_id), kind=KIND_ORG
        )
    if any(o is not None and o not in named for o in org_totals):
        nodes[OTHER_ORG_ID] = FlowNode(id=OTHER_ORG_ID, label="Other", kind=KIND_OTHER)
    if None in org_totals:
        nodes[UNKNOWN_ORG_ID] = FlowNode(id=UNKNOWN_ORG_ID, label="Unknown", kind=KIND_UNKNOWN)
    nodes[memo_node_id] = FlowNode(id=memo_node_id, label=memo_id, kind=KIND_MEMO)

    edges = dict(funder_edges)
    edges.update(org_edges)
    weights = _fraction_flow_through([(s, d, w) for (s, d), w in edges.items()], nodes)

    node_order = sorted(
        nodes.values(), key=lambda n: (_KIND_RANK[n.kind], -weights.get(n.id, Fraction(0)), n.id)
    )
    position = {node.id: i for i, node in enumerate(node_order)}
    edge_order = sorted(edges, key=lambda e: (position[e[0]], position[e[1]]))
    return flow_graph(memo_id, node_order, [(s, d, edges[(s, d)]) for s, d in edge_order])


def flow_graph(
    memo_id: str, nodes: Iterable[FlowNode], edges: Iterable[tuple[str, str, Fraction]]
) -> FlowGraph:
    """A graph with these exact edge weights, over the lcm of their denominators."""
    edges = list(edges)
    denominator = math.lcm(*(w.denominator for _, _, w in edges))
    return FlowGraph(
        memo_id,
        tuple(nodes),
        tuple(FlowEdge(s, d, int(w * denominator)) for s, d, w in edges),
        denominator,
    )


def exact_edges(graph: FlowGraph) -> list[tuple[str, str, Fraction]]:
    """Each edge with the ``Fraction`` its integer weight stands for."""
    return [(e.src, e.dst, Fraction(e.weight, graph.denominator)) for e in graph.edges]


def _fraction_flow_through(
    edges: list[tuple[str, str, Fraction]], node_ids: Iterable[str]
) -> dict[str, Fraction]:
    incoming: dict[str, Fraction] = {}
    outgoing: dict[str, Fraction] = {}
    for src, dst, weight in edges:
        outgoing[src] = outgoing.get(src, Fraction(0)) + weight
        incoming[dst] = incoming.get(dst, Fraction(0)) + weight
    return {
        node_id: outgoing[node_id] if node_id in outgoing else incoming.get(node_id, Fraction(0))
        for node_id in node_ids
    }


def oracle_node_weights(graph: FlowGraph) -> dict[str, Fraction]:
    """Outgoing ``Fraction`` total for funders, incoming total elsewhere."""
    return _fraction_flow_through(exact_edges(graph), (node.id for node in graph.nodes))


def oracle_sankey_json(graph: FlowGraph) -> bytes:
    """Sankey JSON through ``json.dumps``, each weight ``float`` of its ``Fraction``."""
    payload = {
        "memo_id": graph.memo_id,
        "nodes": [{"id": n.id, "label": n.label, "kind": n.kind} for n in graph.nodes],
        "edges": [
            {"src": src, "dst": dst, "weight": float(weight)}
            for src, dst, weight in exact_edges(graph)
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def oracle_entity_weights(
    article_entities: Iterable[Iterable[str]],
) -> tuple[dict[str, Fraction], int]:
    """Fractional entity counts by ``Fraction`` sums."""
    weights: dict[str, Fraction] = {}
    counted = 0
    for entities in article_entities:
        distinct = sorted(set(entities))
        if not distinct:
            continue
        counted += 1
        share = Fraction(1, len(distinct))
        for entity in distinct:
            weights[entity] = weights.get(entity, Fraction(0)) + share
    return weights, counted


def oracle_memo_proportions(article_entities: Iterable[Iterable[str]]) -> list[float] | None:
    """Per-entity proportions, in entity order, as floats of exact ``Fraction``s."""
    weights, counted = oracle_entity_weights(article_entities)
    if counted == 0:
        return None
    return [float(weights[e] / counted) for e in sorted(weights)]


_KEEP, _REQUIRED = object(), object()
_SCALARS = {str: "a string", bool: "true or false", int: "an integer", float: "a number"}


def _oracle_check(annotation: Any, exact: bool) -> tuple[dict[type, Any], str]:
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation in _SCALARS:
        accepts = {annotation: _KEEP, int: float} if annotation is float else {annotation: _KEEP}
        return accepts, _SCALARS[annotation]
    if origin is types.UnionType and len(args) == 2 and args[1] is type(None):
        accepts, expected = _oracle_check(args[0], exact)
        return {**accepts, type(None): _KEEP}, f"{expected} or null"
    if origin is tuple and args[1:] == (Ellipsis,):
        of = _oracle_check(args[0], exact)
        return {
            list: lambda v: tuple([_oracle_value(of, x, f"[{i}]") for i, x in enumerate(v)])
        }, "a list"
    if is_dataclass(annotation):
        return {dict: functools.partial(oracle_decode, annotation, exact=exact)}, "a mapping"
    raise TypeError(f"no decoder for {annotation!r}")


def _oracle_value(check: tuple[dict[type, Any], str], value: Any, where: str) -> Any:
    accepts, expected = check
    convert = accepts.get(type(value))
    if convert is None:
        got = "nothing" if value is _REQUIRED else repr(value)
        raise DecodeError(f"{where}: expected {expected}, got {got}")
    try:
        converted = value if convert is _KEEP else convert(value)
    except DecodeError as exc:
        raise DecodeError(f"{where}{'' if str(exc)[0] == '[' else '.'}{exc}") from None
    except OverflowError:  # float() of an int past a float's range
        converted = math.inf
    # A float field takes only finite numbers: not NaN, and not ±inf.
    if type(converted) is float and not -math.inf < converted < math.inf:
        raise DecodeError(f"{where}: expected a finite number, got {value!r}")
    return converted


def oracle_decode(row_type: type, mapping: Mapping[str, Any], exact: bool = False) -> Any:
    """``row_type(**kw)`` from ``mapping``, each present or required field checked in turn."""
    hints = get_type_hints(row_type)
    names = {f.name for f in fields(row_type)}
    if exact and not names.issuperset(mapping):
        raise DecodeError(f"{min(mapping.keys() - names, key=str)}: not a field")
    kw = {}
    for f in fields(row_type):
        check = _oracle_check(hints[f.name], exact)
        defaulted = f.default is not MISSING or f.default_factory is not MISSING
        absent = MISSING if defaulted else None if type(None) in check[0] else _REQUIRED
        value = mapping.get(f.name, absent)
        if value is not MISSING:
            kw[f.name] = _oracle_value(check, value, f.name)
    return row_type(**kw)


_ORACLE_JSON = json.JSONEncoder(sort_keys=True, default=vars)


def oracle_jsonl(rows: Iterable[Any], omit_none: Iterable[str] = ()) -> bytes:
    """JSONL rows with every object's keys sorted, nested rows as their fields."""
    omit = set(omit_none)
    return b"".join(
        (_ORACLE_JSON.encode({k: v for k, v in vars(row).items() if v is not None or k not in omit})
         + "\n").encode("utf-8")
        for row in rows
    )
