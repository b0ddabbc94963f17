"""Funder-to-organization-to-memo flow graphs, tables, and the coverage report.

Flow weights are exact: each funded article contributes total weight 1,
split equally over its stakeholder pairs, so every weight of a memo's graph
is an integer numerator over one denominator and conservation holds to the
bit. Floats appear only at emission time, as correctly rounded quotients.
"""

from __future__ import annotations

import io
import statistics
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping

from .artifacts import csv_text
from .biblio import ArticleRecord
from .funding import ArticleAwardLink
from .resolver import METHOD_UNRESOLVED, ResolutionResult, cited_articles
from .stats import StatResult, share_of_total, split_weights

KIND_FUNDER = "funder"
KIND_ORG = "org"
KIND_OTHER = "other_org"
KIND_UNKNOWN = "unknown_org"
KIND_MEMO = "memo"

_KIND_RANK = {KIND_FUNDER: 0, KIND_ORG: 1, KIND_OTHER: 2, KIND_UNKNOWN: 3, KIND_MEMO: 4}

OTHER_ORG_ID = "org:OTHER"
UNKNOWN_ORG_ID = "org:UNKNOWN"


@dataclass(frozen=True)
class FlowNode:
    id: str
    label: str
    kind: str


@dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str
    weight: int  # numerator over the graph's denominator


@dataclass(frozen=True)
class FlowGraph:
    """A memo's flow graph; each weight is exactly ``weight / denominator``."""

    memo_id: str
    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]
    denominator: int = 1

    def node_weights(self) -> dict[str, int]:
        """Flow through each node over ``denominator``: outgoing for funders, else incoming."""
        return _flow_through(
            ((e.src, e.dst, e.weight) for e in self.edges), (node.id for node in self.nodes)
        )


@dataclass(frozen=True)
class RetractionFlag:
    memo_id: str
    article_id: str
    note: str


def _flow_through(
    edges: Iterable[tuple[str, str, int]], node_ids: Iterable[str]
) -> dict[str, int]:
    """Integer flow through each node: its outgoing total, else its incoming total."""
    incoming: dict[str, int] = {}
    outgoing: dict[str, int] = {}
    for src, dst, weight in edges:
        outgoing[src] = outgoing.get(src, 0) + weight
        incoming[dst] = incoming.get(dst, 0) + weight
    return {
        node_id: outgoing[node_id] if node_id in outgoing else incoming.get(node_id, 0)
        for node_id in node_ids
    }


def _org_labels(links: Iterable[ArticleAwardLink]) -> dict[str, str]:
    """Each org's label: the smallest non-empty ``org_name`` among its links."""
    labels: dict[str, str] = {}
    for link in links:
        if link.org_id is not None and link.org_name:
            current = labels.get(link.org_id)
            if current is None or link.org_name < current:
                labels[link.org_id] = link.org_name
    return labels


def build_flow_graph(
    memo_id: str, links: Iterable[ArticleAwardLink], top_k: int = 10
) -> FlowGraph:
    """Tripartite flow graph for one memo from the links of the articles it cites.

    The caller picks those links (``resolver.cited_articles`` names the
    articles); every link passed counts. Each funded article distributes
    weight 1 equally across its distinct (funder, organization)
    stakeholder pairs. Only the ``top_k`` organizations by total weight
    keep their own node; the rest merge into "Other", and awards without
    organization identity route through "Unknown". Edge weights are
    integer numerators over the graph's ``denominator``, the least common
    multiple of the articles' pair counts (``stats.split_weights``), so
    every sum is exact.
    """
    links = list(links)
    pairs_by_article: dict[str, list[tuple[str, str | None]]] = {}
    for l in links:
        pairs_by_article.setdefault(l.article_id, []).append((l.funder_code, l.org_id))
    org_names = _org_labels(links)

    pair_weights, denominator, _ = split_weights(pairs_by_article.values())
    if not pair_weights:
        return FlowGraph(memo_id=memo_id, nodes=(), edges=())

    org_totals: dict[str | None, int] = {}
    for (_, org_id), weight in pair_weights.items():
        org_totals[org_id] = org_totals.get(org_id, 0) + weight

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

    funder_edges: dict[tuple[str, str], int] = {}
    for (funder, org_id), weight in pair_weights.items():
        key = (f"funder:{funder}", org_node_id(org_id))
        funder_edges[key] = funder_edges.get(key, 0) + weight

    memo_node_id = f"memo:{memo_id}"
    org_edges: dict[tuple[str, str], int] = {}
    for (_, dst), weight in funder_edges.items():
        org_edges[(dst, memo_node_id)] = org_edges.get((dst, memo_node_id), 0) + weight

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
    weights = _flow_through(((s, d, w) for (s, d), w in edges.items()), nodes)

    node_order = sorted(nodes.values(), key=lambda n: (_KIND_RANK[n.kind], -weights[n.id], n.id))
    position = {node.id: i for i, node in enumerate(node_order)}
    edge_order = sorted(edges, key=lambda e: (position[e[0]], position[e[1]]))

    return FlowGraph(
        memo_id=memo_id,
        nodes=tuple(node_order),
        edges=tuple(FlowEdge(src=s, dst=d, weight=edges[(s, d)]) for s, d in edge_order),
        denominator=denominator,
    )


def emit_sankey(graph: FlowGraph) -> tuple[bytes, bytes]:
    """A flow graph's JSON and SVG bytes; byte-deterministic for equal graphs."""
    return _sankey_json(graph).encode("utf-8"), _render_svg(graph)


def _sankey_json(graph: FlowGraph) -> str:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.

    The payload has a fixed shape, so it is written directly: with
    ``indent`` the json module falls back to its pure-Python encoder.
    Strings are escaped as json does by default (ASCII only), and weights
    use ``repr(float)``, as json does for finite floats. Integer true
    division is correctly rounded, so each weight is the float nearest
    the exact ``weight / denominator``.
    """
    q = encode_basestring_ascii
    edges = [
        f'    {{\n      "dst": {q(e.dst)},\n      "src": {q(e.src)},\n'
        f'      "weight": {e.weight / graph.denominator!r}\n    }}'
        for e in graph.edges
    ]
    nodes = [
        f'    {{\n      "id": {q(n.id)},\n      "kind": {q(n.kind)},\n'
        f'      "label": {q(n.label)}\n    }}'
        for n in graph.nodes
    ]
    return (
        f'{{\n  "edges": {_json_list(edges)},\n  "memo_id": {q(graph.memo_id)},\n'
        f'  "nodes": {_json_list(nodes)}\n}}\n'
    )


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


_SVG_SCALE = 60.0  # pixels per article unit
_SVG_NODE_W = 18.0
_SVG_GAP = 14.0
_SVG_PAD = 30.0
_SVG_WIDTH = 960.0


def _render_svg(graph: FlowGraph) -> bytes:
    columns = {
        0: [n for n in graph.nodes if n.kind == KIND_FUNDER],
        1: [n for n in graph.nodes if n.kind in (KIND_ORG, KIND_OTHER, KIND_UNKNOWN)],
        2: [n for n in graph.nodes if n.kind == KIND_MEMO],
    }
    weights = graph.node_weights()
    xs = {0: _SVG_PAD, 1: (_SVG_WIDTH - _SVG_NODE_W) / 2.0, 2: _SVG_WIDTH - _SVG_PAD - _SVG_NODE_W}

    geometry: dict[str, tuple[float, float, float]] = {}  # id -> (x, y, height)
    height = 0.0
    for col, nodes in columns.items():
        y = _SVG_PAD
        for node in nodes:
            h = weights[node.id] / graph.denominator * _SVG_SCALE
            geometry[node.id] = (xs[col], y, h)
            y += h + _SVG_GAP
        height = max(height, y - _SVG_GAP + _SVG_PAD if nodes else 2 * _SVG_PAD)

    out = io.StringIO()
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {_SVG_WIDTH:.0f} {height:.0f}">\n'
    )
    out.write(f"  <title>Research flows: {_xml_escape(graph.memo_id)}</title>\n")

    # Ribbons stack inside their endpoints in canonical edge order.
    used_out: dict[str, float] = {}
    used_in: dict[str, float] = {}
    for edge in graph.edges:
        sx, sy, _ = geometry[edge.src]
        dx, dy, _ = geometry[edge.dst]
        thickness = edge.weight / graph.denominator * _SVG_SCALE
        y0 = sy + used_out.get(edge.src, 0.0) + thickness / 2.0
        y1 = dy + used_in.get(edge.dst, 0.0) + thickness / 2.0
        used_out[edge.src] = used_out.get(edge.src, 0.0) + thickness
        used_in[edge.dst] = used_in.get(edge.dst, 0.0) + thickness
        x0 = sx + _SVG_NODE_W
        x1 = dx
        mx = (x0 + x1) / 2.0
        side = "left" if edge.src.startswith("funder:") else "right"
        out.write(
            f'  <path class="ribbon ribbon-{side}" '
            f'd="M {x0:.3f} {y0:.3f} C {mx:.3f} {y0:.3f} {mx:.3f} {y1:.3f} {x1:.3f} {y1:.3f}" '
            f'fill="none" stroke="#999999" stroke-opacity="0.45" stroke-width="{thickness:.3f}"/>\n'
        )

    fills = {
        KIND_FUNDER: "#3b6fb6",
        KIND_ORG: "#8a8a8a",
        KIND_OTHER: "#b5b5b5",
        KIND_UNKNOWN: "#d9d9d9",
        KIND_MEMO: "#c0392b",
    }
    for node in graph.nodes:
        x, y, h = geometry[node.id]
        out.write(
            f'  <rect class="node node-{node.kind}" x="{x:.3f}" y="{y:.3f}" '
            f'width="{_SVG_NODE_W:.0f}" height="{h:.3f}" fill="{fills[node.kind]}"/>\n'
        )
        anchor = "start" if node.kind == KIND_FUNDER else "end" if node.kind == KIND_MEMO else "middle"
        tx = (
            x + _SVG_NODE_W + 4
            if node.kind == KIND_FUNDER
            else x - 4
            if node.kind == KIND_MEMO
            else x + _SVG_NODE_W / 2.0
        )
        ty = y - 3 if anchor == "middle" else y + h / 2.0
        out.write(
            f'  <text x="{tx:.3f}" y="{ty:.3f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="{anchor}">{_xml_escape(node.label)}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue().encode("utf-8")


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _format(value: float | None, spec: str) -> str:
    return "" if value is None else format(value, spec)


_TABLE_HEADER = "entity,label,n_awards,pct_awards,n_obs,median_diff,ci_lo,ci_hi,p_value".split(",")


def _stat_cells(stat: StatResult | None) -> list[str]:
    if stat is None:
        return ["", "", "", "", ""]
    return [
        str(stat.n),
        _format(stat.median_diff, ".6g"),
        _format(stat.ci_lo, ".6g"),
        _format(stat.ci_hi, ".6g"),
        _format(stat.p_value, ".3g"),
    ]


def _entity_table(
    entities: list[str], labels: Mapping[str, str], results: Mapping[str, StatResult]
) -> str:
    """One row per entity, sorted: its label (default: itself), count, percent of
    all ``entities`` and test result, if any."""
    counts = Counter(entities)
    rows = [_TABLE_HEADER]
    for entity in sorted(counts):
        count = counts[entity]
        share = f"{share_of_total(count, len(entities)):.2f}"
        rows.append(
            [entity, labels.get(entity, entity), str(count), share]
            + _stat_cells(results.get(entity))
        )
    return csv_text(rows)


def emit_tables(
    links: Iterable[ArticleAwardLink],
    funder_stats: Iterable[StatResult],
    org_stats: Iterable[StatResult],
) -> tuple[str, str]:
    """Funder and recipient tables as CSV text.

    Counts are article-award links; percentages use the grand total, so
    each table's percent column sums to 100 up to rounding. Entities
    without a statistical result (too few observation years, or no
    comparable identity such as unknown orgs) keep blank test columns.
    """
    links = list(links)
    funder_table = _entity_table(
        [link.funder_code for link in links], {}, {s.entity: s for s in funder_stats}
    )
    recipient_table = _entity_table(
        [link.org_id if link.org_id is not None else "UNKNOWN" for link in links],
        {"UNKNOWN": "Unknown", **_org_labels(links)},
        {s.entity: s for s in org_stats if s.entity != "UNKNOWN"},
    )
    return funder_table, recipient_table


def flag_retracted(
    resolution: Iterable[ResolutionResult], records: Mapping[str, ArticleRecord]
) -> list[RetractionFlag]:
    """One flag per (memo, retracted article) pair, sorted."""
    flags = []
    for memo_id, article_ids in cited_articles(resolution).items():
        for article_id in article_ids:
            record = records.get(article_id)
            if record is not None and record.retracted:
                flags.append(
                    RetractionFlag(memo_id=memo_id, article_id=article_id, note=record.title)
                )
    return flags


def coverage_summary(linked_pcts: Iterable[float]) -> dict:
    """Median and interquartile range of the memos' linked percentages."""
    pcts = sorted(linked_pcts)
    if not pcts:
        return {"n": 0, "median_linked_pct": None, "iqr_linked_pct": None}
    if len(pcts) == 1:
        return {"n": 1, "median_linked_pct": pcts[0], "iqr_linked_pct": 0.0}
    q1, _, q3 = statistics.quantiles(pcts, n=4, method="inclusive")
    return {
        "n": len(pcts),
        "median_linked_pct": statistics.median(pcts),
        "iqr_linked_pct": q3 - q1,
    }


def coverage_report(resolution: Iterable[ResolutionResult]) -> tuple[str, str]:
    """Scatter CSV (memo size vs. linkage) plus a summary CSV.

    Per memo with a resolution row: its rows, and the percent of them whose
    method is not ``unresolved``.
    """
    counts: dict[str, list[int]] = {}
    for row in resolution:
        count = counts.setdefault(row.memo_id, [0, 0])
        count[0] += 1
        count[1] += row.method != METHOD_UNRESOLVED
    scatter = [["memo_id", "fragment_count", "linked_pct"]]
    scatter += ([memo_id, n, 100.0 * linked / n] for memo_id, (n, linked) in sorted(counts.items()))
    summary = coverage_summary(row[2] for row in scatter[1:])
    keys = ["n", "median_linked_pct", "iqr_linked_pct"]  # a None value is an empty cell
    return csv_text(scatter), csv_text([keys, [summary[key] for key in keys]])
