from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest

from oracles import (
    exact_edges,
    flow_graph,
    oracle_build_flow_graph,
    oracle_coverage,
    oracle_flag_retracted,
    oracle_node_weights,
    oracle_sankey_json,
)

from memomap.biblio import ArticleRecord
from memomap.funding import ArticleAwardLink
from memomap.resolver import (
    METHOD_LEXICAL,
    METHOD_REMOTE,
    METHOD_UNRESOLVED,
    ResolutionResult,
)
from memomap.report import (
    UNKNOWN_ORG_ID,
    FlowGraph,
    FlowNode,
    build_flow_graph,
    coverage_report,
    emit_sankey,
    emit_tables,
    flag_retracted,
)
from memomap.stats import StatResult

from conftest import cited_links


def link(article_id, core, funder, org_id=None, org_name=None, year=2000):
    return ArticleAwardLink(
        article_id=article_id,
        core_project_number=core,
        funder_code=funder,
        source="award_database" if org_id else "article_metadata",
        imputed_full_project=f"{core}-01" if org_id else None,
        imputed_year=year,
        org_id=org_id,
        org_name=org_name,
    )


def resolved(memo_id, ordinal, article_id):
    return ResolutionResult(
        memo_id=memo_id, ordinal=ordinal, article_id=article_id, score=1.0, method="lexical"
    )


def graph_sums(graph):
    edges = exact_edges(graph)
    funder_out = sum((w for src, _, w in edges if src.startswith("funder:")), Fraction(0))
    org_in = funder_out
    memo_in = sum((w for _, dst, w in edges if dst.startswith("memo:")), Fraction(0))
    return funder_out, org_in, memo_in


def edge_weights(graph):
    return {(src, dst): weight for src, dst, weight in exact_edges(graph)}


def node_weights(graph):
    return {node: Fraction(w, graph.denominator) for node, w in graph.node_weights().items()}


def exact(graph):
    """A graph's memo, nodes and edges, each weight the ``Fraction`` it stands for."""
    return graph.memo_id, graph.nodes, exact_edges(graph)


class TestFlowGraph:
    def test_single_article_single_award(self):
        graph = build_flow_graph(
            "m1",
            [link("a1", "C1", "NCI", org_id="111", org_name="Duke University")],
        )
        edges = edge_weights(graph)
        assert edges == {
            ("funder:NCI", "org:111"): Fraction(1),
            ("org:111", "memo:m1"): Fraction(1),
        }

    def test_two_awards_split_weight(self):
        graph = build_flow_graph(
            "m1",
            [
                link("a1", "C1", "NCI", org_id="111", org_name="Org One"),
                link("a1", "C2", "NCI", org_id="222", org_name="Org Two"),
            ],
        )
        edges = edge_weights(graph)
        assert edges[("funder:NCI", "org:111")] == Fraction(1, 2)
        assert edges[("funder:NCI", "org:222")] == Fraction(1, 2)

    def test_missing_org_routes_through_unknown(self):
        graph = build_flow_graph("m1", [link("a1", "C1", "NHLBI")])
        edges = edge_weights(graph)
        assert edges[("funder:NHLBI", UNKNOWN_ORG_ID)] == Fraction(1)
        assert edges[(UNKNOWN_ORG_ID, "memo:m1")] == Fraction(1)

    def test_top_k_merge_preserves_totals_exactly(self):
        # 12 orgs with distinct weights: 10 stay named, the bottom 2 merge.
        links = []
        resolution = []
        for i in range(12):
            for j in range(12 - i):  # org i funds 12-i articles
                article = f"a{i}_{j}"
                links.append(link(article, f"C{i}", "NCI", org_id=f"{i:03d}", org_name=f"Org {i}"))
                resolution.append(resolved("m1", len(resolution), article))
        graph = build_flow_graph("m1", links, top_k=10)

        named = [n for n in graph.nodes if n.kind == "org"]
        assert len(named) == 10
        other = next(n for n in graph.nodes if n.kind == "other_org")
        weights = node_weights(graph)
        # Bottom two orgs fund 1 and 2 articles; the merge is exact.
        assert weights[other.id] == Fraction(3)
        total_articles = len(resolution)
        funder_out, org_in, memo_in = graph_sums(graph)
        assert funder_out == org_in == memo_in == Fraction(total_articles)

    def test_tie_at_boundary_breaks_on_org_id(self):
        links = [
            link("a1", "C1", "NCI", org_id="bbb", org_name="B"),
            link("a2", "C2", "NCI", org_id="aaa", org_name="A"),
        ]
        graph = build_flow_graph("m1", links, top_k=1)
        named = [n for n in graph.nodes if n.kind == "org"]
        assert [n.id for n in named] == ["org:aaa"]

    def test_zero_funded_articles_empty_graph(self):
        graph = build_flow_graph("m1", [])
        assert graph.nodes == () and graph.edges == ()

    def test_multiple_awards_same_pair_collapse(self):
        # Two awards with the same (funder, org) are one stakeholder pair.
        graph = build_flow_graph(
            "m1",
            [
                link("a1", "C1", "NCI", org_id="111", org_name="Org"),
                link("a1", "C2", "NCI", org_id="111", org_name="Org"),
            ],
        )
        edges = edge_weights(graph)
        assert edges[("funder:NCI", "org:111")] == Fraction(1)

    def test_conservation_on_random_fixtures(self):
        rng = random.Random(21)
        for _ in range(25):
            links, resolution = [], []
            n_articles = rng.randint(1, 15)
            for i in range(n_articles):
                article = f"a{i}"
                resolution.append(resolved("m", i, article))
                for _ in range(rng.randint(0, 3)):
                    org = rng.choice([None, "o1", "o2", "o3", "o4"])
                    links.append(
                        link(
                            article,
                            f"C{rng.randint(0, 5)}",
                            rng.choice(["NCI", "NIA", "NHLBI"]),
                            org_id=org,
                            org_name=org and f"Org {org}",
                        )
                    )
            graph = build_flow_graph("m", cited_links("m", links, resolution), top_k=2)
            funded = len({l.article_id for l in links if any(r.article_id == l.article_id for r in resolution)})
            funder_out, org_in, memo_in = graph_sums(graph)
            assert funder_out == org_in == memo_in == Fraction(funded)


def random_memos(rng, n_memos, n_articles, orgs, funders):
    """Seeded links and resolution rows over several memos.

    Some articles have no links, some links have no org, and unresolved
    rows and memos that cite nothing funded are mixed in.
    """
    links, resolution = [], []
    for i in range(n_articles):
        article = f"a{i:03d}"
        for j in range(rng.choice([0, 0, 1, 1, 2, 3, 4, 6])):
            org = rng.choice(orgs)
            links.append(
                link(
                    article,
                    f"C{i}_{j}",
                    rng.choice(funders),
                    org_id=org,
                    org_name=org and rng.choice([f"Org {org}", f"{org} Inst", ""]),
                )
            )
    articles = [f"a{i:03d}" for i in range(n_articles)]
    for m in range(n_memos):
        memo = f"m{m}"
        for ordinal in range(rng.randint(0, 12)):
            article = rng.choice(articles) if rng.random() < 0.85 else None
            resolution.append(
                ResolutionResult(
                    memo_id=memo,
                    ordinal=ordinal,
                    article_id=article,
                    score=1.0 if article else 0.0,
                    method="lexical" if article else "unresolved",
                )
            )
    rng.shuffle(links)
    rng.shuffle(resolution)
    return links, resolution


def memo_subsets(links, resolution):
    """Per memo: the links of the articles it cites, grouped by article as the report stage
    passes them, and its rows."""
    by_article = {}
    for l in links:
        by_article.setdefault(l.article_id, []).append(l)
    out = {}
    for memo in sorted({r.memo_id for r in resolution}):
        rows = [r for r in resolution if r.memo_id == memo]
        cited = sorted({r.article_id for r in rows if r.article_id is not None})
        out[memo] = ([l for a in cited for l in by_article.get(a, [])], rows)
    return out


class TestFlowGraphOracle:
    """Integer weights over a common denominator equal the Fraction sums."""

    def assert_same(self, memo, links, resolution, top_k):
        expected = oracle_build_flow_graph(memo, links, resolution, top_k)
        graph = build_flow_graph(memo, cited_links(memo, links, resolution), top_k)
        assert exact(graph) == exact(expected)
        assert node_weights(graph) == oracle_node_weights(expected)
        assert emit_sankey(graph) == emit_sankey(expected)
        assert emit_sankey(graph)[0] == oracle_sankey_json(expected)
        return graph

    @pytest.mark.parametrize("seed", range(8))
    def test_random_memos_match_oracle(self, seed):
        rng = random.Random(1000 + seed)
        orgs = [None] + [f"o{i}" for i in range(rng.randint(1, 9))]
        funders = ["NCI", "NIA", "NHLBI", "UNMAPPED"][: rng.randint(1, 4)]
        links, resolution = random_memos(rng, rng.randint(1, 8), rng.randint(1, 40), orgs, funders)
        top_k = rng.choice([1, 2, 3, 10])
        nonempty = 0
        for memo, (memo_links, rows) in memo_subsets(links, resolution).items():
            whole = self.assert_same(memo, links, resolution, top_k)
            assert self.assert_same(memo, memo_links, rows, top_k) == whole
            nonempty += bool(whole.edges)
        assert nonempty  # every seed exercises at least one funded memo

    def test_tie_at_top_k_cut(self):
        # Five orgs with equal weight 1/2 + 1/3 + 1/6 patterns; the cut at 2
        # falls inside the tie and keeps the smallest ids.
        links, resolution = [], []
        for o in ("o5", "o3", "o1", "o4", "o2"):
            for n_pairs in (2, 3, 6):
                article = f"{o}_{n_pairs}"
                resolution.append(resolved("m", len(resolution), article))
                links.append(link(article, f"C{o}{n_pairs}", "NCI", org_id=o, org_name=o))
                for extra in range(n_pairs - 1):
                    links.append(link(article, f"X{o}{n_pairs}{extra}", f"F{extra}"))
        graph = self.assert_same("m", links, resolution, top_k=2)
        assert [n.id for n in graph.nodes if n.kind == "org"] == ["org:o1", "org:o2"]
        weights = node_weights(graph)
        assert weights["org:o1"] == Fraction(1)
        assert weights["org:OTHER"] == Fraction(3)

    def test_memo_without_funded_articles(self):
        links = [link("a1", "C1", "NCI", org_id="o1")]
        resolution = [
            resolved("m1", 0, "a2"),
            ResolutionResult("m1", 1, None, 0.0, "unresolved"),
            resolved("m2", 0, "a1"),
        ]
        graph = self.assert_same("m1", links, resolution, top_k=3)
        assert graph == FlowGraph("m1", (), ())
        assert graph.node_weights() == {}

    def test_node_weights_of_hand_built_graph(self):
        graph = flow_graph(
            "m",
            (
                FlowNode("funder:A", "A", "funder"),
                FlowNode("org:x", "x", "org"),
                FlowNode("org:lonely", "lonely", "org"),
                FlowNode("memo:m", "m", "memo"),
            ),
            (
                ("funder:A", "org:x", Fraction(2, 3)),
                ("funder:A", "memo:m", Fraction(1, 4)),
                ("org:x", "memo:m", Fraction(5, 7)),
            ),
        )
        assert node_weights(graph) == oracle_node_weights(graph)


class TestSankeyJsonWriter:
    """The direct writer reproduces json.dumps(sort_keys=True, indent=2) byte for byte."""

    @pytest.mark.parametrize(
        "label",
        [
            "plain",
            "Universität Zürich",
            'say "hi"',
            "back\\slash",
            "tab\tnew\nline\rcr\x00nul\x1fus\x7fdel",
            "\u2028\u00e9\u4e2d\U0001f600",
            "",
        ],
    )
    def test_labels_match_json_dumps(self, label):
        graph = flow_graph(
            f"memo {label}",
            (
                FlowNode(f"funder:{label}", label, "funder"),
                FlowNode("org:1", label + "!", "org"),
                FlowNode(f"memo:{label}", label, "memo"),
            ),
            (
                (f"funder:{label}", "org:1", Fraction(1, 3)),
                ("org:1", f"memo:{label}", Fraction(10**17 + 1, 7)),
            ),
        )
        assert emit_sankey(graph)[0] == oracle_sankey_json(graph)

    def test_empty_graph_matches_json_dumps(self):
        assert emit_sankey(FlowGraph("m", (), ()))[0] == oracle_sankey_json(FlowGraph("m", (), ()))

    def test_weights_match_json_dumps(self):
        rng = random.Random(5)
        edges = [
            ("funder:F", f"org:{i}", Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)))
            for i in range(200)
        ]
        edges += [("funder:F", "org:big", Fraction(10**30)), ("funder:F", "org:tiny", Fraction(1, 10**30))]
        # emit_sankey also draws the graph, so every edge needs its end nodes.
        orgs = tuple(FlowNode(dst, dst[4:], "org") for _, dst, _ in edges)
        graph = flow_graph("m", (FlowNode("funder:F", "F", "funder"),) + orgs, edges)
        assert emit_sankey(graph)[0] == oracle_sankey_json(graph)


def stakeholder_memos(seed):
    """Seeded memos whose articles split weight 1 over 3, 5, 7 or 11 (funder, org) pairs."""
    rng = random.Random(seed)
    pairs = [(f"F{f}", org) for f in range(6) for org in [None] + [f"o{i}" for i in range(8)]]
    links = []
    for i in range(30):
        for j, (funder, org) in enumerate(rng.sample(pairs, rng.choice([3, 5, 7, 11]))):
            name = org and f"Org {org}"
            links.append(link(f"a{i}", f"C{i}_{j}", funder, org_id=org, org_name=name))
    articles = sorted({l.article_id for l in links})
    resolution = [
        resolved(f"m{m}", ordinal, article)
        for m in range(6)
        for ordinal, article in enumerate(rng.sample(articles, rng.randint(2, 9)))
    ]
    return links, resolution, rng.choice([2, 3, 10])


class TestSankeyPin:
    """Emitted bytes for weights with denominators 3, 5, 7, 11 and their lcms.

    The golden run's weights are all multiples of 1/2, so it cannot show a
    change in how a non-dyadic weight is rounded to a float.
    """

    DIGESTS = {
        0: (
            "8623a8aa81108b73c0232712f5bed6414bb8447f894532f4cdac56f78df001ee",
            "687328274a80737d8d2ef20628a5ee39bdb497b65128044fed85b25825360d60",
        ),
        1: (
            "6627a9205ec7da96d67a78d9b23392af9f349534962c45f5c66d559293d4cba2",
            "155277959bc47e4d65716c2fd619f2266dde5c784a8dbfcef317946f3166939d",
        ),
        2: (
            "4876e5eb653273abda2be1810b1ab17da6a9a7dd53ea7877a94d8468ab39b8b1",
            "e4b880a7e9b3dbefc637955fc0daba8ad83543abb653f1c8c16afe29974f99e0",
        ),
    }

    @pytest.mark.parametrize("seed", range(3))
    def test_non_dyadic_weights_pinned(self, seed):
        links, resolution, top_k = stakeholder_memos(seed)
        graphs = [
            build_flow_graph(memo, cited_links(memo, links, resolution), top_k)
            for memo in sorted({r.memo_id for r in resolution})
        ]
        emitted = [emit_sankey(g) for g in graphs]
        digests = tuple(
            hashlib.sha256(b"".join(pair[fmt] for pair in emitted)).hexdigest()
            for fmt in (0, 1)  # json, svg
        )
        assert digests == self.DIGESTS[seed]


class TestSankey:
    def make_graph(self):
        return build_flow_graph(
            "m1",
            [
                link("a1", "C1", "NCI", org_id="111", org_name="Org One"),
                link("a1", "C2", "NIA", org_id="222", org_name="Org Two"),
                link("a2", "C3", "NCI"),
            ],
        )

    def test_empty_graph_json(self):
        from memomap.report import FlowGraph

        payload = emit_sankey(FlowGraph("m", (), ()))[0]
        assert b'"nodes": []' in payload and b'"edges": []' in payload

    def test_json_deterministic(self):
        assert emit_sankey(self.make_graph())[0] == emit_sankey(self.make_graph())[0]

    def test_json_node_order(self):
        import json as jsonlib

        payload = jsonlib.loads(emit_sankey(self.make_graph())[0])
        kinds = [n["kind"] for n in payload["nodes"]]
        assert kinds == sorted(kinds, key=["funder", "org", "other_org", "unknown_org", "memo"].index)

    def test_svg_ribbon_conservation(self):
        graph = self.make_graph()
        svg = emit_sankey(graph)[1].decode("utf-8")
        widths_left = [
            float(m)
            for m in re.findall(r'ribbon-left[^>]*stroke-width="([0-9.]+)"', svg)
        ]
        widths_right = [
            float(m)
            for m in re.findall(r'ribbon-right[^>]*stroke-width="([0-9.]+)"', svg)
        ]
        from memomap.report import _SVG_SCALE

        funded = 2
        assert abs(sum(widths_left) - funded * _SVG_SCALE) <= 0.5
        assert abs(sum(widths_right) - funded * _SVG_SCALE) <= 0.5

    def test_svg_deterministic(self):
        assert emit_sankey(self.make_graph())[1] == emit_sankey(self.make_graph())[1]


class TestTables:
    def test_single_funder_hundred_percent(self):
        links = [link("a1", "C1", "NCI"), link("a2", "C2", "NCI")]
        funder_csv, _ = emit_tables(links, [], [])
        lines = funder_csv.strip().splitlines()
        assert lines[1].startswith("NCI,NCI,2,100.00")

    def test_blank_stats_for_small_entities(self):
        links = [link("a1", "C1", "NCI"), link("a2", "C2", "PHS")]
        stats = [StatResult("NCI", 12, 5.0, 2.0, 8.0, 0.001)]
        funder_csv, _ = emit_tables(links, stats, [])
        rows = {r.split(",")[0]: r for r in funder_csv.strip().splitlines()[1:]}
        assert rows["NCI"].endswith("12,5,2,8,0.001")
        assert rows["PHS"].endswith(",,,,")

    def test_recipient_unknown_row(self):
        links = [
            link("a1", "C1", "NCI", org_id="111", org_name="Org One"),
            link("a2", "C2", "NCI"),
        ]
        _, recipient_csv = emit_tables(links, [], [])
        rows = recipient_csv.strip().splitlines()[1:]
        entities = [r.split(",")[0] for r in rows]
        assert "UNKNOWN" in entities and "111" in entities

    def test_percent_column_sums_to_hundred(self):
        rng = random.Random(33)
        links = [
            link(f"a{i}", f"C{i}", rng.choice(["NCI", "NIA", "NHLBI", "PHS", "UNMAPPED"]))
            for i in range(57)
        ]
        funder_csv, recipient_csv = emit_tables(links, [], [])
        for text in (funder_csv, recipient_csv):
            rows = text.strip().splitlines()[1:]
            total = sum(float(r.split(",")[3]) for r in rows)
            assert abs(total - 100.0) <= 0.01 * len(rows)

    def test_published_share_column(self):
        # Spot cells of the public funder table: counts over N = 2742.
        links = []
        for funder, count in (("NCATS", 200), ("NCI", 566), ("NHLBI", 552), ("OTHER", 1424)):
            links += [link(f"{funder}{i}", f"C{funder}{i}", funder) for i in range(count)]
        funder_csv, _ = emit_tables(links, [], [])
        cells = {
            r.split(",")[0]: r.split(",")[3] for r in funder_csv.strip().splitlines()[1:]
        }
        assert cells["NCATS"] == "7.29"
        assert cells["NCI"] == "20.64"
        assert cells["NHLBI"] == "20.13"


class TestFlags:
    def test_no_retractions(self, small_records):
        resolution = [resolved("m1", 0, "1001")]
        assert flag_retracted(resolution, small_records) == []

    def test_one_article_two_memos(self, small_records):
        resolution = [resolved("m1", 0, "1003"), resolved("m2", 0, "1003")]
        flags = flag_retracted(resolution, small_records)
        assert [(f.memo_id, f.article_id) for f in flags] == [("m1", "1003"), ("m2", "1003")]

    def test_matches_set_join_oracle(self, small_records):
        rng = random.Random(44)
        resolution = [
            resolved(f"m{rng.randint(1, 4)}", i, rng.choice(["1001", "1002", "1003"]))
            for i in range(30)
        ]
        retracted_ids = {
            r.article_id for r in (small_records[a] for a in ("1001", "1002", "1003")) if r.retracted
        }
        expected = sorted(
            {
                (r.memo_id, r.article_id)
                for r in resolution
                if r.article_id in retracted_ids
            }
        )
        flags = flag_retracted(resolution, small_records)
        assert [(f.memo_id, f.article_id) for f in flags] == expected

    def test_duplicate_citation_single_flag(self, small_records):
        resolution = [resolved("m1", 0, "1003"), resolved("m1", 1, "1003")]
        assert len(flag_retracted(resolution, small_records)) == 1

    def test_matches_set_join_oracle_on_random_cases(self):
        rng = random.Random(45)
        for case in range(250):
            retracted = {f"A{i}": rng.random() < 0.4 for i in range(rng.randint(0, 6))}
            records = {
                a: ArticleRecord(a, f"Title {a}", (), "J", 2000, retracted=flag)
                for a, flag in retracted.items()
            }
            # Ids A0-A8: some have no record, as a remote answer may name one.
            resolution = []
            for ordinal in range(rng.randint(0, 25)):
                method = rng.choice([METHOD_LEXICAL, METHOD_REMOTE, METHOD_UNRESOLVED])
                article_id = None if method == METHOD_UNRESOLVED else f"A{rng.randint(0, 8)}"
                memo_id = f"m{rng.randint(0, 4)}"
                resolution.append(ResolutionResult(memo_id, ordinal, article_id, None, method))
            rng.shuffle(resolution)
            expected = oracle_flag_retracted(resolution, records)
            assert flag_retracted(iter(resolution), records) == expected, case


def resolution_rows(counts: dict[str, tuple[int, int, int]]) -> list[ResolutionResult]:
    """Per memo, (lexical, remote_fallback, unresolved) rows in that order."""
    rows = []
    for memo_id, (lexical, remote, unresolved) in counts.items():
        methods = [METHOD_LEXICAL] * lexical + [METHOD_REMOTE] * remote
        methods += [METHOD_UNRESOLVED] * unresolved
        for ordinal, method in enumerate(methods):
            article_id = None if method == METHOD_UNRESOLVED else f"{memo_id}{ordinal}"
            score = 0.9 if method == METHOD_LEXICAL else None
            rows.append(ResolutionResult(memo_id, ordinal, article_id, score, method))
    return rows


class TestCoverageReport:
    def test_two_memos_median(self):
        scatter, summary = coverage_report(resolution_rows({"b": (8, 0, 2), "a": (5, 1, 4)}))
        assert scatter.splitlines()[1:] == ["a,10,60.0", "b,10,80.0"]
        assert summary.splitlines()[1] == "2,70.0,10.0"

    def test_full_coverage(self):
        rows = resolution_rows({m: (3, 2, 0) for m in "abcd"})
        _, summary = coverage_report(rows)
        assert summary.splitlines()[1] == "4,100.0,0.0"

    def test_empty_corpus(self):
        scatter, summary = coverage_report([])
        assert scatter.strip() == "memo_id,fragment_count,linked_pct"
        assert summary.splitlines()[1] == "0,,"

    @pytest.mark.parametrize(
        "counts",
        [
            {},
            {"m": (0, 0, 3)},
            {"m": (2, 1, 0)},
            {"a": (0, 0, 2), "b": (1, 2, 1), "c": (0, 3, 0)},
        ],
        ids=["no-memo", "all-unresolved", "one-memo", "remote-fallback"],
    )
    def test_matches_per_memo_count_oracle(self, counts):
        rows = resolution_rows(counts)
        assert coverage_report(rows) == oracle_coverage(rows)

    def test_matches_per_memo_count_oracle_on_random_cases(self):
        rng = random.Random(30)
        for case in range(200):
            counts = {
                f"m{i}": (rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 4))
                for i in range(rng.randint(0, 6))
            }
            rows = resolution_rows(counts)  # a memo of (0, 0, 0) has no row
            rng.shuffle(rows)
            assert coverage_report(iter(rows)) == oracle_coverage(rows), case
