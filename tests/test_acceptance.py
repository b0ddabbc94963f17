"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a green run (pytest always shows them on failures).
"""

from __future__ import annotations

import contextlib
import math
import random
import shutil
import time
from fractions import Fraction
import pytest

from memomap.biblio import ingest_records, read_records
from memomap.cli import EXIT_OK, main
from memomap.config import load_config
from memomap.funding import Award
from memomap.pipeline import LINKS, RESOLUTION
from memomap.report import build_flow_graph
from memomap.resolver import ResolverConfig, resolve_fragment
from memomap.stats import (
    kld,
    normal_approximation_p,
    share_of_total,
    wilcoxon_signed_rank,
    yearly_shares,
)

from conftest import cited_links, imputed_award, write_jsonl
from oracles import convolution_p, enumeration_p, oracle_impute
from synth import build_labeled_corpus
from test_pipeline import FIXTURES, INPUT_FILES, read_tree


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {title}: FAIL")
        raise
    print(f"[criterion {number}] {title}: PASS")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One timed full run on the bundled fixture, shared by criteria 6 and 7."""
    workdir = tmp_path_factory.mktemp("acceptance")
    for name in INPUT_FILES:
        shutil.copy(FIXTURES / name, workdir / name)
    start = time.perf_counter()
    code = main(["all", "--config", str(workdir / "config.yaml")])
    elapsed = time.perf_counter() - start
    return workdir, code, elapsed


def tie_free_sample(rng: random.Random, n: int) -> list[float]:
    while True:
        xs = [round(rng.uniform(-50, 50), 4) for _ in range(n)]
        xs = [x or 1.0 for x in xs]
        if len({abs(x) for x in xs}) == len(xs):
            return xs


# (count, published percent) rows of the funder share table, N = 2742.
PUBLISHED_SHARES = [
    (38, 1.39), (2, 0.07), (2, 0.07), (1, 0.04), (1, 0.04), (2, 0.07),
    (10, 0.36), (19, 0.69), (5, 0.18), (12, 0.44), (4, 0.15), (1, 0.04),
    (1, 0.04), (6, 0.22), (2, 0.07), (1, 0.04), (2, 0.07), (20, 0.73),
    (51, 1.86), (1, 0.04), (3, 0.11), (2, 0.07), (200, 7.29), (7, 0.26),
    (2, 0.07), (2, 0.07), (2, 0.07), (566, 20.64), (3, 0.11), (28, 1.02),
    (1, 0.04), (552, 20.13), (335, 12.22), (79, 2.88), (58, 2.12),
    (13, 0.47), (23, 0.84), (45, 1.64), (4, 0.15), (7, 0.26), (234, 8.53),
    (13, 0.47), (36, 1.31), (2, 0.07), (89, 3.25), (5, 0.18), (108, 3.94),
    (8, 0.29), (1, 0.04), (4, 0.15), (1, 0.04), (86, 3.14), (1, 0.04),
    (1, 0.04), (1, 0.04), (17, 0.62), (2, 0.07), (20, 0.73),
]


def test_criterion_1_share_arithmetic():
    with criterion(1, "share arithmetic reproduces the published percent column"):
        start = time.perf_counter()
        total = 2742
        assert sum(c for c, _ in PUBLISHED_SHARES) == total
        for count, published in PUBLISHED_SHARES:
            assert abs(share_of_total(count, total) - published) <= 0.01, (count, published)
        assert round(share_of_total(566, total), 2) == 20.64
        assert round(share_of_total(552, total), 2) == 20.13
        assert round(share_of_total(200, total), 2) == 7.29
        assert time.perf_counter() - start < 1.0


def test_criterion_2_wilcoxon_exactness():
    with criterion(2, "signed-rank p-values: exact vs enumeration, ties too; approx within 0.01"):
        start = time.perf_counter()
        rng = random.Random(777)
        for _ in range(500):
            xs = tie_free_sample(rng, rng.randint(1, 12))
            assert wilcoxon_signed_rank(xs) == enumeration_p(xs), xs
        for _ in range(300):
            # Share differences over small denominators: exact ties, and some zeros.
            n = rng.randint(1, 12)
            xs = [Fraction(rng.randint(-4, 4), rng.choice((2, 3, 6))) for _ in range(n)]
            if any(xs):
                assert wilcoxon_signed_rank(xs) == enumeration_p(xs), xs
        for n in range(10, 26):
            for _ in range(6):
                xs = tie_free_sample(rng, n)
                exact = convolution_p(xs)
                approx = normal_approximation_p(xs)
                assert abs(exact - approx) <= 0.01, (n, exact, approx)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_kld_properties():
    with criterion(3, "concentration measure: uniform zero, simplex bounds, fixed point"):
        for n in range(2, 65):
            assert abs(kld([1.0 / n] * n)) <= 1e-12
        rng = random.Random(778)
        for _ in range(1000):
            n = rng.randint(2, 32)
            raw = [rng.random() + 1e-12 for _ in range(n)]
            total = sum(raw)
            p = [x / total for x in raw]
            value = kld(p)
            assert 0.0 <= value <= math.log(n), (n, value)
        assert abs(kld([0.5, 0.25, 0.25]) - 0.05889) <= 1e-4


def test_criterion_4_year_imputation():
    with criterion(4, "award-year imputation matches the brute-force rule"):
        rng = random.Random(779)
        for _ in range(1000):
            pub_year = rng.randint(1980, 2020)
            n_projects = rng.randint(0, 8)
            records = [
                Award(
                    full_project_number=f"R01ZZ{rng.randint(0, 99999):05d}-{i:02d}",
                    core_project_number="CORE",
                    funder_code="NCI",
                    fiscal_year=rng.randint(1975, 2024),
                )
                for i in range(n_projects)
            ]
            got = imputed_award(records, "CORE", pub_year)
            assert got == oracle_impute(pub_year, records)
            if not records:
                assert got == (None, pub_year - 1)


def test_criterion_5_resolution_quality(tmp_path):
    with criterion(5, "labeled 200-fragment corpus: precision >= 0.95, recall >= 0.90"):
        records, labeled = build_labeled_corpus()
        assert len(labeled) == 200
        index = ingest_records(read_records(write_jsonl(tmp_path / "records.jsonl", records)))

        runs = []
        for _ in range(2):
            results = [resolve_fragment(frag, index, ResolverConfig()) for frag, _ in labeled]
            runs.append(b"".join(RESOLUTION.encode(results)))
        assert runs[0] and runs[0] == runs[1]

        true_positive = false_positive = 0
        n_true = sum(1 for _, expected in labeled if expected is not None)
        for (_, expected), result in zip(labeled, results):
            if result.article_id is None:
                continue
            if result.article_id == expected:
                true_positive += 1
            else:
                false_positive += 1
        precision = true_positive / (true_positive + false_positive)
        recall = true_positive / n_true
        assert precision >= 0.95, precision
        assert recall >= 0.90, recall


def test_criterion_6_flow_conservation(pipeline_run):
    with criterion(6, "flow graphs conserve weight and merges preserve totals"):
        workdir, code, _ = pipeline_run
        assert code == EXIT_OK
        config = load_config(workdir / "config.yaml")
        links = LINKS.read(config).objects
        resolution = RESOLUTION.read(config).objects
        linked_articles = {l.article_id for l in links}
        memo_ids = sorted({r.memo_id for r in resolution})
        assert memo_ids
        for memo_id in memo_ids:
            funded = {
                r.article_id
                for r in resolution
                if r.memo_id == memo_id and r.article_id in linked_articles
            }
            memo_links = cited_links(memo_id, links, resolution)
            totals = set()
            for top_k in (1, 2, 3, 10):
                graph = build_flow_graph(memo_id, memo_links, top_k=top_k)
                edges = [(e.src, e.dst, Fraction(e.weight, graph.denominator)) for e in graph.edges]
                funder_out = sum((w for s, _, w in edges if s.startswith("funder:")), Fraction(0))
                org_in = funder_out
                memo_in = sum((w for _, d, w in edges if d.startswith("memo:")), Fraction(0))
                assert funder_out == org_in == memo_in == Fraction(len(funded))
                assert abs(float(funder_out) - len(funded)) <= 1e-9
                totals.add((funder_out, memo_in))
            assert len(totals) == 1  # merging never changes any column total


def test_criterion_7_end_to_end_golden(pipeline_run):
    with criterion(7, "full fixture run matches checked-in goldens byte for byte"):
        workdir, code, elapsed = pipeline_run
        assert code == EXIT_OK
        assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"
        golden_root = FIXTURES / "golden"
        golden = read_tree(golden_root)
        assert golden, "golden tree missing"
        produced = read_tree(workdir / "out")
        for name, expected in sorted(golden.items()):
            assert name in produced, f"missing artifact {name}"
            assert produced[name] == expected, f"artifact differs: {name}"
        artifacts = {name for name in produced if name.rsplit("/", 1)[-1] != "manifest.json"}
        assert artifacts == set(golden), "produced files are not the golden file set"


def test_criterion_8_share_difference_properties():
    with criterion(8, "share differences sum to zero and negate under set swap"):
        rng = random.Random(780)
        for _ in range(200):
            entities = "ABCDEFG"[: rng.randint(2, 7)]
            years = range(2000, 2000 + rng.randint(1, 6))
            # Every entity funds at least one award in each set, so both
            # sets share one entity universe and shares each sum to 100.
            memo = [(e, rng.choice(years)) for e in entities] + [
                (rng.choice(entities), rng.choice(years))
                for _ in range(rng.randint(1, 60))
            ]
            pool = [(e, rng.choice(years)) for e in entities] + [
                (rng.choice(entities), rng.choice(years))
                for _ in range(rng.randint(1, 200))
            ]
            forward = yearly_shares(memo, pool)
            for year in {r.year for r in forward}:
                assert abs(math.fsum(r.diff_pct for r in forward if r.year == year)) < 1e-9
            backward = yearly_shares(pool, memo)
            forward_map = {(r.entity, r.year): r.diff_pct for r in forward}
            backward_map = {(r.entity, r.year): r.diff_pct for r in backward}
            for key in forward_map.keys() & backward_map.keys():
                assert backward_map[key] == -forward_map[key]
