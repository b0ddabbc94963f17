"""Signed-rank p-values checked against exact-arithmetic oracles.

Each tested entity's yearly share differences are recomputed as
``Fraction``s from ``link/links.jsonl`` and the award rows
(``oracles.oracle_share_diffs``). The ``stats/tests_*.csv`` tables must test
exactly the entities with at least ``stats.min_obs`` years and a nonzero
difference, each with the oracle's year count. Every p-value from at most
20 nonzero differences must equal the oracle's: by enumeration up to 14,
by dict convolution from 15 to 20. Such differences often tie exactly, and
float rounding splits some of those ties (0/1 - 2/3 and 1/1 - 1/3 round
apart), so this checks the exact differences and the tied-rank null
together.

The check runs on the fixture's golden run and on ``all`` over the
benchmark workloads at smoke size, generated with ``perfbench/gen.py`` for
a few seeds. CI runs it over more seeds, under ``PYTHONHASHSEED`` 0 and 1:

    PYTHONPATH=src python tests/test_exact_p_values.py --seeds 1 40
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from memomap.cli import EXIT_OK, main
from memomap.config import load_config
from memomap.funding import UNMAPPED
from memomap.stats import EXACT_MAX_N

from conftest import perfbench_gen
from oracles import convolution_p, enumeration_p, oracle_share_diffs
from test_pipeline import FIXTURES

WORKLOADS = ("resolve-zipf", "tail-rerun")
# Each seed tests entities in both workloads (resolve-zipf at seed 3 tests
# none), and tail-rerun at seed 10 is the one run of seeds 1-40 whose
# p-values change when the floats are ranked instead of the exact units.
SEEDS = (1, 5, 10)
ENUMERATION_MAX_N = 14


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def p_value_mismatches(
    links_path: Path, awards_path: Path, stats_dir: Path, min_obs: int
) -> tuple[int, list[str]]:
    """(p-values checked, each way the tests tables depart from the oracles)."""
    dated = [link for link in _jsonl(links_path) if link["imputed_year"] is not None]
    awards = _jsonl(awards_path)
    pairs = {
        "funders": (
            [(l["funder_code"], l["imputed_year"]) for l in dated if l["funder_code"] != UNMAPPED],
            [(a["funder_code"], a["fiscal_year"]) for a in awards],
        ),
        "orgs": (
            [(l["org_id"], l["imputed_year"]) for l in dated if l.get("org_id") is not None],
            [(a["org_id"], a["fiscal_year"]) for a in awards if a.get("org_id") is not None],
        ),
    }
    checked, found = 0, []
    for kind, (memo, pool) in pairs.items():
        with open(stats_dir / f"tests_{kind}.csv", newline="", encoding="utf-8") as handle:
            rows = {row["entity"]: row for row in csv.DictReader(handle)}
        diffs = oracle_share_diffs(memo, pool) if pool else {}
        tested = {e for e, sample in diffs.items() if len(sample) >= min_obs and any(sample)}
        if rows.keys() != tested:
            found.append(f"{kind}: tested {sorted(rows)}, oracle {sorted(tested)}")
        for entity in sorted(rows.keys() & tested):
            row, sample = rows[entity], diffs[entity]
            if int(row["n_obs"]) != len(sample):
                found.append(f"{kind}: {entity}: n_obs {row['n_obs']}, oracle {len(sample)}")
            n = sum(1 for d in sample if d)
            if n > EXACT_MAX_N:
                continue
            oracle = enumeration_p(sample) if n <= ENUMERATION_MAX_N else convolution_p(sample)
            checked += 1
            if float(row["p_value"]) != oracle:
                found.append(f"{kind}: {entity}: p {row['p_value']}, oracle {oracle!r} (n={n})")
    return checked, found


def run_seed(workload: str, seed: int, directory: Path) -> tuple[int, list[str]]:
    """``p_value_mismatches`` after ``all`` on a smoke-size workload."""
    perfbench_gen().generate(workload, seed, directory, "smoke")
    config = load_config(directory / "config.yaml")
    assert main(["all", "--config", str(directory / "config.yaml")]) == EXIT_OK
    return p_value_mismatches(
        config.paths.workdir / "link" / "links.jsonl",
        directory / "awards.jsonl",
        config.paths.workdir / "stats",
        config.stats.min_obs,
    )


def test_fixture_p_values_match_oracle():
    golden = FIXTURES / "golden"
    min_obs = load_config(FIXTURES / "config.yaml").stats.min_obs
    checked, found = p_value_mismatches(
        golden / "link" / "links.jsonl", FIXTURES / "awards.jsonl", golden / "stats", min_obs
    )
    assert found == [] and checked == 3
    with open(golden / "stats" / "tests_funders.csv", newline="", encoding="utf-8") as handle:
        p_values = {row["entity"]: row["p_value"] for row in csv.DictReader(handle)}
    # NCI's two nonzero differences tie exactly (16.67 each): 2 * 1/4. NHLBI's
    # +16.67 and -16.67 tie only exactly, as the floats differ in the last bit.
    assert p_values["NCI"] == "0.5"
    assert p_values["NHLBI"] == "0.75"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_p_values_match_oracle(tmp_path, workload, seed):
    checked, found = run_seed(workload, seed, tmp_path)
    assert found == []
    assert checked > 0


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description="Check exact p-values over a range of seeds.")
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), default=(1, 40))
    args = parser.parse_args()
    first, last = args.seeds
    total, failures = 0, []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in range(first, last + 1):
            for workload in WORKLOADS:
                checked, found = run_seed(workload, seed, Path(scratch) / f"{workload}-{seed}")
                print(f"{workload} seed {seed}: {checked} checked, {len(found)} mismatches")
                total += checked
                failures += [f"{workload} seed {seed}: {line}" for line in found]
    print("\n".join(failures) or f"every one of {total} p-values matches its oracle")
    sys.exit(1 if failures else 0)
