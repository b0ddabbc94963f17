"""Tests of the benchmark itself, at the tiny smoke size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
from run import Command, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.SIZES))
def test_same_seed_gives_same_bytes(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", "smoke")
    gen.generate(workload, 7, tmp_path / "b", "smoke")
    gen.generate(workload, 8, tmp_path / "c", "smoke")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["memos.jsonl"] != _files(tmp_path / "c")["memos.jsonl"]


@pytest.mark.parametrize("workload", sorted(gen.SIZES))
def test_amount_of_work_does_not_depend_on_seed(tmp_path, workload):
    size = gen.SIZES[workload]["smoke"]
    award_rows = set()
    for seed in (1, 2, 3):
        labels = gen.generate(workload, seed, tmp_path / str(seed), "smoke")
        assert len(labels) == size["fragments"]
        distractors = sum(label["article_id"] is None for label in labels)
        assert distractors == round(size["fragments"] * gen.DISTRACTOR_SHARE)
        award_rows.add(len((tmp_path / str(seed) / "awards.jsonl").read_text().splitlines()))
    assert len(award_rows) == 1


def test_layer_metrics_sum_outermost_spans_and_subtract_children(tmp_path):
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["pipeline.run_resolve", 1.0, 9.0, 0, [2, 100]],
        ["biblio.search", 2.0, 5.0, 1, [10]],
        ["biblio.search", 5.0, 6.0, 1, [0]],
        ["resolver.score_candidate", 6.0, 6.5, 1, None],
    ]
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"command": "0", "spans": spans}) + "\n"
                     + json.dumps({"dump_s": 0.5}) + "\n")
    metrics = layer_metrics([Command(["resolve"], 0, 11.0, 10.0, 1.0, 3, trace)])
    assert metrics["pipeline.run_resolve.s"] == 8.0
    assert metrics["pipeline.run_resolve.self_s"] == 3.5
    assert metrics["biblio.search.s"] == 4.0
    assert metrics["biblio.search.calls"] == 2
    assert metrics["biblio.search.results"] == 10
    assert metrics["pipeline.files_written"] == 2
    assert metrics["pipeline.bytes_written"] == 100
    assert metrics["cli.startup_s"] == 0.5
    assert metrics["cli.stderr_lines"] == 3


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_listed_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "resolve-zipf", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
