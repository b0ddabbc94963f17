"""Scale goldens: the benchmark workloads' artifacts, pinned by sha256.

The fixture goldens cover 3 memos. This test generates both benchmark
workloads at their smoke size with ``perfbench/gen.py`` (which imports
nothing from the package), runs ``all``, then ``link``, ``stats``,
``report`` and ``report --memo``, and compares the sha256 of every file in
the working directory, manifests included, with ``scale_goldens.json``.
Manifests can be pinned because their config hash covers no paths, so the
temporary directory's name does not reach them. The single-stage re-runs
must leave exactly the tree ``all`` wrote.

The same run at the benchmark's full size (seed 11) is pinned in
``scale_goldens_full.json``. It takes too long for the test suite, so the
script checks it, and CI runs that check under ``PYTHONHASHSEED`` 0 and 1:

    PYTHONPATH=src python tests/test_scale_goldens.py --size full --check

A change that means to alter output bytes re-records both tables with

    PYTHONPATH=src python tests/test_scale_goldens.py
    PYTHONPATH=src python tests/test_scale_goldens.py --size full

and says why in CHANGES.md; a refactor or a speed-up never does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from memomap.cli import EXIT_OK, main

from conftest import perfbench_gen

TABLES = {
    "smoke": Path(__file__).parent / "scale_goldens.json",
    "full": Path(__file__).parent / "scale_goldens_full.json",
}
WORKLOADS = ("resolve-zipf", "tail-rerun")
SEED = 11


def _digests(workdir: Path) -> dict[str, str]:
    return {
        p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


def run_workload(workload: str, directory: Path, size: str = "smoke") -> dict:
    """Every artifact's sha256 after ``all`` and after ``report --memo``."""
    perfbench_gen().generate(workload, SEED, directory, size)
    config = str(directory / "config.yaml")
    workdir = directory / "out"
    assert main(["all", "--config", config]) == EXIT_OK
    after_all = _digests(workdir)
    for command in ("link", "stats", "report"):
        assert main([command, "--config", config]) == EXIT_OK
        assert _digests(workdir) == after_all, f"{workload}: {command} re-run changed bytes"
    first_line = (workdir / "resolve" / "resolution.jsonl").read_text(encoding="utf-8")
    memo_id = json.loads(first_line.splitlines()[0])["memo_id"]
    assert main(["report", "--config", config, "--memo", memo_id]) == EXIT_OK
    return {"all": after_all, "memo": memo_id, "report --memo": _digests(workdir)}


def mismatches(workload: str, expected: dict, produced: dict) -> list[str]:
    """Each way ``produced`` departs from the pinned ``expected``."""
    found = []
    if produced["memo"] != expected["memo"]:
        found.append(f"{workload}: memo {produced['memo']!r}, pinned {expected['memo']!r}")
    for step in ("all", "report --memo"):
        if sorted(produced[step]) != sorted(expected[step]):
            found.append(f"{workload}: {step} file set")
        for name, digest in expected[step].items():
            if produced[step].get(name, digest) != digest:
                found.append(f"{workload}: {step}: {name} differs")
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_artifacts_match_pins(tmp_path, workload):
    expected = json.loads(TABLES["smoke"].read_text(encoding="utf-8"))[workload]
    assert mismatches(workload, expected, run_workload(workload, tmp_path)) == []


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description="Record or check a scale-golden table.")
    parser.add_argument("--size", choices=sorted(TABLES), default="smoke")
    parser.add_argument("--check", action="store_true", help="compare with the table, not record it")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        table = {w: run_workload(w, Path(scratch) / w, args.size) for w in WORKLOADS}
    path = TABLES[args.size]
    if args.check:
        pinned = json.loads(path.read_text(encoding="utf-8"))
        found = [line for w in WORKLOADS for line in mismatches(w, pinned[w], table[w])]
        print("\n".join(found) or f"{path.name}: every artifact matches")
        sys.exit(1 if found else 0)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
