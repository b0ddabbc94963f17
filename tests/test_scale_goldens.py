"""Scale goldens: the benchmark workloads' artifacts, pinned by sha256.

The fixture goldens cover 3 memos. This test generates both benchmark
workloads at their smoke size with ``perfbench/gen.py`` (which imports
nothing from the package), runs ``all``, then ``link``, ``stats``,
``report`` and ``report --memo``, and compares the sha256 of every file in
the working directory, manifests included, with ``scale_goldens.json``.
Manifests can be pinned because their config hash covers no paths, so the
temporary directory's name does not reach them. The single-stage re-runs
must leave exactly the tree ``all`` wrote.

A change that means to alter output bytes re-records the table with

    PYTHONPATH=src python tests/test_scale_goldens.py

and says why in CHANGES.md; a refactor or a speed-up never does.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from memomap.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).parent / "scale_goldens.json"
WORKLOADS = ("resolve-zipf", "tail-rerun")
SEED = 11


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(workdir: Path) -> dict[str, str]:
    return {
        p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


def run_workload(workload: str, directory: Path) -> dict:
    """Every artifact's sha256 after ``all`` and after ``report --memo``."""
    _gen().generate(workload, SEED, directory, "smoke")
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_artifacts_match_pins(tmp_path, workload):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[workload]
    produced = run_workload(workload, tmp_path)
    assert produced["memo"] == expected["memo"]
    for step in ("all", "report --memo"):
        assert sorted(produced[step]) == sorted(expected[step]), f"{workload}: {step} file set"
        for name, digest in expected[step].items():
            assert produced[step][name] == digest, f"{workload}: {step}: {name} differs"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = {w: run_workload(w, Path(scratch) / w) for w in WORKLOADS}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
