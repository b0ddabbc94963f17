"""End-to-end benchmark of the memomap CLI.

Run from the repository root:

    python3 perfbench/run.py --workload resolve-zipf --seed 1 --seconds 30 --trace 0

The run generates seeded inputs (perfbench/gen.py), runs ``python3 -m
memomap.cli`` on them as child processes, one at a time, checks every
command's outputs, and prints one JSON object as its last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list: wall time, CPU time and max
RSS come from ``os.wait4`` on each child. With ``--trace 1`` they are its
``per_layer`` list, taken from spans that perfbench/traced_cli.py records
around each module's public functions.

Workloads (closed loop, one client, one command at a time):

- resolve-zipf: timed phase is one ``memomap all`` from raw inputs in a
  fresh directory; ``resolve`` dominates. Four ``report --memo`` commands
  follow outside the timed phase, for ``memo_report_p50_s``.
- tail-rerun: set-up primes the workdir with ``memomap all``; the timed
  phase re-runs ``link``, ``stats`` and ``report``, then ``report --memo``
  for six memos, and runs four times per set-up. ``resolve`` and
  ``ingest`` do no work in it.

A trace-0 run repeats (set-up, timed phases) cycles until ``--seconds`` have
passed, and at least twice, and reports medians over the timed phases
(set-up time: over the set-ups, two per cycle on resolve-zipf). A
trace-1 run sets up once, then alternates untraced and traced timed phases;
``trace.overhead_ratio`` compares the two.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen
from traced_cli import TARGETS

BENCH_DIR = Path(__file__).resolve().parent
MIN_CYCLES = 2
DEADLINE_S = 165.0  # every run must end within 180 s, children included
MEMO_REPORTS = {"resolve-zipf": 4, "tail-rerun": 6}
# Timed phases per set-up. Re-running the tail on a primed workdir is the
# tail-rerun workload itself, so it runs four times per (costly) set-up:
# this samples more of the run's time, which steadies the medians on a
# shared machine whose speed drifts. resolve-zipf needs a fresh workdir each time.
PHASES_PER_SETUP = {"resolve-zipf": 1, "tail-rerun": 4}
# Set-ups timed per cycle. resolve-zipf's set-up (input generation, about
# 1 s) is cheap next to its timed phase, so it is timed twice per cycle, the
# second time into a spare directory, to give setup_s's median more samples.
SETUPS_PER_CYCLE = {"resolve-zipf": 2, "tail-rerun": 1}
TAIL_STAGES = ("link", "stats", "report")
CONFIG = ["--config", "config.yaml"]


@dataclass
class Command:
    args: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr_lines: int
    trace: Path | None
    ok: bool = True


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_hashes(path: Path, prefix: str = "") -> dict[str, str]:
    """sha256 of every artifact under ``path`` by relative name; manifests excluded."""
    return {
        prefix + p.relative_to(path).as_posix(): _sha256(p)
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


class Runner:
    """Runs memomap commands one at a time and records output checks.

    The first full pipeline run of a benchmark run fixes the reference
    artifacts; every later command's outputs must equal them byte for byte.
    """

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.commands: list[Command] = []
        self.reference: dict[str, str] | None = None
        self.precision = self.recall = 0.0

    def run(self, args: list[str], cwd: Path, traced: bool = False) -> Command:
        trace = None
        if traced:
            trace = self.work / f"trace{len(self.commands)}.jsonl"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace),
                    str(len(self.commands)), *args]
        else:
            argv = [sys.executable, "-m", "memomap.cli", *args]
        log = self.work / "stderr.log"
        with log.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = log.read_bytes()
        cmd = Command(args, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stderr.count(b"\n"), trace)
        self.commands.append(cmd)
        if cmd.code != 0:
            tail = stderr.decode("utf-8", "replace").splitlines()[-5:]
            self.fail(cmd, f"exit code {cmd.code}: " + " | ".join(tail))
        return cmd

    def fail(self, cmd: Command, why: str) -> None:
        if cmd.ok:
            print(f"FAILED memomap {' '.join(cmd.args)}: {why}", file=sys.stderr)
        cmd.ok = False

    def expect_full(self, cmd: Command, workdir: Path, labels: list[dict]) -> None:
        """After ``all``: artifacts equal the reference (the first one sets it)."""
        out = workdir / "out"
        hashes = tree_hashes(out)
        if self.reference is None:
            if not cmd.ok:
                return
            aligned, self.precision, self.recall = resolution_quality(
                out / "resolve" / "resolution.jsonl", labels)
            if not aligned:
                self.fail(cmd, "resolution rows do not match the generated fragments")
            self.reference = hashes
        elif hashes != self.reference:
            self.fail(cmd, "artifacts differ from the first run's")

    def expect_stage(self, cmd: Command, out: Path, stage: str) -> None:
        """A re-run stage rewrites exactly the reference artifacts."""
        want = {k: v for k, v in (self.reference or {}).items() if k.startswith(stage + "/")}
        if not want or tree_hashes(out / stage, stage + "/") != want:
            self.fail(cmd, f"{stage} artifacts differ from the primed run's")

    def expect_memo(self, cmd: Command, out: Path, memo: str) -> None:
        """``report --memo X`` writes sankey/X.{json,svg} equal to the full report's."""
        for ext in ("json", "svg"):
            name = f"report/sankey/{memo}.{ext}"
            path = out / name
            if not path.is_file() or (self.reference or {}).get(name) != _sha256(path):
                self.fail(cmd, f"{name} differs from the full report's")

    def digest(self) -> str:
        lines = "".join(f"{k} {v}\n" for k, v in sorted((self.reference or {}).items()))
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def resolution_quality(path: Path, labels: list[dict]) -> tuple[bool, float, float]:
    """(fragments aligned with labels, precision, recall) of resolution.jsonl."""
    truth = {(l["memo_id"], l["ordinal"]): l["article_id"] for l in labels}
    with path.open(encoding="utf-8") as fh:
        got = {(r["memo_id"], r["ordinal"]): r.get("article_id") for r in map(json.loads, fh)}
    resolved = [key for key, article in got.items() if article is not None]
    correct = sum(1 for key in resolved if truth.get(key) == got[key])
    labelled = sum(1 for article in truth.values() if article is not None)
    return got.keys() == truth.keys(), correct / max(1, len(resolved)), correct / max(1, labelled)


class Workload:
    def __init__(self, runner: Runner, name: str, seed: int, size: str) -> None:
        self.runner, self.name, self.seed, self.size = runner, name, seed, size
        self.labels: list[dict] = []
        self.picks: list[str] = []

    def setup(self, workdir: Path) -> float:
        """Generate inputs (and, on tail-rerun, prime the workdir); returns seconds."""
        start = time.perf_counter()
        self.labels = gen.generate(self.name, self.seed, workdir, self.size)
        if self.name == "tail-rerun":
            prime = self.runner.run(["all", *CONFIG], workdir)
            self.runner.expect_full(prime, workdir, self.labels)
        elapsed = time.perf_counter() - start
        memos = sorted({label["memo_id"] for label in self.labels})
        rng = random.Random(f"memo-picks:{self.name}:{self.seed}")
        self.picks = rng.sample(memos, min(MEMO_REPORTS[self.name], len(memos)))
        return elapsed

    def timed_phase(self, workdir: Path, traced: bool = False) -> list[Command]:
        if self.name == "resolve-zipf":
            cmd = self.runner.run(["all", *CONFIG], workdir, traced)
            self.runner.expect_full(cmd, workdir, self.labels)
            return [cmd]
        commands = []
        for stage in TAIL_STAGES:
            cmd = self.runner.run([stage, *CONFIG], workdir, traced)
            self.runner.expect_stage(cmd, workdir / "out", stage)
            commands.append(cmd)
        return commands + self.memo_reports(workdir, traced)

    def memo_reports(self, workdir: Path, traced: bool = False) -> list[Command]:
        commands = []
        for memo in self.picks:
            cmd = self.runner.run(["report", "--memo", memo, *CONFIG], workdir, traced)
            self.runner.expect_memo(cmd, workdir / "out", memo)
            commands.append(cmd)
        return commands


def _keep_going(done: int, minimum: int, began: float, seconds: float, runner: Runner) -> bool:
    """Start another cycle while under ``seconds`` (or ``minimum``) and the deadline allows."""
    if done == 0:
        return True
    now = time.monotonic()
    cycle = (now - began) / done
    if now + cycle > runner.deadline:
        return False
    return done < minimum or now - began + cycle <= seconds


def end_to_end(workload: Workload, seconds: float) -> dict[str, float]:
    runner = workload.runner
    setups, walls, cpus, rss, memo_walls = [], [], [], [], []
    began = time.monotonic()
    for i in itertools.count():
        if not _keep_going(i, MIN_CYCLES, began, seconds, runner):
            break
        workdir = runner.work / f"cycle{i}"
        setups.append(workload.setup(workdir))
        for j in range(1, SETUPS_PER_CYCLE[workload.name]):
            spare = runner.work / f"cycle{i}-spare{j}"
            setups.append(workload.setup(spare))
            shutil.rmtree(spare)
        for _ in range(PHASES_PER_SETUP[workload.name]):
            timed = workload.timed_phase(workdir)
            extra = workload.memo_reports(workdir) if workload.name == "resolve-zipf" else []
            memo = [c for c in timed + extra if "--memo" in c.args]
            walls.append(sum(c.wall_s for c in timed))
            cpus.append(sum(c.cpu_s for c in timed))
            rss.append(max(c.rss_mb for c in timed))
            memo_walls += [c.wall_s for c in memo]
            print(f"cycle {i}: setup {setups[-1]:.3f} s, timed wall {walls[-1]:.3f} s, "
                  f"cpu {cpus[-1]:.3f} s, memo reports {[round(c.wall_s, 3) for c in memo]}",
                  file=sys.stderr)
        shutil.rmtree(workdir)
    ok = sum(c.ok for c in runner.commands)
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "refs_per_s": len(workload.labels) / wall,
        "memo_report_p50_s": statistics.median(memo_walls),
        "ok_ops_ratio": ok / len(runner.commands),
        "resolve_precision": runner.precision,
        "resolve_recall": runner.recall,
    }


def layer_metrics(commands: list[Command]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced timed phase.

    A name's time sums its outermost spans (a span nested in one of the same
    name is not counted again); self time subtracts the time of the span's
    direct children.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, list[int]] = {}
    startups = []
    for cmd in commands:
        head, tail = map(json.loads, cmd.trace.read_text(encoding="utf-8").splitlines())
        spans = head["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        main_s = 0.0
        for i, (name, start, end, parent, extra) in enumerate(spans):
            calls[name] += 1
            if extra:
                counts[name] = [a + b for a, b in itertools.zip_longest(counts.get(name, []), extra, fillvalue=0)]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += end - start
                own[name] += end - start - covered[i]
                if name == "cli.main":
                    main_s += end - start
        startups.append(cmd.wall_s - main_s - tail["dump_s"])

    def count(name: str, i: int = 0) -> int:
        return (counts.get(name) or [0, 0])[i]

    metrics: dict[str, float] = {}
    for name in TARGETS:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = own[name]
        metrics[f"{name}.calls"] = calls[name]
    stages = [f"pipeline.run_{s}" for s in ("ingest", "resolve", "link", "stats", "report")]
    lexical = count("resolver.resolve_fragment")
    metrics.update({
        "cli.startup_s": statistics.median(startups),
        "cli.stderr_lines": sum(c.stderr_lines for c in commands),
        "pipeline.files_written": sum(count(s) for s in stages),
        "pipeline.bytes_written": sum(count(s, 1) for s in stages),
        "corpus.fragments": count("corpus.extract_fragments"),
        "corpus.memos_without_section": count("corpus.extract_fragments", 1),
        "biblio.search.results": count("biblio.search"),
        "resolver.lexical_ratio": lexical / max(1, calls["resolver.resolve_fragment"]),
        "resolver.scores_per_accept": calls["resolver.score_candidate"] / max(1, lexical),
        "remote.hit_ratio": count("remote.lookup") / max(1, calls["remote.lookup"]),
        "funding.links": count("funding.build_links"),
    })
    return metrics


def per_layer(workload: Workload, seconds: float) -> dict[str, float]:
    runner = workload.runner
    workdir = runner.work / "cycle0"
    workload.setup(workdir)
    samples = []
    began = time.monotonic()
    while _keep_going(len(samples), 1, began, seconds, runner):
        plain = workload.timed_phase(workdir)
        traced = workload.timed_phase(workdir, traced=True)
        if not all(c.ok for c in traced):
            break
        metrics = layer_metrics(traced)
        metrics["trace.overhead_ratio"] = sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain)
        samples.append(metrics)
    if not samples:
        return {}
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "memomap" / "cli.py").is_file() or not spec_path.is_file():
        print("run from the repository root: src/memomap and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, time.monotonic() + DEADLINE_S)
    workload = Workload(runner, args.workload, args.seed, args.size)
    try:
        if args.trace:
            values = per_layer(workload, args.seconds)
        else:
            values = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if values and m["name"] not in values]
    if missing:
        print(f"BENCHMARK.json lists metrics this run does not compute: {missing}", file=sys.stderr)
        return 1
    failed = sum(not c.ok for c in runner.commands)
    print(f"artifact digest ({args.workload}, seed {args.seed}): {runner.digest()}")
    print(json.dumps({
        "correct": failed == 0 and runner.reference is not None and bool(values),
        "attempted": len(runner.commands),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
