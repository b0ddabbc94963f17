"""Alternating A/B timing of one memomap command from two source trees.

    python tools/ab.py PARENT_TREE CHANGE_TREE --workload resolve-zipf \
        --seed 41 --pairs 12 --command resolve [--records-scale 16] [--dir DIR]

Each tree is a checkout with ``src/memomap``. The script generates one
workload with ``perfbench/gen.py`` (in a child process, so this process
stays small) and primes the working directory with ``memomap all`` from
each tree. It then runs the command once per side in every pair, the side
that runs first switching from pair to pair, as children with their own
tree on ``PYTHONPATH``.

Before any timing, each side's bytecode is written into its own
``PYTHONPYCACHEPREFIX`` under the scratch directory: ``compileall`` over the
tree's ``src/`` and a priming run for the standard library and the other
imports. A child then pays no compile time even under
``PYTHONDONTWRITEBYTECODE``.

Wall time, CPU time (user + system) and peak RSS come from ``os.wait4``. A
child that exits nonzero, or a run whose artifacts (manifests excluded)
differ from the first priming run's, stops the script with exit status 1.
It prints each side's median and quartiles, the pairs each side won and a
two-sided sign-test p-value. Outside the benchmark and the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_GENERATE = """
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("perfbench_gen", sys.argv[1])
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)
workload, seed, out, scale = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]), int(sys.argv[5])
gen.SIZES[workload]["full"]["records"] *= scale
gen.generate(workload, seed, out, "full")
"""


class Side:
    """One tree: its environment, with its own bytecode cache, and its samples."""

    def __init__(self, name: str, tree: Path, scratch: Path) -> None:
        self.name, self.tree = name, tree.resolve()
        src = self.tree / "src"
        if not (src / "memomap").is_dir():
            sys.exit(f"{tree}: no src/memomap")
        prefix = scratch / f"pycache-{name}"
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(prefix))
        # Priming runs write the bytecode that the timed runs only read.
        self.priming_env = dict(self.env)
        self.priming_env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                       env=self.priming_env, check=True, stdout=subprocess.DEVNULL)
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.rss: list[float] = []

    def run(self, args: list[str], cwd: Path, priming: bool = False) -> tuple[float, float, float]:
        """One child's wall and CPU seconds and peak RSS in MB; exits on failure."""
        env = self.priming_env if priming else self.env
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "memomap.cli", *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.stderr.close()
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = stderr.decode("utf-8", "replace").splitlines()[-5:]
            sys.exit(f"{self.name}: memomap {' '.join(args)} exited {code}: " + " | ".join(tail))
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def artifacts(out: Path) -> dict[str, str]:
    """sha256 of every file under ``out`` but the manifests."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def report(a: Side, b: Side) -> None:
    for metric, unit in (("wall", "s"), ("cpu", "s"), ("rss", "MB")):
        xs, ys = getattr(a, metric), getattr(b, metric)
        for side, values in ((a, xs), (b, ys)):
            q1, median, q3 = quartiles(values)
            print(f"{metric:>4} {side.name}: median {median:.4f} {unit}, "
                  f"quartiles {q1:.4f}-{q3:.4f} (IQR {q3 - q1:.4f})")
        b_wins = sum(y < x for x, y in zip(xs, ys))
        a_wins = sum(x < y for x, y in zip(xs, ys))
        change = statistics.median(ys) / statistics.median(xs) - 1
        print(f"{metric:>4}: {b.name} {change:+.1%} by median; pairs won "
              f"{a.name} {a_wins}, {b.name} {b_wins}, tied {len(xs) - a_wins - b_wins}; "
              f"sign test p = {sign_test(a_wins, b_wins):.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first tree (the parent)")
    parser.add_argument("b", type=Path, help="second tree (the change)")
    parser.add_argument("--workload", default="resolve-zipf")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--command", default="resolve", help='memomap arguments, e.g. "report"')
    parser.add_argument("--records-scale", type=int, default=1,
                        help="multiply the workload's record count")
    parser.add_argument("--dir", type=Path, help="scratch directory (default: a temporary one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="memomap-ab-") as tmp:
        scratch = (args.dir or Path(tmp)).resolve()
        data = scratch / "data"
        subprocess.run([sys.executable, "-c", _GENERATE, str(ROOT / "perfbench" / "gen.py"),
                        args.workload, str(args.seed), str(data), str(args.records_scale)],
                       check=True)
        a, b = Side("A", args.a, scratch), Side("B", args.b, scratch)
        config = ["--config", str(data / "config.yaml")]
        command = [*shlex.split(args.command), *config]
        reference = None
        for side in (a, b):
            # Priming: the working directory's stage files, and the rest of the bytecode.
            side.run(["all", *config], data, priming=True)
            side.run(command, data, priming=True)
            produced = artifacts(data / "out")
            reference = reference or produced
            if produced != reference:
                sys.exit(f"{side.name}: artifacts differ from {a.name}'s after priming")

        for pair in range(args.pairs):
            for side in (a, b) if pair % 2 == 0 else (b, a):
                wall, cpu, rss = side.run(command, data)
                side.wall.append(wall)
                side.cpu.append(cpu)
                side.rss.append(rss)
                if artifacts(data / "out") != reference:
                    sys.exit(f"{side.name}: pair {pair}: artifacts differ from the reference")
            print(f"pair {pair}: wall A {a.wall[-1]:.4f} s, B {b.wall[-1]:.4f} s", flush=True)
        print(f"memomap {args.command} on {args.workload} seed {args.seed}, records x"
              f"{args.records_scale}, {args.pairs} pairs; A = {a.tree}, B = {b.tree}")
        report(a, b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
