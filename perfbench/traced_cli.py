"""Run the memomap CLI with span recorders around each layer's public functions.

Usage (with the repository's ``src`` on PYTHONPATH):

    python3 perfbench/traced_cli.py SPANS_OUT COMMAND_ID <memomap arguments>

Every function in ``TARGETS`` is replaced by a wrapper that records a span
(name, start, end, parent span). The wrapper is bound wherever the memomap
modules look the original up: ``cli`` imports the ``run_*`` stages and
``load_config`` by name, so a module-level function is rebound in every
memomap module that holds it, and methods are patched on their class.

Spans stay in memory and are written to SPANS_OUT when the command ends, as
two JSON lines: ``{"command": COMMAND_ID, "spans": [[name, start, end,
parent, counts], ...]}`` and ``{"dump_s": seconds spent writing}``. The exit
code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable


def _lexical(result) -> list[int]:
    return [int(result.method == "lexical")]


def _found(result) -> list[int]:
    return [int(result is not None)]


def _length(result) -> list[int]:
    return [len(result)]


def _fragments(result) -> list[int]:
    return [len(result), int(not result)]


def _written(result) -> list[int]:
    return [len(result), sum(path.stat().st_size for path in result.values())]


# span name -> (module, attribute path, counts taken from the return value)
TARGETS: dict[str, tuple[str, str, Callable | None]] = {
    "cli.main": ("memomap.cli", "main", None),
    "config.load_config": ("memomap.config", "load_config", None),
    "pipeline.run_ingest": ("memomap.pipeline", "run_ingest", _written),
    "pipeline.run_resolve": ("memomap.pipeline", "run_resolve", _written),
    "pipeline.run_link": ("memomap.pipeline", "run_link", _written),
    "pipeline.run_stats": ("memomap.pipeline", "run_stats", _written),
    "pipeline.run_report": ("memomap.pipeline", "run_report", _written),
    "corpus.load_corpus": ("memomap.corpus", "load_corpus", None),
    "corpus.extract_fragments": ("memomap.corpus", "extract_fragments", _fragments),
    "biblio.ingest_records": ("memomap.biblio", "ingest_records", None),
    "biblio.search": ("memomap.biblio", "BiblioIndex.search", _length),
    "resolver.resolve_fragment": ("memomap.resolver", "resolve_fragment", _lexical),
    "resolver.score_candidate": ("memomap.resolver", "score_candidate", None),
    "remote.lookup": ("memomap.remote", "RemoteLookupClient.lookup", _found),
    "funding.load_award_db": ("memomap.funding", "load_award_db", None),
    "funding.load_aliases": ("memomap.funding", "load_aliases", None),
    "funding.build_links": ("memomap.funding", "build_links", _length),
    "stats.yearly_shares": ("memomap.stats", "yearly_shares", None),
    "stats.compute_entity_stats": ("memomap.stats", "compute_entity_stats", None),
    "stats.memo_kld": ("memomap.stats", "memo_kld", None),
    "stats.paired_wilcoxon": ("memomap.stats", "paired_wilcoxon", None),
    "report.build_flow_graph": ("memomap.report", "build_flow_graph", None),
    "report.emit_sankey": ("memomap.report", "emit_sankey", None),
    "report.emit_tables": ("memomap.report", "emit_tables", None),
    "report.flag_retracted": ("memomap.report", "flag_retracted", None),
    "report.coverage_report": ("memomap.report", "coverage_report", None),
}


class Recorder:
    """In-memory spans: [name, start, end, parent index or -1, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            if counts is not None:
                try:
                    span[4] = counts(result)
                except (AttributeError, TypeError, OSError):
                    pass  # the return value changed shape; the span stays, its counts do not
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Patch every target; a target the program no longer has is skipped."""
    importlib.import_module("memomap.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("memomap") and m]
    for name, (module_name, path, counts) in TARGETS.items():
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {module_name}.{path} not found, not traced", file=sys.stderr)
            continue
        wrapper = recorder.wrap(name, original, counts)
        if classes:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main() -> int:
    out, command_id, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    recorder = Recorder()
    install(recorder)
    cli = importlib.import_module("memomap.cli")
    try:
        return cli.main(argv)
    finally:
        start = time.perf_counter()
        out.write_text(json.dumps({"command": command_id, "spans": recorder.spans}) + "\n")
        with out.open("a") as fh:
            fh.write(json.dumps({"dump_s": time.perf_counter() - start}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
