"""Command-line entry point: one subcommand per stage in ``pipeline.STAGES``, and ``all``."""

from __future__ import annotations

import argparse
import logging
import sys

from . import pipeline
from .artifacts import InputError, StageDependencyError
from .config import ConfigError, load_config
from .remote import RemoteUnavailableError

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_DEPENDENCY = 4
EXIT_REMOTE = 5

logger = logging.getLogger("memomap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memomap",
        description="Map the funding ecosystem behind policy memos.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(stage.name, stage.help, stage.memo) for stage in pipeline.STAGES]
    for name, help_text, memo in commands + [("all", "run every stage in order", True)]:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="pipeline config YAML")
        if memo:
            command.add_argument("--memo", default=None, help="restrict flow diagrams to one memo")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config)
        # Looked up on each call, so a wrapper bound in its place is what runs.
        run = getattr(pipeline, f"run_{args.command}")
        run(config, **({"memo_id": args.memo} if "memo" in args else {}))
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except InputError as exc:
        logger.error("input error: %s", exc)
        return EXIT_INPUT
    except StageDependencyError as exc:
        logger.error("%s", exc)
        return EXIT_DEPENDENCY
    except RemoteUnavailableError as exc:
        logger.error("remote service unavailable: %s", exc)
        return EXIT_REMOTE
    except Exception:
        logger.exception("unexpected failure")
        return EXIT_UNEXPECTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
