"""Pipeline configuration: one YAML file owns everything that affects results.

Each section is a dataclass that declares its keys' types and defaults. A
section or a key that nothing declares is an error, so a misspelling cannot
silently leave a default in force.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, get_args, get_type_hints

import yaml

from .artifacts import DecodeError, decode
from .corpus import CorpusError, SegmenterConfig
from .funding import DEFAULT_ALIASES
from .remote import RemoteConfig
from .resolver import ResolverConfig


class ConfigError(Exception):
    """Missing, unreadable, or invalid configuration."""


@dataclass(frozen=True)
class StatsOptions:
    denominator: str = "pool_entities"
    ci_level: float = 0.95
    min_obs: int = 5


class _PathSection:  # paths relative to the config file; "" would name its directory
    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) == "":
                raise DecodeError(f"{f.name}: expected a path, got ''")


# Sections with no dataclass of their own elsewhere.
@dataclass(frozen=True)
class _Paths(_PathSection):
    corpus: str
    records: str
    award_db: str
    workdir: str
    aliases: str | None = None  # None = funding.DEFAULT_ALIASES


@dataclass(frozen=True)
class _RemoteCache(_PathSection):  # read from the "remote" section beside RemoteConfig
    cache_dir: str | None = None  # None = <workdir>/remote_cache


@dataclass(frozen=True)
class _Funding:
    on_unmapped: str = "warn"


@dataclass(frozen=True)
class _Report:
    top_k: int = 10


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: Path
    records_path: Path
    award_db_path: Path
    workdir: Path
    aliases_path: Path
    segmenter: SegmenterConfig
    resolver: ResolverConfig
    remote: RemoteConfig
    remote_cache_dir: Path | None
    on_unmapped: str
    stats: StatsOptions
    top_k: int

    def cache_dir(self) -> Path:
        return self.remote_cache_dir or self.workdir / "remote_cache"

    def to_canonical_dict(self) -> dict:
        """Every setting but the paths, nested as declared, for manifest hashing.

        Fields declared as paths are left out: the manifest records the
        contents of the inputs, and the hash must not depend on how a path
        is spelled.
        """
        hints = get_type_hints(PipelineConfig)
        return {
            name: value
            for name, value in asdict(self).items()
            if Path not in (hints[name], *get_args(hints[name]))
        }


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config file.

    Input paths are resolved relative to the config file's directory and must
    exist; an absent ``paths.aliases`` is ``funding.DEFAULT_ALIASES``. Options
    that affect results live here, never on the command line.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    read: set[str] = set()

    def section(name: str, row_type: type, beside: type | None = None) -> Any:
        """Section ``name`` as ``row_type``; an absent or null section takes every default.

        A key that is a field neither of ``row_type`` nor of ``beside``, which
        is read from the same section, is an error.
        """
        read.add(name)
        raw = data.get(name)
        if raw is None:
            raw = {}
        elif not isinstance(raw, dict):
            raise ConfigError(f"{path}: config section {name!r} must be a mapping")
        if beside is not None:
            declared = {f.name for f in fields(beside)}
            raw = {key: value for key, value in raw.items() if key not in declared}
        try:
            return decode(row_type, raw, exact=True)
        except DecodeError as exc:
            raise ConfigError(f"{path}: {name}.{exc}") from exc
        except CorpusError as exc:
            raise ConfigError(f"{path}: bad {name} section: {exc}") from exc

    base = path.parent
    paths = section("paths", _Paths)
    cache_dir = section("remote", _RemoteCache, beside=RemoteConfig).cache_dir
    config = PipelineConfig(
        corpus_path=base / paths.corpus,
        records_path=base / paths.records,
        award_db_path=base / paths.award_db,
        workdir=base / paths.workdir,
        aliases_path=base / paths.aliases if paths.aliases else DEFAULT_ALIASES,
        segmenter=section("corpus", SegmenterConfig),
        resolver=section("resolver", ResolverConfig),
        remote=section("remote", RemoteConfig, beside=_RemoteCache),
        remote_cache_dir=base / cache_dir if cache_dir else None,
        on_unmapped=section("funding", _Funding).on_unmapped,
        stats=section("stats", StatsOptions),
        top_k=section("report", _Report).top_k,
    )
    unknown = data.keys() - read
    if unknown:
        raise ConfigError(f"{path}: {min(unknown, key=str)}: not a config section")
    validate_config(config)
    return config


def validate_config(config: PipelineConfig) -> None:
    if config.stats.min_obs < 1:
        raise ConfigError("stats.min_obs must be >= 1")
    if not 0.0 < config.stats.ci_level < 1.0:
        raise ConfigError("stats.ci_level must be in (0, 1)")
    if config.stats.denominator not in ("pool_entities", "all"):
        raise ConfigError(f"stats.denominator {config.stats.denominator!r} unknown")
    if config.on_unmapped not in ("warn", "fail"):
        raise ConfigError(f"funding.on_unmapped {config.on_unmapped!r} unknown")
    if config.resolver.k < 1:
        raise ConfigError("resolver.k must be >= 1")
    if not 0.0 <= config.resolver.threshold <= 1.0:
        raise ConfigError("resolver.threshold must be in [0, 1]")
    if config.resolver.margin < 0.0:
        raise ConfigError("resolver.margin must be >= 0")
    if config.top_k < 1:
        raise ConfigError("report.top_k must be >= 1")
    if config.remote.max_retries < 0:
        raise ConfigError("remote.max_retries must be >= 0")
    if config.remote.enabled and not config.remote.offline and not config.remote.base_url:
        raise ConfigError("remote.enabled requires remote.base_url (or offline mode)")
    if not config.corpus_path.exists():  # a JSONL file or a directory of .txt files
        raise ConfigError(f"paths.corpus does not exist: {config.corpus_path}")
    for label, p in (
        ("paths.records", config.records_path),
        ("paths.award_db", config.award_db_path),
        ("paths.aliases", config.aliases_path),
    ):
        if not p.is_file():
            raise ConfigError(f"{label} is not a file: {p}")
    if config.workdir.exists() and not config.workdir.is_dir():
        raise ConfigError(f"paths.workdir is not a directory: {config.workdir}")
