"""Pipeline configuration: one YAML file owns everything that affects results.

``PipelineConfig`` mirrors the file: one field per section, named as in the
YAML, each holding that section's dataclass, which declares its keys' types
and defaults. ``load_config`` builds the whole tree with one ``decode``
call, so a section or a key that nothing declares is an error naming
``section`` or ``section.key``, and a misspelling cannot silently leave a
default in force.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .artifacts import DecodeError, decode
from .corpus import SegmenterConfig
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


# Sections with no dataclass of their own elsewhere.
@dataclass(frozen=True)
class _Paths:
    """Paths as the file spells them, relative to its directory; ``load_config``
    replaces each with the resolved ``Path``."""

    corpus: str
    records: str
    award_db: str
    workdir: str
    aliases: str | None = None  # None = funding.DEFAULT_ALIASES

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) == "":  # it would name the config file's directory
                raise DecodeError(f"{f.name}: expected a path, got ''")


@dataclass(frozen=True)
class _Funding:
    on_unmapped: str = "warn"


@dataclass(frozen=True)
class _Report:
    top_k: int = 10


@dataclass(frozen=True)
class PipelineConfig:
    paths: _Paths
    corpus: SegmenterConfig = field(default_factory=SegmenterConfig)
    resolver: ResolverConfig = field(default_factory=ResolverConfig)
    remote: RemoteConfig = field(default_factory=RemoteConfig)
    funding: _Funding = field(default_factory=_Funding)
    stats: StatsOptions = field(default_factory=StatsOptions)
    report: _Report = field(default_factory=_Report)

    def to_canonical_dict(self) -> dict:
        """Every setting but the paths, for manifest hashing.

        The manifest records the contents of the inputs, so the hash must
        not depend on how a path is spelled. The keys are the ones every
        manifest so far has hashed.
        """
        remote = asdict(self.remote)
        del remote["cache_dir"]
        return {
            "segmenter": asdict(self.corpus),
            "resolver": asdict(self.resolver),
            "remote": remote,
            "on_unmapped": self.funding.on_unmapped,
            "stats": asdict(self.stats),
            "top_k": self.report.top_k,
        }


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config file.

    A null section takes every default. Paths are resolved relative to the
    config file's directory and input paths must exist; an absent
    ``paths.aliases`` is ``funding.DEFAULT_ALIASES`` and an absent
    ``remote.cache_dir`` is ``<workdir>/remote_cache``. Options that affect
    results live here, never on the command line.
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
    sections = {name: value for name, value in data.items() if value is not None}
    try:
        config = decode(PipelineConfig, sections, exact=True)
    except DecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    base, paths = path.parent, config.paths
    cache_dir = base / (config.remote.cache_dir or Path(paths.workdir, "remote_cache"))
    config = replace(
        config,
        paths=_Paths(
            corpus=base / paths.corpus,
            records=base / paths.records,
            award_db=base / paths.award_db,
            workdir=base / paths.workdir,
            aliases=base / paths.aliases if paths.aliases else DEFAULT_ALIASES,
        ),
        remote=replace(config.remote, cache_dir=cache_dir),
    )
    validate_config(config)
    return config


def validate_config(config: PipelineConfig) -> None:
    if config.stats.min_obs < 1:
        raise ConfigError("stats.min_obs must be >= 1")
    if not 0.0 < config.stats.ci_level < 1.0:
        raise ConfigError("stats.ci_level must be in (0, 1)")
    if config.stats.denominator not in ("pool_entities", "all"):
        raise ConfigError(f"stats.denominator {config.stats.denominator!r} unknown")
    if config.funding.on_unmapped not in ("warn", "fail"):
        raise ConfigError(f"funding.on_unmapped {config.funding.on_unmapped!r} unknown")
    if config.resolver.k < 1:
        raise ConfigError("resolver.k must be >= 1")
    if not 0.0 <= config.resolver.threshold <= 1.0:
        raise ConfigError("resolver.threshold must be in [0, 1]")
    if config.resolver.margin < 0.0:
        raise ConfigError("resolver.margin must be >= 0")
    if config.report.top_k < 1:
        raise ConfigError("report.top_k must be >= 1")
    if config.remote.max_retries < 0:
        raise ConfigError("remote.max_retries must be >= 0")
    if config.remote.enabled and not config.remote.offline and not config.remote.base_url:
        raise ConfigError("remote.enabled requires remote.base_url (or offline mode)")
    if not config.paths.corpus.exists():  # a JSONL file or a directory of .txt files
        raise ConfigError(f"paths.corpus does not exist: {config.paths.corpus}")
    for key in ("records", "award_db", "aliases"):
        file = getattr(config.paths, key)
        if not file.is_file():
            raise ConfigError(f"paths.{key} is not a file: {file}")
    if config.paths.workdir.exists() and not config.paths.workdir.is_dir():
        raise ConfigError(f"paths.workdir is not a directory: {config.paths.workdir}")
