"""Pipeline configuration: one YAML file owns everything that affects results."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, get_args, get_type_hints

import yaml

from .corpus import DEFAULT_HEADINGS, DEFAULT_MIN_FRAGMENT_CHARS, DEFAULT_TERMINATORS
from .corpus import CorpusError, SegmenterConfig
from .remote import RemoteConfig
from .resolver import ResolverConfig


class ConfigError(Exception):
    """Missing, unreadable, or invalid configuration."""


@dataclass(frozen=True)
class StatsOptions:
    denominator: str = "pool_entities"
    ci_level: float = 0.95
    min_obs: int = 5


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: Path
    records_path: Path
    award_db_path: Path
    workdir: Path
    aliases_path: Path | None = None  # None = packaged default table
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    resolver: ResolverConfig = field(default_factory=ResolverConfig)
    remote: RemoteConfig = field(default_factory=RemoteConfig)
    remote_cache_dir: Path | None = None
    on_unmapped: str = "warn"
    stats: StatsOptions = field(default_factory=StatsOptions)
    top_k: int = 10

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


def _strict(types: type | tuple[type, ...], convert: Callable[[Any], Any], expected: str):
    """A converter taking values of ``types`` only, and a bool only if ``types`` is bool."""

    def check(raw: Any) -> Any:
        if not isinstance(raw, types) or (isinstance(raw, bool) and types is not bool):
            raise TypeError(f"expected {expected}")
        return convert(raw)

    return check


_bool = _strict(bool, bool, "true or false")
_int = _strict(int, int, "an integer")
_float = _strict((int, float), float, "a number")  # an int loads as the equal float
_str = _strict(str, str, "a string")


def _str_list(raw: Any) -> tuple[str, ...]:
    if not isinstance(raw, (list, tuple)) or not all(isinstance(s, str) for s in raw):
        raise TypeError("expected a list of strings")
    return tuple(raw)


def _section(data: dict, name: str) -> dict:
    value = data.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config file.

    Referenced input paths are resolved relative to the config file's
    directory and must exist; result-affecting options live here, never on
    the command line.
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

    base = path.parent
    paths = _section(data, "paths")
    for key in ("corpus", "records", "award_db", "workdir"):
        if key not in paths:
            raise ConfigError(f"{path}: paths.{key} is required")

    def resolve(key: str) -> Path:
        return base / str(paths[key])

    def value(key: str, default: Any, convert: Callable[[Any], Any]) -> Any:
        """``section.name`` from the file, else the default, converted."""
        section, name = key.split(".")
        raw = _section(data, section).get(name, default)
        try:
            return convert(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {key}: bad value {raw!r}: {exc}") from exc

    try:
        segmenter = SegmenterConfig(
            headings=value("corpus.headings", DEFAULT_HEADINGS, _str_list),
            terminators=value("corpus.terminators", DEFAULT_TERMINATORS, _str_list),
            min_fragment_chars=value("corpus.min_fragment_chars", DEFAULT_MIN_FRAGMENT_CHARS, _int),
        )
    except CorpusError as exc:
        raise ConfigError(f"{path}: bad corpus section: {exc}") from exc
    cache_dir = _section(data, "remote").get("cache_dir")

    config = PipelineConfig(
        corpus_path=resolve("corpus"),
        records_path=resolve("records"),
        award_db_path=resolve("award_db"),
        workdir=resolve("workdir"),
        aliases_path=base / str(paths["aliases"]) if paths.get("aliases") else None,
        segmenter=segmenter,
        resolver=ResolverConfig(
            threshold=value("resolver.threshold", 0.55, _float),
            margin=value("resolver.margin", 0.05, _float),
            k=value("resolver.k", 10, _int),
        ),
        remote=RemoteConfig(
            enabled=value("remote.enabled", False, _bool),
            base_url=value("remote.base_url", "", _str),
            rps=value("remote.rps", 3.0, _float),
            max_retries=value("remote.max_retries", 3, _int),
            offline=value("remote.offline", False, _bool),
        ),
        remote_cache_dir=base / str(cache_dir) if cache_dir else None,
        on_unmapped=value("funding.on_unmapped", "warn", _str),
        stats=StatsOptions(
            denominator=value("stats.denominator", "pool_entities", _str),
            ci_level=value("stats.ci_level", 0.95, _float),
            min_obs=value("stats.min_obs", 5, _int),
        ),
        top_k=value("report.top_k", 10, _int),
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
    if config.remote.enabled and not config.remote.offline and not config.remote.base_url:
        raise ConfigError("remote.enabled requires remote.base_url (or offline mode)")
    for label, p in (
        ("paths.corpus", config.corpus_path),
        ("paths.records", config.records_path),
        ("paths.award_db", config.award_db_path),
    ):
        if not p.exists():
            raise ConfigError(f"{label} does not exist: {p}")
    if config.aliases_path is not None and not config.aliases_path.is_file():
        raise ConfigError(f"paths.aliases does not exist: {config.aliases_path}")
