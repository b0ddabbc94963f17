"""Typed rows and stage artifacts: one decoder, one declaration per file.

``decode(row_type, mapping)`` builds the whole config, each raw input row and
each JSONL artifact row, checking each value against its field's annotation:
``str``, ``bool``, ``int`` (not a bool), ``float`` (finite: not NaN or ±inf;
an int loads as the equal float), ``X | None``, ``tuple[T, ...]`` from a
list, a nested dataclass from a mapping. Absent fields take their defaults
(``X | None`` ones without one are None); other keys are ignored, or with
``exact`` rejected at every level. A wrong value raises DecodeError naming
the field, as ``section.key`` when it is nested, which the caller prefixes
with its file or ``file:line``. The row is built by its dataclass's
``__init__``, so ``__post_init__`` checks hold.

An ``Artifact`` names a file under the working directory and the dataclass
its rows hold. A JSONL row is the dataclass's fields, keys sorted, less
those declared in ``omit_none`` when they are None; no artifact row nests a
dataclass, so each value is a JSON scalar or a list of them. Reading one
back also rejects a key that is not a field, since this program wrote the
file. A CSV row is the declared columns, each an attribute of the row
object; reading one back decodes its field columns, a string field's cell
as it is and any other cell as a JSON scalar, so ``1_0`` is no integer. No
file may hold the non-JSON constants ``NaN``, ``Infinity`` and
``-Infinity``. The write side only encodes: ``Artifact.encode`` yields a
file's bytes, a CSV file whole and a JSONL file one line at a time, and the
stage writer hashes each chunk as it writes it. Reading streams the file
line by line and returns the objects and the sha256 of its bytes, which the
stage manifest records.
A ``RawInput`` names a raw input file that the config names; ``ingest``
parses and hashes it, and a stage after ``ingest`` reads it again only while
its sha256 is the one ``ingest`` recorded.
``jsonl_rows`` and ``csv_rows`` also read the raw inputs, raising the
caller's error class (an ``InputError`` for a raw input).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import types
from dataclasses import MISSING, Field, dataclass, fields, is_dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple
from typing import TypeVar, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from .config import PipelineConfig


class InputError(Exception):
    """A raw input (corpus, records, awards, aliases) or a statistic's input is invalid."""


class StageDependencyError(Exception):
    """An upstream artifact this stage needs is missing or malformed."""


class DecodeError(ValueError):
    """A mapping value that does not fit its field; the message names the field."""


_T = TypeVar("_T")
_KEEP, _REQUIRED = object(), object()  # markers: a value kept as it is, an absent required field
_SCALARS = {str: "a string", bool: "true or false", int: "an integer", float: "a number"}


def _check(annotation: Any, exact: bool) -> tuple[dict[type, Any], str]:
    """The value types a field takes, each mapped to _KEEP or a converter, and what it expects."""
    origin, args = get_origin(annotation), get_args(annotation)
    if annotation in _SCALARS:
        accepts = {float: _finite, int: _finite} if annotation is float else {annotation: _KEEP}
        return accepts, _SCALARS[annotation]
    if origin is types.UnionType and len(args) == 2 and args[1] is type(None):
        accepts, expected = _check(args[0], exact)
        return {**accepts, type(None): _KEEP}, f"{expected} or null"
    if origin is tuple and args[1:] == (Ellipsis,):
        of = _check(args[0], exact)
        return {list: functools.partial(_tuple, of, _kept(of[0]))}, "a list"
    if is_dataclass(annotation):
        return {dict: functools.partial(decode, annotation, exact=exact)}, "a mapping"
    raise TypeError(f"no decoder for {annotation!r}")


def _value(check: tuple[dict[type, Any], str], value: Any, where: str) -> Any:
    """``value`` checked and converted; an error inside it reads ``where[i]`` or ``where.field``."""
    accepts, expected = check
    convert = accepts.get(type(value))
    try:
        if convert is not None:
            return value if convert is _KEEP else convert(value)
    except DecodeError as exc:
        raise DecodeError(f"{where}{'' if str(exc)[0] == '[' else '.'}{exc}") from None
    except OverflowError:  # from _finite
        expected = "a finite number"
    got = "nothing" if value is _REQUIRED else repr(value)
    raise DecodeError(f"{where}: expected {expected}, got {got}")


def _finite(value: float | int) -> float:
    """``value`` as a float; OverflowError if it is NaN, ±inf or an int past a float's range."""
    if math.isfinite(value):
        return float(value)
    raise OverflowError(value)


def _tuple(of: tuple[dict[type, Any], str], keep: frozenset[type], items: list) -> tuple:
    """``items`` as a tuple: as they are when each is of a kept type, else each checked."""
    if keep.issuperset(map(type, items)):
        return tuple(items)
    return tuple([_value(of, x, f"[{i}]") for i, x in enumerate(items)])


def _kept(accepts: dict[type, Any]) -> frozenset[type]:
    return frozenset(t for t, convert in accepts.items() if convert is _KEEP)


@functools.cache
def _plan(row_type: type, exact: bool) -> tuple[frozenset[str], list[tuple]]:
    """The field names, and per field in declaration order: name, the value types
    kept as they are, check, and what an absent key gives: a default kept as it
    is, the Field when its default must be made, None or _REQUIRED."""
    hints, plan = get_type_hints(row_type), []
    for f in fields(row_type):
        check = _check(hints[f.name], exact)
        keep = _kept(check[0])
        if f.default is not MISSING and type(f.default) in keep:
            absent = f.default
        elif f.default is not MISSING or f.default_factory is not MISSING:
            absent = f
        else:
            absent = None if type(None) in keep else _REQUIRED
        plan.append((f.name, keep, check, absent))
    return frozenset(step[0] for step in plan), plan


def _default(f: Field) -> Any:
    return f.default if f.default_factory is MISSING else f.default_factory()


def decode(row_type: type[_T], mapping: Mapping[str, Any], exact: bool = False) -> _T:
    """``row_type`` from ``mapping``; DecodeError names the first field whose value does not
    fit, or with ``exact`` (here and in nested rows) a key that is not a field."""
    names, plan = _plan(row_type, exact)
    if exact and not names.issuperset(mapping):
        raise DecodeError(f"{min(mapping.keys() - names, key=str)}: not a field")
    values = []
    for name, keep, check, absent in plan:
        value = mapping.get(name, absent)
        if type(value) not in keep:
            # Only a default to make, a list, a nested row, an int for a float or a wrong type.
            value = _default(value) if type(value) is Field else _value(check, value, name)
        values.append(value)
    # Positional, not keyword, arguments: the dataclass's __init__ still runs its
    # __post_init__ checks, and the row keeps its compact attribute storage.
    return row_type(*values)


def decoded_rows(
    path: Path, row_type: type[_T], error: type[Exception], digest: Any = None, exact: bool = False
) -> Iterator[tuple[int, _T]]:
    """``(line number, row_type object)`` per row of ``jsonl_rows``; a row that does not
    decode, or with ``exact`` has a key that is not a field, raises ``error``."""
    for lineno, row in jsonl_rows(path, error, digest):
        try:
            yield lineno, decode(row_type, row, exact)
        except DecodeError as exc:
            raise error(f"{path}:{lineno}: {exc}") from exc


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON value")


# json.loads' decoder but for NaN, Infinity and -Infinity, which no file may hold.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_SCAN = _DECODER.scan_once
_SPACE = json.decoder.WHITESPACE.match


def _parse_json(text: str) -> Any:
    """``json.loads(text)``, leading and trailing whitespace and errors alike, through
    the scanner directly; a non-JSON constant raises ValueError."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        value, end = _SCAN(text, _SPACE(text, 0).end())
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None
    end = _SPACE(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def jsonl_rows(
    path: Path, error: type[Exception], digest: Any = None
) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line.

    A line that is not a JSON object raises ``error`` naming ``path:line``.
    ``digest`` (a hashlib object), when given, is updated with every line read.
    """
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if digest is not None:
                digest.update(line)
            if not line.strip():
                continue
            try:
                row = _parse_json(line.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError included
                raise error(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if type(row) is not dict:
                raise error(f"{path}:{lineno}: expected a JSON object, got {type(row).__name__}")
            yield lineno, row


def _decoded(fh: IO[bytes], digest: Any) -> Iterator[str]:
    for line in fh:
        if digest is not None:
            digest.update(line)
        yield line.decode("utf-8")


def csv_rows(
    path: Path, error: type[Exception], digest: Any = None
) -> Iterator[tuple[int, list[str]]]:
    """``(line number, cells)`` for each row; text that is not UTF-8 raises ``error``."""
    with path.open("rb") as fh:
        reader = csv.reader(_decoded(fh, digest))
        try:
            for row in reader:
                yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{reader.line_num + 1}: {exc}") from exc


def csv_text(rows: Iterable[Iterable[Any]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@functools.cache
def _json_keys(row_type: type) -> tuple[str, ...]:
    """A row type's field names in the sorted order of its JSON objects' keys."""
    return tuple(sorted(f.name for f in fields(row_type)))


_JSON = json.JSONEncoder()


class Loaded(NamedTuple):
    """An artifact's or raw input's objects and the sha256 of their bytes on disk."""

    artifact: Artifact | RawInput
    objects: Any
    digest: str


@dataclass(frozen=True)
class Artifact:
    """A stage output: where it lives and how its rows map to objects."""

    path: str  # "<stage>/<file>" under the working directory
    row_type: type
    columns: tuple[str, ...] = ()  # CSV: "column", or "column=attribute" when they differ
    omit_none: tuple[str, ...] = ()  # JSONL: fields written only when not None

    @property
    def name(self) -> str:
        """The file's path within its stage directory."""
        return self.path.split("/", 1)[1]

    def _columns(self) -> list[tuple[str, str]]:
        return [(c.split("=")[0], c.split("=")[-1]) for c in self.columns]

    def encode(self, rows: Iterable[Any]) -> Iterator[bytes]:
        """The file's UTF-8 bytes for ``rows``: a CSV file whole, a JSONL file line by line."""
        if self.columns:
            columns = self._columns()
            header = [column for column, _ in columns]
            body = ([getattr(row, attr) for _, attr in columns] for row in rows)
            yield csv_text(itertools.chain([header], body)).encode("utf-8")
        else:
            keys, omit = _json_keys(self.row_type), self.omit_none
            for row in rows:
                values = vars(row)
                kept = {k: values[k] for k in keys if values[k] is not None or k not in omit}
                yield (_JSON.encode(kept) + "\n").encode("utf-8")

    def read(self, config: PipelineConfig) -> Loaded:
        """Parse the artifact from the working directory, hashing what it reads.

        A missing file or a malformed row raises StageDependencyError, a
        malformed row naming its ``file:line``.
        """
        path = config.paths.workdir / self.path
        if not path.is_file():
            stage = self.path.split("/", 1)[0]
            raise StageDependencyError(f"missing artifact {path}; run stage '{stage}' first")
        digest = hashlib.sha256()
        if self.columns:
            objects = self._parse_csv(path, digest)
        else:  # a program-written JSONL file: a key that is no field means a foreign file
            rows = decoded_rows(path, self.row_type, StageDependencyError, digest, exact=True)
            objects = [obj for _, obj in rows]
        return Loaded(self, objects, digest.hexdigest())

    def _parse_csv(self, path: Path, digest: Any) -> list:
        columns = self._columns()
        header = [column for column, _ in columns]
        # Columns that are fields (not derived properties) rebuild the row through
        # decode: a str field takes its cell as it is, any other the cell read as JSON.
        hints = get_type_hints(self.row_type)
        cells = [(i, a, hints[a] is str) for i, (_, a) in enumerate(columns) if a in hints]
        rows = csv_rows(path, StageDependencyError, digest)
        line, first = next(rows, (1, None))
        if first != header:
            raise StageDependencyError(f"{path}:{line}: header is not {','.join(header)}")
        objects = []
        for line, row in rows:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, expected {len(header)}")
                mapping = {attr: row[i] if text else _json_cell(row[i]) for i, attr, text in cells}
                objects.append(decode(self.row_type, mapping))
            except ValueError as exc:  # DecodeError and a row type's own checks included
                raise StageDependencyError(f"{path}:{line}: {exc}") from exc
        return objects


def _json_cell(cell: str) -> Any:
    """A CSV cell read as a JSON scalar; a cell that is no JSON, NaN and Infinity
    included, stays text, which ``decode`` rejects for any field but a string."""
    try:
        return _parse_json(cell)
    except ValueError:
        return cell


class RawInput(NamedTuple):
    """A raw input file that the config names, parsed by ``ingest`` and read again later.

    ``key`` names it in the manifests' inputs; ``ingest`` records its sha256
    there. Every read parses and hashes the file in one pass through
    ``load``, which takes the path and the digest, no config setting. For a
    stage after ``ingest``, a digest other than the one ``ingest`` recorded
    means the file changed since: a stale input, which wins over any parse
    error the change causes. The memo corpus is a raw input too, but only
    ``ingest`` reads it, so ``read`` never runs for it.
    """

    key: str  # also the config's paths field that holds the file's path
    load: Callable[[Path, Any], Any]  # (path, sha256 to update) -> objects

    def parse(self, config: PipelineConfig) -> Loaded:
        """The objects and the file's digest; a malformed file raises InputError."""
        digest = hashlib.sha256()
        objects = self.load(getattr(config.paths, self.key), digest)
        return Loaded(self, objects, digest.hexdigest())

    def read(self, config: PipelineConfig, ingested: Mapping[str, Any]) -> Loaded:
        """The objects, if the file still has the digest ``ingested[key]``."""
        path = getattr(config.paths, self.key)
        try:
            loaded = self.parse(config)
        except InputError:
            self._check(path, hashlib.sha256(path.read_bytes()).hexdigest(), ingested)
            raise
        self._check(path, loaded.digest, ingested)
        return loaded

    def _check(self, path: Path, digest: str, ingested: Mapping[str, Any]) -> None:
        if digest != ingested.get(self.key):
            raise StageDependencyError(
                f"{path}: changed since stage 'ingest' read it; run stage 'ingest' again"
            )
