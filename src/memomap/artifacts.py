"""Stage artifacts: one declaration per file, one reader per format.

An ``Artifact`` names a file under the working directory and the dataclass
its rows hold. A JSONL row is the dataclass's fields, less those declared in
``omit_none`` when they are None; a CSV row is the declared columns, each an
attribute of the row object. Writing and reading both stream the file line
by line and return the sha256 of its bytes, which the stage manifest
records; reading also returns the objects. ``jsonl_rows`` and ``csv_rows``
also read the raw inputs, raising the caller's error class.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, get_type_hints

if TYPE_CHECKING:
    from .config import PipelineConfig


class StageDependencyError(Exception):
    """An upstream artifact this stage needs is missing or malformed."""


def jsonl_rows(
    path: Path, error: type[Exception], digest: Any = None
) -> Iterator[tuple[str, dict]]:
    """``(path:line, object)`` for each non-blank line.

    A line that is not a JSON object raises ``error``. ``digest`` (a hashlib
    object), when given, is updated with every line read.
    """
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if digest is not None:
                digest.update(line)
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError included
                raise error(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise error(f"{where}: expected a JSON object, got {type(row).__name__}")
            yield where, row


def _decoded(fh: IO[bytes], digest: Any) -> Iterator[str]:
    for line in fh:
        if digest is not None:
            digest.update(line)
        yield line.decode("utf-8")


def csv_rows(
    path: Path, error: type[Exception], digest: Any = None
) -> Iterator[tuple[str, list[str]]]:
    """``(path:line, cells)`` for each row; text that is not UTF-8 raises ``error``."""
    with path.open("rb") as fh:
        reader = csv.reader(_decoded(fh, digest))
        try:
            for row in reader:
                yield f"{path}:{reader.line_num}", row
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{reader.line_num + 1}: {exc}") from exc


def csv_text(rows: Iterable[Iterable[Any]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


# Nested dataclasses (an article's grant tags) serialize as their fields.
_JSON = json.JSONEncoder(sort_keys=True, default=vars)


class _HashingSink:
    """Text in, UTF-8 bytes out to a binary file, each write added to a sha256."""

    def __init__(self, fh: IO[bytes], digest: Any) -> None:
        self._fh, self._digest = fh, digest

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self._digest.update(data)
        self._fh.write(data)


class Loaded(NamedTuple):
    """An artifact's objects and the sha256 of their bytes on disk."""

    artifact: Artifact
    objects: Any
    digest: str


@dataclass(frozen=True)
class Artifact:
    """A stage output: where it lives and how its rows map to objects."""

    path: str  # "<stage>/<file>" under the working directory
    row_type: type | None = None
    columns: tuple[str, ...] = ()  # CSV: "column", or "column=attribute" when they differ
    omit_none: tuple[str, ...] = ()  # JSONL: fields left out when None
    # Replaces the row reader: (path, sha256 to update, config) -> objects.
    load: Callable[[Path, Any, PipelineConfig], Any] | None = None

    @property
    def name(self) -> str:
        """The file's path within its stage directory."""
        return self.path.split("/", 1)[1]

    def _columns(self) -> list[tuple[str, str]]:
        return [(c.split("=")[0], c.split("=")[-1]) for c in self.columns]

    def write(self, rows: Iterable[Any], path: Path) -> str:
        """Write ``rows`` to ``path`` line by line; returns the sha256 of the bytes."""
        digest = hashlib.sha256()
        with path.open("wb") as fh:
            sink = _HashingSink(fh, digest)
            if self.columns:
                columns = self._columns()
                header = [column for column, _ in columns]
                body = ([getattr(row, attr) for _, attr in columns] for row in rows)
                csv.writer(sink, lineterminator="\n").writerows(itertools.chain([header], body))
            else:
                omit = self.omit_none
                for row in rows:
                    fields = {k: v for k, v in vars(row).items() if v is not None or k not in omit}
                    sink.write(_JSON.encode(fields) + "\n")
        return digest.hexdigest()

    def read(self, config: PipelineConfig) -> Loaded:
        """Parse the artifact from the working directory, hashing what it reads.

        A missing file or a malformed row raises StageDependencyError, the
        latter naming ``file:line``.
        """
        path = config.workdir / self.path
        if not path.is_file():
            stage = self.path.split("/", 1)[0]
            raise StageDependencyError(f"missing artifact {path}; run stage '{stage}' first")
        digest = hashlib.sha256()
        if self.load is not None:
            objects = self.load(path, digest, config)
        elif self.columns:
            objects = self._parse_csv(path, digest)
        else:
            objects = self._parse_jsonl(path, digest)
        return Loaded(self, objects, digest.hexdigest())

    def _parse_jsonl(self, path: Path, digest: Any) -> list:
        row_type, omitted = self.row_type, dict.fromkeys(self.omit_none)
        objects = []
        for where, row in jsonl_rows(path, StageDependencyError, digest):
            try:
                objects.append(row_type(**{**omitted, **row}))
            except TypeError as exc:
                raise StageDependencyError(f"{where}: {exc}") from exc
        return objects

    def _parse_csv(self, path: Path, digest: Any) -> list:
        columns = self._columns()
        header = [column for column, _ in columns]
        # Columns that are fields (not derived properties) rebuild the row.
        types = get_type_hints(self.row_type)
        rows = csv_rows(path, StageDependencyError, digest)
        where, first = next(rows, (f"{path}:1", None))
        if first != header:
            raise StageDependencyError(f"{where}: header is not {','.join(header)}")
        objects = []
        for where, row in rows:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells, expected {len(header)}")
                cells = zip(columns, row)
                objects.append(
                    self.row_type(**{a: types[a](cell) for (_, a), cell in cells if a in types})
                )
            except (TypeError, ValueError) as exc:
                raise StageDependencyError(f"{where}: {exc}") from exc
        return objects
