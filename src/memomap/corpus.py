"""Memo ingestion: locate reference sections and split them into fragments."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .artifacts import InputError, decoded_rows


class CorpusError(InputError):
    """Malformed corpus input or segmenter configuration."""


DEFAULT_HEADINGS = ("References", "Bibliography", "Sources")
DEFAULT_TERMINATORS = ("Appendix",)
DEFAULT_MIN_FRAGMENT_CHARS = 25

# Leading enumeration markers: "1.", "[1]", or a bullet.
_MARKER_RE = re.compile(r"^\s*(?:\[\d{1,4}\]|\d{1,4}\.|•)\s*")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class Memo:
    memo_id: str
    title: str = ""
    body_text: str = ""


@dataclass(frozen=True)
class ReferenceFragment:
    memo_id: str
    ordinal: int
    raw_text: str
    normalized_text: str


@dataclass(frozen=True)
class SegmenterConfig:
    headings: tuple[str, ...] = DEFAULT_HEADINGS
    terminators: tuple[str, ...] = DEFAULT_TERMINATORS
    min_fragment_chars: int = DEFAULT_MIN_FRAGMENT_CHARS

    def __post_init__(self) -> None:
        if not self.headings:
            raise CorpusError("segmenter heading list must not be empty")


def normalize_fragment(raw_text: str) -> str:
    """Normalize free text for matching.

    Case-folds, strips diacritics down to base letters, and collapses every
    run of non-alphanumeric characters to a single space. Idempotent.
    """
    if not raw_text.isascii():
        # Skipped for ASCII text, which NFKD leaves unchanged and which has
        # no combining characters.
        decomposed = unicodedata.normalize("NFKD", raw_text)
        raw_text = "".join(c for c in decomposed if not unicodedata.combining(c))
    return _NON_ALNUM_RE.sub(" ", raw_text.casefold()).strip()


def segment_reference_section(memo: Memo, config: SegmenterConfig) -> str | None:
    """Return the memo's reference-section text, or None if no heading is found.

    A heading matches a whole line (case-insensitive, after trimming). The
    last matching heading wins; the section runs to the end of the document
    or to the next terminator heading.
    """
    headings = {h.strip().casefold() for h in config.headings}
    terminators = {t.strip().casefold() for t in config.terminators}

    lines = memo.body_text.splitlines(keepends=True)
    start = None  # index of the line *after* the last matching heading
    for i, line in enumerate(lines):
        if line.strip().casefold() in headings:
            start = i + 1
    if start is None:
        return None

    end = len(lines)
    for i in range(start, len(lines)):
        if lines[i].strip().casefold() in terminators:
            end = i
            break
    return "".join(lines[start:end])


def split_fragments(
    memo_id: str,
    reference_text: str,
    min_chars: int = DEFAULT_MIN_FRAGMENT_CHARS,
) -> list[ReferenceFragment]:
    """Split a reference section into citation fragments.

    A new fragment starts at each enumeration marker; blank lines close the
    current fragment; any other line continues the previous one (hard-wrap
    merge). Fragments shorter than ``min_chars`` or that normalize to
    nothing are dropped as heading debris, and ordinals are reassigned
    densely afterwards. Text with no fragment, empty text included, gives
    an empty list.
    """
    pieces: list[str] = []
    current: list[str] | None = None
    for line in reference_text.splitlines():
        stripped = line.strip()
        if not stripped:
            if current:
                pieces.append(" ".join(current))
            current = None
            continue
        marker = _MARKER_RE.match(line)
        if marker:
            if current:
                pieces.append(" ".join(current))
            current = []
            stripped = line[marker.end():].strip()
            if stripped:
                current.append(stripped)
        elif current is None:
            current = [stripped]
        else:
            current.append(stripped)
    if current:
        pieces.append(" ".join(current))

    fragments = []
    for raw in pieces:
        raw = raw.strip()
        if len(raw) < min_chars:
            continue
        normalized = normalize_fragment(raw)
        if not normalized:
            continue
        fragments.append(
            ReferenceFragment(
                memo_id=memo_id,
                ordinal=len(fragments),
                raw_text=raw,
                normalized_text=normalized,
            )
        )
    return fragments


def extract_fragments(memo: Memo, config: SegmenterConfig) -> list[ReferenceFragment]:
    """Segment a memo and split the result; empty list when no section found."""
    section = segment_reference_section(memo, config)
    if section is None or not section.strip():
        return []
    return split_fragments(memo.memo_id, section, config.min_fragment_chars)


def load_corpus(path: str | Path, digest: Any = None) -> list[Memo]:
    """Load memos from a JSONL file or a directory of UTF-8 text files.

    JSONL rows carry {memo_id, title, body_text}, decoded by ``artifacts.decode``;
    a memo_id is non-empty, unique and has no '/' or NUL. In directory mode
    each ``*.txt`` file is a memo: the file stem is its id and its first
    non-empty line its title. A memo with an empty or absent body_text
    raises CorpusError naming its ``file:line``, or its file.
    ``digest`` (a hashlib object), when given, is updated with the bytes
    read: the JSONL file's, or per text file, in name order, its name, a
    NUL, its bytes and a NUL.
    """
    path = Path(path)
    memos: list[Memo] = []
    if path.is_dir():
        for file in sorted(path.glob("*.txt")):
            data = file.read_bytes()
            if digest is not None:
                digest.update(file.name.encode("utf-8") + b"\0" + data + b"\0")
            try:
                body = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{file}: not UTF-8 text: {exc}") from exc
            if not body:
                raise CorpusError(f"{file}: memo has empty body_text")
            title = next((ln.strip() for ln in body.splitlines() if ln.strip()), "")
            memos.append(Memo(memo_id=file.stem, title=title, body_text=body))
    elif path.is_file():
        seen: set[str] = set()
        for line, memo in decoded_rows(path, Memo, CorpusError, digest):
            if not memo.memo_id:
                raise CorpusError(f"{path}:{line}: memo_id must be a non-empty string")
            if "/" in memo.memo_id or "\0" in memo.memo_id:
                # It names the memo's report files: report/sankey/<memo_id>.json.
                raise CorpusError(f"{path}:{line}: memo_id {memo.memo_id!r} contains '/' or NUL")
            if memo.memo_id in seen:
                raise CorpusError(f"{path}:{line}: duplicate memo_id {memo.memo_id!r} in corpus")
            if not memo.body_text:
                raise CorpusError(f"{path}:{line}: memo {memo.memo_id!r} has empty body_text")
            seen.add(memo.memo_id)
            memos.append(memo)
    else:
        raise CorpusError(f"corpus path does not exist: {path}")
    return memos
