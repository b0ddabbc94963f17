"""Fallback lookup against a remote article-search API.

Responses are cached on disk keyed by query hash, requests go through a
rate-limit gate, and offline mode answers from the cache only. An id is
returned only when the service reports exactly one match. An answer whose
``ids`` is present but not a list of non-empty strings is a miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)


class RemoteUnavailableError(Exception):
    """The remote service kept failing after the configured retries."""


@dataclass(frozen=True)
class RemoteConfig:
    enabled: bool = False
    base_url: str = ""
    rps: float = 3.0
    max_retries: int = 3
    offline: bool = False


def query_hash(query: str) -> str:
    return hashlib.sha256(query.encode("utf-8")).hexdigest()


_MALFORMED = "is not a JSON object with a list of string ids, treated as a miss"


def _well_formed(payload: object) -> bool:
    """Whether ``payload`` is an object whose ``ids``, if any, are non-empty strings in a list."""
    if not isinstance(payload, dict):
        return False
    ids = payload.get("ids", [])
    return isinstance(ids, list) and all(isinstance(i, str) and i for i in ids)


def _default_fetch(url: str, params: dict) -> dict:
    import requests

    response = requests.get(url, params=params, timeout=30)
    response.raise_for_status()
    return response.json()


class RemoteLookupClient:
    """Term-query client with disk cache, rate limiting, and backoff.

    The service contract: GET base_url?term=<text> returning
    {"ids": [...]}; the lookup resolves only on a unique id.
    """

    def __init__(
        self,
        config: RemoteConfig,
        cache_dir: str | Path,
        fetch: Callable[[str, dict], dict] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.cache_dir = Path(cache_dir)
        self._fetch = fetch or _default_fetch
        self._sleep = sleep
        self._last_request = 0.0
        self.offline_misses = 0

    def _cache_path(self, query: str) -> Path:
        return self.cache_dir / f"{query_hash(query)}.json"

    def _read_cache(self, query: str) -> dict | None:
        """The cached payload, or None on a miss.

        An entry that is not a JSON object (for example a file truncated by
        an interrupted write), or whose ``ids`` are malformed, counts as a miss.
        """
        path = self._cache_path(query)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = None
        if not _well_formed(payload):
            logger.warning("remote cache entry %s %s", path, _MALFORMED)
            return None
        return payload

    def _write_cache(self, query: str, payload: dict) -> None:
        # Write a temporary file beside the entry and rename it into place, so
        # a reader never sees a partly written entry.
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(query)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(payload, sort_keys=True, ensure_ascii=True) + "\n", encoding="utf-8"
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _throttle(self) -> None:
        if self.config.rps <= 0:
            return
        interval = 1.0 / self.config.rps
        wait = self._last_request + interval - time.monotonic()
        if wait > 0:
            self._sleep(wait)
        self._last_request = time.monotonic()

    def _request(self, query: str) -> dict:
        delay = 0.5
        attempts = self.config.max_retries + 1
        last_exc: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(delay)
                delay *= 2
            self._throttle()
            try:
                return self._fetch(self.config.base_url, {"term": query, "format": "json"})
            except Exception as exc:
                last_exc = exc
                logger.debug("remote lookup attempt %d failed: %s", attempt + 1, exc)
        # The exception text may hold the request URL, and so the citation.
        raise RemoteUnavailableError(
            f"remote lookup failed after {attempts} attempts: {type(last_exc).__name__}"
        )

    def lookup(self, fragment_text: str) -> str | None:
        """Return the article id for a fragment, or None.

        None covers ambiguous multi-match responses, empty responses,
        malformed answers (not cached) and offline cache misses, which
        ``offline_misses`` counts; transport failure past the retry cap
        raises RemoteUnavailableError.
        """
        payload = self._read_cache(fragment_text)
        if payload is None:
            if self.config.offline:
                self.offline_misses += 1
                return None
            payload = self._request(fragment_text)
            if not _well_formed(payload):
                logger.warning(
                    "remote answer for query %s %s", query_hash(fragment_text), _MALFORMED
                )
                return None
            self._write_cache(fragment_text, payload)
        ids = payload.get("ids", [])
        return ids[0] if len(ids) == 1 else None
