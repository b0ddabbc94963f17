from __future__ import annotations

import json
import logging

import pytest

from memomap.remote import RemoteConfig, RemoteLookupClient, RemoteUnavailableError, query_hash


class FakeTransport:
    def __init__(self, payloads=None, fail_times: int = 0):
        self.payloads = payloads or {}
        self.fail_times = fail_times
        self.calls = []

    def __call__(self, url: str, params: dict) -> dict:
        self.calls.append((url, dict(params)))
        if self.fail_times > 0:
            self.fail_times -= 1
            raise ConnectionError("boom")
        return self.payloads.get(params["term"], {"ids": []})


def make_client(tmp_path, transport, **overrides):
    settings = {"enabled": True, "base_url": "https://example.test/search", "rps": 0.0}
    settings.update(overrides)
    config = RemoteConfig(**settings, cache_dir=str(tmp_path / "cache"))
    return RemoteLookupClient(config, fetch=transport, sleep=lambda s: None)


def test_unique_match_resolves(tmp_path):
    transport = FakeTransport({"some citation": {"ids": ["4242"]}})
    client = make_client(tmp_path, transport)
    assert client.lookup("some citation") == "4242"


def test_cache_hit_skips_network(tmp_path):
    transport = FakeTransport({"q": {"ids": ["7"]}})
    client = make_client(tmp_path, transport)
    assert client.lookup("q") == "7"
    assert len(transport.calls) == 1

    second_transport = FakeTransport()
    cached_client = make_client(tmp_path, second_transport)
    assert cached_client.lookup("q") == "7"
    assert second_transport.calls == []


def test_two_candidates_is_none(tmp_path):
    transport = FakeTransport({"ambiguous": {"ids": ["1", "2"]}})
    client = make_client(tmp_path, transport)
    assert client.lookup("ambiguous") is None


def test_empty_response_is_none(tmp_path):
    client = make_client(tmp_path, FakeTransport())
    assert client.lookup("nothing matches") is None


def test_offline_cache_miss_is_counted(tmp_path, caplog):
    # The client logs nothing per miss: the resolve stage logs the count once.
    transport = FakeTransport({"q": {"ids": ["7"]}})
    client = make_client(tmp_path, transport, offline=True)
    with caplog.at_level(logging.DEBUG):
        assert client.lookup("q") is None
        assert client.lookup("r") is None
    assert transport.calls == []
    assert client.offline_misses == 2
    assert not caplog.records


def test_offline_reads_existing_cache(tmp_path):
    online = make_client(tmp_path, FakeTransport({"q": {"ids": ["7"]}}))
    assert online.lookup("q") == "7"
    offline = make_client(tmp_path, FakeTransport(), offline=True)
    assert offline.lookup("q") == "7"


def test_retries_then_remote_unavailable(tmp_path):
    transport = FakeTransport(fail_times=99)
    sleeps = []
    config = RemoteConfig(
        enabled=True, base_url="u", rps=0.0, max_retries=2, cache_dir=str(tmp_path / "cache")
    )
    client = RemoteLookupClient(config, fetch=transport, sleep=sleeps.append)
    with pytest.raises(RemoteUnavailableError, match="after 3 attempts: ConnectionError$"):
        client.lookup("q")
    assert len(transport.calls) == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff between attempts


def test_recovers_within_retry_budget(tmp_path):
    transport = FakeTransport({"q": {"ids": ["9"]}}, fail_times=2)
    client = make_client(tmp_path, transport, max_retries=3)
    assert client.lookup("q") == "9"
    assert len(transport.calls) == 3


def test_rate_limit_gate_sleeps_between_requests(tmp_path):
    transport = FakeTransport({"a": {"ids": []}, "b": {"ids": []}})
    sleeps = []
    config = RemoteConfig(enabled=True, base_url="u", rps=2.0, cache_dir=str(tmp_path / "cache"))
    client = RemoteLookupClient(config, fetch=transport, sleep=sleeps.append)
    client.lookup("a")
    client.lookup("b")
    assert len(sleeps) >= 1
    assert all(0.0 < s <= 0.5 for s in sleeps)


def test_cached_payload_round_trips_exactly(tmp_path):
    payload = {"ids": ["11", "12"], "note": "two matches"}
    transport = FakeTransport({"q": payload})
    client = make_client(tmp_path, transport)
    assert client.lookup("q") is None
    assert client._read_cache("q") == payload


def corrupt_entry(tmp_path, query: str, text: str):
    client = make_client(tmp_path, FakeTransport())
    path = client._cache_path(query)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("text", ['{"ids": ["7"', '["7"]\n', ""])
def test_offline_corrupt_entry_is_a_miss(tmp_path, caplog, text):
    path = corrupt_entry(tmp_path, "q", text)
    transport = FakeTransport({"q": {"ids": ["7"]}})
    client = make_client(tmp_path, transport, offline=True)
    with caplog.at_level(logging.WARNING):
        assert client.lookup("q") is None
    assert transport.calls == []
    assert any(path.name in r.getMessage() for r in caplog.records if r.levelno == logging.WARNING)


def test_online_corrupt_entry_is_refetched_and_rewritten(tmp_path):
    path = corrupt_entry(tmp_path, "q", '{"ids": ["7"')
    transport = FakeTransport({"q": {"ids": ["7"]}})
    client = make_client(tmp_path, transport)
    assert client.lookup("q") == "7"
    assert len(transport.calls) == 1
    assert json.loads(path.read_text(encoding="utf-8")) == {"ids": ["7"]}
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]  # no temporary left


@pytest.mark.parametrize(
    "payload, fetched",
    [
        ({"ids": [None]}, False),
        ({"ids": "7"}, False),
        ({"ids": [""]}, False),
        ({"ids": [True]}, False),
        ({"ids": [{"a": 1}]}, False),
        ({"ids": [None]}, True),
    ],
    ids=["null", "string", "empty-string", "bool", "object", "fetched-null"],
)
def test_malformed_ids_are_a_warned_miss(tmp_path, caplog, payload, fetched):
    if fetched:
        client = make_client(tmp_path, FakeTransport({"q": payload}))
        named = query_hash("q")  # the cache file's stem, not the citation
    else:
        named = corrupt_entry(tmp_path, "q", json.dumps(payload)).name
        client = make_client(tmp_path, FakeTransport(), offline=True)
    with caplog.at_level(logging.WARNING):
        assert client.lookup("q") is None
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and named in warnings[0]
    if fetched:
        assert not client._cache_path("q").exists()  # a malformed answer is not cached


@pytest.mark.parametrize("payload", [{}, {"ids": []}])
def test_absent_or_empty_ids_are_a_silent_miss(tmp_path, caplog, payload):
    corrupt_entry(tmp_path, "q", json.dumps(payload))
    client = make_client(tmp_path, FakeTransport(), offline=True)
    with caplog.at_level(logging.WARNING):
        assert client.lookup("q") is None
    assert not [r for r in caplog.records if r.levelno == logging.WARNING]


def test_online_entry_with_malformed_ids_is_refetched(tmp_path):
    path = corrupt_entry(tmp_path, "q", '{"ids": [7]}')
    transport = FakeTransport({"q": {"ids": ["7"]}})
    assert make_client(tmp_path, transport).lookup("q") == "7"
    assert len(transport.calls) == 1
    assert json.loads(path.read_text(encoding="utf-8")) == {"ids": ["7"]}
