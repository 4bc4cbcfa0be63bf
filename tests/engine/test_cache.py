"""Tests for the on-disk acceptance-curve cache."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import repro
from repro.engine import (
    AcceptanceCache,
    distribution_fingerprint,
    kernel_probe_key,
)
from repro.engine.cache import CACHE_VERSION, seed_fingerprint
from repro.exceptions import InvalidParameterError

N, EPS = 64, 0.5


def _key(trials=100, tester=None, dist=None):
    tester = tester or repro.ThresholdRuleTester(N, EPS, k=8, q=12)
    dist = dist or repro.uniform(N)
    return kernel_probe_key(tester, dist, {"trials": trials}, 42)


class TestFingerprints:
    def test_distribution_fingerprint_is_content_addressed(self):
        assert distribution_fingerprint(repro.uniform(N)) == distribution_fingerprint(
            repro.uniform(N)
        )
        assert distribution_fingerprint(repro.uniform(N)) != distribution_fingerprint(
            repro.two_level_distribution(N, EPS)
        )
        assert distribution_fingerprint(repro.uniform(N)).startswith(f"n{N}-")

    def test_tester_fingerprint_separates_configs(self):
        a = repro.ThresholdRuleTester(N, EPS, k=8, q=12).cache_token
        b = repro.ThresholdRuleTester(N, EPS, k=8, q=16).cache_token
        c = repro.CentralizedCollisionTester(N, EPS, q=12).cache_token
        assert a != b
        assert a["class"] == "ThresholdRuleTester"
        assert c["class"] == "CentralizedCollisionTester"

    def test_tester_fingerprint_covers_nested_protocol(self):
        fp = repro.ThresholdRuleTester(N, EPS, k=8, q=12).cache_token
        assert "protocol" in fp
        assert fp["protocol"]["homogeneous"]["k"] == 8
        assert fp["protocol"]["homogeneous"]["q"] == 12

    def test_raw_protocol_fingerprint(self):
        protocol = repro.SimultaneousProtocol.homogeneous(
            repro.GraphStatisticPlayer(repro.complete_graph(6), 0),
            num_players=4,
            num_samples=6,
            referee=repro.ThresholdRule(2, num_players=4),
        )
        fp = protocol.cache_token
        assert fp["class"] == "SimultaneousProtocol"
        assert fp["homogeneous"]["k"] == 4
        assert fp["referee"]["reject_threshold"] == 2

    def test_seed_fingerprint_distinguishes_spawn_keys(self):
        a = seed_fingerprint(np.random.SeedSequence(entropy=7, spawn_key=(1, 2)))
        b = seed_fingerprint(np.random.SeedSequence(entropy=7, spawn_key=(1, 3)))
        assert a != b

    def test_probe_key_is_json_serialisable(self):
        json.dumps(_key(), sort_keys=True)


def _rate(cache, key):
    estimate = cache.get_estimate(key)
    return None if estimate is None else estimate["rate"]


def _put(cache, key, rate):
    return cache.put_estimate(key, {"rate": rate})


class TestAcceptanceCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        assert _rate(cache, key) is None
        _put(cache, key, 0.625)
        assert _rate(cache, key) == pytest.approx(0.625)
        assert len(cache) == 1

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        _put(cache, _key(trials=100), 0.1)
        _put(cache, _key(trials=200), 0.9)
        assert _rate(cache, _key(trials=100)) == pytest.approx(0.1)
        assert _rate(cache, _key(trials=200)) == pytest.approx(0.9)
        assert len(cache) == 2

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = _put(cache, key, 0.5)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert _rate(cache, key) is None

    def test_stale_version_reads_as_miss(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        key = _key()
        path = _put(cache, key, 0.5)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["key"]["version"] = CACHE_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert _rate(cache, key) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        _put(cache, _key(trials=100), 0.1)
        _put(cache, _key(trials=200), 0.2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = AcceptanceCache(str(tmp_path))
        _put(cache, _key(), 0.5)
        assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]

    def test_rejects_empty_dir(self):
        with pytest.raises(InvalidParameterError):
            AcceptanceCache("")

    def test_creates_missing_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        AcceptanceCache(str(nested))
        assert nested.is_dir()
