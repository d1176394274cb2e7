"""Tests for workload generation: distributions and the session driver."""

import random

import pytest

import repro
from repro.apps.kv import KVStore
from repro.kernel.errors import ConfigurationError
from repro.workloads.distributions import (
    HotspotSampler,
    UniformSampler,
    ZipfSampler,
    key_name,
    payload,
)
from repro.workloads.sessions import (
    OpMix,
    proxy_session,
    run_interleaved,
)


class TestSamplers:
    def test_key_name_is_stable(self):
        assert key_name(7) == "k00007"

    def test_uniform_covers_space(self):
        sampler = UniformSampler(10, random.Random(1))
        seen = {sampler.sample() for _ in range(500)}
        assert len(seen) == 10

    def test_zipf_is_skewed(self):
        sampler = ZipfSampler(100, random.Random(1), s=1.2)
        draws = [sampler.sample() for _ in range(2000)]
        top = draws.count(key_name(0))
        mid = draws.count(key_name(50))
        assert top > 10 * max(mid, 1)

    def test_zipf_deterministic_under_seed(self):
        a = ZipfSampler(50, random.Random(3))
        b = ZipfSampler(50, random.Random(3))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_hotspot_concentrates(self):
        sampler = HotspotSampler(1000, random.Random(1),
                                 hot_fraction=0.9, hot_keys=5)
        draws = [sampler.sample() for _ in range(1000)]
        hot = sum(1 for key in draws if key < key_name(5))
        assert hot > 800

    def test_empty_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformSampler(0, random.Random(1))
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, random.Random(1))

    def test_payload_size(self):
        assert len(payload(32)) == 32
        assert payload(0) == ""


class TestDriver:
    def _sessions(self, star, count=2, read_fraction=0.5):
        system, server, clients = star
        store = KVStore()
        repro.register(server, "kv", store)
        sessions = []
        for index in range(count):
            ctx = clients[index]
            proxy = repro.bind(ctx, "kv")
            mix = OpMix(read_fraction,
                        UniformSampler(10, system.seeds.stream(f"keys{index}")))
            sessions.append(proxy_session(f"s{index}", ctx, proxy, mix,
                                          system.seeds.stream(f"rng{index}")))
        return system, store, sessions

    def test_run_counts_operations(self, star):
        system, store, sessions = self._sessions(star)
        result = run_interleaved(sessions, ops_per_session=20)
        assert result.operations == 40
        assert result.failures == 0
        assert len(result.all_latencies()) == 40

    def test_read_write_mix_respected(self, star):
        system, store, sessions = self._sessions(star, count=1,
                                                 read_fraction=0.0)
        run_interleaved(sessions, 30)
        assert sessions[0].writes == 30
        assert sessions[0].reads == 0

    def test_latencies_are_positive(self, star):
        system, store, sessions = self._sessions(star)
        result = run_interleaved(sessions, 10)
        assert all(sample > 0 for sample in result.all_latencies())
        assert result.mean_latency() > 0

    def test_empty_run(self):
        result = run_interleaved([], 10)
        assert result.operations == 0
        assert result.mean_latency() == 0.0

    def test_writes_land_in_store(self, star):
        system, store, sessions = self._sessions(star, count=1,
                                                 read_fraction=0.0)
        run_interleaved(sessions, 25)
        assert len(store.data) > 0

    def test_failures_counted_not_raised(self, star):
        system, store, sessions = self._sessions(star, count=1)
        system.node("server").crash()
        result = run_interleaved(sessions, 3)
        assert result.failures == 3
