"""Bench runner: disk layer, stats counters, and the warm-sweep
guarantee (a warm cache performs zero simulator calls)."""

import pytest

from repro.bench.runner import (
    clear_cache,
    configure,
    reset_stats,
    run_cached,
    runner_stats,
)
from repro.cache import default_cache
from repro.graph import erdos_renyi
from repro.hw.api import FingersConfig
from repro.sw.config import SoftwareConfig


@pytest.fixture(autouse=True)
def _fresh_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


def _g():
    return erdos_renyi(30, 0.3, seed=1)


class TestStats:
    def test_cold_run_counts_simulate(self):
        run_cached(_g(), "tc", FingersConfig(num_pes=1))
        stats = runner_stats()
        assert stats.simulate_calls == 1
        assert stats.memo_hits == 0 and stats.disk_hits == 0
        assert stats.requests == 1

    def test_memo_hit_counted(self):
        cfg = FingersConfig(num_pes=1)
        run_cached(_g(), "tc", cfg)
        run_cached(_g(), "tc", cfg)
        stats = runner_stats()
        assert stats.simulate_calls == 1
        assert stats.memo_hits == 1

    def test_disk_hit_after_memo_cleared(self):
        cfg = FingersConfig(num_pes=1)
        a = run_cached(_g(), "tc", cfg)
        clear_cache()  # drop the memo, keep the disk entry
        b = run_cached(_g(), "tc", cfg)
        stats = runner_stats()
        assert stats.simulate_calls == 1
        assert stats.disk_hits == 1
        assert a is not b and a == b

    def test_warm_sweep_zero_simulator_calls(self):
        # The acceptance criterion: repeating a sweep against a warm
        # cache must not enter the simulator at all.
        g = _g()
        for pes in (1, 2):
            run_cached(g, "tc", FingersConfig(num_pes=pes))
        clear_cache()
        reset_stats()
        for pes in (1, 2):
            run_cached(g, "tc", FingersConfig(num_pes=pes))
        assert runner_stats().simulate_calls == 0
        assert runner_stats().disk_hits == 2


class TestDiskLayer:
    def test_disk_false_skips_disk(self):
        cfg = FingersConfig(num_pes=1)
        run_cached(_g(), "tc", cfg, disk=False)
        assert default_cache().entries() == []
        clear_cache()
        run_cached(_g(), "tc", cfg, disk=False)
        assert runner_stats().simulate_calls == 2

    def test_configure_disk_cache_default(self):
        configure(disk_cache=False)
        run_cached(_g(), "tc", FingersConfig(num_pes=1))
        assert default_cache().entries() == []
        configure(disk_cache=True)
        run_cached(_g(), "tc", FingersConfig(num_pes=2))
        assert len(default_cache().entries()) == 1

    def test_model_tag_separates_sharded_entries(self):
        cfg = FingersConfig(num_pes=1)
        unsharded = run_cached(_g(), "tc", cfg)
        sharded = run_cached(_g(), "tc", cfg, jobs=1)
        assert runner_stats().simulate_calls == 2
        assert sharded.counts == unsharded.counts

    def test_configure_jobs_default(self):
        configure(jobs=1)
        via_default = run_cached(_g(), "tc", FingersConfig(num_pes=1))
        clear_cache()
        reset_stats()
        via_explicit = run_cached(_g(), "tc", FingersConfig(num_pes=1), jobs=1)
        # Same key: the explicit jobs=1 call hits the disk entry written
        # under the configured default.
        assert runner_stats().disk_hits == 1
        assert via_explicit == via_default

    def test_explicit_jobs_none_overrides_configured_default(self):
        single = run_cached(_g(), "tc", FingersConfig(num_pes=2))
        clear_cache()
        reset_stats()
        configure(jobs=1)
        again = run_cached(_g(), "tc", FingersConfig(num_pes=2), jobs=None)
        assert runner_stats().disk_hits == 1
        assert again == single

    def test_schedule_in_key(self):
        cfg = FingersConfig(num_pes=2)
        run_cached(_g(), "tc", cfg, schedule="dynamic")
        run_cached(_g(), "tc", cfg, schedule="static_block")
        assert runner_stats().simulate_calls == 2


class TestSoftwareCached:
    def test_roundtrip_and_stats(self):
        cfg = SoftwareConfig(num_cores=2)
        a = run_cached(_g(), "tc", cfg)
        b = run_cached(_g(), "tc", cfg)
        assert a is b
        clear_cache()
        c = run_cached(_g(), "tc", cfg)
        assert c == a and c is not a
        stats = runner_stats()
        assert stats.simulate_calls == 1
        assert stats.memo_hits == 1 and stats.disk_hits == 1

    def test_distinct_from_hw_results(self):
        run_cached(_g(), "tc", FingersConfig(num_pes=2))
        run_cached(_g(), "tc", SoftwareConfig(num_cores=2))
        assert runner_stats().simulate_calls == 2
