"""Tests for the NoC model and its integration into the fetch path."""

import pytest

from repro.graph import erdos_renyi, load_dataset
from repro.hw.api import FingersConfig, MemoryConfig, simulate
from repro.hw.noc import NoCConfig, NoCModel
from repro.mining import count

SMALL = erdos_renyi(40, 0.25, seed=21)


class TestNoCModel:
    def test_latency_only(self):
        noc = NoCModel(NoCConfig(latency_cycles=7, bytes_per_cycle=0))
        assert noc.transfer(10.0, 1000) == pytest.approx(17.0)

    def test_bandwidth_occupancy(self):
        noc = NoCModel(NoCConfig(latency_cycles=0, bytes_per_cycle=10))
        first = noc.transfer(0.0, 100)   # busy until t=10
        second = noc.transfer(0.0, 100)  # queues behind
        assert first == pytest.approx(10.0)
        assert second == pytest.approx(20.0)
        assert noc.stats.total_queue_delay == pytest.approx(10.0)

    def test_stats(self):
        noc = NoCModel()
        noc.transfer(0.0, 64)
        noc.transfer(0.0, 64)
        assert noc.stats.transfers == 2
        assert noc.stats.bytes_transferred == 128

    def test_reset(self):
        noc = NoCModel()
        noc.transfer(0.0, 64)
        noc.reset()
        assert noc.stats.transfers == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoCConfig(latency_cycles=-1)
        with pytest.raises(ValueError):
            NoCModel().transfer(0.0, -5)


class TestNoCIntegration:
    def test_default_noc_counted(self):
        res = simulate(SMALL, "tc", FingersConfig(num_pes=2))
        assert res.noc.transfers > 0
        assert res.noc.transfers == res.combined.neighbor_fetches

    def test_counts_invariant_under_noc(self):
        slow = MemoryConfig(noc=NoCConfig(latency_cycles=100, bytes_per_cycle=1))
        res = simulate(SMALL, "tc", FingersConfig(num_pes=2), memory=slow)
        assert res.count == count(SMALL, "tc")

    def test_slow_noc_costs_cycles(self):
        fast = simulate(SMALL, "tt", FingersConfig(num_pes=1))
        slow = simulate(
            SMALL, "tt", FingersConfig(num_pes=1),
            memory=MemoryConfig(noc=NoCConfig(latency_cycles=300,
                                              bytes_per_cycle=1.0)),
        )
        assert slow.counts == fast.counts
        assert slow.cycles > fast.cycles

    def test_noc_congestion_with_many_pes(self):
        g = load_dataset("Pa")
        roots = list(range(0, g.num_vertices, 16))
        narrow = MemoryConfig(noc=NoCConfig(latency_cycles=4, bytes_per_cycle=2.0))
        res = simulate(g, "tc", FingersConfig(num_pes=8), memory=narrow,
                       roots=roots)
        assert res.noc.avg_queue_delay > 0
