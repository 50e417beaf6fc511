"""Unit-level tests of FINGERS PE internals (group mechanics, spills)."""

import pytest

from repro.graph import complete_graph, erdos_renyi, from_edges
from repro.hw.api import FingersConfig, MemoryConfig, simulate
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FlexMinerConfig
from repro.hw.memory import DRAMModel
from repro.hw.pe import FingersPE, Task, auto_group_size, search_tree
from repro.mining.api import plan_for


def _make_pe(graph, pattern="tc", roots=(0,), **cfg_kwargs):
    """A lone PE replaying the trace of ``roots`` (root node i is
    ``roots[i]``)."""
    cfg = FingersConfig(num_pes=1, **cfg_kwargs)
    mem = MemoryConfig()
    plans = [plan_for(pattern)]
    pe = FingersPE(
        0, graph, plans, cfg, mem,
        SectoredLRUCache(mem.shared_cache_bytes), DRAMModel(mem),
        search_tree(graph, plans, list(roots)),
    )
    return pe


class TestPEBasics:
    def test_assign_and_drain(self):
        g = complete_graph(5)
        pe = _make_pe(g)
        pe.assign_root(0, 0.0)
        while pe.has_work():
            pe.step()
        assert pe.counts[0] == 6  # triangles with min vertex 0 in K5
        assert pe.now > 0

    def test_stats_accumulate(self):
        g = erdos_renyi(30, 0.4, seed=71)
        pe = _make_pe(g, "tt", roots=range(g.num_vertices))
        for node in range(g.num_vertices):
            pe.assign_root(node, pe.now)
            while pe.has_work():
                pe.step()
        assert pe.stats.tasks > 0
        assert pe.stats.task_groups > 0
        assert pe.stats.busy_cycles > 0
        assert pe.stats.iu_busy_cycles > 0

    def test_group_size_respected(self):
        g = complete_graph(12)
        pe = _make_pe(g, "tc", task_group_size=3)
        pe.assign_root(0, 0.0)
        max_group = 0
        while pe.has_work():
            max_group = max(max_group, len(pe._stack[-1]))
            pe.step()
        assert max_group <= 3

    def test_clock_monotone(self):
        g = erdos_renyi(25, 0.4, seed=72)
        pe = _make_pe(g, "cyc")
        pe.assign_root(0, 0.0)
        last = pe.now
        while pe.has_work():
            now = pe.step()
            assert now >= last
            last = now


class TestTaskObject:
    def test_slots(self):
        t = Task(0, 1, (3, 4), {}, 0)
        with pytest.raises(AttributeError):
            t.extra = 1  # type: ignore[attr-defined]

    def test_fields(self):
        t = Task(None, 0, (7,), {}, 2)
        assert t.plan_idx is None
        assert t.embedding == (7,)
        assert t.node == 2


class TestAutoGroupSize:
    def test_more_ius_bigger_groups(self):
        g = erdos_renyi(500, 0.01, seed=73)
        small = auto_group_size(g, [plan_for("tc")], FingersConfig(num_ius=4))
        large = auto_group_size(g, [plan_for("tc")], FingersConfig(num_ius=48))
        assert large >= small

    def test_dense_graph_smaller_groups(self):
        sparse = erdos_renyi(500, 0.004, seed=74)
        dense = erdos_renyi(200, 0.5, seed=75)
        cfg = FingersConfig()
        assert auto_group_size(dense, [plan_for("tc")], cfg) <= auto_group_size(
            sparse, [plan_for("tc")], cfg
        )


class TestSpillAccounting:
    def test_no_spills_with_roomy_cache(self):
        g = erdos_renyi(40, 0.3, seed=76)
        res = simulate(
            g, "tt", FingersConfig(num_pes=1, private_cache_bytes=1 << 20)
        )
        assert res.combined.private_spills == 0

    def test_spill_penalty_grows_cycles(self):
        g = erdos_renyi(60, 0.4, seed=77)
        roomy = simulate(
            g, "tt", FingersConfig(num_pes=1, private_cache_bytes=1 << 20)
        )
        tiny = simulate(
            g, "tt", FingersConfig(num_pes=1, private_cache_bytes=64)
        )
        assert tiny.cycles >= roomy.cycles
