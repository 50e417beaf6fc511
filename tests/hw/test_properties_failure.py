"""Property-based equivalence tests and failure/overflow-path injection.

The simulators are functionally exact by construction; these tests
hammer that claim with randomized graphs (hypothesis) and force the
hardware's rare paths: head-list chunking on huge hubs, private-cache
spills, and oversized neighbor lists that can never be cache-resident.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import erdos_renyi, from_edges, star_graph
from repro.hw.api import FingersConfig, FlexMinerConfig, MemoryConfig, simulate
from repro.mining import count


class TestPropertyEquivalence:
    @given(st.integers(0, 10_000), st.sampled_from(["tc", "tt", "cyc"]))
    @settings(max_examples=20, deadline=None)
    def test_fingers_equals_engine_random(self, seed, pattern):
        g = erdos_renyi(40, 0.25, seed=seed)
        res = simulate(g, pattern, FingersConfig(num_pes=2))
        assert res.count == count(g, pattern)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_flexminer_equals_engine_random(self, seed):
        g = erdos_renyi(35, 0.3, seed=seed)
        res = simulate(g, "dia", FlexMinerConfig(num_pes=3))
        assert res.count == count(g, "dia")

    @given(
        st.integers(0, 10_000),
        st.integers(1, 48),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=15, deadline=None)
    def test_config_space_never_changes_counts(self, seed, ius, group):
        g = erdos_renyi(30, 0.3, seed=seed)
        cfg = FingersConfig(num_pes=2, num_ius=ius, task_group_size=group)
        assert simulate(g, "tt", cfg).count == count(g, "tt")

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_tiny_memory_never_changes_counts(self, seed):
        """Functional results must survive a pathologically small cache."""
        g = erdos_renyi(30, 0.3, seed=seed)
        mem = MemoryConfig(shared_cache_bytes=64)
        assert simulate(g, "tc", FingersConfig(num_pes=2), memory=mem).count \
            == count(g, "tc")


class TestOverflowPaths:
    def test_head_list_chunking_on_huge_hub(self):
        """A hub list far beyond one divider's 15 long heads must chunk
        (and still count correctly)."""
        # Hub 0 with 600 neighbors; neighbors form a sparse ring so
        # triangles exist.
        edges = [(0, i) for i in range(1, 601)]
        edges += [(i, i + 1) for i in range(1, 600)]
        g = from_edges(edges)
        cfg = FingersConfig(num_pes=1)
        res = simulate(g, "tc", cfg)
        # 600-neighbor list = 38 long segments > 15 head capacity.
        assert res.count == count(g, "tc")
        assert res.count == 599  # hub + each ring edge

    def test_private_cache_spill_path(self):
        """A tiny private cache forces candidate-set spills; the spill
        penalty must appear in the stats without changing counts."""
        g = erdos_renyi(60, 0.4, seed=9)
        roomy = FingersConfig(num_pes=1, private_cache_bytes=1 << 20)
        tiny = FingersConfig(num_pes=1, private_cache_bytes=64)
        a = simulate(g, "tt", roomy)
        b = simulate(g, "tt", tiny)
        assert a.count == b.count
        assert b.combined.private_spills > 0
        assert a.combined.private_spills == 0
        assert b.cycles >= a.cycles

    def test_list_larger_than_shared_cache(self):
        """A neighbor list bigger than the whole shared cache streams from
        DRAM every time (never resident)."""
        g = star_graph(2000)  # hub list = 8000 bytes
        mem = MemoryConfig(shared_cache_bytes=4000)
        res = simulate(g, "wedge", FingersConfig(num_pes=1), memory=mem)
        assert res.count == 2000 * 1999 // 2
        assert res.shared_cache.miss_rate > 0

    def test_flexminer_refetch_of_oversized_lists(self):
        """FlexMiner re-streams lists that exceed its private cache on
        every serial op (paper Figure 3's motivation)."""
        g = star_graph(500)
        small_private = FlexMinerConfig(num_pes=1, private_cache_bytes=128)
        large_private = FlexMinerConfig(num_pes=1, private_cache_bytes=1 << 20)
        a = simulate(g, "tt", small_private)
        b = simulate(g, "tt", large_private)
        assert a.count == b.count
        # More shared-cache traffic when the private cache cannot stage.
        assert a.shared_cache.accesses >= b.shared_cache.accesses

    def test_empty_candidate_sets_everywhere(self):
        """A graph with no triangles exercises empty-set op paths."""
        g = from_edges([(i, i + 1) for i in range(50)])  # path graph
        for cfg in (FingersConfig(num_pes=2), FlexMinerConfig(num_pes=2)):
            res = simulate(g, "tc", cfg)
            assert res.count == 0
            assert res.cycles > 0

    def test_isolated_vertices(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=100)
        res = simulate(g, "tc", FingersConfig(num_pes=4))
        assert res.count == 1
