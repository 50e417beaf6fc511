"""Multi-pattern (merged-trunk) behaviour of the hardware models."""

import pytest

from repro.graph import erdos_renyi
from repro.hw.api import FingersConfig, FlexMinerConfig, simulate
from repro.mining import motif_census
from repro.pattern import compile_multi_plan, named_pattern

SMALL = erdos_renyi(50, 0.25, seed=33)


class TestMergedRoots:
    def test_counts_by_name(self):
        res = simulate(SMALL, "3mc", FingersConfig(num_pes=2))
        census = motif_census(SMALL, 3)
        assert res.counts_by_name == census

    def test_flexminer_3mc(self):
        res = simulate(SMALL, "3mc", FlexMinerConfig(num_pes=2))
        assert res.counts_by_name == motif_census(SMALL, 3)

    def test_multiplan_object_workload(self):
        multi = compile_multi_plan(
            [named_pattern("tc"), named_pattern("wedge")],
            names=["tc", "wedge"],
        )
        res = simulate(SMALL, multi, FingersConfig(num_pes=1))
        census = motif_census(SMALL, 3)
        assert res.counts_by_name["tc"] == census["tc"]
        assert res.counts_by_name["wedge"] == census["wedge"]

    def test_trunk_sharing_saves_work(self):
        """The merged root task executes the shared level-0 op once: the
        multi-pattern job must not do more neighbor fetches than the two
        separate jobs combined, and must save at the root level."""
        multi = compile_multi_plan(
            [named_pattern("tc"), named_pattern("wedge")],
            names=["tc", "wedge"],
        )
        merged = simulate(SMALL, multi, FingersConfig(num_pes=1))
        tc = simulate(SMALL, "tc", FingersConfig(num_pes=1))
        wedge = simulate(SMALL, "wedge", FingersConfig(num_pes=1))
        merged_fetches = merged.combined.neighbor_fetches
        separate_fetches = (
            tc.combined.neighbor_fetches
            + wedge.combined.neighbor_fetches
        )
        # One shared root fetch instead of two.
        assert merged_fetches < separate_fetches

    def test_merged_cycles_at_most_separate(self):
        multi = compile_multi_plan(
            [named_pattern("tc"), named_pattern("wedge")],
            names=["tc", "wedge"],
        )
        merged = simulate(SMALL, multi, FingersConfig(num_pes=1))
        tc = simulate(SMALL, "tc", FingersConfig(num_pes=1))
        wedge = simulate(SMALL, "wedge", FingersConfig(num_pes=1))
        assert merged.cycles <= (tc.cycles + wedge.cycles) * 1.02

    def test_cliques_share_long_prefix(self):
        """tc + 4cl share the whole triangle computation."""
        multi = compile_multi_plan(
            [named_pattern("tc"), named_pattern("4cl")],
            names=["tc", "4cl"],
        )
        assert multi.shared_prefix >= 2
        res = simulate(SMALL, multi, FingersConfig(num_pes=2))
        from repro.mining import count

        assert res.counts_by_name["tc"] == count(SMALL, "tc")
        assert res.counts_by_name["4cl"] == count(SMALL, "4cl")
