"""Smoke tests for experiment definitions on reduced grids.

The full grids live in ``benchmarks/``; here each experiment runs on a
small slice to validate plumbing, rendering, and result shapes quickly.
"""

import pytest

from repro.bench import experiments
from repro.bench.ablations import (
    ablation_dividers,
    ablation_edge_induced,
    ablation_group_size,
    ablation_imbalance,
    ablation_max_load,
    ablation_scheduling,
)
from repro.bench.runner import clear_cache
from repro.bench.software import software_comparison


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestTableExperiments:
    def test_table1_renders(self):
        result = experiments.table1()
        text = result.render()
        assert "AstroPh" in text and "Orkut" in text
        assert len(result.rows) == 6

    def test_table2_components(self):
        result = experiments.table2()
        assert len(result.components) == 5
        assert result.total_mm2 == pytest.approx(0.934, rel=0.02)
        assert "Table 2" in result.render()

    def test_table3_reduced(self):
        result = experiments.table3(patterns=["tc", "tt"], graph_name="As")
        assert set(result.data) == {"tc", "tt"}
        for active, balance in result.data.values():
            assert 0 <= active <= 1
            assert 0 <= balance <= 1
        assert "Active Rate" in result.render()


class TestGridExperiments:
    def test_fig9_slice(self):
        result = experiments.fig9(patterns=["tc"], graphs=["As"])
        assert ("tc", "As") in result.grid
        assert result.grid[("tc", "As")] > 1.0
        assert "geomean" in result.render()

    def test_fig10_slice(self):
        result = experiments.fig10(patterns=["tc"], graphs=["Mi"])
        assert result.grid[("tc", "Mi")] > 0.5

    def test_fig11_slice(self):
        result = experiments.fig11(patterns=["tc"], graphs=["As"])
        assert result.grid[("tc", "As")] > 0.5

    def test_fig12_slice(self):
        result = experiments.fig12(
            patterns=["cyc"], iu_counts=(1, 8), graph_name="As"
        )
        assert result.series[("cyc", 1)] == pytest.approx(1.0)
        assert result.series[("cyc", 8)] > 1.0
        assert ("cyc-unlimited", 8) in result.series
        assert "Figure 12" in result.render()

    def test_fig13_slice(self):
        result = experiments.fig13(
            graphs=["Mi"], capacities_mb=(2, 4), pattern="tc"
        )
        assert ("Mi", "FINGERS", 2) in result.curves
        assert 0 <= result.curves[("Mi", "FINGERS", 2)] <= 1
        assert "%" in result.render()


class TestAblations:
    def test_scheduling_small(self):
        result = ablation_scheduling(graph_name="As", pattern="tc", num_pes=2)
        assert set(result.data) == {
            "dynamic", "static_interleave", "static_block"
        }
        counts = {r.counts for r in result.data.values()}
        assert len(counts) == 1
        assert "Ablation" in result.render()

    def test_group_size_small(self):
        result = ablation_group_size(
            graph_name="As", pattern="tc", values=(1, 4, None)
        )
        assert None in result.data
        assert result.data[1].counts == result.data[4].counts

    def test_max_load_small(self):
        result = ablation_max_load(graph_name="As", pattern="tc", values=(1, 6))
        assert result.headers == ("max_load", "cycles", "speedup vs max_load=1")
        assert set(result.data) == {1, 6}
        assert result.data[1].counts == result.data[6].counts
        assert len(result.rows) == 2

    def test_dividers_small(self):
        result = ablation_dividers(graph_name="As", pattern="tc", values=(1, 12))
        assert result.headers == ("dividers", "cycles", "speedup vs 1")
        assert set(result.data) == {1, 12}
        assert result.data[1].counts == result.data[12].counts
        assert result.rows[0][2] == "1.00"

    def test_imbalance_small(self):
        result = ablation_imbalance(graph_name="As", pattern="tc", pe_counts=(1, 2))
        assert result.headers == ("PEs", "cycles", "scaling vs 1 PE", "imbalance")
        assert set(result.data) == {1, 2}
        assert result.data[1].counts == result.data[2].counts

    def test_edge_induced_small(self):
        result = ablation_edge_induced(graph_name="As", patterns=("dia",))
        assert result.headers == (
            "pattern", "v-induced count", "v-induced speedup",
            "e-induced count", "e-induced speedup",
        )
        assert set(result.data) == {("dia", "vertex"), ("dia", "edge")}
        for fing, flex in result.data.values():
            assert fing.counts == flex.counts
        vertex, _ = result.data[("dia", "vertex")]
        edge, _ = result.data[("dia", "edge")]
        assert edge.count >= vertex.count


class TestSoftware:
    def test_comparison_small(self):
        result = software_comparison(graph_name="As", pattern="tc")
        assert result.headers == (
            "design", "cycles", "time (ns)", "speedup vs CPU"
        )
        assert set(result.data) == {"software", "flexminer", "fingers"}
        counts = {r.counts for r in result.data.values()}
        assert len(counts) == 1
        assert len(result.rows) == 3
