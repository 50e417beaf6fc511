"""Tests for the benchmark harness plumbing: reporting, caching, workloads."""

import math

import pytest

from repro.bench import (
    BENCHMARK_GRAPHS,
    BENCHMARK_PATTERNS,
    ROOT_STRIDE,
    format_grid,
    format_table,
    geometric_mean,
    roots_for,
)
from repro.bench.runner import clear_cache, run_cached
from repro.graph import erdos_renyi
from repro.hw.api import FingersConfig, FlexMinerConfig


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_single(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geometric_mean([0.0, 2.0, 8.0]) == pytest.approx(4.0)

    def test_log_identity(self):
        vals = [1.5, 2.5, 7.0]
        expected = math.exp(sum(math.log(v) for v in vals) / 3)
        assert geometric_mean(vals) == pytest.approx(expected)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yy", 2]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "1.50" in text

    def test_title(self):
        text = format_table(["h"], [["v"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestFormatGrid:
    def test_shape(self):
        grid = {("p1", "g1"): 2.0, ("p1", "g2"): 8.0, ("p2", "g1"): 3.0,
                ("p2", "g2"): 3.0}
        text = format_grid(grid, row_keys=["p1", "p2"], col_keys=["g1", "g2"])
        assert "geomean" in text
        assert "4.00" in text  # geomean of p1 row
        assert "overall geomean" in text

    def test_missing_cell_nan(self):
        grid = {("p", "g1"): 2.0}
        text = format_grid(grid, row_keys=["p"], col_keys=["g1", "g2"])
        assert "nan" in text


class TestWorkloads:
    def test_patterns_match_paper(self):
        assert BENCHMARK_PATTERNS == ["tc", "4cl", "5cl", "tt", "cyc", "dia", "3mc"]

    def test_graphs_match_paper(self):
        assert BENCHMARK_GRAPHS == ["As", "Mi", "Yo", "Pa", "Lj", "Or"]

    def test_strides_defined_for_all(self):
        assert set(ROOT_STRIDE) == set(BENCHMARK_GRAPHS)

    def test_roots_deterministic_and_strided(self):
        roots = roots_for("Lj")
        assert roots[0] == 0  # the top hub is always included
        assert roots == list(range(0, roots[-1] + 1, ROOT_STRIDE["Lj"]))


class TestRunnerCache:
    def setup_method(self):
        clear_cache()

    def test_cache_hit_returns_same_object(self):
        g = erdos_renyi(30, 0.3, seed=1)
        cfg = FingersConfig(num_pes=1)
        a = run_cached(g, "tc", cfg)
        b = run_cached(g, "tc", cfg)
        assert a is b

    def test_different_config_misses(self):
        g = erdos_renyi(30, 0.3, seed=1)
        a = run_cached(g, "tc", FingersConfig(num_pes=1))
        b = run_cached(g, "tc", FingersConfig(num_pes=2))
        assert a is not b

    def test_two_designs_speedup_positive(self):
        g = erdos_renyi(40, 0.25, seed=2)
        ours = run_cached(g, "tc", FingersConfig(num_pes=1))
        theirs = run_cached(g, "tc", FlexMinerConfig(num_pes=1))
        assert ours.speedup_over(theirs) > 0
        assert ours.counts == theirs.counts

    def test_clear_cache(self):
        g = erdos_renyi(30, 0.3, seed=1)
        cfg = FingersConfig(num_pes=1)
        a = run_cached(g, "tc", cfg)
        clear_cache()
        b = run_cached(g, "tc", cfg)
        assert a is not b
