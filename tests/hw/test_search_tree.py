"""The search-tree trace: one functional DFS per job, replayed by every
PE model and configuration with bit-identical results."""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.cache import graph_fingerprint
from repro.core.workload import resolve_workload
from repro.graph import erdos_renyi, load_dataset
from repro.hw import tree as tree_module
from repro.hw.api import FingersConfig, FlexMinerConfig, simulate
from repro.hw.pe import drop_search_tree, search_tree
from repro.setops.kernels import kernel_counters, reset_kernel_counters
from repro.sw.config import SoftwareConfig
from repro.tuning import graph_signature


def _graph():
    return erdos_renyi(40, 0.25, seed=21)


ROOTS = list(range(0, 40, 2))

CONFIGS = {
    "fingers": FingersConfig(num_pes=3, num_ius=8),
    "flexminer": FlexMinerConfig(num_pes=2),
    "software": SoftwareConfig(num_cores=3, granularity="branch"),
}


def _plans(name):
    return resolve_workload(name)[1]


class TestReplayEquivalence:
    @pytest.mark.parametrize("jobs", [None, 2])
    @pytest.mark.parametrize("schedule", [
        "dynamic", "static_interleave", "static_block",
    ])
    @pytest.mark.parametrize("workload", ["tt", "3mc"])
    @pytest.mark.parametrize("backend", sorted(CONFIGS))
    def test_cold_warm_and_fresh_graph_agree(
        self, backend, workload, schedule, jobs
    ):
        graph = _graph()
        config = CONFIGS[backend]

        def run(g):
            return simulate(
                g, workload, config, roots=ROOTS, schedule=schedule, jobs=jobs
            )

        drop_search_tree(graph)
        cold = run(graph)
        warm = run(graph)
        fresh = run(_graph())
        assert cold.count > 0
        for field in cold.__dataclass_fields__:
            assert getattr(warm, field) == getattr(cold, field), field
            assert getattr(fresh, field) == getattr(cold, field), field

    @pytest.mark.parametrize("backend", sorted(CONFIGS))
    def test_warm_run_executes_no_set_ops(self, backend):
        graph = _graph()
        simulate(graph, "tt", CONFIGS[backend], roots=ROOTS)
        reset_kernel_counters()
        simulate(graph, "tt", CONFIGS[backend], roots=ROOTS)
        assert kernel_counters() == {}

    def test_one_trace_serves_every_design(self):
        graph = _graph()
        simulate(graph, "cyc", CONFIGS["fingers"], roots=ROOTS)
        tree = graph._tree_cache
        for config in CONFIGS.values():
            simulate(graph, "cyc", config, roots=ROOTS)
            assert graph._tree_cache is tree

    def test_key_includes_the_plans(self):
        """``cyc`` right after ``4cl`` on the same graph and roots must
        not replay the ``4cl`` tree."""
        graph = _graph()
        config = FingersConfig(num_pes=2)
        simulate(graph, "4cl", config, roots=ROOTS)
        after = simulate(graph, "cyc", config, roots=ROOTS)
        cold = simulate(_graph(), "cyc", config, roots=ROOTS)
        assert after == cold

    def test_repeated_roots_replay_each_occurrence(self):
        graph = _graph()
        config = FingersConfig(num_pes=2)
        once = simulate(graph, "tt", config, roots=[3])
        twice = simulate(graph, "tt", config, roots=[3, 0, 3])
        alone = simulate(graph, "tt", config, roots=[0])
        assert twice.count == 2 * once.count + alone.count
        assert twice.combined.tasks == (
            2 * once.combined.tasks + alone.combined.tasks
        )


class TestMemoHygiene:
    def test_pickled_graph_arrives_with_empty_slot(self):
        graph = _graph()
        search_tree(graph, _plans("tt"), ROOTS)
        assert graph._tree_cache is not None
        assert pickle.loads(pickle.dumps(graph))._tree_cache is None

    def test_warm_slot_changes_no_fingerprint(self):
        cold = _graph()
        warm = _graph()
        search_tree(warm, _plans("tt"), ROOTS)
        assert graph_fingerprint(warm) == graph_fingerprint(cold)
        assert graph_signature(warm) == graph_signature(cold)
        assert graph_signature(warm).key() == graph_signature(cold).key()
        assert warm == cold and hash(warm) == hash(cold)

    def test_new_key_replaces_the_slot(self):
        graph = _graph()
        plans = _plans("tt")
        first = search_tree(graph, plans, ROOTS)
        assert search_tree(graph, plans, ROOTS) is first
        assert search_tree(graph, _plans("tt"), list(ROOTS)) is first
        other = search_tree(graph, plans, ROOTS[:-1])
        assert graph._tree_cache is other
        assert search_tree(graph, plans, ROOTS) is not first
        search_tree(graph, _plans("cyc"), ROOTS)
        assert graph._tree_cache.plans == tuple(_plans("cyc"))

    def test_drop_empties_the_slot(self):
        graph = _graph()
        search_tree(graph, _plans("tt"), ROOTS)
        drop_search_tree(graph)
        assert graph._tree_cache is None

    def test_cyc_on_lj_stays_under_one_megabyte(self):
        graph = load_dataset("Lj")
        plans = _plans("cyc")
        roots = list(range(0, graph.num_vertices, 128))
        # Build the graph's lazy kernel indexes outside the measurement.
        search_tree(graph, plans, roots[:50])
        tracemalloc.start()
        try:
            tree = search_tree(graph, plans, roots)
            _, build_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        drop_search_tree(graph)
        assert sum(level.vertex.size for level in tree.levels) > 20_000
        assert tree.nbytes < 1 << 20
        # The build keeps its columns in compact chunks, not a Python
        # object per node (which peaked near 4 MB here; chunked, 0.9 MB).
        assert build_peak < 2 << 20


class TestTreeLayout:
    @pytest.mark.parametrize("workload", ["4cl", "dia", "house"])
    def test_chunking_changes_no_result(self, workload, monkeypatch):
        """Columns packed in many small chunks, each mask chunk padded
        to whole bytes, replay exactly what one chunk per level does."""
        graph = erdos_renyi(60, 0.2, seed=3)
        config = FingersConfig(num_pes=2, num_ius=8)
        whole = simulate(graph, workload, config, roots=ROOTS)
        drop_search_tree(graph)
        monkeypatch.setattr(tree_module, "_CHUNK_NODES", 3)
        monkeypatch.setattr(tree_module, "_CHUNK_BITS", 13)
        chunked = simulate(graph, workload, config, roots=ROOTS)
        assert sum(lvl.masks.size for lvl in graph._tree_cache.levels) > 8
        assert chunked == whole

    def test_children_are_contiguous_slices(self):
        graph = _graph()
        tree = search_tree(graph, _plans("tt"), ROOTS)
        for level, nxt in zip(tree.levels, tree.levels[1:]):
            ptr = level.child_ptr
            assert ptr[0] == 0 and ptr[-1] == nxt.vertex.size
            assert np.all(np.diff(ptr) == level.fanout.sum(axis=1))
        assert tree.levels[-1].child_ptr is None

    def test_leaf_parents_store_no_masks(self):
        tree = search_tree(_graph(), _plans("4cl"), ROOTS)
        assert tree.levels[-1].mask_ptr is None
        assert tree.levels[-1].masks.size == 0

    def test_merged_root_fans_out_per_plan(self):
        plans = _plans("3mc")
        tree = search_tree(_graph(), plans, ROOTS)
        assert tree.levels[0].fanout.shape == (len(ROOTS), len(plans))
        assert np.all(tree.levels[0].fanout.sum(axis=0) > 0)
