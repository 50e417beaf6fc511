"""Software-vs-accelerator comparison (the paper's section 3.5 study).

Two questions the paper raises but defers:

1. Does fine-grained (branch-level) parallelism help *software* too?
   Yes — the work-stealing branch-granularity miner fixes the
   tree-granularity load imbalance on power-law graphs — but per-task
   scheduling overheads bound how fine software can slice.
2. How far ahead is the accelerator?  FlexMiner's paper reports an order
   of magnitude over CPU frameworks; FINGERS multiplies that.  We compare
   wall-clock time (cycles / frequency), not raw cycles, since the CPU
   clocks 2.5x higher.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.report import TableResult
from repro.bench.runner import run_cached
from repro.bench.workloads import roots_for
from repro.graph.datasets import load_dataset
from repro.hw.api import FingersConfig, FlexMinerConfig
from repro.sw.config import SoftwareConfig

__all__ = ["software_comparison", "software_scaling"]


def software_scaling(
    graph_name: str = "Lj",
    pattern: str = "tc",
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> TableResult:
    """Core scaling: tree vs branch granularity on a power-law graph."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data: dict = {}
    rows = []
    base = None
    for cores in core_counts:
        row = [cores]
        for gran in ("tree", "branch"):
            cfg = SoftwareConfig(num_cores=cores, granularity=gran)
            res = run_cached(graph, pattern, cfg, roots=roots)
            data[(gran, cores)] = res
            if base is None:
                base = res.cycles
            row.extend([f"{base / res.cycles:.2f}", f"{res.load_imbalance:.2f}"])
        rows.append(tuple(row))
    return TableResult(
        title=(
            f"Software scaling ({pattern} on {graph_name}): tree vs "
            "branch granularity (speedup over 1 core / load imbalance)"
        ),
        headers=("cores", "tree x", "tree imb", "branch x", "branch imb"),
        rows=tuple(rows),
        data=data,
    )


def software_comparison(
    graph_name: str = "Mi",
    pattern: str = "tc",
) -> TableResult:
    """Wall-clock comparison: 16-core CPU vs the two accelerator chips."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data: dict = {}
    rows = []

    sw_cfg = SoftwareConfig(num_cores=16, granularity="branch")
    sw = run_cached(graph, pattern, sw_cfg, roots=roots)
    sw_time = sw.cycles / sw_cfg.frequency_ghz
    data["software"] = sw

    flex_cfg = FlexMinerConfig(num_pes=40)
    flex = run_cached(graph, pattern, flex_cfg, roots=roots)
    flex_time = flex.cycles / flex_cfg.frequency_ghz
    data["flexminer"] = flex

    fing_cfg = FingersConfig(num_pes=20)
    fing = run_cached(graph, pattern, fing_cfg, roots=roots)
    fing_time = fing.cycles / fing_cfg.frequency_ghz
    data["fingers"] = fing

    assert sw.counts == flex.counts == fing.counts
    for name, cycles, time in (
        ("16-core CPU (branch WS)", sw.cycles, sw_time),
        ("FlexMiner (40 PEs)", flex.cycles, flex_time),
        ("FINGERS (20 PEs)", fing.cycles, fing_time),
    ):
        rows.append(
            (
                name,
                f"{cycles:,.0f}",
                f"{time:,.0f}",
                f"{sw_time / time:.1f}",
            )
        )
    return TableResult(
        title=(
            f"Accelerators vs software ({pattern} on {graph_name}; "
            "time in ns at each design's clock)"
        ),
        headers=("design", "cycles", "time (ns)", "speedup vs CPU"),
        rows=tuple(rows),
        data=data,
    )
