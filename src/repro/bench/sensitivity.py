"""Sensitivity studies: are the paper's conclusions robust to our
timing-model parameters?

The cycle-approximate model has free parameters the paper does not pin
down (DRAM latency, cache hit latency, NoC provisioning).  These sweeps
show the headline conclusion — FINGERS beats FlexMiner, more so where
stalls dominate — holds across wide parameter ranges, and in the
direction the mechanism predicts:

* *more* memory latency → *bigger* FINGERS advantage (task groups hide
  stalls; strict DFS cannot);
* shared-cache hit latency moves both designs together;
* the NoC is transparent until its bandwidth drops near the demand.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.bench.report import TableResult
from repro.bench.runner import run_cached
from repro.bench.workloads import roots_for
from repro.graph.datasets import load_dataset
from repro.hw.api import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.noc import NoCConfig

__all__ = [
    "sensitivity_dram_latency",
    "sensitivity_hit_latency",
    "sensitivity_noc_bandwidth",
]


def _sweep(
    title: str,
    param_name: str,
    values: Sequence,
    make_memory,
    graph_name: str,
    pattern: str,
) -> TableResult:
    """Single-PE FINGERS vs FlexMiner at each memory-model value;
    ``data`` maps each value to the speedup."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    speedups: dict = {}
    rows = []
    for value in values:
        mem = make_memory(value)
        fing = run_cached(
            graph, pattern, FingersConfig(num_pes=1), memory=mem, roots=roots
        )
        flex = run_cached(
            graph, pattern, FlexMinerConfig(num_pes=1), memory=mem, roots=roots
        )
        speedup = fing.speedup_over(flex)
        speedups[value] = speedup
        rows.append(
            (
                value,
                f"{fing.cycles:,.0f}",
                f"{flex.cycles:,.0f}",
                f"{speedup:.2f}",
            )
        )
    return TableResult(
        title=title,
        headers=(param_name, "FINGERS cycles", "FlexMiner cycles", "speedup"),
        rows=tuple(rows),
        data=speedups,
    )


def sensitivity_dram_latency(
    latencies: Sequence[int] = (50, 100, 200, 400, 800),
    graph_name: str = "Pa",
    pattern: str = "tc",
) -> TableResult:
    """Single-PE speedup vs DRAM latency on a memory-bound job."""
    return _sweep(
        f"Sensitivity: DRAM latency ({pattern} on {graph_name}, 1 PE)",
        "dram_latency",
        latencies,
        lambda v: replace(MemoryConfig(), dram_latency=v),
        graph_name,
        pattern,
    )


def sensitivity_hit_latency(
    latencies: Sequence[int] = (2, 4, 8, 16, 32),
    graph_name: str = "As",
    pattern: str = "tc",
) -> TableResult:
    """Single-PE speedup vs shared-cache hit latency (cache-resident job)."""
    return _sweep(
        f"Sensitivity: shared-cache hit latency ({pattern} on {graph_name})",
        "hit_latency",
        latencies,
        lambda v: replace(MemoryConfig(), shared_cache_hit_latency=v),
        graph_name,
        pattern,
    )


def sensitivity_noc_bandwidth(
    bandwidths: Sequence[float] = (1, 4, 16, 64, 256),
    graph_name: str = "Or",
    pattern: str = "tc",
) -> TableResult:
    """Single-PE speedup vs NoC bandwidth (bytes/cycle)."""
    return _sweep(
        f"Sensitivity: NoC bandwidth ({pattern} on {graph_name})",
        "noc_B/cyc",
        bandwidths,
        lambda v: replace(
            MemoryConfig(), noc=NoCConfig(bytes_per_cycle=float(v))
        ),
        graph_name,
        pattern,
    )
