"""Benchmark harness: regenerates every table and figure of the paper.

Each experiment function returns structured data *and* renders the same
rows/series the paper reports; ``benchmarks/`` wraps them in
pytest-benchmark entry points.  See EXPERIMENTS.md for paper-vs-measured
records.

Root sampling: the Lj/Or/Pa analogs are mined from a deterministic stride
of root vertices (see :data:`repro.bench.workloads.ROOT_STRIDE`) to keep
pure-Python simulation times tractable.  Both designs always receive the
same roots, so speedups are exact ratios of identical functional work.
"""

from repro.bench.workloads import (
    BENCHMARK_PATTERNS,
    BENCHMARK_GRAPHS,
    ROOT_STRIDE,
    roots_for,
)
from repro.bench.runner import (
    RunnerStats,
    configure,
    run_cached,
    runner_stats,
)
from repro.bench import experiments
from repro.bench.report import (
    TableResult,
    format_table,
    format_grid,
    geometric_mean,
)

__all__ = [
    "BENCHMARK_PATTERNS",
    "BENCHMARK_GRAPHS",
    "ROOT_STRIDE",
    "roots_for",
    "run_cached",
    "configure",
    "runner_stats",
    "RunnerStats",
    "experiments",
    "TableResult",
    "format_table",
    "format_grid",
    "geometric_mean",
]
