"""Set-operation kernel microbenchmarks and end-to-end counting speedups.

Two layers (docs/KERNELS.md):

* per-kernel micro timings of intersect/subtract on synthetic operand
  shapes (balanced vs. skewed, with a prebuilt bitmap for the hub path);
* end-to-end ``count_embeddings`` on seeded generator graphs, comparing
  the shipped default (frontier engine, adaptive kernels, fused terminal
  count) against the legacy configuration (forced merge kernel,
  per-child recursion) that reproduces the pre-kernel-layer engine.

All numbers land in ``benchmarks/results/BENCH_kernels.json`` so the
perf trajectory has data points; counts are asserted identical in every
configuration.  Run with ``make bench-kernels``.  Setting
``REPRO_BENCH_SMOKE=1`` (the CI smoke job) shrinks the end-to-end graphs
and drops the speedup floor, keeping the artifact informational.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi
from repro.mining.engine import count_embeddings
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import named_pattern
from repro.setops.kernels import (
    KernelPolicy,
    bitmap_intersect,
    bitmap_subtract,
    gallop_intersect,
    gallop_subtract,
    merge_intersect,
    merge_subtract,
    pack_bitmap,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Legacy configuration: the exact execution shape of the engine before
#: the kernel layer existed (sort-based merges, per-child recursion).
#: ``engine="recursive"`` pins the pre-frontier execution model now that
#: the default policy runs the frontier engine.
LEGACY = KernelPolicy(force_kernel="merge", engine="recursive")

#: Adaptive configuration: the shipped default policy (frontier engine,
#: size-adaptive kernels, fused terminal count) — what this file's
#: end-to-end speedup measures.
ADAPTIVE = KernelPolicy()

_INTERSECT_KERNELS = {
    "merge": merge_intersect,
    "gallop": gallop_intersect,
    "bitmap": bitmap_intersect,
}
_SUBTRACT_KERNELS = {
    "merge": merge_subtract,
    "gallop": gallop_subtract,
    "bitmap": bitmap_subtract,
}


def _record(results_dir, section: str, key: str, payload: dict) -> None:
    """Merge one measurement into benchmarks/results/BENCH_kernels.json."""
    path = results_dir / "BENCH_kernels.json"
    data: dict = {}
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
    data.setdefault(section, {})[key] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _operands(shape: str) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(42)
    domain = 200_000
    if shape == "balanced":
        sizes = (8_000, 10_000)
    else:  # skewed: |a| << |b|, the galloping sweet spot
        sizes = (256, 50_000)
    a = np.unique(rng.integers(0, domain, size=sizes[0])).astype(np.int32)
    b = np.unique(rng.integers(0, domain, size=sizes[1])).astype(np.int32)
    return a, b


@pytest.mark.parametrize("shape", ["balanced", "skewed"])
@pytest.mark.parametrize("kernel", ["merge", "gallop", "bitmap"])
def test_micro_intersect(benchmark, results_dir, kernel, shape):
    a, b = _operands(shape)
    fn = _INTERSECT_KERNELS[kernel]
    expected = merge_intersect(a, b)
    result = benchmark(fn, a, b)
    assert np.array_equal(result, expected)
    _record(results_dir, "micro", f"intersect/{kernel}/{shape}", {
        "size_a": int(a.size), "size_b": int(b.size),
        "mean_seconds": float(benchmark.stats["mean"]),
    })


@pytest.mark.parametrize("shape", ["balanced", "skewed"])
@pytest.mark.parametrize("kernel", ["merge", "gallop", "bitmap"])
def test_micro_subtract(benchmark, results_dir, kernel, shape):
    a, b = _operands(shape)
    fn = _SUBTRACT_KERNELS[kernel]
    expected = merge_subtract(a, b)
    result = benchmark(fn, a, b)
    assert np.array_equal(result, expected)
    _record(results_dir, "micro", f"subtract/{kernel}/{shape}", {
        "size_a": int(a.size), "size_b": int(b.size),
        "mean_seconds": float(benchmark.stats["mean"]),
    })


def test_micro_bitmap_prebuilt(benchmark, results_dir):
    """The hub-index fast path: probe against an already-packed bitmap."""
    a, b = _operands("skewed")
    words = pack_bitmap(b)
    expected = merge_intersect(a, b)
    result = benchmark(bitmap_intersect, a, b, b_words=words)
    assert np.array_equal(result, expected)
    _record(results_dir, "micro", "intersect/bitmap/prebuilt", {
        "size_a": int(a.size), "size_b": int(b.size),
        "mean_seconds": float(benchmark.stats["mean"]),
    })


# ----------------------------------------------------------------------
# End-to-end: adaptive layer vs. the legacy engine configuration
# ----------------------------------------------------------------------

#: Seeded benchmark graphs.  Dense enough that set operations (not the
#: upper-level Python traversal) dominate, which is the regime the
#: fused terminal count targets.
_E2E_GRAPH = (40, 0.5, 11) if SMOKE else (120, 0.7, 11)

#: Required adaptive-over-legacy speedup (ISSUE 5 acceptance floor).
_SPEEDUP_FLOOR = 1.0 if SMOKE else 3.0


def _time_count(graph, plan, policy, *, rounds: int = 2) -> tuple[int, float]:
    """Best-of-``rounds`` wall time (robust against background load)."""
    best = float("inf")
    count = 0
    for _ in range(rounds):
        start = time.perf_counter()
        count = count_embeddings(graph, plan, kernels=policy)
        best = min(best, time.perf_counter() - start)
    return count, best


@pytest.mark.parametrize("pattern", ["4cl", "tt"])
def test_e2e_count_speedup(benchmark, results_dir, pattern):
    n, p, seed = _E2E_GRAPH
    graph = erdos_renyi(n, p, seed=seed)
    plan = compile_plan(named_pattern(pattern))

    legacy_count, legacy_seconds = _time_count(graph, plan, LEGACY)
    adaptive_count = benchmark.pedantic(
        count_embeddings, args=(graph, plan),
        kwargs={"kernels": ADAPTIVE}, rounds=3, iterations=1,
        warmup_rounds=1,
    )
    adaptive_seconds = float(benchmark.stats["min"])
    assert adaptive_count == legacy_count
    speedup = legacy_seconds / adaptive_seconds
    _record(results_dir, "end_to_end", f"count_embeddings/{pattern}", {
        "graph": f"erdos_renyi(n={n}, p={p}, seed={seed})",
        "count": int(adaptive_count),
        "legacy_seconds": legacy_seconds,
        "adaptive_seconds": adaptive_seconds,
        "speedup": speedup,
        "smoke": SMOKE,
    })
    assert speedup >= _SPEEDUP_FLOOR, (
        f"{pattern}: adaptive layer is only {speedup:.2f}x over legacy "
        f"(floor {_SPEEDUP_FLOOR}x)"
    )
