"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's own figures: each isolates one mechanism of
the FINGERS design (or of our model of it) and quantifies its
contribution.

* **Root scheduling** — dynamic vs static policies.  Realizes the paper's
  section 2.3 motivation (coarse-grained load imbalance on power-law
  graphs) and its section 6.3 future-work locality idea.
* **Max-load threshold** — the task divider's splitting knob
  (section 4.2).
* **Divider count** — how many parallel task dividers a PE needs.
* **Task-group size** — a finer-grained version of Figure 11.
* **Load-imbalance anatomy** — per-PE busy-time spread, demonstrating why
  single-PE performance matters on skewed graphs.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.report import TableResult
from repro.bench.runner import run_cached
from repro.bench.workloads import roots_for
from repro.graph.datasets import load_dataset
from repro.hw.api import FingersConfig, FlexMinerConfig
from repro.hw.config import SCHEDULES
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import named_pattern

__all__ = [
    "ablation_scheduling",
    "ablation_max_load",
    "ablation_dividers",
    "ablation_group_size",
    "ablation_imbalance",
    "ablation_edge_induced",
]


def _sweep(
    title: str,
    headers: tuple[str, ...],
    graph_name: str,
    pattern: str,
    values: Sequence,
    point: Callable[[object], dict],
    row: Callable[[object, object, str], tuple],
) -> TableResult:
    """One single-knob sweep of ``pattern`` on ``graph_name``.

    ``point(value)`` gives the :func:`run_cached` keyword arguments
    (``config``, optionally ``schedule``) of one swept value;
    ``row(value, result, speedup)`` its printed cells, where ``speedup``
    is the first point's cycles over this one's.  ``data`` maps each
    value to its run result.
    """
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data = {}
    rows = []
    base = None
    for value in values:
        res = run_cached(graph, pattern, roots=roots, **point(value))
        if base is None:
            base = res.cycles
        data[value] = res
        rows.append(row(value, res, f"{base / res.cycles:.2f}"))
    return TableResult(
        title=title, headers=headers, rows=tuple(rows), data=data
    )


def _cycles(res) -> str:
    return f"{res.cycles:,.0f}"


def ablation_scheduling(
    graph_name: str = "Lj",
    pattern: str = "tc",
    num_pes: int = 8,
) -> TableResult:
    """Global root-scheduling policies on a power-law graph."""
    return _sweep(
        f"Ablation: root scheduling policy ({pattern} on {graph_name}, "
        f"{num_pes} PEs)",
        ("policy", "cycles", "speedup vs dynamic", "imbalance"),
        graph_name, pattern, SCHEDULES,
        lambda policy: {
            "config": FingersConfig(num_pes=num_pes), "schedule": policy,
        },
        lambda policy, res, speedup: (
            policy, _cycles(res), speedup, f"{res.load_imbalance:.2f}",
        ),
    )


def ablation_max_load(
    graph_name: str = "Or",
    pattern: str = "tt",
    values: Sequence[int] = (1, 2, 3, 6, 12),
) -> TableResult:
    """Task-divider max-load threshold (splitting granularity)."""
    return _sweep(
        f"Ablation: divider max-load threshold ({pattern} on {graph_name})",
        ("max_load", "cycles", "speedup vs max_load=1"),
        graph_name, pattern, values,
        lambda v: {"config": FingersConfig(num_pes=1, max_load=v)},
        lambda v, res, speedup: (v, _cycles(res), speedup),
    )


def ablation_dividers(
    graph_name: str = "Or",
    pattern: str = "tt",
    values: Sequence[int] = (1, 3, 6, 12, 24),
) -> TableResult:
    """How many parallel task dividers one PE needs (default 12)."""
    return _sweep(
        f"Ablation: task-divider count ({pattern} on {graph_name})",
        ("dividers", "cycles", "speedup vs 1"),
        graph_name, pattern, values,
        lambda v: {"config": FingersConfig(num_pes=1, num_dividers=v)},
        lambda v, res, speedup: (v, _cycles(res), speedup),
    )


def ablation_group_size(
    graph_name: str = "Pa",
    pattern: str = "tc",
    values: Sequence[int | None] = (1, 2, 4, 8, 16, None),
) -> TableResult:
    """Task-group size sweep (None = the paper's automatic policy)."""
    return _sweep(
        f"Ablation: task-group size ({pattern} on {graph_name})",
        ("requested", "effective", "cycles", "speedup vs 1"),
        graph_name, pattern, values,
        lambda v: {"config": FingersConfig(num_pes=1, task_group_size=v)},
        lambda v, res, speedup: (
            "auto" if v is None else str(v), res.task_group_size,
            _cycles(res), speedup,
        ),
    )


def ablation_imbalance(
    graph_name: str = "Lj",
    pattern: str = "tc",
    pe_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> TableResult:
    """Coarse-grained load imbalance vs PE count (paper section 2.3).

    On power-law graphs the hub-rooted trees serialize; adding PEs stops
    helping once the largest tree dominates — the motivation for strong
    single-PE performance.
    """
    return _sweep(
        f"Ablation: PE scaling and load imbalance ({pattern} on "
        f"{graph_name})",
        ("PEs", "cycles", "scaling vs 1 PE", "imbalance"),
        graph_name, pattern, pe_counts,
        lambda n: {"config": FingersConfig(num_pes=n)},
        lambda n, res, speedup: (
            n, _cycles(res), speedup, f"{res.load_imbalance:.2f}",
        ),
    )


def ablation_edge_induced(
    graph_name: str = "As",
    patterns: Sequence[str] = ("tt", "cyc", "dia"),
) -> TableResult:
    """Vertex- vs edge-induced semantics (paper section 2.1).

    Edge-induced plans drop the subtraction ops (no exact non-edge
    matching), which removes exactly the large-set operations that give
    FINGERS its biggest wins on tt/cyc — so the speedup over FlexMiner
    shrinks, while counts grow (more embeddings match).  Supporting both
    modes is the capability TrieJax lacks (section 2.2).
    """
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data: dict = {}
    rows = []
    for pattern in patterns:
        row: list = [pattern]
        for vertex_induced in (True, False):
            plan = compile_plan(
                named_pattern(pattern), vertex_induced=vertex_induced
            )
            fing = run_cached(graph, plan, FingersConfig(num_pes=1), roots=roots)
            flex = run_cached(
                graph, plan, FlexMinerConfig(num_pes=1), roots=roots
            )
            mode = "vertex" if vertex_induced else "edge"
            data[(pattern, mode)] = (fing, flex)
            row.extend([f"{fing.count:,}", f"{fing.speedup_over(flex):.2f}"])
        rows.append(tuple(row))
    return TableResult(
        title=f"Ablation: vertex- vs edge-induced semantics ({graph_name}, 1 PE)",
        headers=(
            "pattern", "v-induced count", "v-induced speedup",
            "e-induced count", "e-induced speedup",
        ),
        rows=tuple(rows),
        data=data,
    )
