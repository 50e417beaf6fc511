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

from dataclasses import dataclass
from typing import Sequence

from repro.bench.report import format_table
from repro.bench.runner import run_cached
from repro.bench.workloads import roots_for
from repro.graph.datasets import load_dataset
from repro.hw.api import FingersConfig

__all__ = [
    "ablation_scheduling",
    "ablation_max_load",
    "ablation_dividers",
    "ablation_group_size",
    "ablation_imbalance",
    "ablation_edge_induced",
]


@dataclass(frozen=True)
class AblationResult:
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    data: dict

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def ablation_scheduling(
    graph_name: str = "Lj",
    pattern: str = "tc",
    num_pes: int = 8,
) -> AblationResult:
    """Global root-scheduling policies on a power-law graph."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data = {}
    rows = []
    base = None
    for policy in ("dynamic", "static_interleave", "static_block"):
        res = run_cached(
            graph, graph_name, pattern, FingersConfig(num_pes=num_pes),
            None, roots, schedule=policy,
        )
        if base is None:
            base = res.cycles
        data[policy] = res
        rows.append(
            (
                policy,
                f"{res.cycles:,.0f}",
                f"{base / res.cycles:.2f}",
                f"{res.load_imbalance:.2f}",
            )
        )
    return AblationResult(
        title=(
            f"Ablation: root scheduling policy ({pattern} on {graph_name}, "
            f"{num_pes} PEs)"
        ),
        headers=("policy", "cycles", "speedup vs dynamic", "imbalance"),
        rows=tuple(rows),
        data=data,
    )


def ablation_max_load(
    graph_name: str = "Or",
    pattern: str = "tt",
    values: Sequence[int] = (1, 2, 3, 6, 12),
) -> AblationResult:
    """Task-divider max-load threshold (splitting granularity)."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data = {}
    rows = []
    base = None
    for value in values:
        res = run_cached(
            graph, graph_name, pattern,
            FingersConfig(num_pes=1, max_load=value),
            None, roots,
        )
        if base is None:
            base = res.cycles
        data[value] = res
        rows.append((value, f"{res.cycles:,.0f}", f"{base / res.cycles:.2f}"))
    return AblationResult(
        title=f"Ablation: divider max-load threshold ({pattern} on {graph_name})",
        headers=("max_load", "cycles", "speedup vs max_load=1"),
        rows=tuple(rows),
        data=data,
    )


def ablation_dividers(
    graph_name: str = "Or",
    pattern: str = "tt",
    values: Sequence[int] = (1, 3, 6, 12, 24),
) -> AblationResult:
    """How many parallel task dividers one PE needs (default 12)."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data = {}
    rows = []
    base = None
    for value in values:
        res = run_cached(
            graph, graph_name, pattern,
            FingersConfig(num_pes=1, num_dividers=value),
            None, roots,
        )
        if base is None:
            base = res.cycles
        data[value] = res
        rows.append((value, f"{res.cycles:,.0f}", f"{base / res.cycles:.2f}"))
    return AblationResult(
        title=f"Ablation: task-divider count ({pattern} on {graph_name})",
        headers=("dividers", "cycles", "speedup vs 1"),
        rows=tuple(rows),
        data=data,
    )


def ablation_group_size(
    graph_name: str = "Pa",
    pattern: str = "tc",
    values: Sequence[int | None] = (1, 2, 4, 8, 16, None),
) -> AblationResult:
    """Task-group size sweep (None = the paper's automatic policy)."""
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data = {}
    rows = []
    base = None
    for value in values:
        res = run_cached(
            graph, graph_name, pattern,
            FingersConfig(num_pes=1, task_group_size=value),
            None, roots,
        )
        if base is None:
            base = res.cycles
        data[value] = res
        label = "auto" if value is None else str(value)
        rows.append(
            (
                label,
                res.task_group_size,
                f"{res.cycles:,.0f}",
                f"{base / res.cycles:.2f}",
            )
        )
    return AblationResult(
        title=f"Ablation: task-group size ({pattern} on {graph_name})",
        headers=("requested", "effective", "cycles", "speedup vs 1"),
        rows=tuple(rows),
        data=data,
    )


def ablation_edge_induced(
    graph_name: str = "As",
    patterns: Sequence[str] = ("tt", "cyc", "dia"),
) -> AblationResult:
    """Vertex- vs edge-induced semantics (paper section 2.1).

    Edge-induced plans drop the subtraction ops (no exact non-edge
    matching), which removes exactly the large-set operations that give
    FINGERS its biggest wins on tt/cyc — so the speedup over FlexMiner
    shrinks, while counts grow (more embeddings match).  Supporting both
    modes is the capability TrieJax lacks (section 2.2).
    """
    from repro.hw.api import FlexMinerConfig
    from repro.pattern.compiler import compile_plan
    from repro.pattern.pattern import named_pattern

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
            fing = run_cached(
                graph, graph_name, plan, FingersConfig(num_pes=1), None, roots
            )
            flex = run_cached(
                graph, graph_name, plan, FlexMinerConfig(num_pes=1), None, roots
            )
            mode = "vertex" if vertex_induced else "edge"
            data[(pattern, mode)] = (fing, flex)
            row.extend([f"{fing.count:,}", f"{fing.speedup_over(flex):.2f}"])
        rows.append(tuple(row))
    return AblationResult(
        title=f"Ablation: vertex- vs edge-induced semantics ({graph_name}, 1 PE)",
        headers=(
            "pattern", "v-induced count", "v-induced speedup",
            "e-induced count", "e-induced speedup",
        ),
        rows=tuple(rows),
        data=data,
    )


def ablation_imbalance(
    graph_name: str = "Lj",
    pattern: str = "tc",
    pe_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> AblationResult:
    """Coarse-grained load imbalance vs PE count (paper section 2.3).

    On power-law graphs the hub-rooted trees serialize; adding PEs stops
    helping once the largest tree dominates — the motivation for strong
    single-PE performance.
    """
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    data = {}
    rows = []
    base = None
    for num_pes in pe_counts:
        res = run_cached(
            graph, graph_name, pattern, FingersConfig(num_pes=num_pes),
            None, roots,
        )
        if base is None:
            base = res.cycles
        data[num_pes] = res
        rows.append(
            (
                num_pes,
                f"{res.cycles:,.0f}",
                f"{base / res.cycles:.2f}",
                f"{res.load_imbalance:.2f}",
            )
        )
    return AblationResult(
        title=(
            f"Ablation: PE scaling and load imbalance ({pattern} on "
            f"{graph_name})"
        ),
        headers=("PEs", "cycles", "scaling vs 1 PE", "imbalance"),
        rows=tuple(rows),
        data=data,
    )
