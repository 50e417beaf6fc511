"""Experiment definitions: one function per paper table/figure.

Every function returns a small result object carrying the structured data
plus ``render()`` producing the same rows/series the paper reports.  The
per-experiment index lives in DESIGN.md; paper-vs-measured records live in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.report import (
    TableResult,
    format_grid,
    format_table,
    geometric_mean,
)
from repro.bench.runner import run_cached
from repro.bench.workloads import (
    BENCHMARK_GRAPHS,
    BENCHMARK_PATTERNS,
    roots_for,
)
from repro.graph.datasets import CACHE_SCALE, DATASET_SPECS, load_dataset
from repro.graph.stats import graph_stats
from repro.hw.api import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.area import (
    fingers_pe_area,
    fingers_pe_power_mw,
    flexminer_pe_area_15nm,
    iso_area_pe_count,
    iso_area_segment_length,
    scale_28_to_15,
)

__all__ = [
    "table1",
    "table2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table3",
]


# ----------------------------------------------------------------------
# Table 1 — datasets
# ----------------------------------------------------------------------


def table1() -> TableResult:
    """Dataset statistics, analog columns beside the paper's originals."""
    rows = []
    data = {}
    for name in BENCHMARK_GRAPHS:
        spec = DATASET_SPECS[name]
        s = data[name] = graph_stats(load_dataset(name))
        rows.append(
            (
                f"{spec.full_name} ({name})",
                s.num_vertices,
                s.num_edges,
                s.avg_degree,
                s.max_degree,
                spec.paper_vertices,
                spec.paper_edges,
                spec.paper_avg_deg,
                spec.paper_max_deg,
            )
        )
    return TableResult(
        title="Table 1: evaluated graphs (analog vs paper original)",
        headers=(
            "Dataset", "#V", "#E", "AvgDeg", "MaxDeg",
            "paper #V", "paper #E", "paper Avg", "paper Max",
        ),
        rows=tuple(rows),
        data=data,
    )


# ----------------------------------------------------------------------
# Table 2 / section 6.1 — area, power, frequency
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Result:
    components: tuple[tuple[str, float, float], ...]
    total_mm2: float
    pe_area_15nm: float
    flexminer_pe_area_15nm: float
    iso_area_fingers_pes: int
    power: dict

    def render(self) -> str:
        rows = [(n, a, p) for n, a, p in self.components]
        rows.append(("PE Total", self.total_mm2, 100.0))
        table = format_table(
            ["Component", "Area (mm2)", "% Area"],
            rows,
            title="Table 2: area breakdown of one FINGERS PE (28 nm)",
        )
        table += (
            f"\nFINGERS PE at 15 nm: {self.pe_area_15nm:.3f} mm2"
            f" (< 2x FlexMiner PE {self.flexminer_pe_area_15nm:.2f} mm2:"
            f" {self.pe_area_15nm < 2 * self.flexminer_pe_area_15nm})"
            f"\niso-area FINGERS PEs for a 40-PE FlexMiner chip:"
            f" {self.iso_area_fingers_pes} (paper uses 20)"
            f"\nPE power: {self.power['compute_mw']:.1f} mW compute"
            f" + {self.power['caches_mw']:.1f} mW caches"
        )
        return table


def table2(config: FingersConfig | None = None) -> Table2Result:
    """PE area breakdown plus the section 6.1 derived claims."""
    config = config or FingersConfig()
    area = fingers_pe_area(config)
    pct = area.percentages()
    components = (
        (f"{config.num_ius} Intersect Units", area.intersect_units,
         pct["intersect_units"]),
        (f"{config.num_dividers} Task Dividers", area.task_dividers,
         pct["task_dividers"]),
        ("2 Stream Buffers", area.stream_buffers, pct["stream_buffers"]),
        ("Private Cache", area.private_cache, pct["private_cache"]),
        ("Others", area.others, pct["others"]),
    )
    return Table2Result(
        components=components,
        total_mm2=area.total,
        pe_area_15nm=scale_28_to_15(area.total),
        flexminer_pe_area_15nm=flexminer_pe_area_15nm(),
        iso_area_fingers_pes=min(iso_area_pe_count(config), 20),
        power=fingers_pe_power_mw(config),
    )


# ----------------------------------------------------------------------
# Figures 9 and 10 — speedup grids
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedupGridResult:
    title: str
    grid: dict
    patterns: tuple[str, ...]
    graphs: tuple[str, ...]

    @property
    def mean(self) -> float:
        return geometric_mean(list(self.grid.values()))

    @property
    def max(self) -> float:
        return max(self.grid.values())

    def render(self) -> str:
        return format_grid(
            self.grid,
            row_keys=self.patterns,
            col_keys=self.graphs,
            title=self.title,
        )


def _speedup_grid(
    title: str,
    config: FingersConfig,
    baseline: FingersConfig | FlexMinerConfig,
    patterns: Sequence[str],
    graphs: Sequence[str],
) -> SpeedupGridResult:
    """Speedup of ``config`` over ``baseline`` per (pattern, graph), both
    designs on identical roots."""
    grid = {}
    for gname in graphs:
        graph = load_dataset(gname)
        roots = roots_for(gname, graph)
        for pattern in patterns:
            ours = run_cached(graph, pattern, config, roots=roots)
            theirs = run_cached(graph, pattern, baseline, roots=roots)
            grid[(pattern, gname)] = ours.speedup_over(theirs)
    return SpeedupGridResult(
        title=title,
        grid=grid,
        patterns=tuple(patterns),
        graphs=tuple(graphs),
    )


def fig9(
    patterns: Sequence[str] | None = None,
    graphs: Sequence[str] | None = None,
) -> SpeedupGridResult:
    """Figure 9: single-PE speedups of FINGERS over FlexMiner.

    Paper: 6.2x geometric mean, up to 13.2x.
    """
    return _speedup_grid(
        "Figure 9: single-PE speedup, FINGERS vs FlexMiner",
        FingersConfig(num_pes=1),
        FlexMinerConfig(num_pes=1),
        patterns or BENCHMARK_PATTERNS,
        graphs or BENCHMARK_GRAPHS,
    )


def fig10(
    patterns: Sequence[str] | None = None,
    graphs: Sequence[str] | None = None,
) -> SpeedupGridResult:
    """Figure 10: iso-area chip speedups, 20-PE FINGERS vs 40-PE FlexMiner.

    Paper: 2.8x geometric mean, up to 8.9x.
    """
    return _speedup_grid(
        "Figure 10: overall speedup, 20-PE FINGERS vs 40-PE FlexMiner",
        FingersConfig(num_pes=20),
        FlexMinerConfig(num_pes=40),
        patterns or BENCHMARK_PATTERNS,
        graphs or BENCHMARK_GRAPHS,
    )


# ----------------------------------------------------------------------
# Figure 11 — branch-level parallelism / pseudo-DFS ablation
# ----------------------------------------------------------------------


def fig11(
    patterns: Sequence[str] | None = None,
    graphs: Sequence[str] | None = None,
) -> SpeedupGridResult:
    """Figure 11: gain from pseudo-DFS (task groups) over strict order.

    Speedup of the FINGERS PE with automatic task-group sizing over the
    same PE with group size 1 (no branch-level parallelism).  Paper: up to
    5x, biggest for the clique patterns.
    """
    return _speedup_grid(
        "Figure 11: speedup from branch-level parallelism (pseudo-DFS)",
        FingersConfig(num_pes=1),
        FingersConfig(num_pes=1, task_group_size=1),
        patterns or BENCHMARK_PATTERNS,
        graphs or ["As", "Yo", "Lj"],
    )


# ----------------------------------------------------------------------
# Figure 12 — PE scalability in #IUs (iso-area)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig12Result:
    graph: str
    iu_counts: tuple[int, ...]
    series: dict  # {(pattern, num_ius): speedup over 1 IU}

    def render(self) -> str:
        patterns = sorted({p for p, _ in self.series})
        rows = []
        for pattern in patterns:
            rows.append(
                [pattern]
                + [
                    f"{self.series.get((pattern, n), float('nan')):.2f}"
                    for n in self.iu_counts
                ]
            )
        return format_table(
            ["pattern"] + [str(n) for n in self.iu_counts],
            rows,
            title=(
                f"Figure 12: PE scalability vs #IUs on {self.graph} "
                "(iso-area: #IUs x s_l = 384; speedup over 1 IU)"
            ),
        )


def fig12(
    patterns: Sequence[str] = ("4cl", "cyc", "tt"),
    iu_counts: Sequence[int] = (1, 2, 4, 8, 16, 24, 48),
    graph_name: str = "Yo",
) -> Fig12Result:
    """Figure 12: single-PE speedup vs #IUs under the iso-area rule.

    Includes the paper's ``tt-unlimited`` series (segment length pinned at
    16 while IUs grow, i.e. area allowed to increase).
    """
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    series: dict = {}
    bases: dict = {}
    for pattern in patterns:
        base = None
        for n in iu_counts:
            cfg = FingersConfig(
                num_pes=1, num_ius=n,
                long_segment_len=iso_area_segment_length(n),
            )
            res = run_cached(graph, pattern, cfg, roots=roots)
            if base is None:
                base = res.cycles
                bases[pattern] = base
            series[(pattern, n)] = base / res.cycles
    # tt-unlimited: fixed 16-wide segments regardless of the IU count,
    # normalized against the *same* 1-IU baseline as the iso-area series
    # of the matching pattern, so the two curves are directly comparable
    # (as in the paper).  Falls back to the first requested pattern when
    # tt is not in the sweep.
    unlimited = "tt" if "tt" in patterns else patterns[0]
    for n in iu_counts:
        cfg = FingersConfig(num_pes=1, num_ius=n, long_segment_len=16)
        res = run_cached(graph, unlimited, cfg, roots=roots)
        series[(f"{unlimited}-unlimited", n)] = bases[unlimited] / res.cycles
    return Fig12Result(
        graph=graph_name, iu_counts=tuple(iu_counts), series=series
    )


# ----------------------------------------------------------------------
# Figure 13 — shared-cache miss curves
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig13Result:
    pattern: str
    capacities_mb: tuple[float, ...]
    curves: dict  # {(graph, design, capacity_mb): miss_rate}

    def render(self) -> str:
        keys = sorted({(g, d) for g, d, _ in self.curves})
        rows = []
        for g, d in keys:
            rows.append(
                [f"{g}-{d}"]
                + [
                    f"{100 * self.curves[(g, d, c)]:.1f}%"
                    for c in self.capacities_mb
                ]
            )
        return format_table(
            ["series"] + [f"{c:g}MB(/{CACHE_SCALE})" for c in self.capacities_mb],
            rows,
            title=(
                f"Figure 13: shared-cache miss rate vs capacity ({self.pattern};"
                f" capacities are paper MB, scaled by 1/{CACHE_SCALE})"
            ),
        )


def fig13(
    graphs: Sequence[str] = ("Mi", "Yo", "Lj"),
    capacities_mb: Sequence[float] = (2, 4, 8, 16),
    pattern: str = "cyc",
) -> Fig13Result:
    """Figure 13: miss-rate curves for both designs (chip configs of Fig 10)."""
    curves: dict = {}
    for gname in graphs:
        graph = load_dataset(gname)
        roots = roots_for(gname, graph)
        for cap in capacities_mb:
            mem = MemoryConfig().with_shared_cache(
                int(cap * 1024 * 1024) // CACHE_SCALE
            )
            fing = run_cached(
                graph, pattern, FingersConfig(num_pes=20),
                memory=mem, roots=roots,
            )
            flex = run_cached(
                graph, pattern, FlexMinerConfig(num_pes=40),
                memory=mem, roots=roots,
            )
            curves[(gname, "FINGERS", cap)] = fing.shared_cache.miss_rate
            curves[(gname, "FlexMiner", cap)] = flex.shared_cache.miss_rate
    return Fig13Result(
        pattern=pattern,
        capacities_mb=tuple(capacities_mb),
        curves=curves,
    )


# ----------------------------------------------------------------------
# Table 3 — IU utilization and load balance
# ----------------------------------------------------------------------


def table3(
    patterns: Sequence[str] | None = None, graph_name: str = "Mi"
) -> TableResult:
    """Table 3: active rate and balance rate per pattern on one PE.

    ``data`` maps each pattern to its ``(active_rate, balance_rate)``.
    """
    patterns = list(patterns or BENCHMARK_PATTERNS)
    graph = load_dataset(graph_name)
    roots = roots_for(graph_name, graph)
    cfg = FingersConfig(num_pes=1)
    data = {}
    for pattern in patterns:
        combined = run_cached(graph, pattern, cfg, roots=roots).combined
        data[pattern] = (
            combined.active_rate(cfg.num_ius),
            combined.balance_rate,
        )
    return TableResult(
        title=(
            f"Table 3: IU utilization and load balance in one PE ({graph_name})"
        ),
        headers=("metric", *patterns),
        rows=(
            ("Active Rate", *(f"{100 * data[p][0]:.1f}%" for p in patterns)),
            ("Balance Rate", *(f"{100 * data[p][1]:.1f}%" for p in patterns)),
        ),
        data=data,
    )
