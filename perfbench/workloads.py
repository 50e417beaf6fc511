"""Seeded inputs and job lists of the three benchmark workloads.

Every graph is built through :mod:`repro.graph.generators` plus
:func:`repro.graph.builders.relabel_by_degree`, following the matching
analog recipe of :mod:`repro.graph.datasets`, with every generator seed
offset by the workload seed.  Seed 0 therefore reproduces
``load_dataset(name)`` exactly.

A job with root stride ``k`` mines the degree-ordered roots ``0, k, 2k,
...`` of its seeded graph, as ``repro.bench.workloads.roots_for`` does,
so the seed reaches the root sample through the graph.  The sample
always starts at the top hub: offsetting it by the seed would drop that
hub on most seeds, and on the Lj analog the top hub alone carries about
half of the 4cl search tree.

``tiny=True`` swaps in small graphs of the same shape so the whole job
list runs in about a second; only the benchmark's own tests use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.graph import generators
from repro.graph.builders import from_edges, relabel_by_degree
from repro.graph.csr import CSRGraph
from repro.hw.api import FingersConfig, FlexMinerConfig
from repro.hw.area import iso_area_segment_length
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import named_pattern
from repro.pattern.plan import ExecutionPlan

__all__ = ["Job", "Inputs", "WORKLOADS", "graph_recipe", "jobs_for", "setup"]

WORKLOADS = ("sim-iu-sweep", "sim-chip", "count")

_SEED_SPACE = 2**32


def _seed(base: int, seed: int) -> int:
    return (base + seed) % _SEED_SPACE


def _union(base: CSRGraph, extra: CSRGraph) -> CSRGraph:
    edges = list(base.edges()) + list(extra.edges())
    return from_edges(edges, num_vertices=base.num_vertices)


def _mi(seed: int, tiny: bool) -> CSRGraph:
    # BA plus planted 7-cliques: clique-rich and resident in the scaled
    # 256 kB shared cache.
    n, cliques = (200, 30) if tiny else (1500, 260)
    return _union(
        generators.barabasi_albert(n, 4, seed=_seed(201, seed)),
        generators.planted_cliques(
            n, num_cliques=cliques, clique_size=7, background_p=0.0,
            seed=_seed(202, seed),
        ),
    )


def _lj(seed: int, tiny: bool) -> CSRGraph:
    # RMAT hubs plus planted 7-cliques: overflows the shared cache.
    scale, cliques = (9, 10) if tiny else (13, 110)
    base = generators.rmat(scale, 8, seed=_seed(505, seed))
    return _union(
        base,
        generators.planted_cliques(
            base.num_vertices, num_cliques=cliques, clique_size=7,
            background_p=0.0, seed=_seed(506, seed),
        ),
    )


def _or(seed: int, tiny: bool) -> CSRGraph:
    # Power-law configuration model: high average degree, heavy hubs.
    n, lo, hi = (200, 6, 60) if tiny else (1500, 15, 420)
    return generators.powerlaw_configuration(
        n, exponent=2.0, min_degree=lo, max_degree=hi, seed=_seed(606, seed)
    )


def _er300(seed: int, tiny: bool) -> CSRGraph:
    # Dense Erdos-Renyi: no hubs, deep frontiers.
    n = 60 if tiny else 300
    return generators.erdos_renyi(n, p=0.15, seed=_seed(13, seed))


_RECIPES: dict[str, Callable[[int, bool], CSRGraph]] = {
    "Mi": _mi,
    "Lj": _lj,
    "Or": _or,
    "er300": _er300,
}


def graph_recipe(name: str, seed: int, *, tiny: bool = False) -> CSRGraph:
    """The seeded, degree-ordered analog ``name``."""
    return relabel_by_degree(_RECIPES[name](seed, tiny))


@dataclass(frozen=True)
class Job:
    """One measured call into the program.

    ``config`` is ``None`` for a functional count
    (``repro.mining.engine.count_embeddings``) and a design
    configuration for a simulation (``repro.hw.api.simulate``).
    """

    name: str
    graph: str
    pattern: str
    stride: int
    config: FingersConfig | FlexMinerConfig | None = None

    @property
    def is_sim(self) -> bool:
        return self.config is not None


def _iu_sweep() -> list[Job]:
    # Figure 12 shape: single-PE FINGERS at iso-area IU counts plus the
    # FlexMiner baseline, all replaying one tt search tree on Mi.
    jobs = [
        Job(
            f"tt/Mi/fingers-{n}iu", "Mi", "tt", 8,
            FingersConfig(
                num_pes=1, num_ius=n, long_segment_len=iso_area_segment_length(n)
            ),
        )
        for n in (4, 8, 16, 24, 48)
    ]
    jobs.append(Job("tt/Mi/flexminer", "Mi", "tt", 8, FlexMinerConfig(num_pes=1)))
    return jobs


def _chip() -> list[Job]:
    # Figures 10/13 shape: iso-area 20-PE FINGERS vs 40-PE FlexMiner on
    # the cache-overflowing Lj analog.
    jobs = []
    for pattern, stride in (("4cl", 32), ("cyc", 128)):
        jobs.append(Job(f"{pattern}/Lj/fingers-20pe", "Lj", pattern, stride,
                        FingersConfig(num_pes=20)))
        jobs.append(Job(f"{pattern}/Lj/flexminer-40pe", "Lj", pattern, stride,
                        FlexMinerConfig(num_pes=40)))
    return jobs


def _count() -> list[Job]:
    # Functional counting only: dense ER plus two skewed graphs.
    jobs = [Job(f"{p}/er300", "er300", p, 1) for p in ("house", "tt", "cyc", "4cl")]
    jobs.append(Job("tt/Or", "Or", "tt", 1))
    jobs.append(Job("4cl/Lj", "Lj", "4cl", 1))
    return jobs


_JOBS: dict[str, Callable[[], list[Job]]] = {
    "sim-iu-sweep": _iu_sweep,
    "sim-chip": _chip,
    "count": _count,
}


def jobs_for(workload: str) -> list[Job]:
    """The measured job list of ``workload``, in execution order."""
    return _JOBS[workload]()


@dataclass
class Inputs:
    """Everything one repetition hands the program."""

    graphs: dict[str, CSRGraph]
    plans: dict[str, ExecutionPlan]
    roots: dict[str, list[int]]
    build_s: float
    compile_s: float


def setup(jobs: list[Job], seed: int, *, tiny: bool = False) -> Inputs:
    """Generate the graphs and compile the plans ``jobs`` need."""
    t0 = time.perf_counter()
    graphs = {}
    for job in jobs:
        if job.graph not in graphs:
            graphs[job.graph] = graph_recipe(job.graph, seed, tiny=tiny)
    t1 = time.perf_counter()
    plans = {}
    for job in jobs:
        if job.pattern not in plans:
            plans[job.pattern] = compile_plan(named_pattern(job.pattern))
    t2 = time.perf_counter()
    roots = {
        job.name: list(range(0, graphs[job.graph].num_vertices, job.stride))
        for job in jobs
    }
    return Inputs(graphs, plans, roots, t1 - t0, t2 - t1)
