"""The simulator driver: root scheduling over a shared memory system.

The global scheduler hands search-tree roots to idle units (the
coarse-grained, tree-level parallelism both designs share, section 3.1).
Units advance in time order, one task group per event, so their accesses
to the shared cache and DRAM interleave approximately as they would on
the real chip.  The makespan — the finish time of the last unit — is the
headline "cycles" number; load imbalance from power-law roots shows up
as the gap between mean unit busy time and makespan.

Both timing front doors share this driver: :func:`run_chip` runs the
FINGERS and FlexMiner PEs, and :func:`repro.sw.miner.run_software` runs
the software model's CPU cores.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.flexminer import FlexMinerPE
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.pe import BasePE, FingersPE, search_tree
from repro.pattern.plan import ExecutionPlan

__all__ = ["drive", "root_queues", "run_chip", "unit_result"]


def root_queues(
    schedule: str, num_nodes: int, num_units: int
) -> list[Iterator[int]]:
    """One iterator of trace root nodes per unit, for ``schedule``.

    ``"dynamic"`` (default, the paper's design)
        every unit shares one iterator: the next unprocessed root goes
        to the first idle unit.  With degree-ordered vertex ids this
        also realizes the paper's future-work locality idea: nearby
        (similar-degree) roots run on different units at the same time
        and share shared-cache contents.
    ``"static_interleave"``
        unit ``i`` is pre-assigned roots ``i, i+P, i+2P, ...``.
    ``"static_block"``
        unit ``i`` is pre-assigned the ``i``-th contiguous block of
        roots.  With power-law graphs the hub block serializes on one
        unit — the coarse-grained load-imbalance pathology of paper
        section 2.3, kept as an ablation (see ``repro.bench.ablations``).
    """
    nodes = range(num_nodes)
    if schedule == "dynamic":
        return [iter(nodes)] * num_units
    if schedule == "static_interleave":
        return [iter(nodes[i::num_units]) for i in range(num_units)]
    if schedule == "static_block":
        per_unit = -(-num_nodes // num_units)
        return [
            iter(nodes[i * per_unit : (i + 1) * per_unit])
            for i in range(num_units)
        ]
    raise ValueError(f"unknown schedule policy {schedule!r}")


def drive(
    units: Sequence[BasePE], queues: Sequence[Iterator[int]]
) -> list[float]:
    """Run ``units`` in time order until all work is done.

    Each event advances the earliest unit by one task group.  A unit out
    of work takes the next root node from its queue; with its queue
    empty it asks :meth:`BasePE.idle` whether it found other work, and
    otherwise finishes.  Returns each unit's finish time.
    """
    finish = [0.0] * len(units)
    heap: list[tuple[float, int]] = []
    for unit, queue in zip(units, queues):
        node = next(queue, None)
        if node is not None:
            unit.assign_root(node, 0.0)
            heapq.heappush(heap, (unit.now, unit.pe_id))
    while heap:
        now, uid = heapq.heappop(heap)
        unit = units[uid]
        if unit.has_work():
            unit.step()
        else:
            node = next(queues[uid], None)
            if node is not None:
                unit.assign_root(node, unit.now)
            elif not unit.idle(now):
                finish[uid] = unit.now
                continue
        heapq.heappush(heap, (unit.now, uid))
    return finish


def unit_result(
    units: Sequence[BasePE],
    finish: Sequence[float],
    *,
    backend: str,
    design: str,
    sections: Mapping[str, Any],
    scalars: Mapping[str, Any],
) -> RunResult:
    """One run's result: counts summed over units, one stats entry each."""
    counts = [0] * len(units[0].plans)
    for unit in units:
        for i, c in enumerate(unit.counts):
            counts[i] += c
    return RunResult(
        backend=backend,
        design=design,
        cycles=max(finish),
        counts=tuple(counts),
        units=tuple(unit.stats for unit in units),
        unit_finish_times=tuple(finish),
        sections=sections,
        scalars=scalars,
    )


def run_chip(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config: FingersConfig | FlexMinerConfig,
    memcfg: MemoryConfig | None = None,
    *,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
    tracer=None,
) -> RunResult:
    """Simulate one mining job on one chip.

    ``roots`` restricts the job to the given level-0 vertices (sampled
    simulation); defaults to every vertex.  The same ``roots`` on both
    designs guarantees identical functional work, so cycle ratios are
    apples-to-apples.  ``schedule`` selects the global root scheduler
    (:func:`root_queues`).
    """
    roots = None if roots is None else list(roots)
    queues = root_queues(
        schedule,
        graph.num_vertices if roots is None else len(roots),
        config.num_pes,
    )
    memcfg = memcfg or MemoryConfig()
    shared_cache = SectoredLRUCache(memcfg.shared_cache_bytes, name="shared")
    dram = DRAMModel(memcfg)
    noc = NoCModel(memcfg.noc)
    tree = search_tree(graph, plans, roots)
    is_fingers = isinstance(config, FingersConfig)
    pe_type = FingersPE if is_fingers else FlexMinerPE
    pes = [
        pe_type(i, graph, plans, config, memcfg, shared_cache, dram, tree)
        for i in range(config.num_pes)
    ]
    for pe in pes:
        pe.noc = noc
        pe.tracer = tracer
    finish = drive(pes, queues)
    return unit_result(
        pes,
        finish,
        backend="fingers" if is_fingers else "flexminer",
        design=config.design_name,
        sections={
            "shared_cache": shared_cache.stats,
            "dram": dram.stats,
            "noc": noc.stats,
        },
        scalars={
            "num_pes": len(pes),
            "num_ius": config.num_ius if is_fingers else 1,
            "task_group_size": pes[0].group_size if is_fingers else 1,
        },
    )
