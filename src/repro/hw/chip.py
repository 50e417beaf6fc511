"""Multi-PE chip: dynamic root scheduling over a shared memory system.

The global scheduler hands search-tree roots to idle PEs (the
coarse-grained, tree-level parallelism both designs share, section 3.1).
PEs advance in time order, one task group per event, so their accesses to
the shared cache and DRAM interleave approximately as they would on the
real chip.  The chip makespan — the finish time of the last PE — is the
headline "cycles" number; load imbalance from power-law roots shows up as
the gap between mean PE busy time and makespan.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.flexminer import FlexMinerPE
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.pe import BasePE, FingersPE, search_tree
from repro.hw.tree import SearchTree
from repro.pattern.plan import ExecutionPlan

__all__ = ["run_chip"]


def _make_pes(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config: FingersConfig | FlexMinerConfig,
    memcfg: MemoryConfig,
    shared_cache: SectoredLRUCache,
    dram: DRAMModel,
    tree: SearchTree,
) -> list[BasePE]:
    pe_type = FingersPE if isinstance(config, FingersConfig) else FlexMinerPE
    return [
        pe_type(i, graph, plans, config, memcfg, shared_cache, dram, tree)
        for i in range(config.num_pes)
    ]


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
    apples-to-apples.

    ``schedule`` selects the global root scheduler:

    ``"dynamic"`` (default, the paper's design)
        the next unprocessed root goes to the first idle PE.  With
        degree-ordered vertex ids this also realizes the paper's
        future-work locality idea: nearby (similar-degree) roots run on
        different PEs at the same time and share shared-cache contents.
    ``"static_interleave"``
        PE ``i`` is pre-assigned roots ``i, i+P, i+2P, ...``.
    ``"static_block"``
        PE ``i`` is pre-assigned the ``i``-th contiguous block of roots.
        With power-law graphs the hub block serializes on one PE — the
        coarse-grained load-imbalance pathology of paper section 2.3,
        kept as an ablation (see ``repro.bench.ablations``).
    """
    memcfg = memcfg or MemoryConfig()
    shared_cache = SectoredLRUCache(memcfg.shared_cache_bytes, name="shared")
    dram = DRAMModel(memcfg)
    noc = NoCModel(memcfg.noc)
    if schedule not in ("dynamic", "static_interleave", "static_block"):
        raise ValueError(f"unknown schedule policy {schedule!r}")

    tree = search_tree(
        graph, plans, None if roots is None else list(roots)
    )
    pes = _make_pes(graph, plans, config, memcfg, shared_cache, dram, tree)
    for pe in pes:
        pe.noc = noc
        if tracer is not None:
            pe.tracer = tracer

    finish = [0.0] * len(pes)
    heap: list[tuple[float, int]] = []

    # Schedulers hand out root *nodes*: indices into the trace's roots.
    nodes = range(tree.roots.size)
    if schedule == "dynamic":
        node_iter = iter(nodes)
        for pe in pes:
            node = next(node_iter, None)
            if node is None:
                break
            pe.assign_root(node, 0.0)
            heapq.heappush(heap, (pe.now, pe.pe_id))
        while heap:
            _, pid = heapq.heappop(heap)
            pe = pes[pid]
            if pe.has_work():
                pe.step()
                heapq.heappush(heap, (pe.now, pid))
                continue
            node = next(node_iter, None)
            if node is None:
                finish[pid] = pe.now
                continue
            pe.assign_root(node, pe.now)
            heapq.heappush(heap, (pe.now, pid))
    else:
        if schedule == "static_interleave":
            assigned = [nodes[i :: len(pes)] for i in range(len(pes))]
        else:  # static_block
            per_pe = -(-len(nodes) // len(pes))
            assigned = [
                nodes[i * per_pe : (i + 1) * per_pe] for i in range(len(pes))
            ]
        queues = [iter(a) for a in assigned]
        for pe, q in zip(pes, queues):
            node = next(q, None)
            if node is None:
                continue
            pe.assign_root(node, 0.0)
            heapq.heappush(heap, (pe.now, pe.pe_id))
        while heap:
            _, pid = heapq.heappop(heap)
            pe = pes[pid]
            if pe.has_work():
                pe.step()
                heapq.heappush(heap, (pe.now, pid))
                continue
            node = next(queues[pid], None)
            if node is None:
                finish[pid] = pe.now
                continue
            pe.assign_root(node, pe.now)
            heapq.heappush(heap, (pe.now, pid))

    cycles = max(finish) if finish else 0.0
    counts = [0] * len(plans)
    for pe in pes:
        for i, c in enumerate(pe.counts):
            counts[i] += c
    stats = [pe.stats for pe in pes]
    is_fingers = isinstance(config, FingersConfig)
    num_ius = config.num_ius if is_fingers else 1
    group = pes[0].group_size if is_fingers and pes else 1
    return RunResult(
        backend="fingers" if is_fingers else "flexminer",
        design=config.design_name,
        cycles=cycles,
        counts=tuple(counts),
        units=tuple(stats),
        unit_finish_times=tuple(finish),
        sections={
            "shared_cache": shared_cache.stats,
            "dram": dram.stats,
            "noc": noc.stats,
        },
        scalars={
            "num_pes": len(pes),
            "num_ius": num_ius,
            "task_group_size": group,
        },
    )
