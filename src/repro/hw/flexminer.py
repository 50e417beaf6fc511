"""The FlexMiner baseline PE (paper sections 2.2-2.3).

FlexMiner exploits only coarse-grained (tree-level) parallelism: each PE
executes a strict DFS on its own search tree with a single merge-based
comparator.  The model reproduces the paper's three inefficiencies:

1. **stalls** — the dependent fetch of ``N(u_i)`` blocks the PE for the
   full shared-cache/DRAM latency (no other task to switch to);
2. **serial set operations** — the level's schedule runs one op at a
   time, each costing ``|A| + |B|`` comparator cycles;
3. **no intra-tree parallelism** — high-degree root trees serialize on
   one PE (the load-imbalance bottleneck of section 2.3).

Neighbor lists are staged through the per-PE private cache (the paper's
c-map-equivalent storage): lists that fit are reused across the level's
serial ops; lists larger than the private capacity are re-fetched from
the shared cache for every op — exactly the re-fetch waste that FINGERS'
set-level streaming avoids (paper Figure 3).
"""

from __future__ import annotations

from typing import Sequence

from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FlexMinerConfig, MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.pe import BasePE
from repro.hw.tree import SearchTree

__all__ = ["FlexMinerPE"]


class FlexMinerPE(BasePE):
    """Strict-DFS PE with one comparator and stall-on-miss fetches."""

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plans: Sequence,
        config: FlexMinerConfig,
        memcfg: MemoryConfig,
        shared_cache: SectoredLRUCache,
        dram: DRAMModel,
        tree: SearchTree,
    ) -> None:
        super().__init__(
            pe_id, graph, plans, memcfg, shared_cache, dram, tree
        )
        self.config = config
        self.private_cache = SectoredLRUCache(
            config.private_cache_bytes, name=f"pe{pe_id}-private"
        )

    def step(self) -> float:
        # Strict DFS: groups always hold one task (see _spawn_children
        # call below with group_size=1).
        group = self._stack.pop()
        self.stats.task_groups += 1
        t0 = self.now
        stall_total = 0.0

        for task in group:
            # Dependent fetch: the PE stalls until every operand list of
            # this level is resident (inefficiency #1).
            fetch_done = self.now
            staged: dict[int, bool] = {}
            for v in self._task_operand_vertices(task):
                size = self._list_bytes(v)
                if self.private_cache.access(v, size):
                    fetch_done = max(
                        fetch_done, self.now + self.memcfg.private_cache_hit_latency
                    )
                else:
                    fetch_done = max(fetch_done, self._fetch_shared(v, self.now))
                staged[v] = size <= self.config.private_cache_bytes
            stall = max(0.0, fetch_done - self.now)
            self.stats.stall_cycles += stall
            stall_total += stall
            self.now = fetch_done

            executed = self.tree.replay_ops(
                self.graph, task.plan_idx, task.level, task.node,
                task.embedding, task.states,
            )
            compute = 0.0
            refetch_penalty = 0.0
            first_use: set[int] = set()
            for plan_idx in self._active_plans(task):
                plan = self.plans[plan_idx]
                for op in plan.levels[task.level].ops:
                    v = task.embedding[op.operand_level]
                    if v in first_use and not staged.get(v, True):
                        # Oversized list: each additional serial op streams
                        # it from the shared cache again.
                        refetch_penalty += self._fetch_shared(v, self.now) - self.now
                    first_use.add(v)
            for kind, source, operand in executed:
                src_len = source.size if source is not None else 0
                compute += src_len + operand.size
            task_cycles = compute + refetch_penalty + self.config.task_overhead_cycles
            self.now += task_cycles
            self.stats.tasks += 1
            self.stats.compute_cycles += compute
            self.stats.overhead_cycles += self.config.task_overhead_cycles
            self._spawn_children(task, group_size=1)

        self.stats.busy_cycles += self.now - t0
        if self.tracer is not None:
            if stall_total > 0:
                self.tracer.record(self.pe_id, t0, t0 + stall_total, "stall")
            self.tracer.record(self.pe_id, t0 + stall_total, self.now, "group",
                               "1 task")
        return self.now
