"""Cycle-approximate multi-core software miner with work stealing.

Each core executes the plan IR task by task, exactly like the hardware
PEs (it reuses :class:`repro.hw.pe.BasePE`'s traversal, replaying the
job's search-tree trace — see :mod:`repro.hw.tree`), but with
software costs: merges at ``elements_per_cycle``, a per-task scheduling
overhead, and — under branch granularity — a steal latency whenever an
idle core takes work from another core's deque.  Steals take the
*oldest* (shallowest) task, the classic work-first stealing policy that
moves the largest subtrees.  Roots reach the cores through the same
global scheduler as the chip's PEs (:func:`repro.hw.chip.root_queues`,
:func:`repro.hw.chip.drive`).

This quantifies the paper's section 3.5 claim: branch-level parallelism
helps software too (it fixes the tree-granularity load imbalance on
power-law graphs), but the per-task overheads put a floor under how fine
software can slice the work, which is exactly the gap the FINGERS
hardware closes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from repro.core.result import RunResult
from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.chip import drive, root_queues, unit_result
from repro.hw.config import MemoryConfig
from repro.hw.memory import DRAMModel
from repro.hw.pe import BasePE, search_tree
from repro.pattern.plan import ExecutionPlan
from repro.sw.config import SoftwareConfig

__all__ = ["run_software"]

#: LLC hit latency in core cycles (deeper hierarchy than the
#: accelerator's dedicated shared cache).
_LLC_HIT_LATENCY = 40


class _Core(BasePE):
    """One CPU worker: strict DFS locally, stealable deque of tasks."""

    def __init__(self, core_id, graph, plans, config, memcfg, llc, dram, tree):
        super().__init__(core_id, graph, plans, memcfg, llc, dram, tree)
        self.config = config
        self.steals = 0
        #: Every core of the run, this one included (the steal targets).
        self.peers: list[_Core] = []

    def step(self) -> float:
        group = self._stack.pop()
        t0 = self.now
        for task in group:
            fetch_done = self.now
            for v in self._task_operand_vertices(task):
                fetch_done = max(fetch_done, self._fetch_shared(v, self.now))
            self.stats.stall_cycles += max(0.0, fetch_done - self.now)
            self.now = fetch_done
            executed = self.tree.replay_ops(
                self.graph, task.plan_idx, task.level, task.node,
                task.embedding, task.states,
            )
            compute = 0.0
            for _, source, operand in executed:
                src_len = source.size if source is not None else 0
                compute += (src_len + operand.size) / self.config.elements_per_cycle
            self.now += compute + self.config.task_overhead_cycles
            self.stats.tasks += 1
            self.stats.compute_cycles += compute
            self.stats.overhead_cycles += self.config.task_overhead_cycles
            self._spawn_children(task, group_size=1)
        self.stats.busy_cycles += self.now - t0
        return self.now

    # -- stealing interface ---------------------------------------------

    def idle(self, now: float) -> bool:
        """Under branch granularity, steal from the deepest deque, or
        poll again after a steal latency while any core is busy."""
        if self.config.granularity != "branch":
            return False
        victim = max(
            (c for c in self.peers if c.pe_id != self.pe_id),
            key=lambda c: c.queue_depth,
            default=None,
        )
        if victim is not None and self.steal_from(victim, now):
            return True
        if any(c.has_work() for c in self.peers):
            # Nothing stealable right now, but a busy core will push
            # children shortly: poll again after a steal latency
            # (bounded spinning, as a real scheduler does).
            self.now = max(self.now, now) + self.config.steal_overhead_cycles
            return True
        return False

    def steal_from(self, victim: "_Core", now: float) -> bool:
        """Take the victim's oldest task group; returns success.

        Only victims with *surplus* work (two or more queued groups) are
        eligible: stealing a core's last group would just bounce it
        between idle thieves (each steal defers execution by the steal
        latency) without anyone ever running it.
        """
        if len(victim._stack) < 2:
            return False
        group = victim._stack.pop(0)
        self._stack.append(group)
        self.now = max(self.now, now) + self.config.steal_overhead_cycles
        self.steals += 1
        return True

    @property
    def queue_depth(self) -> int:
        return len(self._stack)


def run_software(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    config: SoftwareConfig,
    memcfg: MemoryConfig | None = None,
    *,
    roots: Iterable[int] | None = None,
    schedule: str = "dynamic",
) -> RunResult:
    """Simulate one mining job on a multi-core CPU.

    The software counterpart of :func:`repro.hw.chip.run_chip`, with the
    same ``roots`` and ``schedule`` semantics.  ``memcfg``'s shared
    cache becomes the LLC (``config.llc_bytes``, hit latency
    :data:`_LLC_HIT_LATENCY`).
    """
    roots = None if roots is None else list(roots)
    queues = root_queues(
        schedule,
        graph.num_vertices if roots is None else len(roots),
        config.num_cores,
    )
    memcfg = replace(
        (memcfg or MemoryConfig()).with_shared_cache(config.llc_bytes),
        shared_cache_hit_latency=_LLC_HIT_LATENCY,
    )
    llc = SectoredLRUCache(memcfg.shared_cache_bytes, name="llc")
    dram = DRAMModel(memcfg)
    tree = search_tree(graph, plans, roots)
    cores = [
        _Core(i, graph, plans, config, memcfg, llc, dram, tree)
        for i in range(config.num_cores)
    ]
    for core in cores:
        core.peers = cores
    finish = drive(cores, queues)
    return unit_result(
        cores,
        finish,
        backend="software",
        design=config.design_name,
        sections={"llc": llc.stats, "dram": dram.stats},
        scalars={
            "num_cores": len(cores),
            "total_steals": sum(core.steals for core in cores),
        },
    )
