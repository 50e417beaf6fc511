"""Processing-element models: shared traversal plus the FINGERS PE.

A *task* is the paper's unit of work: extending the current partial
embedding with one new vertex, which means executing the level's set
operations and spawning children from the materialized candidate set
(section 4).  Both PE models traverse the same task tree and execute the
same plan IR functionally — they must produce identical embedding counts
(a test invariant) — and differ only in *when* cycles elapse:

* the FINGERS PE (here) pops *task groups* (pseudo-DFS, section 4.1),
  overlaps the group's neighbor-list fetches with compute, and runs each
  task's ops on a pool of IUs with segment pairing and load balancing;
* the FlexMiner PE (:mod:`repro.hw.flexminer`) follows strict DFS with a
  single comparator and stalls on every shared-cache miss.

The functional half runs once per job: :func:`search_tree` executes the
set operations in one DFS and records the tree (:mod:`repro.hw.tree`),
and every PE *replays* it, recovering each op's inputs for the timing
models without re-executing any set operation.
"""

from __future__ import annotations

from math import ceil
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hw.cache import SectoredLRUCache
from repro.hw.config import FingersConfig, MemoryConfig
from repro.hw.iu import time_task_ops
from repro.hw.memory import DRAMModel
from repro.hw.noc import NoCModel
from repro.hw.stats import PEStats
from repro.hw.tree import SearchTree, TreeBuilder
from repro.mining.engine import filtered_candidates
from repro.pattern.plan import ExecutionPlan
from repro.setops.kernels import KernelContext

__all__ = [
    "Task",
    "BasePE",
    "FingersPE",
    "auto_group_size",
    "drop_search_tree",
    "search_tree",
]


class Task:
    """One pending tree-extension step.

    ``plan_idx`` is ``None`` for a merged multi-pattern root task (the
    shared trunk of section 4's multi-pattern support), in which case the
    level-0 ops of *all* plans run deduplicated and children are spawned
    per plan.  ``node`` is the task's index in its level of the
    search-tree trace.
    """

    __slots__ = ("plan_idx", "level", "embedding", "states", "node")

    def __init__(
        self,
        plan_idx: int | None,
        level: int,
        embedding: tuple[int, ...],
        states: dict[int, np.ndarray],
        node: int,
    ) -> None:
        self.plan_idx = plan_idx
        self.level = level
        self.embedding = embedding
        self.states = states
        self.node = node


def search_tree(
    graph: CSRGraph,
    plans: Sequence[ExecutionPlan],
    roots: Sequence[int] | None = None,
) -> SearchTree:
    """The search-tree trace of one job, memoized on the graph.

    The graph's single memo slot holds the last trace built, keyed by
    the plans and the root array compared by equality (never by hash);
    any other key builds a new trace that replaces it.  ``roots``
    defaults to every vertex.  The slot is derived data only: it is
    never pickled or fingerprinted.
    """
    key_plans = tuple(plans)
    key_roots = (
        np.arange(graph.num_vertices, dtype=np.int64)
        if roots is None
        else np.asarray(roots, dtype=np.int64)
    )
    cached = graph._tree_cache
    if isinstance(cached, SearchTree) and cached.matches(key_plans, key_roots):
        return cached
    graph._tree_cache = None  # release the old trace before building
    tree = _build_tree(graph, key_plans, key_roots)
    graph._tree_cache = tree
    return tree


def drop_search_tree(graph: CSRGraph) -> None:
    """Empty the graph's trace slot, so the next job builds its trace."""
    graph._tree_cache = None


def _build_tree(
    graph: CSRGraph, plans: tuple[ExecutionPlan, ...], roots: np.ndarray
) -> SearchTree:
    """Execute the job's set operations once, in one preorder DFS."""
    kernels = KernelContext(graph)
    builder = TreeBuilder(plans, roots)
    root_plan: int | None = 0 if len(plans) == 1 else None
    for root in roots.tolist():
        # (plan, embedding, parent's states); a task copies the states.
        stack: list[tuple[int | None, tuple[int, ...], dict]] = [
            (root_plan, (root,), {})
        ]
        while stack:
            plan_idx, embedding, inherited = stack.pop()
            level = len(embedding) - 1
            states = dict(inherited)
            kept = []
            for op, stored in builder.ops(plan_idx, level):
                vertex = embedding[op.operand_level]
                source = (
                    states[op.source_state]
                    if op.source_state is not None
                    else None
                )
                result = kernels.apply_op(
                    op.kind, source, graph.neighbors(vertex), vertex=vertex
                )
                states[op.result_state] = result
                if stored:
                    kept.append((source, result))
            fanout = [0] * len(plans)
            spawned: list[tuple[int, np.ndarray]] = []
            for p in range(len(plans)) if plan_idx is None else (plan_idx,):
                plan = plans[p]
                cand = filtered_candidates(
                    plan,
                    level + 1,
                    states[plan.levels[level].extend_state],
                    embedding,
                )
                fanout[p] = int(cand.size)
                if level + 2 < plan.num_levels:
                    spawned.append((p, cand))
            builder.expand(level, kept, fanout, [c for _, c in spawned])
            for p, cand in reversed(spawned):
                for v in reversed(cand.tolist()):
                    stack.append((p, embedding + (v,), states))
    return builder.finish()


def auto_group_size(
    graph: CSRGraph, plans: Sequence[ExecutionPlan], config: FingersConfig
) -> int:
    """The paper's task-group sizing policy (section 4.1).

    "the minimum number of tasks to fully occupy the IUs, where the IU
    count needed for each task is estimated using the average sizes of the
    two input sets" — we estimate work items per op from the average
    degree (long input) and a shrunken candidate set (short input), and
    divide the IU pool by the per-task demand.  The paper notes (and our
    sensitivity benchmark confirms) performance is insensitive to the
    exact estimate.
    """
    avg_deg = max(1.0, graph.avg_degree())
    long_segs = max(1, ceil(avg_deg / config.long_segment_len))
    short_segs = max(1, ceil((avg_deg / 4) / config.short_segment_len))
    items_per_op = max(
        1, min(long_segs, ceil(short_segs / config.max_load) * long_segs)
    )
    ops_per_level = [
        sched.num_ops for plan in plans for sched in plan.levels
    ]
    avg_ops = max(1.0, sum(ops_per_level) / len(ops_per_level))
    est_ius_per_task = min(config.num_ius, max(1, round(avg_ops * items_per_op)))
    group = ceil(config.num_ius / est_ius_per_task)
    return max(1, min(group, config.max_task_group_size))


class BasePE:
    """Traversal and bookkeeping shared by the PE and CPU-core models."""

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plans: Sequence[ExecutionPlan],
        memcfg: MemoryConfig,
        shared_cache: SectoredLRUCache,
        dram: DRAMModel,
        tree: SearchTree,
    ) -> None:
        self.pe_id = pe_id
        self.graph = graph
        self.plans = list(plans)
        self.memcfg = memcfg
        self.shared_cache = shared_cache
        self.dram = dram
        #: Shared interconnect; set by the chip (None = ideal wires).
        self.noc: NoCModel | None = None
        #: The job's search-tree trace, which this PE replays.
        self.tree = tree
        self.now = 0.0
        self.stats = PEStats()
        self.counts = [0] * len(self.plans)
        self._stack: list[list[Task]] = []
        #: Optional repro.hw.trace.Tracer; set by the chip when tracing.
        self.tracer = None

    # -- work management ------------------------------------------------

    def assign_root(self, node: int, time: float) -> None:
        """Schedule the search tree of root node ``node`` on this PE.

        ``node`` indexes the trace's roots (a root vertex may repeat).
        """
        root = int(self.tree.roots[node])
        self.now = max(self.now, time)
        plan_idx: int | None = 0 if len(self.plans) == 1 else None
        self._stack.append([Task(plan_idx, 0, (root,), {}, node)])
        if self.tracer is not None:
            self.tracer.record(self.pe_id, self.now, self.now, "root", str(root))

    def has_work(self) -> bool:
        return bool(self._stack)

    def idle(self, now: float) -> bool:
        """Called by the driver when this unit has no work and no root
        left at time ``now``; returns whether it found more work (and
        advanced its clock).  A PE never does: it finishes."""
        return False

    def step(self) -> float:
        """Process one task group; advance and return the local clock."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------

    def _list_bytes(self, v: int) -> int:
        return max(
            self.memcfg.bytes_per_vertex_id,
            self.graph.degree(v) * self.memcfg.bytes_per_vertex_id,
        )

    def _fetch_shared(self, v: int, now: float) -> float:
        """Fetch ``N(v)`` through the NoC and shared cache."""
        self.stats.neighbor_fetches += 1
        num_bytes = self._list_bytes(v)
        hit = self.shared_cache.access(v, num_bytes)
        if hit:
            done = now + self.memcfg.shared_cache_hit_latency
        else:
            done = (
                self.dram.access(now, num_bytes)
                + self.memcfg.shared_cache_hit_latency
            )
        if self.noc is not None:
            done = self.noc.transfer(done, num_bytes)
        return done

    def _task_operand_vertices(self, task: Task) -> list[int]:
        """Distinct vertices whose neighbor lists the task's ops consume."""
        vertices: list[int] = []
        seen: set[int] = set()
        for plan_idx in self._active_plans(task):
            plan = self.plans[plan_idx]
            for op in plan.levels[task.level].ops:
                v = task.embedding[op.operand_level]
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
        return vertices

    def _active_plans(self, task: Task) -> list[int]:
        if task.plan_idx is not None:
            return [task.plan_idx]
        return list(range(len(self.plans)))

    def _spawn_children(self, task: Task, group_size: int) -> None:
        """Count leaves and push child task groups, from the trace."""
        nxt = task.level + 1
        fanout, start = self.tree.fanout(task.level, task.node)
        for plan_idx in self._active_plans(task):
            found = fanout[plan_idx]
            if nxt == self.plans[plan_idx].num_levels - 1:
                self.counts[plan_idx] += found
                self.stats.embeddings_found += found
                continue
            children = [
                Task(
                    plan_idx, nxt, task.embedding + (v,), dict(task.states),
                    start + i,
                )
                for i, v in enumerate(self.tree.vertices(nxt, start, start + found))
            ]
            start += found
            for i in range(0, len(children), group_size):
                self._stack.append(children[i : i + group_size])


class FingersPE(BasePE):
    """The FINGERS PE: pseudo-DFS task groups over a pool of IUs."""

    def __init__(
        self,
        pe_id: int,
        graph: CSRGraph,
        plans: Sequence[ExecutionPlan],
        config: FingersConfig,
        memcfg: MemoryConfig,
        shared_cache: SectoredLRUCache,
        dram: DRAMModel,
        tree: SearchTree,
    ) -> None:
        super().__init__(
            pe_id, graph, plans, memcfg, shared_cache, dram, tree
        )
        self.config = config
        self.group_size = (
            config.task_group_size
            if config.task_group_size is not None
            else auto_group_size(graph, plans, config)
        )
        self.private_cache = SectoredLRUCache(
            config.private_cache_bytes, name=f"pe{pe_id}-private"
        )
        self._state_seq = 0

    def step(self) -> float:
        """Process one task group through the 5-stage macro pipeline.

        The group's tasks run *concurrently*: all neighbor-list fetches
        issue at group start (misses overlap with the compute of tasks
        whose data is resident — section 4.1), and the tasks' work items
        share the IU pool together, which is precisely why the group size
        is chosen as "the minimum number of tasks to fully occupy the
        IUs".  The group's latency is the slowest pipeline stage:

        * IU stage — total item cycles over the pool, floored by the
          longest single item;
        * divider stage — balanced head-list matching;
        * I/O stage — the serial round-robin input distribution and
          result collection, ``2`` cycles per work item (section 4.3);
        * issue stage — one task pops/pushes per cycle pair;

        plus a fixed pipeline-fill overhead, plus any residual memory
        stall the group could not hide.
        """
        group = self._stack.pop()
        self.stats.task_groups += 1
        t0 = self.now
        cfg = self.config

        ready: list[float] = []
        for task in group:
            r = t0
            for v in self._task_operand_vertices(task):
                r = max(r, self._fetch_shared(v, t0))
            ready.append(r)

        sum_items_cycles = 0.0
        sum_divider = 0.0
        num_items = 0
        max_item = 0.0
        max_divider_chunk = 0.0
        tail_after_ready = 0.0  # IU phase of the latest-ready task
        latest_ready = max(ready) if ready else t0
        spill_penalty = 0.0

        for r, task in zip(ready, group):
            spill_penalty += self._charge_private_cache(task)
            executed = self.tree.replay_ops(
                self.graph, task.plan_idx, task.level, task.node,
                task.embedding, task.states,
            )
            timing = time_task_ops(
                executed,
                num_ius=cfg.num_ius,
                num_dividers=cfg.num_dividers,
                long_len=cfg.long_segment_len,
                short_len=cfg.short_segment_len,
                max_load=cfg.max_load,
                divider_long_heads=cfg.divider_long_heads,
                divider_short_heads=cfg.divider_short_heads,
                io_cycles_per_item=cfg.io_cycles_per_item,
                io_bus_ids_per_cycle=cfg.io_bus_ids_per_cycle,
            )
            sum_items_cycles += timing.total_item_cycles
            sum_divider += timing.divider_phase_cycles
            num_items += timing.num_items
            max_item = max(max_item, timing.max_item_cycles)
            max_divider_chunk = max(max_divider_chunk, timing.divider_phase_cycles)
            if r >= latest_ready:
                tail_after_ready = timing.iu_phase_cycles
            self.stats.tasks += 1
            self.stats.iu_busy_cycles += timing.total_item_cycles
            self.stats.num_work_items += timing.num_items
            self.stats.balance_busy_sum += timing.balance_busy_sum
            self.stats.balance_capacity_sum += timing.balance_capacity_sum
            self._spawn_children(task, self.group_size)

        # The serial I/O floor is pooled over the whole group: the
        # round-robin distributor/collector handles one work item per
        # rotation slot on each of the distribute and collect paths
        # (section 4.3), so the floor grows with the item count — which
        # is what iso-area segment shrinking inflates (Figure 12).
        io_floor = float(num_items * cfg.io_cycles_per_item)
        compute_bound = max(
            sum_items_cycles / cfg.num_ius,
            max_item,
            sum_divider / cfg.num_dividers if cfg.num_dividers else 0.0,
            max_divider_chunk,
            io_floor,
            len(group) * 2.0,  # issue stage: pop + push per task
        )
        fill = cfg.task_overhead_cycles + spill_penalty
        end_compute = t0 + compute_bound + fill
        end_memory = latest_ready + tail_after_ready
        end = max(end_compute, end_memory)
        self.stats.stall_cycles += max(0.0, end_memory - end_compute)
        self.stats.compute_cycles += compute_bound
        self.stats.overhead_cycles += fill
        self.now = end
        self.stats.busy_cycles += self.now - t0
        if self.tracer is not None:
            self.tracer.record(self.pe_id, t0, end_compute, "group",
                               f"{len(group)} tasks")
            if end_memory > end_compute:
                self.tracer.record(self.pe_id, end_compute, end, "stall")
        return self.now

    def _charge_private_cache(self, task: Task) -> float:
        """Model candidate-set residency in the PE private cache.

        Candidate sets are "always associated with specific tasks" and
        "only spill to the shared cache if they overflow" (section 4).
        We account the live footprint — the task's inherited states plus
        its siblings' share via the group — against the private capacity;
        overflow charges a read-back from the shared cache for the
        spilled source sets.
        """
        footprint = sum(
            s.size * self.memcfg.bytes_per_vertex_id
            for s in task.states.values()
        )
        footprint *= self.group_size
        if footprint <= self.config.private_cache_bytes:
            return 0.0
        self.stats.private_spills += 1
        return float(self.memcfg.shared_cache_hit_latency)
