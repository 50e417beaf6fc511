"""Search-tree trace: the simulator's functional half, run once per job.

FINGERS, FlexMiner and the software miner walk the *same* search tree
for a given ``(graph, plans, roots)`` job; they differ only in when
cycles elapse.  :func:`repro.hw.pe.search_tree` therefore executes the
plan's set operations once, in one DFS, and records the tree here; every
PE model and every configuration then *replays* it
(:class:`repro.hw.pe.BasePE`).  Replay yields the identical op inputs
``(kind, source, operand)`` the timing models read, so cycles are
bit-identical to executing the ops (docs/TIMING_MODEL.md, "Trace build
and replay").

Layout.  Nodes are tasks, stored per level like a
:class:`repro.setops.segmented.SegmentedSet`: node ``r`` of level ``l``
has its children at ``child_ptr[r]:child_ptr[r + 1]`` of level
``l + 1``, grouped per plan in plan order.  A node stores

* its vertex (the embedding's last vertex);
* per plan, its fanout: the number of children, or where that plan's
  next level is its last, the filtered leaf count;
* its op results.  Every op result is a subset of its source set (an
  intersection or subtraction never adds elements; an ``INIT_COPY`` is
  just ``N(v)`` and needs no storage), so a result is stored as a bit
  mask over its source, the way the paper's result collector keeps a
  result as a bitvector over its input (section 4.3).  A node's masks
  are concatenated and packed: they are the bits
  ``mask_ptr[r]:mask_ptr[r + 1]`` of ``masks`` (a range may end in
  padding bits, which replay never reads).
  Leaf-parent nodes store only the results a later op of the same task
  reads, since no child inherits their states.

A pointer array is ``None`` on a level with no children or no masks at
all (the deepest level typically has neither).

The build appends to each level column in chunks (:class:`TreeBuilder`),
so while it runs it holds a few Python objects per chunk, not per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pattern.plan import ExecutionPlan, OpKind, SetOp

__all__ = [
    "TaskOps",
    "TreeLevel",
    "SearchTree",
    "TreeBuilder",
    "OpInput",
    "task_ops",
]

#: A task's deduplicated ops, each with whether its result is stored.
TaskOps = tuple[tuple[SetOp, bool], ...]

#: One op's inputs as the timing models read them: (kind, source, operand).
OpInput = tuple[OpKind, "np.ndarray | None", np.ndarray]

_NO_BITS = np.zeros(0, dtype=np.bool_)


def task_ops(
    plans: Sequence[ExecutionPlan], plan_idx: int | None, level: int
) -> TaskOps:
    """The ops one task executes, each paired with its *stored* flag.

    ``plan_idx`` is ``None`` for a merged multi-pattern root, whose ops
    are the level-0 ops of every plan with shared result states run once
    (the multi-pattern trunk sharing of section 4).  A result is stored
    unless it is an ``INIT_COPY``, or the task spawns no children and no
    later op of the task reads it.
    """
    active = range(len(plans)) if plan_idx is None else (plan_idx,)
    ops: list[SetOp] = []
    produced: set[int] = set()
    for p in active:
        for op in plans[p].levels[level].ops:
            if op.result_state not in produced:
                produced.add(op.result_state)
                ops.append(op)
    spawns = any(level + 2 < plans[p].num_levels for p in active)
    read = {op.source_state for op in ops}
    return tuple(
        (
            op,
            op.kind is not OpKind.INIT_COPY
            and (spawns or op.result_state in read),
        )
        for op in ops
    )


@dataclass(frozen=True)
class TreeLevel:
    """All nodes (tasks) at one depth of the search tree.

    Integer arrays use the narrowest unsigned dtype that holds their
    values: the trace stays in memory as long as its graph does.
    """

    #: (n,): the vertex each node appends to its embedding.
    vertex: np.ndarray
    #: (n, plans): children per plan, or leaves at a leaf parent.
    fanout: np.ndarray
    #: (n + 1,): node ``r``'s children in the next level.
    child_ptr: np.ndarray | None
    #: (n + 1,): node ``r``'s result-mask bits in ``masks``.
    mask_ptr: np.ndarray | None
    #: Packed result masks (``np.packbits`` order).
    masks: np.ndarray

    @property
    def nbytes(self) -> int:
        arrays = (self.vertex, self.fanout, self.child_ptr, self.mask_ptr,
                  self.masks)
        return sum(a.nbytes for a in arrays if a is not None)


class SearchTree:
    """The recorded search tree of one ``(graph, plans, roots)`` job.

    It holds no reference to the graph: it lives in the graph's memo
    slot (see :func:`repro.hw.pe.search_tree`), keyed by ``plans`` and
    ``roots`` compared by equality.
    """

    __slots__ = ("plans", "roots", "levels", "_ops")

    def __init__(
        self,
        plans: tuple[ExecutionPlan, ...],
        roots: np.ndarray,
        levels: tuple[TreeLevel, ...],
        ops: dict[tuple[int | None, int], TaskOps],
    ) -> None:
        self.plans = plans
        self.roots = roots
        self.levels = levels
        #: :func:`task_ops` of every (plan, level) a node of the tree has.
        self._ops = ops

    def matches(
        self, plans: tuple[ExecutionPlan, ...], roots: np.ndarray
    ) -> bool:
        """Whether this is the tree of ``plans`` over exactly ``roots``."""
        return self.plans == plans and np.array_equal(self.roots, roots)

    def replay_ops(
        self,
        graph: CSRGraph,
        plan_idx: int | None,
        level: int,
        node: int,
        embedding: tuple[int, ...],
        states: dict[int, np.ndarray],
    ) -> list[OpInput]:
        """Recover one task's op inputs and set its result states.

        The inputs are the ``(kind, source, operand)`` of each op of
        :func:`task_ops` (deduplicated across a merged root task's
        plans), which is all the timing models charge for.

        An ``INIT_COPY`` result is the operand ``N(v)`` itself; a stored
        result is its source masked by the node's next bits.
        """
        lvl = self.levels[level]
        ptr = lvl.mask_ptr
        if ptr is None:
            bits, pos = _NO_BITS, 0
        else:
            lo, hi = int(ptr[node]), int(ptr[node + 1])
            first = lo >> 3
            bits = np.unpackbits(lvl.masks[first : (hi + 7) >> 3]).view(
                np.bool_
            )
            pos = lo - 8 * first
        inputs: list[OpInput] = []
        for op, stored in self._ops[plan_idx, level]:
            operand = graph.neighbors(embedding[op.operand_level])
            if op.source_state is None:
                source = None
                states[op.result_state] = operand
            else:
                source = states[op.source_state]
                if stored:
                    end = pos + source.size
                    states[op.result_state] = source[bits[pos:end]]
                    pos = end
            inputs.append((op.kind, source, operand))
        return inputs

    def fanout(self, level: int, node: int) -> tuple[list[int], int]:
        """The node's per-plan fanout and the index of its first child."""
        lvl = self.levels[level]
        first = 0 if lvl.child_ptr is None else int(lvl.child_ptr[node])
        return lvl.fanout[node].tolist(), first

    def vertices(self, level: int, start: int, stop: int) -> list[int]:
        """The vertices of nodes ``start:stop`` of ``level``."""
        return self.levels[level].vertex[start:stop].tolist()

    @property
    def nbytes(self) -> int:
        """Bytes the trace retains (its level arrays)."""
        return sum(lvl.nbytes for lvl in self.levels)


#: Nodes a level column collects before it packs them into one compact
#: chunk, and the mask bits a mask column collects before it packs them.
_CHUNK_NODES = 256
_CHUNK_BITS = 1 << 14


def _compact(values: np.ndarray) -> np.ndarray:
    """``values`` (non-negative) in the narrowest unsigned dtype."""
    top = int(values.max()) if values.size else 0
    return values.astype(np.min_scalar_type(top), copy=False)


def _offsets(lengths: np.ndarray) -> np.ndarray | None:
    if not lengths.any():
        return None
    ptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=ptr[1:])
    return _compact(ptr)


class _Column:
    """Non-negative ints added one node at a time, kept as compact chunks.

    A node adds an int or a fixed-length list of ints; every
    ``_CHUNK_NODES`` nodes the pending values become one chunk in the
    narrowest unsigned dtype, so the build holds no Python object per
    node.
    """

    def __init__(self) -> None:
        self._pending: list = []
        self._chunks: list[np.ndarray] = []

    def add(self, value) -> None:
        self._pending.append(value)
        if len(self._pending) >= _CHUNK_NODES:
            self._flush()

    def _pack(self) -> np.ndarray:
        return np.array(self._pending, dtype=np.int64)

    def _flush(self) -> None:
        if self._pending:
            self._chunks.append(_compact(self._pack()))
            self._pending = []

    def finish(self) -> np.ndarray:
        self._flush()
        if not self._chunks:
            return np.zeros(0, dtype=np.uint8)
        return _compact(np.concatenate(self._chunks))


class _VertexColumn(_Column):
    """A level's vertices, added one node's children (an array) at a time."""

    def _pack(self) -> np.ndarray:
        return np.concatenate(self._pending)


class _MaskColumn:
    """A level's result masks, one node at a time, packed per chunk.

    A node's masks start at bit ``start[r]``; each packed chunk is
    padded to whole bytes, so the last node of a chunk owns the padding.
    """

    def __init__(self) -> None:
        self.start = _Column()
        self._packed = bytearray()
        #: Set bits of the open chunk, relative to its first bit.
        self._set: list[np.ndarray] = []
        self._bits = 0

    def add(self, stored: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self.start.add(8 * len(self._packed) + self._bits)
        for source, result in stored:
            # A sorted subset's positions in its sorted source.
            self._set.append(source.searchsorted(result) + self._bits)
            self._bits += source.size
        if self._bits >= _CHUNK_BITS or len(self._set) >= _CHUNK_NODES:
            self._flush()

    def _flush(self) -> None:
        if self._bits:
            bits = np.zeros(self._bits, dtype=np.bool_)
            bits[np.concatenate(self._set)] = True
            self._packed += np.packbits(bits).tobytes()
        self._set = []
        self._bits = 0

    def finish(self) -> tuple[np.ndarray | None, np.ndarray]:
        self._flush()
        masks = np.frombuffer(self._packed, dtype=np.uint8)
        if not masks.size:
            return None, masks
        self.start.add(8 * masks.size)
        return self.start.finish(), masks


class TreeBuilder:
    """Accumulates a :class:`SearchTree` from a DFS over its tasks.

    The DFS must expand every node exactly once and expand the nodes of
    each level in the order they were created (a preorder DFS that
    visits children in order does both); :meth:`expand` then appends each
    node's children as one contiguous slice of the next level.
    """

    def __init__(
        self, plans: Sequence[ExecutionPlan], roots: np.ndarray
    ) -> None:
        self.plans = tuple(plans)
        self.roots = roots
        self._ops: dict[tuple[int | None, int], TaskOps] = {}
        depth = max(plan.num_levels for plan in self.plans) - 1
        self._vertex = [_VertexColumn() for _ in range(depth)]
        self._vertex[0].add(roots)
        self._fanout = [_Column() for _ in range(depth)]
        self._children = [_Column() for _ in range(depth)]
        self._masks = [_MaskColumn() for _ in range(depth)]

    def ops(self, plan_idx: int | None, level: int) -> TaskOps:
        """:func:`task_ops` for the builder's plans, memoized."""
        key = (plan_idx, level)
        ops = self._ops.get(key)
        if ops is None:
            ops = self._ops[key] = task_ops(self.plans, plan_idx, level)
        return ops

    def expand(
        self,
        level: int,
        stored: list[tuple[np.ndarray, np.ndarray]],
        fanout: list[int],
        children: list[np.ndarray],
    ) -> None:
        """Record the next node of ``level``.

        ``stored`` holds the ``(source, result)`` pair of each op whose
        result :func:`task_ops` marks stored, in op order; ``fanout`` is
        the node's per-plan fanout and ``children`` its spawned candidate
        vertices per spawning plan, in plan order.
        """
        self._masks[level].add(stored)
        self._fanout[level].add(fanout)
        spawned = 0
        for vertices in children:
            self._vertex[level + 1].add(vertices)
            spawned += vertices.size
        self._children[level].add(spawned)

    def finish(self) -> SearchTree:
        levels = []
        for vertex, fanout, children, masks in zip(
            self._vertex, self._fanout, self._children, self._masks
        ):
            mask_ptr, packed = masks.finish()
            levels.append(
                TreeLevel(
                    vertex=vertex.finish(),
                    fanout=fanout.finish().reshape(-1, len(self.plans)),
                    child_ptr=_offsets(children.finish()),
                    mask_ptr=mask_ptr,
                    masks=packed,
                )
            )
        return SearchTree(self.plans, self.roots, tuple(levels), self._ops)
