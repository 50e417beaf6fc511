"""Span tracing of the program's layers, from outside the program.

:class:`SpanTracer` wraps the public functions at each layer boundary
with a span stack.  A span's *self* time is its duration minus the time
its child spans cover, so nested layers are never counted twice.  The
tracer keeps per-name aggregates (calls, total and self seconds) plus
parent -> child edges in memory; :meth:`SpanTracer.dump` writes them out
once the run ends.

Each wrap patches the name the caller actually binds: ``repro.hw.pe``
imports ``time_task_ops`` and ``filtered_candidates`` into its own
namespace, so those are patched there, while methods are patched on
their class.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["SpanTracer", "layer_targets"]


def layer_targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every traced boundary."""
    from repro.hw import cache, chip, flexminer, memory, noc, pe
    from repro.mining import frontier
    from repro.setops import kernels, segmented

    return [
        (chip, "run_chip", "hw.chip"),
        (pe.FingersPE, "step", "hw.pe.step"),
        (flexminer.FlexMinerPE, "step", "hw.pe.step"),
        (pe, "time_task_ops", "hw.iu.time_task_ops"),
        (pe, "filtered_candidates", "mining.filtered_candidates"),
        (kernels.KernelContext, "apply_op", "setops.kernels.apply_op"),
        (cache.SectoredLRUCache, "access", "hw.cache.access"),
        (memory.DRAMModel, "access", "hw.memory.access"),
        (noc.NoCModel, "transfer", "hw.noc.transfer"),
        (frontier.FrontierEngine, "per_root_counts", "mining.frontier"),
        (segmented, "neighbor_membership", "setops.segmented.neighbor_membership"),
        (segmented, "compress", "setops.segmented.compress"),
        (segmented, "gather_neighbors", "setops.segmented.gather_neighbors"),
    ]


class SpanTracer:
    """Aggregating span stack; one instance per traced repetition."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        #: (parent, child) -> calls
        self.edges: dict[tuple[str, str], int] = {}
        # Open spans: [name, seconds covered by finished children].
        self._stack: list[list[Any]] = []

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        edges = self.edges
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg = spans.get(name)
                if agg is None:
                    agg = spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1

        return traced

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Patch every layer boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in layer_targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, [0, 0.0, 0.0])[0])

    def dump(self, path: Path) -> None:
        """Write the aggregated spans and call edges as JSON."""
        doc = {
            "spans": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.spans.items())
            },
            "edges": [
                {"parent": p, "child": c, "calls": n}
                for (p, c), n in sorted(self.edges.items())
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
