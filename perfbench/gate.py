"""Correctness gate: every job's output is checked after measurement.

Three checks, run after the measured phase so they cannot warm the lazy
per-graph indexes the measured jobs pay for:

* every simulated count equals the functional engine's count on the
  same graph and roots, so FINGERS and FlexMiner also agree;
* every functional count equals the recursive oracle's per-root counts
  on a sparse root sample (the frontier engine is what the job ran);
* every job's digest — counts, cycles, per-PE counters and the
  cache/DRAM/NoC statistics — equals the one recorded in
  ``reference.json`` for this seed, when the seed has a reference.

Performance work must keep simulated cycles bit-identical, so a change
to the timing model has to re-record the reference (``run.py
--record``) in a change of its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

from repro.core.result import RunResult
from repro.mining.engine import count_embeddings, per_root_counts
from repro.setops.kernels import KernelPolicy

from workloads import Inputs, Job

__all__ = ["REFERENCE", "digest", "check", "load_reference", "record_reference"]

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Root stride of the recursive-oracle sample for functional jobs.
ORACLE_STRIDE = 16

_RECURSIVE = KernelPolicy(engine="recursive")


def digest(result: RunResult | int) -> str:
    """Stable hash of everything a job produced (floats exactly)."""
    if isinstance(result, int):
        doc: Any = {"count": result}
    else:
        doc = {
            "counts": list(result.counts),
            "cycles": result.cycles,
            "units": [dataclasses.asdict(u) for u in result.units],
            "finish": list(result.unit_finish_times),
            "sections": {
                k: dataclasses.asdict(v) for k, v in sorted(result.sections.items())
            },
            "scalars": dict(sorted(result.scalars.items())),
        }
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_reference(path: Path = REFERENCE) -> dict[str, Any]:
    return json.loads(path.read_text()) if path.exists() else {}


def record_reference(
    workload: str, seed: int, digests: dict[str, str], path: Path = REFERENCE
) -> None:
    ref = load_reference(path)
    ref.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def check(
    jobs: list[Job],
    inputs: Inputs,
    results: dict[str, RunResult | int],
    reference: dict[str, str] | None,
) -> dict[str, str]:
    """``{job name: reason}`` for every job that failed a check.

    ``results`` holds the output of each job that returned; a job
    missing from it raised during measurement and is reported by the
    caller.  ``reference`` is this seed's recorded digests, or ``None``
    to skip the digest check.
    """
    failures: dict[str, str] = {}
    functional: dict[tuple[str, str, int], int] = {}
    for job in jobs:
        if job.name not in results:
            continue
        got = results[job.name]
        graph = inputs.graphs[job.graph]
        plan = inputs.plans[job.pattern]
        roots = inputs.roots[job.name]
        if job.is_sim:
            key = (job.graph, job.pattern, job.stride)
            if key not in functional:
                functional[key] = count_embeddings(graph, plan, roots=roots)
            want_count = functional[key]
            if got.count != want_count:
                failures[job.name] = f"count {got.count} != functional {want_count}"
                continue
        else:
            sample = roots[::ORACLE_STRIDE]
            fast = per_root_counts(graph, plan, roots=sample)
            oracle = per_root_counts(graph, plan, roots=sample, kernels=_RECURSIVE)
            if list(fast) != list(oracle):
                failures[job.name] = "frontier per-root counts != recursive oracle"
                continue
        if reference is not None:
            want = reference.get(job.name)
            if want != digest(got):
                failures[job.name] = f"digest {digest(got)} != reference {want}"
    return failures
