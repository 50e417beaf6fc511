"""Repository benchmark: host time of the simulator and the counting engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-iu-sweep --seed 0 --seconds 30 --trace 0

Each invocation is one fresh process that measures one workload
(``workloads.WORKLOADS``).  A *repetition* generates the seeded inputs
(timed as ``setup_s``, which also gets a few extra samples) and then
runs the workload's job list once, serially, with no warm-up (timed as
``wall_s``; lazy per-graph indexes are built inside it, as in every CLI
invocation).  Both are rescaled to a reference host speed probed around
every timed interval (``speed.py``).  Another repetition starts while
at least half of one still fits in ``--seconds`` (at least one runs);
end-to-end metrics are medians over them.  After measuring, the correctness gate
(``gate.py``) checks every job's output.

``--trace 1`` alternates untraced and traced repetitions instead and
reports the per-layer split of the traced ones (``spans.py``); the
aggregated spans of the last traced repetition are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Extra set-up samples taken before the first repetition.
SETUP_SAMPLES = 4

#: Variables that would let fault injection, the sanitizer's double runs
#: or retry policies into the measurement.
_CLEARED_ENV = ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_RETRY")


def _isolate(tmp: Path) -> None:
    """Keep the tuner store, disk cache and fault injection out of the run."""
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(tmp)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _timed(kind, fn):
    """Run ``fn()``; return its result, host seconds and rescaled seconds.

    The rescaled time divides out the host's momentary speed, probed
    just before and after (``speed.py``).
    """
    from speed import REFERENCE_S, probe

    before = probe(kind)
    t0 = time.perf_counter()
    out = fn()
    host_s = time.perf_counter() - t0
    after = probe(kind)
    return out, host_s, host_s * 2 * REFERENCE_S[kind] / (before + after)


def _run_job(job, inputs):
    from repro.hw.api import simulate
    from repro.mining.engine import count_embeddings

    graph = inputs.graphs[job.graph]
    plan = inputs.plans[job.pattern]
    roots = inputs.roots[job.name]
    if job.is_sim:
        return simulate(graph, plan, job.config, roots=roots)
    return count_embeddings(graph, plan, roots=roots)


class Rep:
    """One repetition: set-up, then every job once.

    ``wall_s``, ``setup_s`` and the per-job ``job_s`` are rescaled
    seconds, ``host_wall_s`` is host seconds.  A job that raises is
    recorded in ``errors`` and left out of ``results``.
    """

    def __init__(self, jobs, seed, tiny, errors, tracer=None):
        from workloads import setup

        self.inputs, _, self.setup_s = _timed(
            "python", lambda: setup(jobs, seed, tiny=tiny)
        )
        self.results = {}
        self.job_s = {}
        self.host_wall_s = 0.0
        self.tracer = tracer
        for job in jobs:

            def run():
                if tracer is None:
                    return _run_job(job, self.inputs)
                with tracer.installed():
                    return _run_job(job, self.inputs)

            try:
                result, host_s, scaled = _timed(
                    "python" if job.is_sim else "numpy", run
                )
            except Exception:  # a failing job is counted, not fatal
                errors.setdefault(job.name, traceback.format_exc(limit=3))
                continue
            self.results[job.name] = result
            self.job_s[job.name] = scaled
            self.host_wall_s += host_s
        self.wall_s = sum(self.job_s.values())


def _median(values):
    return statistics.median(values) if values else 0.0


def _geomean(values):
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def _sim_summary(jobs, rep):
    """Simulated statistics (identical across repetitions of a seed)."""
    from repro.hw.api import FingersConfig
    from repro.hw.cache import merge_cache_stats
    from repro.hw.memory import merge_dram_stats
    from repro.hw.stats import PEStats, merge_pe_stats

    sims = [
        (j, rep.results[j.name]) for j in jobs if j.is_sim and j.name in rep.results
    ]
    fingers = [(j, r) for j, r in sims if isinstance(j.config, FingersConfig)]
    pe = merge_pe_stats([u for _, r in sims for u in r.units] or [PEStats()])
    iu_capacity = sum(u.busy_cycles * r.num_ius for _, r in fingers for u in r.units)
    shared = merge_cache_stats([r.shared_cache for _, r in sims]) if sims else None
    dram = merge_dram_stats([r.dram for _, r in sims]) if sims else None
    # FlexMiner cycles over FINGERS cycles, per (pattern, roots) pair.
    base = {
        (j.pattern, j.stride): r.cycles for j, r in sims
        if not isinstance(j.config, FingersConfig)
    }
    ratios = [base[(j.pattern, j.stride)] / r.cycles for j, r in fingers]
    return {
        "tasks": pe.tasks,
        "task_groups": pe.task_groups,
        "work_items": pe.num_work_items,
        "active_rate": pe.iu_busy_cycles / iu_capacity if iu_capacity else 0.0,
        "balance_rate": pe.balance_rate,
        "stall_fraction": pe.stall_fraction,
        "private_spills": pe.private_spills,
        "shared_miss_rate": shared.miss_rate if shared else 0.0,
        "avg_queue_delay": dram.avg_queue_delay if dram else 0.0,
        "speedup": _geomean(ratios),
        "sim_wall_s": sum(rep.job_s[j.name] for j, _ in sims),
    }


def _layer_metrics(jobs, untraced, traced, dispatch):
    """The per-layer split: medians over traced repetitions."""
    from repro.setops.kernels import KERNEL_NAMES, SEGMENT_KERNEL_NAMES

    sim = _sim_summary(jobs, traced[-1])
    sim_wall = _median([_sim_summary(jobs, r)["sim_wall_s"] for r in untraced])
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def span(name, self_s):
        put(self_s, _median([r.tracer.self_s(name) for r in traced]), "s")
        put(f"{name}_calls", traced[-1].tracer.calls(name), "count")

    span("setops.kernels.apply_op", "setops.kernels.apply_op_s")
    span("mining.filtered_candidates", "mining.filtered_candidates_s")
    span("hw.iu.time_task_ops", "hw.iu.time_task_ops_s")
    put("hw.iu.work_items", sim["work_items"], "count")
    put("hw.iu.active_rate", sim["active_rate"], "ratio")
    put("hw.iu.balance_rate", sim["balance_rate"], "ratio")
    span("hw.pe.step", "hw.pe.step_self_s")
    put("hw.pe.tasks", sim["tasks"], "count")
    put("hw.pe.task_groups", sim["task_groups"], "count")
    put("hw.pe.stall_fraction", sim["stall_fraction"], "ratio")
    put("hw.pe.private_spills", sim["private_spills"], "count")
    put("hw.host_us_per_task",
        1e6 * sim_wall / sim["tasks"] if sim["tasks"] else 0.0, "us")
    put("hw.sim_tasks_per_s", sim["tasks"] / sim_wall if sim_wall else 0.0, "1/s")
    put("hw.sim_speedup", sim["speedup"], "ratio")
    span("hw.chip", "hw.chip.self_s")
    span("hw.cache.access", "hw.cache.access_s")
    span("hw.memory.access", "hw.memory.access_s")
    span("hw.noc.transfer", "hw.noc.transfer_s")
    put("hw.cache.shared_miss_rate", sim["shared_miss_rate"], "ratio")
    put("hw.memory.avg_queue_delay", sim["avg_queue_delay"], "cycles")
    span("mining.frontier", "mining.frontier.self_s")
    for name in ("neighbor_membership", "compress", "gather_neighbors"):
        span(f"setops.segmented.{name}", f"setops.segmented.{name}_s")
    put("host.wall_s", _median([r.host_wall_s for r in untraced]), "s")
    put("host.speed",
        _median([r.wall_s / r.host_wall_s for r in untraced if r.host_wall_s]),
        "ratio")
    put("graph.build_s", _median([r.inputs.build_s for r in traced]), "s")
    put("pattern.compile_s", _median([r.inputs.compile_s for r in traced]), "s")
    put("trace_overhead",
        _median([r.wall_s for r in traced]) / _median([r.wall_s for r in untraced]),
        "ratio")
    keys = [f"{op}/{k}" for op in ("intersect", "subtract") for k in KERNEL_NAMES]
    keys.append("copy")
    keys += [f"seg_{op}/{k}" for op in ("intersect", "subtract", "fused")
             for k in SEGMENT_KERNEL_NAMES]
    keys += ["frontier/runs", "frontier/spill_chunks", "frontier/fused_invocations",
             "frontier/fused_children", "batch/invocations", "batch/children"]
    for key in keys:
        put("setops.kernels.dispatch." + key.replace("/", "."),
            dispatch.get(key, 0), "count")
    return m


def measure(workload, seed, seconds, trace, *, tiny=False, reference=None,
            record=False):
    """Run one workload; return the result object the benchmark prints.

    ``reference`` is this seed's recorded digests; ``None`` reads them
    from ``reference.json`` (tiny runs have none).  ``record`` skips the
    digest check; the returned ``digests`` entry holds every job's
    digest for ``--record``.
    """
    from gate import check, digest, load_reference
    from repro.setops.kernels import kernel_counters
    from spans import SpanTracer
    from workloads import jobs_for, setup

    jobs = jobs_for(workload)
    errors: dict[str, str] = {}
    untraced, traced = [], []
    dispatch: dict[str, int] = {}
    start = time.perf_counter()
    # Setup is short next to the job list, so it gets extra samples.
    setup_s = [
        _timed("python", lambda: setup(jobs, seed, tiny=tiny))[2]
        for _ in range(SETUP_SAMPLES)
    ]
    while True:
        untraced.append(Rep(jobs, seed, tiny, errors))
        if trace:
            before = kernel_counters()
            traced.append(Rep(jobs, seed, tiny, errors, SpanTracer()))
            after = kernel_counters()
            dispatch = {k: v - before.get(k, 0) for k, v in after.items()}
        # Start another repetition only if at least half of it fits.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(untraced) > seconds:
            break
    setup_s += [r.setup_s for r in untraced]
    # Read before the gate, whose recounts are not part of the workload.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if reference is None and not (tiny or record):
        reference = load_reference().get(workload, {}).get(str(seed))
    if reference is None and not record:
        print(f"perfbench: no reference digests for {workload} seed {seed}; "
              "digest check skipped", file=sys.stderr)
    first = untraced[0]
    failures = dict(errors)
    for name, reason in check(jobs, first.inputs, first.results, reference).items():
        failures.setdefault(name, reason)
    # Every later repetition, traced or not, must reproduce the first.
    digests = {name: digest(r) for name, r in first.results.items()}
    for rep in untraced[1:] + traced:
        for name, r in rep.results.items():
            if digest(r) != digests.get(name):
                failures.setdefault(name, "repetitions disagree")
    for name, reason in sorted(failures.items()):
        print(f"perfbench: FAILED {name}: {reason}", file=sys.stderr)

    reps = len(untraced) + len(traced)
    attempted = len(jobs) * reps
    failed = len(failures) * reps
    if trace:
        traced[-1].tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
        metrics = _layer_metrics(jobs, untraced, traced, dispatch)
    else:
        metrics = {
            "wall_s": {"value": _median([r.wall_s for r in untraced]), "unit": "s"},
            "setup_s": {"value": _median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": digests,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small graphs of the same shape (tests only)")
    parser.add_argument("--record", action="store_true",
                        help="run once and write this seed's digests to "
                             "reference.json (after a timing-model change)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    tmp_root = HERE / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cache-", dir=tmp_root))
    try:
        _isolate(tmp)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        seconds = 0.0 if args.record else args.seconds
        result = measure(args.workload, args.seed, seconds, args.trace,
                         tiny=args.tiny, record=args.record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    digests = result.pop("digests")
    if args.record:
        from gate import record_reference

        if not result["correct"]:
            raise SystemExit("perfbench: gate failed; reference not recorded")
        record_reference(args.workload, args.seed, digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
