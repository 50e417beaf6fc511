"""Tests of the benchmark itself, on tiny graphs of the workloads' shapes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in run._CLEARED_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_gate_and_prints_the_spec_metrics(workload, trace):
    result = run.measure(workload, 0, 0.0, trace, tiny=True)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.jobs_for(workload)) * (1 + trace)
    want = _names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == want
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_units_match_the_spec():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace in (0, 1):
        result = run.measure("sim-chip", 0, 0.0, trace, tiny=True)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name], name


def test_trace_reports_the_layers_the_workload_uses():
    sim = run.measure("sim-iu-sweep", 1, 0.0, 1, tiny=True)["metrics"]
    count = run.measure("count", 1, 0.0, 1, tiny=True)["metrics"]
    assert sim["hw.pe.tasks"]["value"] > 0
    assert sim["hw.iu.time_task_ops_calls"]["value"] > 0
    assert sim["setops.kernels.apply_op_calls"]["value"] > 0
    assert sim["mining.frontier_calls"]["value"] == 0
    assert count["mining.frontier_calls"]["value"] > 0
    assert count["setops.segmented.neighbor_membership_calls"]["value"] > 0
    assert count["hw.chip_calls"]["value"] == 0
    assert count["hw.pe.tasks"]["value"] == 0


def _rep(workload, seed=0):
    jobs = workloads.jobs_for(workload)
    errors: dict[str, str] = {}
    rep = run.Rep(jobs, seed, True, errors)
    assert not errors
    return jobs, rep


def test_injected_cycle_mismatch_fails_the_digest_check():
    jobs, rep = _rep("sim-iu-sweep")
    reference = {name: gate.digest(r) for name, r in rep.results.items()}
    assert gate.check(jobs, rep.inputs, rep.results, reference) == {}
    name = "tt/Mi/fingers-8iu"
    tampered = dict(rep.results)
    tampered[name] = dataclasses.replace(
        rep.results[name], cycles=rep.results[name].cycles + 1
    )
    failures = gate.check(jobs, rep.inputs, tampered, reference)
    assert set(failures) == {name}
    assert "digest" in failures[name]


def test_injected_count_mismatch_fails_against_the_functional_engine():
    jobs, rep = _rep("sim-chip")
    name = "cyc/Lj/flexminer-40pe"
    got = rep.results[name]
    tampered = dict(rep.results)
    tampered[name] = dataclasses.replace(got, counts=(got.counts[0] + 1,))
    failures = gate.check(jobs, rep.inputs, tampered, None)
    assert set(failures) == {name}
    assert "functional" in failures[name]


def test_injected_functional_count_mismatch_fails_the_digest_check():
    jobs, rep = _rep("count")
    reference = {name: gate.digest(r) for name, r in rep.results.items()}
    tampered = dict(rep.results, **{"tt/Or": rep.results["tt/Or"] + 1})
    assert set(gate.check(jobs, rep.inputs, tampered, reference)) == {"tt/Or"}


def test_a_failed_check_is_counted_and_marks_the_run_incorrect():
    jobs = workloads.jobs_for("sim-chip")
    reference = {job.name: "0" * 32 for job in jobs}
    reference.pop(jobs[0].name)
    result = run.measure("sim-chip", 0, 0.0, 0, tiny=True, reference=reference)
    assert result["correct"] is False
    assert result["failed"] == len(jobs)
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_recorded_reference_covers_two_seeds_of_every_workload():
    reference = gate.load_reference()
    for workload in workloads.WORKLOADS:
        names = {job.name for job in workloads.jobs_for(workload)}
        assert len(reference[workload]) >= 2
        for digests in reference[workload].values():
            assert set(digests) == names


@pytest.mark.parametrize("name", ["Mi", "Lj", "Or", "er300"])
def test_default_seed_graphs_equal_load_dataset(name):
    assert workloads.graph_recipe(name, 0) == load_dataset(name)


def test_seed_drives_the_graphs():
    jobs = workloads.jobs_for("count")
    a = workloads.setup(jobs, 3, tiny=True)
    b = workloads.setup(jobs, 3, tiny=True)
    c = workloads.setup(jobs, 4, tiny=True)
    assert a.graphs == b.graphs and a.roots == b.roots
    for name in a.graphs:
        assert a.graphs[name] != c.graphs[name], name


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_cli_prints_one_json_result_as_its_last_line():
    proc = _cli(ROOT, "--workload", "count", "--seed", "2", "--seconds", "0",
                "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".tmp", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli(tmp_path, "--workload", "count", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
