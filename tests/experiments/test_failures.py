"""Per-cell failure isolation: failure rows, resume, --retry-failed."""

import pytest

from repro import count, sanitize
from repro.bench.runner import clear_cache, configure, reset_stats
from repro.errors import CellFailed, InjectedFault
from repro.experiments import (
    ResultStore,
    diff_runs,
    load_spec,
    render_markdown,
    run_sweep,
)
from repro.experiments import executor as executor_module
from repro.graph import erdos_renyi
from repro.hw.config import FingersConfig
from repro.resilience import faults


@pytest.fixture(autouse=True)
def _fresh_runner(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)
    yield
    faults.clear()
    clear_cache()
    reset_stats()
    configure(jobs=None, disk_cache=True)


GRAPHS = {"tiny": erdos_renyi(30, 0.3, seed=1)}


def _spec(**sweep):
    base = {
        "name": "fail-test",
        "patterns": ["tc"],
        "graphs": ["tiny"],
        "backends": ["functional", "fingers"],
    }
    base.update(sweep)
    data = {"sweep": base, "configs": {"fingers": {"num_pes": 1}}}
    if "fingers" not in base["backends"]:
        del data["configs"]
    return load_spec(data, available_graphs=["tiny"])


def _fail_fingers(monkeypatch):
    """Make only the fingers cell raise, through the real runner path."""
    real = executor_module.run_cached

    def flaky(graph, workload, config, **kwargs):
        if isinstance(config, FingersConfig):
            raise RuntimeError("simulated backend defect")
        return real(graph, workload, config, **kwargs)

    monkeypatch.setattr(executor_module, "run_cached", flaky)


class TestFailureRows:
    def test_failed_cell_becomes_a_structured_row(self, tmp_path, monkeypatch):
        _fail_fingers(monkeypatch)
        store = ResultStore(tmp_path / "store")
        events = []
        outcome = run_sweep(
            _spec(), store=store, graphs=GRAPHS,
            progress=lambda cell, action: events.append(action),
        )
        assert outcome.executed == 1 and outcome.failed == 1
        assert outcome.total == 2
        assert events == ["run", "fail"]
        failed = next(r for r in outcome.rows if not r.ok)
        assert failed.status == "failed"
        assert failed.backend == "fingers"
        assert failed.error["type"] == "RuntimeError"
        assert failed.error["message"] == "simulated backend defect"
        assert len(failed.error["traceback_digest"]) == 16
        assert failed.error["attempt"] == 1
        assert failed.count == 0 and failed.cycles == 0.0
        assert failed.provenance["git_hash"]
        assert failed.provenance["timestamp"]
        # The good cell is untouched by its neighbour's failure.
        ok = next(r for r in outcome.rows if r.ok)
        assert ok.count == count(GRAPHS["tiny"], "tc")

    def test_injected_cell_fault_is_recorded(self, tmp_path):
        faults.install("fail:cell=1")
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(_spec(), store=store, graphs=GRAPHS)
        assert outcome.failed == 2 and outcome.executed == 0
        assert {r.error["type"] for r in outcome.rows} == {"InjectedFault"}

    def test_no_isolate_raises_cell_failed(self, tmp_path, monkeypatch):
        _fail_fingers(monkeypatch)
        store = ResultStore(tmp_path / "store")
        with pytest.raises(CellFailed) as err:
            run_sweep(_spec(backends=["fingers"]), store=store,
                      graphs=GRAPHS, isolate=False)
        assert err.value.attempts == 1
        assert isinstance(err.value.__cause__, RuntimeError)
        assert store.runs() == []  # fail-fast records nothing

    def test_sanitizer_divergence_is_never_isolated(self, tmp_path,
                                                    monkeypatch):
        def diverge(*args, **kwargs):
            raise sanitize.SanitizerError("trace divergence")

        monkeypatch.setattr(
            executor_module, "sanitized_cell_check", diverge
        )
        store = ResultStore(tmp_path / "store")
        with pytest.raises(sanitize.SanitizerError):
            run_sweep(_spec(), store=store, graphs=GRAPHS, sanitize=True)


class TestRetryFailed:
    def test_resume_skips_failed_cells(self, tmp_path, monkeypatch):
        _fail_fingers(monkeypatch)
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS)
        again = run_sweep(_spec(), store=store, graphs=GRAPHS)
        # A recorded failure is a complete answer for plain resume.
        assert again.executed == 0 and again.failed == 0
        assert again.resumed == 2

    def test_retry_failed_reexecutes_only_failures(self, tmp_path,
                                                   monkeypatch):
        store = ResultStore(tmp_path / "store")
        with pytest.MonkeyPatch.context() as mp:
            _fail_fingers(mp)
            run_sweep(_spec(), store=store, graphs=GRAPHS)
        # Defect fixed (monkeypatch lifted): only the failed cell runs.
        healed = run_sweep(_spec(), store=store, graphs=GRAPHS,
                           retry_failed=True)
        assert healed.executed == 1 and healed.resumed == 1
        assert healed.failed == 0
        assert healed.rows[0].backend == "fingers"
        assert healed.rows[0].ok
        statuses = store.statuses("fail-test")
        assert set(statuses.values()) == {"ok"}

    def test_attempt_counter_accumulates_across_passes(self, tmp_path,
                                                       monkeypatch):
        _fail_fingers(monkeypatch)
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(backends=["fingers"]), store=store, graphs=GRAPHS)
        second = run_sweep(_spec(backends=["fingers"]), store=store,
                           graphs=GRAPHS, retry_failed=True)
        assert second.failed == 1
        assert second.rows[0].error["attempt"] == 2
        assert store.failure_counts("fail-test") == {
            second.rows[0].cell_key: 2
        }

    def test_transient_cell_fault_clears_on_retry_failed(self, tmp_path):
        # transient:cell redraws per attempt, and prior failure rows
        # advance the attempt counter — so repeated --retry-failed
        # passes must converge to all-ok while the plan stays installed.
        faults.install("seed=3,transient:cell=0.6")
        store = ResultStore(tmp_path / "store")
        outcome = run_sweep(_spec(), store=store, graphs=GRAPHS)
        for _ in range(30):
            if not outcome.failed:
                break
            outcome = run_sweep(_spec(), store=store, graphs=GRAPHS,
                                retry_failed=True)
        assert set(store.statuses("fail-test").values()) == {"ok"}

    def test_permanent_fault_recovers_once_lifted(self, tmp_path):
        # The acceptance scenario: a permanently-failing cell (fail:cell
        # fires for the token on every attempt) recovers via a single
        # --retry-failed pass after the fault plan is lifted.
        faults.install("fail:cell=1")
        store = ResultStore(tmp_path / "store")
        broken = run_sweep(_spec(), store=store, graphs=GRAPHS)
        assert broken.failed == 2
        retried = run_sweep(_spec(), store=store, graphs=GRAPHS,
                            retry_failed=True)
        assert retried.failed == 2 and retried.executed == 0
        faults.clear()
        healed = run_sweep(_spec(), store=store, graphs=GRAPHS,
                           retry_failed=True)
        assert healed.executed == 2 and healed.failed == 0
        assert set(store.statuses("fail-test").values()) == {"ok"}


class TestReportingAndDiff:
    def test_report_lists_current_failures_separately(self, tmp_path,
                                                      monkeypatch):
        _fail_fingers(monkeypatch)
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS)
        text = render_markdown(store.load("fail-test"), run="fail-test")
        assert "## Failures" in text
        assert "RuntimeError" in text
        assert "1 cell(s) currently failed" in text

    def test_superseded_failure_leaves_the_report(self, tmp_path,
                                                  monkeypatch):
        store = ResultStore(tmp_path / "store")
        with pytest.MonkeyPatch.context() as mp:
            _fail_fingers(mp)
            run_sweep(_spec(), store=store, graphs=GRAPHS)
        run_sweep(_spec(), store=store, graphs=GRAPHS, retry_failed=True)
        text = render_markdown(store.load("fail-test"), run="fail-test")
        assert "## Failures" not in text
        assert "RuntimeError" not in text

    def test_all_ok_reports_are_unchanged_by_the_failure_schema(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS)
        text = render_markdown(store.load("fail-test"), run="fail-test")
        assert "Failures" not in text
        assert "failed" not in text

    def test_diff_excludes_currently_failed_cells(self, tmp_path,
                                                  monkeypatch):
        store = ResultStore(tmp_path / "store")
        run_sweep(_spec(), store=store, graphs=GRAPHS, run="base")
        with pytest.MonkeyPatch.context() as mp:
            _fail_fingers(mp)
            run_sweep(_spec(), store=store, graphs=GRAPHS, run="curr",
                      resume=False)
        report = diff_runs(store.load("base"), store.load("curr"))
        # The failed cell must not be compared (its zeroed measurements
        # are not a regression) nor double-reported as missing.
        assert report.exit_code == 0
        assert report.compared == 1
        info = [f.message for f in report.findings]
        assert any("currently failed (RuntimeError)" in m for m in info)
        assert not any("present only in baseline" in m for m in info)
