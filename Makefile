# Convenience targets for the FINGERS reproduction.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test bench bench-fast bench-kernels bench-sweep bench-engine bench-autotune perfbench perfbench-trace tune-smoke examples clean loc lint lint-flow chaos check

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-cli:
	$(PYTHON) -m repro.bench

# Set-op kernel microbenchmarks + end-to-end counting speedups; writes
# benchmarks/results/BENCH_kernels.json (docs/KERNELS.md).
bench-kernels:
	$(PYTHON) -m pytest benchmarks/test_kernels.py --benchmark-only

# Declarative sweep -> result store -> markdown/HTML report
# (docs/BENCHMARKS.md).  Resumable: a warm re-run executes zero cells.
bench-sweep:
	$(PYTHON) -m repro exp run examples/sweeps/smoke.toml
	$(PYTHON) -m repro exp report smoke

# Engine comparison: frontier vs the recursive oracle on the dense
# benchmark graph; rows land in the store under run "engine-frontier"
# and the report's policy-speedup table shows the ratios
# (docs/KERNELS.md, "Frontier engine").
bench-engine:
	$(PYTHON) -m repro exp run examples/sweeps/engine_frontier.toml
	$(PYTHON) -m repro exp report engine-frontier

# Input-aware auto-tuner (docs/TUNING.md): warm the tuned-choice store
# for the er300 cells, then sweep default vs tuned policies uncached so
# tuned wall times exclude trial cost; rows land under "engine-autotune"
# and the report's policy-speedup table shows tuned/default ratios.
bench-autotune:
	$(PYTHON) -m repro tune tt --dataset er300
	$(PYTHON) -m repro tune cyc --dataset er300
	$(PYTHON) -m repro tune house --dataset er300
	$(PYTHON) -m repro exp run examples/sweeps/engine_autotune.toml --no-cache
	$(PYTHON) -m repro exp report engine-autotune

# Repository benchmark (perfbench/README.md): every workload at seed 0
# and the held-out seed 7; the last stdout line of each run is its JSON
# result.  perfbench-trace adds the per-layer split (perfbench/out/).
PERFBENCH_WORKLOADS = sim-iu-sweep sim-chip count
PERFBENCH_SEEDS = 0 7
perfbench_all = for w in $(PERFBENCH_WORKLOADS); do for s in $(PERFBENCH_SEEDS); do \
	echo "== $$w seed $$s"; \
	$(PYTHON) perfbench/run.py --workload $$w --seed $$s --trace $(1) || exit 1; \
	done; done

perfbench:
	@$(call perfbench_all,0)

perfbench-trace:
	@$(call perfbench_all,1)

# Auto-tuner persistence gate: cold-store tune must run trials, the
# second invocation must reuse the persisted choice with zero re-trials
# (docs/TUNING.md, "Persistence and invalidation").
tune-smoke:
	$(PYTHON) tools/tune_smoke.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/social_motif_census.py
	$(PYTHON) examples/clique_communities.py
	$(PYTHON) examples/design_space_exploration.py
	$(PYTHON) examples/trace_and_validate.py
	$(PYTHON) examples/software_vs_hardware.py
	$(PYTHON) examples/run_sweep.py

# Static analysis: the in-tree linter + plan verifier always run; ruff
# and mypy run only where installed (the container image does not ship
# them — CI installs both).
lint:
	$(PYTHON) -m repro lint
	$(PYTHON) -m repro lint-plan --all
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests \
		|| echo "ruff not installed; skipping"
	@command -v mypy >/dev/null 2>&1 \
		&& mypy --config-file pyproject.toml \
		|| echo "mypy not installed; skipping"

# Tier C: whole-program dataflow analyzer — call-graph races, policy
# taint into timing, cache-key completeness (docs/ANALYSIS.md).
lint-flow:
	$(PYTHON) -m repro lint-flow --check-unused-baseline

# Chaos gate: the smoke sweep under ~30% injected shard crashes plus
# transient faults must exit 0, match the fault-free run bit for bit,
# and show nonzero retry counters (docs/RESILIENCE.md).
chaos:
	$(PYTHON) -m pytest tests/chaos -x -q

check: test-fast lint lint-flow chaos

loc:
	find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
