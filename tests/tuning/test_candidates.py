"""Candidate generation: the order × policy grid and its invariants."""

from dataclasses import replace

import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.pattern.compiler import compile_plan
from repro.pattern.pattern import all_named_patterns, named_pattern
from repro.setops.kernels import KernelPolicy
from repro.tuning import generate_candidates, original_pattern, policy_grid
from repro.tuning.candidates import TunerCandidate
from repro.tuning.signature import graph_signature

ER = erdos_renyi(90, 0.15, seed=7)
BA = barabasi_albert(110, 5, seed=3)


@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_original_pattern_round_trips(pattern):
    """Inverting the plan's relabeling recovers an isomorphic copy of
    the caller's pattern: recompiling it with the plan's own order
    reproduces the plan's internal pattern."""
    plan = compile_plan(named_pattern(pattern))
    original = original_pattern(plan)
    recompiled = compile_plan(original, order=tuple(plan.vertex_order))
    assert recompiled.pattern == plan.pattern


@pytest.mark.parametrize("pattern", sorted(all_named_patterns()))
def test_reference_candidate_is_first_and_unchanged(pattern):
    plan = compile_plan(named_pattern(pattern))
    candidates = generate_candidates(ER, plan, KernelPolicy())
    ref = candidates[0]
    assert ref.label == "reference"
    assert ref.order == tuple(plan.vertex_order)
    assert ref.policy == KernelPolicy()


def test_candidates_are_unique_and_bounded():
    plan = compile_plan(named_pattern("house"))
    candidates = generate_candidates(ER, plan, KernelPolicy())
    seen = {(c.order, c.policy) for c in candidates}
    assert len(seen) == len(candidates)
    assert 1 <= len(candidates) <= 24


def test_candidate_orders_share_the_root_orbit():
    """Every candidate's level-0 vertex sits in the automorphism orbit
    of the reference root — the necessary condition for per-root
    attribution to survive the reorder."""
    from repro.pattern.automorphism import orbits

    plan = compile_plan(named_pattern("cyc"))
    pattern = original_pattern(plan)
    root = tuple(plan.vertex_order)[0]
    orbit = next(o for o in orbits(pattern) if root in o)
    for candidate in generate_candidates(ER, plan, KernelPolicy()):
        assert candidate.order[0] in orbit, candidate.label


def test_candidates_reject_tuned_policies():
    with pytest.raises(ValueError, match="concrete"):
        TunerCandidate(
            label="bad", order=(0, 1, 2), policy=KernelPolicy(tuned=True)
        )


def test_policy_grid_contains_base_and_flipped_engine():
    grid = dict(policy_grid(KernelPolicy(), graph_signature(ER)))
    assert grid["base"] == KernelPolicy()
    # The recursive engine is the oracle: flipping only goes to frontier.
    assert all(p.engine == "frontier" for p in grid.values())
    recursive = KernelPolicy(engine="recursive")
    grid = dict(policy_grid(recursive, graph_signature(ER)))
    assert grid["base"] == recursive
    assert grid["frontier"].engine == "frontier"


def test_policy_grid_strips_the_tuned_flag():
    grid = policy_grid(KernelPolicy(tuned=True), graph_signature(ER))
    assert all(not policy.tuned for _, policy in grid)


def test_policy_grid_gates_hub_variant_on_hub_mass():
    sig = graph_signature(BA)
    recursive = KernelPolicy(engine="recursive")
    labels_hubby = {n for n, _ in policy_grid(recursive, sig)}
    if sig.hub_mass >= 0.05:
        assert "hubs-eager" in labels_hubby
    labels_off = {
        n for n, _ in policy_grid(
            replace(recursive, use_hub_bitmaps=False), sig
        )
    }
    assert "hubs-eager" not in labels_off


def test_policy_grid_respects_forced_kernels():
    labels = {
        n for n, _ in policy_grid(
            KernelPolicy(engine="recursive", force_kernel="merge"),
            graph_signature(ER),
        )
    }
    assert "gallop-eager" not in labels


#: Every KernelPolicy field the frontier engine reads.
FRONTIER_FIELDS = (
    "engine", "frontier_budget_bytes", "force_segment_kernel",
    "segment_bitmap_bytes",
)


@pytest.mark.parametrize("graph", [ER, BA], ids=["er", "ba"])
def test_frontier_grid_offers_no_duplicate_programs(graph):
    """Under a frontier base no two grid policies run the same program:
    each pair differs in a field the frontier engine reads, so the tuner
    never picks between identical trials by timing noise."""
    grid = policy_grid(KernelPolicy(), graph_signature(graph))
    programs = [
        tuple(getattr(policy, f) for f in FRONTIER_FIELDS)
        for _, policy in grid
    ]
    assert len(set(programs)) == len(programs), [n for n, _ in grid]
