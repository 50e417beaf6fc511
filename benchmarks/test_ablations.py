"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate individual mechanisms
(scheduling, divider splitting, divider count, task-group size, PE
scaling under load imbalance) and record their contributions.
"""

from repro.bench import ablations


def test_ablation_scheduling(benchmark, publish):
    result = benchmark.pedantic(
        ablations.ablation_scheduling, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("ablation_scheduling", result.render())
    dynamic = result.data["dynamic"]
    block = result.data["static_block"]
    # Counts identical; dynamic must not lose to static block partitioning.
    assert dynamic.counts == block.counts
    assert dynamic.cycles <= block.cycles


def test_ablation_max_load(benchmark, publish):
    result = benchmark.pedantic(
        ablations.ablation_max_load, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("ablation_max_load", result.render())
    # Splitting (max_load small) trades item count against balance; the
    # default 3 must be no worse than the no-split extreme by much.
    assert result.data[3].cycles <= result.data[12].cycles * 1.25


def test_ablation_dividers(benchmark, publish):
    result = benchmark.pedantic(
        ablations.ablation_dividers, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("ablation_dividers", result.render())
    # A single divider bottlenecks head-list matching; 12 must help.
    assert result.data[12].cycles <= result.data[1].cycles
    # But beyond the default the returns vanish (paper: dividers do not
    # dominate the pipeline).
    assert result.data[24].cycles >= result.data[12].cycles * 0.95


def test_ablation_group_size(benchmark, publish):
    result = benchmark.pedantic(
        ablations.ablation_group_size, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("ablation_group_size", result.render())
    # The auto policy must be competitive with the best manual setting
    # (paper: "performance is insensitive to these parameters").
    best = min(r.cycles for r in result.data.values())
    assert result.data[None].cycles <= best * 1.15


def test_ablation_imbalance(benchmark, publish):
    result = benchmark.pedantic(
        ablations.ablation_imbalance, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("ablation_imbalance", result.render())
    # More PEs help, but sublinearly: the hub tree serializes.
    scaling_16 = result.data[1].cycles / result.data[16].cycles
    assert 1.0 < scaling_16 < 16.0
    assert result.data[16].load_imbalance > 1.2


def test_ablation_edge_induced(benchmark, publish):
    result = benchmark.pedantic(
        ablations.ablation_edge_induced, rounds=1, iterations=1,
        warmup_rounds=0,
    )
    publish("ablation_edge_induced", result.render())
    for pattern in ("tt", "cyc", "dia"):
        v_fing, v_flex = result.data[(pattern, "vertex")]
        e_fing, e_flex = result.data[(pattern, "edge")]
        # Edge-induced matches are a superset of vertex-induced ones.
        assert e_fing.count >= v_fing.count
        # Both modes agree across designs.
        assert v_fing.counts == v_flex.counts
        assert e_fing.counts == e_flex.counts
        # FINGERS wins in both modes.
        assert v_fing.speedup_over(v_flex) > 1.0
        assert e_fing.speedup_over(e_flex) > 1.0
