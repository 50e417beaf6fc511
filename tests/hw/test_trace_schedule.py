"""Tests for execution tracing and chip scheduling policies."""

import pytest

from repro.graph import erdos_renyi, load_dataset
from repro.hw.api import FingersConfig, FlexMinerConfig, simulate
from repro.hw.chip import root_queues
from repro.hw.config import SCHEDULES
from repro.hw.trace import TraceEvent, Tracer, render_gantt

SMALL = erdos_renyi(50, 0.25, seed=13)


class TestTracer:
    def test_records_events(self):
        tracer = Tracer()
        simulate(SMALL, "tc", FingersConfig(num_pes=2), tracer=tracer)
        assert len(tracer.events) > 0
        kinds = {e.kind for e in tracer.events}
        assert "group" in kinds and "root" in kinds

    def test_flexminer_traces_too(self):
        tracer = Tracer()
        simulate(SMALL, "tc", FlexMinerConfig(num_pes=2), tracer=tracer)
        assert any(e.kind == "group" for e in tracer.events)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        simulate(SMALL, "tc", FingersConfig(num_pes=2), tracer=tracer)
        assert tracer.events == []

    def test_event_durations_nonnegative(self):
        tracer = Tracer()
        simulate(SMALL, "tt", FingersConfig(num_pes=2), tracer=tracer)
        assert all(e.duration >= 0 for e in tracer.events)

    def test_for_pe_filtering(self):
        tracer = Tracer()
        simulate(SMALL, "tc", FingersConfig(num_pes=3), tracer=tracer)
        for pid in range(3):
            assert all(e.pe_id == pid for e in tracer.for_pe(pid))

    def test_busy_fraction_bounds(self):
        tracer = Tracer()
        simulate(SMALL, "tc", FingersConfig(num_pes=2), tracer=tracer)
        assert 0 <= tracer.busy_fraction(0) <= 1

    def test_negative_duration_dropped(self):
        tracer = Tracer()
        tracer.record(0, 10.0, 5.0, "group")
        assert tracer.events == []


class TestGantt:
    def test_empty(self):
        assert "empty" in render_gantt(Tracer())

    def test_rows_per_pe(self):
        tracer = Tracer()
        simulate(SMALL, "tc", FingersConfig(num_pes=3), tracer=tracer)
        text = render_gantt(tracer)
        assert "PE0" in text and "PE2" in text
        assert "#" in text

    def test_width_respected(self):
        tracer = Tracer()
        tracer.record(0, 0.0, 100.0, "group")
        text = render_gantt(tracer, width=40)
        row = [l for l in text.splitlines() if l.startswith("PE0")][0]
        assert len(row) <= 40 + 8


class TestSchedulingPolicies:
    @pytest.mark.parametrize("policy", SCHEDULES)
    def test_counts_invariant(self, policy):
        res = simulate(
            SMALL, "tc", FingersConfig(num_pes=3), schedule=policy
        )
        from repro.mining import count

        assert res.count == count(SMALL, "tc")

    @pytest.mark.parametrize("policy", ["static_interleave", "static_block"])
    @pytest.mark.parametrize("nodes,units", [(0, 3), (5, 16), (17, 4), (64, 8)])
    def test_static_queues_hand_out_every_node_once(self, policy, nodes, units):
        queues = root_queues(policy, nodes, units)
        assert len(queues) == units
        handed = [node for queue in queues for node in queue]
        assert sorted(handed) == list(range(nodes))

    def test_dynamic_queues_share_one_iterator(self):
        queues = root_queues("dynamic", 10, 4)
        assert len(queues) == 4
        assert all(queue is queues[0] for queue in queues)
        assert list(queues[0]) == list(range(10))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            simulate(SMALL, "tc", FingersConfig(num_pes=2), schedule="greedy")

    def test_dynamic_beats_block_on_skew(self):
        g = load_dataset("Lj")
        roots = list(range(0, g.num_vertices, 32))
        dyn = simulate(
            g, "tc", FingersConfig(num_pes=8), roots=roots, schedule="dynamic"
        )
        block = simulate(
            g, "tc", FingersConfig(num_pes=8), roots=roots,
            schedule="static_block",
        )
        assert dyn.counts == block.counts
        assert dyn.cycles <= block.cycles

    def test_static_policies_cover_all_roots(self):
        # More PEs than roots: static assignment must not lose roots.
        from repro.graph import complete_graph

        g = complete_graph(5)
        for policy in ("static_interleave", "static_block"):
            res = simulate(
                g, "tc", FingersConfig(num_pes=16), schedule=policy
            )
            assert res.count == 10
