"""Tests for the hw API helpers: workload resolution."""

import pytest

from repro.hw.api import resolve_workload
from repro.pattern import Pattern, compile_plan, named_pattern
from repro.pattern.multipattern import compile_multi_plan, motif_patterns


class TestResolveWorkload:
    def test_string(self):
        name, plans, names = resolve_workload("tc")
        assert name == "tc"
        assert len(plans) == 1
        assert names == ("tc",)

    def test_3mc(self):
        name, plans, names = resolve_workload("3mc")
        assert name == "3mc"
        assert len(plans) == 2
        assert set(names) == {"tc", "wedge"}

    def test_pattern_object(self):
        name, plans, _ = resolve_workload(named_pattern("dia"))
        assert "k=4" in name
        assert plans[0].num_levels == 4

    def test_plan_object_passthrough(self):
        plan = compile_plan(named_pattern("tc"))
        _, plans, _ = resolve_workload(plan)
        assert plans[0] is plan

    def test_multiplan_object(self):
        patterns, names = motif_patterns(3)
        multi = compile_multi_plan(patterns, names=names)
        name, plans, out_names = resolve_workload(multi)
        assert "+" in name
        assert tuple(out_names) == tuple(names)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            resolve_workload(3.14)

