"""Unit and property tests for the merge-based set operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import star_graph
from repro.pattern.plan import OpKind
from repro.setops import exclude_values, lower_bound_filter
from repro.setops.kernels import (
    KernelContext,
    KernelPolicy,
    merge_intersect,
    merge_subtract,
)
from repro.setops.merge import merge_intersect_py, merge_subtract_py

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=300), max_size=60, unique=True
).map(sorted)


def arr(values):
    return np.asarray(values, dtype=np.int32)


#: Plan ops through the merge kernel (no operand vertex, so the graph's
#: hub index is never consulted).
apply_op = KernelContext(
    star_graph(3), KernelPolicy(force_kernel="merge")
).apply_op


class TestBasics:
    def test_intersect(self):
        assert list(merge_intersect(arr([1, 3, 5]), arr([3, 4, 5]))) == [3, 5]

    def test_subtract(self):
        assert list(merge_subtract(arr([1, 3, 5]), arr([3]))) == [1, 5]

    def test_empty_cases(self):
        e = arr([])
        assert merge_intersect(e, arr([1])).size == 0
        assert merge_intersect(arr([1]), e).size == 0
        assert merge_subtract(e, arr([1])).size == 0
        assert list(merge_subtract(arr([1, 2]), e)) == [1, 2]

    def test_apply_op_init(self):
        out = apply_op(OpKind.INIT_COPY, None, arr([4, 7]))
        assert list(out) == [4, 7]

    def test_apply_op_intersect(self):
        out = apply_op(OpKind.INTERSECT, arr([1, 2, 3]), arr([2, 3, 4]))
        assert list(out) == [2, 3]

    def test_apply_op_subtract_variants(self):
        a, b = arr([1, 2, 3]), arr([2])
        assert list(apply_op(OpKind.SUBTRACT, a, b)) == [1, 3]
        assert list(apply_op(OpKind.ANTI_SUBTRACT, a, b)) == [1, 3]

    def test_apply_op_requires_source(self):
        with pytest.raises(ValueError):
            apply_op(OpKind.INTERSECT, None, arr([1]))


class TestFilters:
    def test_lower_bound(self):
        assert list(lower_bound_filter(arr([1, 5, 9]), 5)) == [9]

    def test_lower_bound_all_pass(self):
        assert list(lower_bound_filter(arr([6, 7]), 5)) == [6, 7]

    def test_lower_bound_none_pass(self):
        assert lower_bound_filter(arr([1, 2]), 9).size == 0

    def test_exclude_values(self):
        assert list(exclude_values(arr([1, 2, 3, 4]), [2, 4])) == [1, 3]

    def test_exclude_missing_value(self):
        assert list(exclude_values(arr([1, 3]), [2])) == [1, 3]

    def test_exclude_empty(self):
        assert exclude_values(arr([]), [1]).size == 0


class TestProperties:
    @given(sorted_sets, sorted_sets)
    @settings(max_examples=200)
    def test_intersect_matches_python_sets(self, a, b):
        got = list(merge_intersect(arr(a), arr(b)))
        assert got == sorted(set(a) & set(b))

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=200)
    def test_subtract_matches_python_sets(self, a, b):
        got = list(merge_subtract(arr(a), arr(b)))
        assert got == sorted(set(a) - set(b))

    @given(sorted_sets, sorted_sets)
    def test_pure_python_merge_agrees(self, a, b):
        assert merge_intersect_py(a, b) == sorted(set(a) & set(b))
        assert merge_subtract_py(a, b) == sorted(set(a) - set(b))

    @given(sorted_sets, sorted_sets)
    def test_subtract_identity(self, a, b):
        """A − B == A − (A ∩ B): the identity FINGERS hardware exploits."""
        a_, b_ = arr(a), arr(b)
        direct = list(merge_subtract(a_, b_))
        via_intersect = list(merge_subtract(a_, merge_intersect(a_, b_)))
        assert direct == via_intersect

    @given(sorted_sets, sorted_sets, sorted_sets)
    def test_subtract_chain_is_intersection_of_differences(self, a, b, c):
        """A − B − C == (A − B) ∩ (A − C): the OR-aggregation identity."""
        a_, b_, c_ = arr(a), arr(b), arr(c)
        chained = list(merge_subtract(merge_subtract(a_, b_), c_))
        intersected = list(
            merge_intersect(merge_subtract(a_, b_), merge_subtract(a_, c_))
        )
        assert chained == intersected

    @given(sorted_sets, sorted_sets)
    def test_results_sorted_unique(self, a, b):
        for out in (merge_intersect(arr(a), arr(b)), merge_subtract(arr(a), arr(b))):
            lst = list(out)
            assert lst == sorted(set(lst))
