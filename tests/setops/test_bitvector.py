"""The architecture-correctness tests: the segmented bitvector pipeline
must be extensionally equal to plain merges for all three operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.setops import aggregate_or, intersect_bitvector, segmented_set_op
from repro.setops.merge import merge_intersect_py, merge_subtract_py

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=400), max_size=100, unique=True
).map(sorted)


def arr(values):
    return np.asarray(values, dtype=np.int64)


class TestIntersectBitvector:
    def test_marks_hits(self):
        bits = intersect_bitvector(arr([1, 7, 11, 18]), arr([1, 3, 7, 12]), 4)
        assert list(bits) == [True, True, False, False]

    def test_padding_ones(self):
        bits = intersect_bitvector(arr([5]), arr([9]), 4)
        assert list(bits) == [False, True, True, True]


class TestAggregateOr:
    def test_or(self):
        a = np.array([True, False, False])
        b = np.array([False, False, True])
        assert list(aggregate_or([a, b])) == [True, False, True]

    def test_originals_untouched(self):
        a = np.array([True, False])
        b = np.array([False, True])
        aggregate_or([a, b])
        assert list(a) == [True, False]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_or([np.array([True]), np.array([True, False])])

    def test_empty(self):
        with pytest.raises(ValueError):
            aggregate_or([])


class TestPaperFigure8:
    """The subtraction example of paper Figure 8."""

    SHORT = [1, 7, 11, 18, 41, 45, 50, 51]
    LONG = [1, 3, 4, 5, 7, 8, 9, 12, 13, 14, 15, 18, 19, 22, 26, 28,
            33, 34, 36, 37, 40, 42, 45, 50]

    def test_subtraction_result(self):
        got = segmented_set_op(
            "subtract", arr(self.SHORT), arr(self.LONG), short_len=4, long_len=8
        )
        expected = sorted(set(self.SHORT) - set(self.LONG))
        assert list(got) == expected


class TestSegmentedEqualsMerge:
    @given(sorted_sets, sorted_sets)
    @settings(max_examples=120, deadline=None)
    def test_intersection(self, a, b):
        got = segmented_set_op("intersect", arr(a), arr(b))
        assert list(got) == merge_intersect_py(a, b)

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=120, deadline=None)
    def test_subtraction(self, a, b):
        got = segmented_set_op("subtract", arr(a), arr(b))
        assert list(got) == merge_subtract_py(a, b)

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=60, deadline=None)
    def test_anti_subtraction_flow(self, a, b):
        """Force a (long) − b (short): the pass-through flow."""
        a = sorted(set(a) | set(range(0, 200, 3)))  # make a the long one
        got = segmented_set_op("subtract", arr(a), arr(b))
        assert list(got) == merge_subtract_py(a, b)

    @given(sorted_sets, sorted_sets, st.integers(2, 9), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_segment_lengths(self, a, b, s_s, s_l):
        got = segmented_set_op(
            "intersect", arr(a), arr(b), short_len=s_s, long_len=s_l
        )
        assert list(got) == merge_intersect_py(a, b)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            segmented_set_op("union", arr([1]), arr([2]))

    def test_empty_inputs(self):
        assert segmented_set_op("intersect", arr([]), arr([1])).size == 0
        assert list(segmented_set_op("subtract", arr([1]), arr([]))) == [1]
