"""Additional set-operation properties: idempotence, algebra, sizes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.setops import segmented_set_op
from repro.setops.kernels import merge_intersect, merge_subtract
from repro.setops.segments import head_list, segment_bounds

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=200), max_size=50, unique=True
).map(sorted)


def arr(values):
    return np.asarray(values, dtype=np.int32)


class TestAlgebra:
    @given(sorted_sets)
    def test_intersect_idempotent(self, a):
        assert list(merge_intersect(arr(a), arr(a))) == a

    @given(sorted_sets)
    def test_subtract_self_empty(self, a):
        assert merge_subtract(arr(a), arr(a)).size == 0

    @given(sorted_sets, sorted_sets)
    def test_intersect_commutative(self, a, b):
        assert list(merge_intersect(arr(a), arr(b))) == list(
            merge_intersect(arr(b), arr(a))
        )

    @given(sorted_sets, sorted_sets, sorted_sets)
    @settings(max_examples=100)
    def test_intersect_associative(self, a, b, c):
        left = merge_intersect(merge_intersect(arr(a), arr(b)), arr(c))
        right = merge_intersect(arr(a), merge_intersect(arr(b), arr(c)))
        assert list(left) == list(right)

    @given(sorted_sets, sorted_sets)
    def test_partition_identity(self, a, b):
        """|A| == |A ∩ B| + |A − B|."""
        a_, b_ = arr(a), arr(b)
        assert len(a) == merge_intersect(a_, b_).size + merge_subtract(a_, b_).size

    @given(sorted_sets, sorted_sets)
    def test_results_never_grow(self, a, b):
        assert merge_intersect(arr(a), arr(b)).size <= min(len(a), len(b))
        assert merge_subtract(arr(a), arr(b)).size <= len(a)


class TestSegmentHelpers:
    @given(sorted_sets, st.integers(1, 20))
    def test_bounds_cover_exactly(self, a, seg_len):
        bounds = segment_bounds(len(a), seg_len)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(len(a)))

    @given(sorted_sets, st.integers(1, 20))
    def test_head_list_heads(self, a, seg_len):
        heads = head_list(arr(a), seg_len)
        bounds = segment_bounds(len(a), seg_len)
        assert len(heads) == len(bounds)
        for head, (lo, _) in zip(heads, bounds):
            assert head == a[lo]

    @given(sorted_sets, sorted_sets, st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_segmented_subtract_any_lengths(self, a, b, s_s, s_l):
        got = segmented_set_op("subtract", arr(a), arr(b),
                               short_len=s_s, long_len=s_l)
        assert list(got) == list(merge_subtract(arr(a), arr(b)))
