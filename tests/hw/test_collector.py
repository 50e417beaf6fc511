"""Tests for the event-level result collector (paper Figure 8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.collector import ResultCollector, SegmentResult
from repro.setops.merge import merge_intersect_py, merge_subtract_py
from repro.setops.segments import segment_bounds

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=300), max_size=80, unique=True
).map(sorted)


def arr(values):
    return np.asarray(values, dtype=np.int64)


class TestProtocol:
    def test_single_segment_intersection(self):
        c = ResultCollector()
        c.receive(SegmentResult(0, (1, 7, 11), (True, False, True)))
        assert c.finish() == [1, 11]

    def test_or_aggregation_same_segment(self):
        c = ResultCollector()
        c.receive(SegmentResult(0, (1, 7, 11), (True, False, False)))
        c.receive(SegmentResult(0, (1, 7, 11), (False, False, True)))
        assert c.finish() == [1, 11]

    def test_subtraction_keeps_zeros(self):
        c = ResultCollector()
        c.receive(
            SegmentResult(0, (1, 7, 11), (True, False, True), keep_zeros=True)
        )
        assert c.finish() == [7]

    def test_figure8_example(self):
        """The paper's Figure 8 subtraction: short {1,7,11,18} against two
        long segments; bitvectors OR to (1,1,1,1) except position of 11."""
        c = ResultCollector()
        # IU1: {1,7,11,18} vs {1,3,4,5,7,8,9,12} -> hits 1,7.
        c.receive(SegmentResult(0, (1, 7, 11, 18),
                                (True, True, False, False), keep_zeros=True))
        # IU2: same short segment vs {13,14,15,18,...} -> hits 18.
        c.receive(SegmentResult(0, (1, 7, 11, 18),
                                (False, False, False, True), keep_zeros=True))
        assert c.finish() == [11]

    def test_segment_change_flushes(self):
        c = ResultCollector()
        c.receive(SegmentResult(0, (1, 2), (True, True)))
        c.receive(SegmentResult(1, (5, 9), (False, True)))
        assert c.emitted == [1, 2]  # segment 0 already emitted
        assert c.finish() == [1, 2, 9]

    def test_width_mismatch_rejected(self):
        c = ResultCollector()
        c.receive(SegmentResult(0, (1, 2), (True, True)))
        with pytest.raises(ValueError):
            c.receive(SegmentResult(0, (1, 2), (True, True, False)))

    def test_bitvector_narrower_rejected(self):
        with pytest.raises(ValueError):
            SegmentResult(0, (1, 2, 3), (True,))

    def test_counters(self):
        c = ResultCollector()
        c.receive(SegmentResult(0, (1,), (True,)))
        c.receive(SegmentResult(0, (1,), (True,)))
        c.receive(SegmentResult(1, (2,), (True,)))
        c.finish()
        assert c.results_received == 3
        assert c.segments_emitted == 2


class TestEndToEndEquivalence:
    def _run_pipeline(self, a, b, op, seg_len=8):
        """Drive the collector with per-segment IU results for ``a op b``
        where ``a`` is segmented and ``b`` is the other input."""
        collector = ResultCollector()
        bounds = segment_bounds(len(a), seg_len)
        b_set = set(b)
        for seg_id, (lo, hi) in enumerate(bounds):
            values = tuple(a[lo:hi])
            bits = tuple(v in b_set for v in values)
            collector.receive(
                SegmentResult(seg_id, values, bits,
                              keep_zeros=(op == "subtract"))
            )
        return collector.finish()

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=100, deadline=None)
    def test_intersection_matches_merge(self, a, b):
        got = self._run_pipeline(a, b, "intersect")
        assert got == merge_intersect_py(a, b)

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=100, deadline=None)
    def test_subtraction_matches_merge(self, a, b):
        got = self._run_pipeline(a, b, "subtract")
        assert got == merge_subtract_py(a, b)

    @given(sorted_sets, sorted_sets)
    @settings(max_examples=50, deadline=None)
    def test_split_results_or_correctly(self, a, b):
        """Split each segment's work across two 'IUs' (each seeing half of
        b); the OR aggregation must reconstruct the full intersection."""
        if not b:
            return
        b1, b2 = set(b[::2]), set(b[1::2])
        collector = ResultCollector()
        for seg_id, (lo, hi) in enumerate(segment_bounds(len(a), 8)):
            values = tuple(a[lo:hi])
            collector.receive(SegmentResult(
                seg_id, values, tuple(v in b1 for v in values)))
            collector.receive(SegmentResult(
                seg_id, values, tuple(v in b2 for v in values)))
        assert collector.finish() == merge_intersect_py(a, b)
