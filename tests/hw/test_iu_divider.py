"""Tests for the IU-pool timing model and its task-divider phase."""

import numpy as np
import pytest

from repro.hw.config import FingersConfig
from repro.hw.iu import TaskTiming, _op_item_costs, _round_robin_busy, time_task_ops
from repro.pattern.plan import OpKind
from repro.setops.segments import pairing_loads


def arr(values):
    return np.asarray(values, dtype=np.int32)


DEFAULTS = dict(
    num_ius=24,
    num_dividers=12,
    long_len=16,
    short_len=4,
    max_load=3,
    divider_long_heads=15,
    divider_short_heads=24,
    io_cycles_per_item=2,
)


class TestOpItemCosts:
    def test_init_copy_streams_segments(self):
        costs, s, l, nlh, nsh = _op_item_costs(
            OpKind.INIT_COPY, None, arr(range(40)),
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [16, 16, 16]  # ceil(40/16) segments
        assert l == 40 and s == 0

    def test_intersect_small(self):
        # short = 8 elems (2 segs), long = 12 elems (1 partial seg): both
        # short segments pair with it; partial segments stream their
        # actual ids (12 + 8), not the padded segment width.
        costs, *_ = _op_item_costs(
            OpKind.INTERSECT, arr(range(0, 16, 2)), arr(range(12)),
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [12 + 8]

    def test_max_load_splits(self):
        # 24 short elements (6 segments) all fall into the first of four
        # long segments; max_load 3 splits the 6 into two items of 3.
        short = arr(range(0, 144, 6))   # 24 values in [0, 144)
        long = arr(range(0, 640, 10))   # 64 values, segment 0 = [0, 150]
        costs, *_ = _op_item_costs(
            OpKind.INTERSECT, short, long,
            long_len=16, short_len=4, max_load=3,
        )
        assert sorted(costs) == [16 + 12, 16 + 12]

    def test_anti_subtraction_keeps_unpaired(self):
        # source (left of subtraction) is LONGER than operand: the
        # anti-subtraction flow; unpaired long segments pass through.
        long_src = arr(range(0, 64))          # 4 segments
        short_op = arr([1, 2, 3])             # overlaps only segment 0
        costs, *_ = _op_item_costs(
            OpKind.SUBTRACT, long_src, short_op,
            long_len=16, short_len=4, max_load=3,
        )
        # 1 paired item + 3 pass-through items.
        assert sorted(costs) == [16, 16, 16, 16 + 4]

    def test_ordinary_subtraction_drops_unpaired(self):
        short_src = arr([1, 2, 3])
        long_op = arr(range(0, 64))
        costs, *_ = _op_item_costs(
            OpKind.SUBTRACT, short_src, long_op,
            long_len=16, short_len=4, max_load=3,
        )
        assert costs == [16 + 4]

    def test_fast_and_general_paths_agree(self):
        """The general (numpy) path must produce the same multiset of item
        costs as a reference computation from pairing_loads."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            # Keep both inputs multi-segment so the padded-cost contract
            # applies (single-segment ops use actual lengths instead).
            short = np.unique(rng.integers(0, 400, size=rng.integers(20, 60)))
            long = np.unique(rng.integers(0, 400, size=rng.integers(40, 200)))
            costs, *_ = _op_item_costs(
                OpKind.INTERSECT,
                arr(short) if short.size <= long.size else arr(long),
                arr(long) if short.size <= long.size else arr(short),
                long_len=16, short_len=4, max_load=3,
            )
            s, l = (short, long) if short.size <= long.size else (long, short)
            loads = pairing_loads(arr(s), arr(l), short_len=4, long_len=16)
            expected = []
            for load in loads.tolist():
                while load > 3:
                    expected.append(16 + 12)
                    load -= 3
                if load:
                    expected.append(16 + load * 4)
            assert sorted(costs) == sorted(expected)


class TestRoundRobinBusy:
    def test_fewer_items_than_ius(self):
        # Issue order preserved: one item per IU.
        assert _round_robin_busy([5, 9, 2], 24) == [5, 9, 2]

    def test_more_items_than_ius(self):
        busy = _round_robin_busy([4, 3, 2, 1], 2)
        assert busy == [4 + 2, 3 + 1]
        assert sum(busy) == 10

    def test_empty(self):
        assert _round_robin_busy([], 4) == []


class TestTimeTaskOps:
    def test_empty_ops(self):
        t = time_task_ops([], **DEFAULTS)
        assert t.compute_cycles == 0
        assert t.num_items == 0

    def test_single_small_op(self):
        t = time_task_ops(
            [(OpKind.INTERSECT, arr([1, 2, 3]), arr([2, 3, 4]))], **DEFAULTS
        )
        assert t.num_items == 1
        assert t.iu_phase_cycles == t.max_item_cycles

    def test_large_op_spreads(self):
        a = arr(range(0, 2000, 2))
        b = arr(range(0, 2000, 3))
        t = time_task_ops([(OpKind.INTERSECT, a, b)], **DEFAULTS)
        # Parallel phase must be far below the serial cost.
        serial = a.size + b.size
        assert t.iu_phase_cycles < serial / 4
        assert t.iu_phase_cycles >= t.total_item_cycles / DEFAULTS["num_ius"]

    def test_io_serialization_bound(self):
        # Many tiny items: the round-robin I/O becomes the bottleneck.
        ops = [
            (OpKind.INTERSECT, arr([i * 10, i * 10 + 1]), arr([i * 10]))
            for i in range(40)
        ]
        t = time_task_ops(ops, **DEFAULTS)
        assert t.io_serial_cycles == t.num_items * 2
        assert t.compute_cycles >= t.io_serial_cycles

    def test_balance_rate_bounds(self):
        a = arr(range(0, 500, 2))
        b = arr(range(0, 500, 5))
        t = time_task_ops([(OpKind.INTERSECT, a, b)], **DEFAULTS)
        assert 0 < t.balance_busy_sum <= t.balance_capacity_sum

    def test_detail_ops(self):
        t = time_task_ops(
            [(OpKind.INTERSECT, arr([1, 2]), arr([2, 3]))],
            **DEFAULTS,
            detail=True,
        )
        assert len(t.ops) == 1
        assert t.ops[0].kind is OpKind.INTERSECT
        assert t.ops[0].balance_rate <= 1.0

    def test_iso_area_tradeoff_visible(self):
        """Figure 12's mechanism: tiny segments raise item counts and the
        serial I/O floor."""
        a = arr(range(0, 600, 2))
        b = arr(range(0, 600, 3))
        few_big = time_task_ops(
            [(OpKind.INTERSECT, a, b)],
            **{**DEFAULTS, "num_ius": 8, "long_len": 48},
        )
        many_small = time_task_ops(
            [(OpKind.INTERSECT, a, b)],
            **{**DEFAULTS, "num_ius": 48, "long_len": 8},
        )
        assert many_small.num_items > few_big.num_items
        assert many_small.io_serial_cycles > few_big.io_serial_cycles


class TestDividerModel:
    """The divider phase of ``time_task_ops`` (section 4.2 chunking)."""

    @staticmethod
    def heads_op(n_long, n_short):
        short = np.arange(n_short * DEFAULTS["short_len"], dtype=np.int32)
        long = np.arange(n_long * DEFAULTS["long_len"], dtype=np.int32)
        return (OpKind.INTERSECT, short, long)

    @staticmethod
    def phase(ops, num_dividers=1):
        return time_task_ops(
            ops, **{**DEFAULTS, "num_dividers": num_dividers}
        ).divider_phase_cycles

    def test_no_chunking(self):
        assert self.phase([self.heads_op(10, 20)]) == 2 + 20

    def test_long_overflow_chunks(self):
        # ceil(40/15) = 3 chunks, 2 setup cycles each.
        assert self.phase([self.heads_op(40, 10)]) == 3 * 2 + 10

    def test_both_overflow_additive(self):
        # 3 long + 3 short chunks - 1 = 5 chunks.
        assert self.phase([self.heads_op(40, 60)]) == 5 * 2 + 60

    def test_phase_balanced(self):
        ops = [self.heads_op(10, 20)] * 12
        solo = self.phase(ops[:1], 12)
        full = self.phase(ops, 12)
        assert full == solo  # 12 ops on 12 dividers run in parallel

    def test_phase_floor_is_largest_chunk(self):
        # 2 chunks of 20 short heads: 44 cycles in all, 22 per chunk.
        assert self.phase([self.heads_op(10, 40)], 12) == 2 + 20

    def test_empty(self):
        assert self.phase([]) == 0
        copy = (OpKind.INIT_COPY, None, arr(range(100)))
        assert self.phase([copy]) == 0

    def test_invalid_dividers(self):
        with pytest.raises(ValueError):
            FingersConfig(num_dividers=0)
