"""Unit tests for the task-divider chunking the simulator charges.

The divider phase is computed inside :func:`repro.hw.iu.time_task_ops`:
one divider matches at most 15 long / 24 short heads, an op whose head
lists overflow splits into ``long chunks + short chunks - 1`` chunks,
and each chunk costs 2 setup cycles plus one cycle per short head.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.iu import time_task_ops
from repro.pattern.plan import OpKind

LONG_LEN, SHORT_LEN = 16, 4


def heads_op(n_long: int, n_short: int):
    """An intersection whose inputs span exactly the given head counts."""
    assert n_short * SHORT_LEN <= n_long * LONG_LEN  # keeps the roles
    short = np.arange(n_short * SHORT_LEN, dtype=np.int32)
    long = np.arange(n_long * LONG_LEN, dtype=np.int32)
    return (OpKind.INTERSECT, short, long)


def divider_phase(ops, num_dividers=1, long_heads=15, short_heads=24):
    return time_task_ops(
        ops,
        num_ius=24,
        num_dividers=num_dividers,
        long_len=LONG_LEN,
        short_len=SHORT_LEN,
        max_load=3,
        divider_long_heads=long_heads,
        divider_short_heads=short_heads,
        io_cycles_per_item=2,
    ).divider_phase_cycles


def serial_chunks(n_long, n_short, long_heads=15, short_heads=24):
    """Chunk count read back from the one-divider phase."""
    phase = divider_phase(
        [heads_op(n_long, n_short)], 1, long_heads, short_heads
    )
    return (phase - n_short) / 2


class TestChunkCounts:
    def test_exact_capacity_no_chunking(self):
        assert serial_chunks(15, 24) == 1
        assert divider_phase([heads_op(15, 24)]) == 2 + 24

    def test_one_over_long_capacity(self):
        assert serial_chunks(16, 24) == 2
        # 16 long / 5 short heads: two chunks, 2 x 2 setup + 5 heads.
        assert divider_phase([heads_op(16, 5)]) == 9

    def test_short_overflow(self):
        assert serial_chunks(13, 49) == 3  # ceil(49/24) = 3, long chunks = 1

    def test_total_cycles_positive(self):
        assert divider_phase([heads_op(5, 10)]) >= 10

    @given(
        st.integers(1, 200).flatmap(
            lambda nl: st.tuples(st.just(nl), st.integers(1, 4 * nl))
        ),
        st.integers(1, 32), st.integers(1, 64),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_cover_heads(self, heads, cl, cs):
        """Chunk count must be enough to cover both head lists."""
        nl, ns = heads
        assert serial_chunks(nl, ns, cl, cs) >= max(-(-nl // cl), -(-ns // cs))

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=100, deadline=None)
    def test_cycles_scale_with_heads(self, nl, ns):
        ns = min(ns, nl)  # keeps 3 x ns short heads the short side
        small = divider_phase([heads_op(nl, ns)])
        big = divider_phase([heads_op(nl, ns * 3)])
        assert big >= small


class TestPhase:
    def test_single_work(self):
        op = heads_op(4, 8)
        assert divider_phase([op], 12) == divider_phase([op], 1)

    def test_parallelism_caps_at_divider_count(self):
        ops = [heads_op(4, 8)] * 24
        assert divider_phase(ops, 24) <= divider_phase(ops, 12)

    @given(st.lists(st.tuples(st.integers(13, 50), st.integers(1, 50)),
                    min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_phase_bounds(self, specs):
        ops = [heads_op(nl, ns) for nl, ns in specs]
        phase = divider_phase(ops, 12)
        total = divider_phase(ops, 1)
        assert phase <= total
        assert phase >= total / 12 - 1
