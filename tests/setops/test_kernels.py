"""Property and unit tests for the size-adaptive kernel layer.

Every kernel must be bit-identical to the pure-Python merge oracle
(``merge_intersect_py`` / ``merge_subtract_py``) on all inputs — the
contract that makes kernel dispatch functional-only (docs/KERNELS.md).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.builders import from_edges
from repro.graph.generators import barabasi_albert
from repro.pattern.plan import OpKind
from repro.setops.kernels import (
    DEFAULT_POLICY,
    KERNEL_NAMES,
    KernelContext,
    KernelPolicy,
    bitmap_and_count,
    bitmap_intersect,
    bitmap_subtract,
    gallop_intersect,
    gallop_subtract,
    intersect_adaptive,
    kernel_counters,
    merge_intersect,
    merge_subtract,
    pack_bitmap,
    popcount,
    reset_kernel_counters,
    subtract_adaptive,
    unpack_bitmap,
)
from repro.setops.merge import merge_intersect_py, merge_subtract_py

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=300), max_size=60, unique=True
).map(sorted)

#: Also exercise heavily skewed sizes (the galloping regime).
skewed_pairs = st.tuples(
    st.lists(
        st.integers(min_value=0, max_value=5000), max_size=8, unique=True
    ).map(sorted),
    st.lists(
        st.integers(min_value=0, max_value=5000),
        min_size=200,
        max_size=400,
        unique=True,
    ).map(sorted),
)

INTERSECT_KERNELS = {
    "merge": merge_intersect,
    "gallop": gallop_intersect,
    "bitmap": bitmap_intersect,
}
SUBTRACT_KERNELS = {
    "merge": merge_subtract,
    "gallop": gallop_subtract,
    "bitmap": bitmap_subtract,
}


def arr(values):
    return np.asarray(values, dtype=np.int32)


class TestKernelsAgainstOracle:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @given(a=sorted_sets, b=sorted_sets)
    def test_intersect_matches_oracle(self, kernel, a, b):
        out = INTERSECT_KERNELS[kernel](arr(a), arr(b))
        assert out.dtype == np.int32
        assert list(out) == merge_intersect_py(a, b)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @given(a=sorted_sets, b=sorted_sets)
    def test_subtract_matches_oracle(self, kernel, a, b):
        out = SUBTRACT_KERNELS[kernel](arr(a), arr(b))
        assert out.dtype == np.int32
        assert list(out) == merge_subtract_py(a, b)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @given(pair=skewed_pairs)
    def test_skewed_sizes_both_directions(self, kernel, pair):
        small, large = pair
        assert list(INTERSECT_KERNELS[kernel](arr(small), arr(large))) == (
            merge_intersect_py(small, large)
        )
        assert list(SUBTRACT_KERNELS[kernel](arr(large), arr(small))) == (
            merge_subtract_py(large, small)
        )

    @given(a=sorted_sets, b=sorted_sets)
    def test_adaptive_dispatch_matches_oracle(self, a, b):
        for policy in (
            DEFAULT_POLICY,
            KernelPolicy(gallop_ratio=1.0, gallop_min_large=1),
        ):
            assert list(intersect_adaptive(arr(a), arr(b), policy)) == (
                merge_intersect_py(a, b)
            )
            assert list(subtract_adaptive(arr(a), arr(b), policy)) == (
                merge_subtract_py(a, b)
            )

    @given(a=sorted_sets, b=sorted_sets)
    def test_prebuilt_bitmap_path(self, a, b):
        words = pack_bitmap(arr(b), 301)
        assert list(bitmap_intersect(arr(a), arr(b), b_words=words)) == (
            merge_intersect_py(a, b)
        )
        assert list(bitmap_subtract(arr(a), arr(b), b_words=words)) == (
            merge_subtract_py(a, b)
        )


class TestBitmapPrimitives:
    @given(ids=sorted_sets)
    def test_pack_unpack_round_trip(self, ids):
        words = pack_bitmap(arr(ids))
        assert list(unpack_bitmap(words)) == ids

    @given(ids=sorted_sets)
    def test_popcount(self, ids):
        assert popcount(pack_bitmap(arr(ids))) == len(ids)

    @given(a=sorted_sets, b=sorted_sets)
    def test_bitmap_and_count(self, a, b):
        count = bitmap_and_count(pack_bitmap(arr(a)), pack_bitmap(arr(b)))
        assert count == len(merge_intersect_py(a, b))

    def test_fixed_width_pack(self):
        words = pack_bitmap(arr([0, 63, 64, 200]), 256)
        assert words.size == 4
        assert list(unpack_bitmap(words, 256)) == [0, 63, 64, 200]


class TestDispatchMachinery:
    def test_force_kernel_validation(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelPolicy(force_kernel="quantum")

    def test_counters_tally_dispatch(self):
        reset_kernel_counters()
        big = arr(list(range(0, 4000, 2)))
        small = arr([3, 5, 100])
        intersect_adaptive(small, big)  # skew -> gallop
        intersect_adaptive(big, big)  # balanced -> merge
        subtract_adaptive(small, big, KernelPolicy(force_kernel="bitmap"))
        counters = kernel_counters()
        assert counters["intersect/gallop"] == 1
        assert counters["intersect/merge"] == 1
        assert counters["subtract/bitmap"] == 1
        reset_kernel_counters()
        assert kernel_counters() == {}

    def test_forced_kernel_pins_every_dispatch(self):
        big = arr(list(range(0, 4000, 2)))
        small = arr([2, 4])
        reset_kernel_counters()
        policy = KernelPolicy(force_kernel="merge")
        intersect_adaptive(small, big, policy)
        assert kernel_counters() == {"intersect/merge": 1}
        reset_kernel_counters()


class TestKernelContext:
    def _graph(self):
        return barabasi_albert(300, 6, seed=2)

    def test_apply_op_matches_merge_reference(self):
        graph = self._graph()
        ctx = KernelContext(graph, KernelPolicy(hub_min_degree=8))
        for v in range(0, 300, 7):
            operand = graph.neighbors(v)
            source = graph.neighbors((v + 1) % 300)
            for kind in (
                OpKind.INIT_COPY,
                OpKind.INTERSECT,
                OpKind.SUBTRACT,
                OpKind.ANTI_SUBTRACT,
            ):
                src = None if kind is OpKind.INIT_COPY else source
                got = ctx.apply_op(kind, src, operand, vertex=v)
                if kind is OpKind.INIT_COPY:
                    want = list(operand)
                elif kind is OpKind.INTERSECT:
                    want = merge_intersect_py(list(src), list(operand))
                else:
                    want = merge_subtract_py(list(src), list(operand))
                assert list(got) == want, (v, kind)

    def test_hub_bitmaps_actually_used(self):
        graph = self._graph()
        ctx = KernelContext(
            graph, KernelPolicy(hub_min_degree=4, hub_max_hubs=300)
        )
        hubs = graph.hub_bitmap_index(
            min_degree=4, max_hubs=300, memory_bytes=8 << 20
        )
        assert len(hubs) > 0
        hub = hubs.hub_ids[0]
        reset_kernel_counters()
        ctx.intersect(graph.neighbors((hub + 1) % 300), graph.neighbors(hub),
                      vertex=hub)
        assert kernel_counters().get("intersect/bitmap") == 1
        reset_kernel_counters()

    def test_requires_source_for_binary_ops(self):
        ctx = KernelContext(self._graph())
        with pytest.raises(ValueError, match="requires a source"):
            ctx.apply_op(OpKind.INTERSECT, None, arr([1, 2]))


class TestHubBitmapIndex:
    def test_memory_bound_caps_hub_count(self):
        graph = barabasi_albert(1000, 10, seed=4)
        bytes_per_hub = ((1000 + 63) // 64) * 8
        index = graph.hub_bitmap_index(
            max_hubs=64, min_degree=1, memory_bytes=3 * bytes_per_hub
        )
        assert len(index) == 3
        assert index.memory_bytes <= 3 * bytes_per_hub

    def test_selection_is_degree_desc_id_asc(self):
        # Star around 0 plus a smaller star around 1: degree order is
        # deterministic, ties broken by ascending id.
        edges = [(0, i) for i in range(2, 10)] + [(1, i) for i in range(5, 10)]
        graph = from_edges(edges, num_vertices=10)
        index = graph.hub_bitmap_index(max_hubs=2, min_degree=1)
        assert index.hub_ids == [0, 1]

    def test_words_match_neighbor_lists(self):
        graph = barabasi_albert(200, 5, seed=9)
        index = graph.hub_bitmap_index(min_degree=1, max_hubs=16)
        for v in index.hub_ids:
            words = index.words_for(v)
            assert list(unpack_bitmap(words, graph.num_vertices)) == list(
                graph.neighbors(v)
            )

    def test_memoized_and_not_pickled(self):
        import pickle

        graph = barabasi_albert(100, 4, seed=1)
        first = graph.hub_bitmap_index(min_degree=1)
        assert graph.hub_bitmap_index(min_degree=1) is first
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._hub_cache == {}
