"""End-to-end replication of the paper's running example (Figures 1-2).

The paper walks the tailed-triangle pattern through a 5-vertex input
graph.  This test reproduces every artifact of that walkthrough: the set
operation schedule, the symmetric-breaking restriction, the candidate
sets along the branch the paper narrates, and the final embeddings.
"""

import numpy as np
import pytest

from repro.graph import from_edges
from repro.mining import count, embeddings
from repro.mining.engine import count_embeddings, list_embeddings
from repro.mining.api import plan_for
from repro.pattern import OpKind, compile_plan, named_pattern
from repro.setops.kernels import merge_subtract


@pytest.fixture
def figure1_graph():
    """The input graph of Figure 1 with paper vertices 1..5 -> ids 0..4.

    Edges reconstructed from the walkthrough: 2-1, 2-3, 2-4, 2-5, 1-3
    (so N(2) = {1,3,4,5}, the tails 4 and 5 hang off vertex 2 only, and
    S3(2) on branch 2-3 is {4,5} once the mapped vertex is excluded).
    """
    return from_edges([(1, 0), (1, 2), (1, 3), (1, 4), (0, 2)])


@pytest.fixture
def tt_plan():
    return compile_plan(named_pattern("tt"), order=[0, 1, 2, 3])


class TestFigure2Schedule:
    """The compiled plan must be exactly the algorithm of Figure 2."""

    def test_level0_shares_n_u0(self, tt_plan):
        # Line 3: S1 = S2(1) = S3(1) = N(u0) — one op serving all levels.
        ops = tt_plan.levels[0].ops
        assert len(ops) == 1
        assert ops[0].kind is OpKind.INIT_COPY
        assert ops[0].serves == (1, 2, 3)

    def test_level1_two_ops(self, tt_plan):
        # Lines 5-6: S2 = N(u0) ∩ N(u1); S3(2) = N(u0) − N(u1).
        kinds = {op.kind for op in tt_plan.levels[1].ops}
        assert kinds == {OpKind.INTERSECT, OpKind.SUBTRACT}

    def test_level2_final_subtraction(self, tt_plan):
        # Line 9: S3 = S3(2) − N(u2).
        ops = tt_plan.levels[2].ops
        assert len(ops) == 1
        assert ops[0].kind is OpKind.SUBTRACT

    def test_symmetry_restriction_on_u1_u2(self, tt_plan):
        # Figure 1: "symmetric breaking: u1 > u2" — one restriction over
        # the symmetric pair {1, 2} (we emit the equivalent v1 < v2).
        assert len(tt_plan.restrictions) == 1
        r = tt_plan.restrictions[0]
        assert {r.smaller, r.larger} == {1, 2}


class TestFigure1Walkthrough:
    """Replay the branch 2-3 (ids 1-2) that the paper narrates."""

    def test_s1_is_neighbors_of_2(self, figure1_graph):
        # "if at level 0 we choose u0 = 2, then u1 can be any vertex in
        # S1 = N(u0) = {1, 3, 4, 5}" (ids {0, 2, 3, 4}).
        assert list(figure1_graph.neighbors(1)) == [0, 2, 3, 4]

    def test_s3_2_on_branch_2_3(self, figure1_graph):
        # "we can compute S3(2) = N(u0) − N(u1) = {4, 5}" (ids {3, 4}).
        # The raw subtraction also still contains u1 itself (the paper's
        # figure drops mapped vertices implicitly); the engine removes it
        # with the injectivity filter at extension time.
        n_u0 = figure1_graph.neighbors(1)
        n_u1 = figure1_graph.neighbors(2)
        s32 = merge_subtract(n_u0, n_u1)
        assert list(s32) == [2, 3, 4]
        from repro.setops.merge import exclude_values

        assert list(exclude_values(s32, [2])) == [3, 4]

    def test_reuse_for_u2_equals_1(self, figure1_graph):
        # "when u2 = 1, S3 = S3(2) − N(u2) = {4, 5}, resulting in the
        # final results 2-3-1-4 and 2-3-1-5" (u2 = 1 is id 0).
        from repro.setops.merge import exclude_values

        n_u0 = figure1_graph.neighbors(1)
        n_u1 = figure1_graph.neighbors(2)
        s32 = exclude_values(
            merge_subtract(n_u0, n_u1), [2]
        )
        s3 = merge_subtract(s32, figure1_graph.neighbors(0))
        assert list(s3) == [3, 4]

    def test_final_embeddings(self, figure1_graph):
        # The search tree of Figure 1 yields exactly two tailed
        # triangles: paper tuples {2,3,1,4} and {2,3,1,5} up to the
        # automorphism on (u1, u2).
        found = embeddings(figure1_graph, "tt")
        assert len(found) == 2
        as_sets = {frozenset(e) for e in found}
        assert frozenset({1, 2, 0, 3}) in as_sets  # paper {2, 3, 1, 4}
        assert frozenset({1, 2, 0, 4}) in as_sets  # paper {2, 3, 1, 5}

    def test_pruned_branch_2_1(self, figure1_graph, tt_plan):
        # Figure 1 marks branch 2-1-3 as pruned by the restriction
        # (automorphic to 2-3-1): rooted at vertex 2 (id 1) the count is
        # exactly the two surviving embeddings, not four.
        assert count_embeddings(figure1_graph, tt_plan, roots=[1]) == 2

    def test_only_root_2_produces_embeddings(self, figure1_graph, tt_plan):
        # The triangle {1,2,3} (ids {0,1,2}) has its tail only at vertex
        # 2 (id 1); every tailed triangle is rooted at u0 = 2.
        for root in [0, 2, 3, 4]:
            assert count_embeddings(figure1_graph, tt_plan, roots=[root]) == 0


class TestAcceleratorOnFigure1:
    def test_all_executors_agree(self, figure1_graph):
        from repro.mining.validate import cross_validate

        report = cross_validate(figure1_graph, "tt", include_software=True)
        assert report.consistent
        assert report.counts["engine"] == 2
