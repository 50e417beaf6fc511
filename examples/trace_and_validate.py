#!/usr/bin/env python
"""Inspecting a simulation: traces, Gantt charts, and cross-validation.

Shows the tooling around the simulators:

* the :class:`~repro.hw.trace.Tracer` records per-PE timelines, rendered
  as a text Gantt chart — the load-imbalance pathology of power-law
  graphs (paper section 2.3) is directly visible;
* :func:`~repro.mining.validate.cross_validate` runs every executor
  (brute force, reference engine, both accelerators, the software model)
  on one job and checks they agree;
* the cost-model order search (paper section 2.1's compiler topic)
  compares candidate mining orders for a pattern.

Run:  python examples/trace_and_validate.py
"""

from repro import FingersConfig, named_pattern, simulate
from repro.graph import erdos_renyi, load_dataset
from repro.hw.trace import Tracer, render_gantt
from repro.mining.validate import cross_validate
from repro.pattern.compiler import choose_vertex_order, compile_plan
from repro.pattern.ordering import (
    OrderCostModel,
    estimate_plan_cost,
    search_vertex_order,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Trace a run on a skewed graph and render the timeline.
    # ------------------------------------------------------------------
    graph = load_dataset("Lj")
    roots = list(range(0, graph.num_vertices, 32))
    tracer = Tracer()
    result = simulate(
        graph, "tc", FingersConfig(num_pes=6), roots=roots, tracer=tracer
    )
    print(f"tc on the LiveJournal analog, 6 PEs: {result.cycles:,.0f} cycles, "
          f"imbalance {result.load_imbalance:.2f}")
    print("timeline ('#' = task groups, '.' = memory stalls):")
    print(render_gantt(tracer, width=66))
    for pid in range(6):
        print(f"  PE{pid}: busy fraction {tracer.busy_fraction(pid):.2f}")

    # ------------------------------------------------------------------
    # 2. Cross-validate every executor on one small job.
    # ------------------------------------------------------------------
    small = erdos_renyi(25, 0.3, seed=42)
    report = cross_validate(small, "tt", include_software=True)
    print()
    print(report)
    assert report.consistent

    # ------------------------------------------------------------------
    # 3. Compare mining orders under the cost model.
    # ------------------------------------------------------------------
    pattern = named_pattern("dia")
    model = OrderCostModel.from_graph(graph)
    greedy = choose_vertex_order(pattern)
    searched = search_vertex_order(pattern, model=model)
    print("\nmining-order search for the diamond pattern:")
    for label, order in (("greedy", greedy), ("searched", searched)):
        plan = compile_plan(pattern, order=order)
        cost = estimate_plan_cost(plan, model)
        print(f"  {label:9s} order={list(order)}  estimated work={cost:,.0f}")


if __name__ == "__main__":
    main()
