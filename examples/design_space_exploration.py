#!/usr/bin/env python
"""Architect's view: explore the FINGERS design space under an area budget.

Uses the area model (paper Table 2) and the timing model together the way
section 6.4 does: sweep the IU count under the iso-area rule
(#IUs x segment length = constant), compare task-group sizing policies,
and pick a configuration for a target workload.

Run:  python examples/design_space_exploration.py
"""

from repro import FingersConfig, simulate
from repro.graph import load_dataset
from repro.hw.area import (
    fingers_pe_area,
    iso_area_segment_length,
    scale_28_to_15,
)


def main() -> None:
    graph = load_dataset("Yo")
    roots = list(range(0, graph.num_vertices, 4))
    workload = "tt"
    print(
        f"target workload: {workload} on the Youtube analog "
        f"({graph.num_vertices} vertices, avg degree {graph.avg_degree():.1f})"
    )

    # ------------------------------------------------------------------
    # Iso-area IU sweep (the Figure 12 experiment, condensed).
    # ------------------------------------------------------------------
    print("\n#IUs  s_l  PE area(mm2@28nm)  cycles        speedup-vs-1IU")
    base_cycles = None
    best = None
    for num_ius in (1, 4, 8, 16, 24, 48):
        seg = iso_area_segment_length(num_ius)
        cfg = FingersConfig(num_pes=1, num_ius=num_ius, long_segment_len=seg)
        area = fingers_pe_area(cfg).total
        res = simulate(graph, workload, cfg, roots=roots)
        if base_cycles is None:
            base_cycles = res.cycles
        speedup = base_cycles / res.cycles
        marker = ""
        if best is None or res.cycles < best[1]:
            best = (num_ius, res.cycles)
            marker = "  <- best so far"
        print(
            f"{num_ius:4d}  {seg:3d}  {area:17.3f}  {res.cycles:12,.0f}"
            f"  {speedup:14.2f}{marker}"
        )
    print(f"\nbest iso-area configuration: {best[0]} IUs")

    # ------------------------------------------------------------------
    # Task-group sizing (the pseudo-DFS knob of section 4.1).
    # ------------------------------------------------------------------
    print("\ntask-group size sensitivity (paper: 'performance is insensitive"
          " to these parameters'):")
    auto = simulate(graph, workload, FingersConfig(num_pes=1), roots=roots)
    print(f"  auto policy (chose {auto.task_group_size}): "
          f"{auto.cycles:12,.0f} cycles")
    for size in (1, 2, 4, 8, 16):
        cfg = FingersConfig(num_pes=1, task_group_size=size)
        res = simulate(graph, workload, cfg, roots=roots)
        print(f"  group size {size:2d}:          {res.cycles:12,.0f} cycles"
              f"  ({auto.cycles / res.cycles:.2f}x vs auto)")

    # ------------------------------------------------------------------
    # Chip-level: PEs under a fixed area budget.
    # ------------------------------------------------------------------
    print("\nchip-level scaling at the paper's default PE:")
    pe_area_15 = scale_28_to_15(fingers_pe_area().total)
    for num_pes in (5, 10, 20):
        res = simulate(graph, workload, FingersConfig(num_pes=num_pes),
                       roots=roots)
        print(
            f"  {num_pes:2d} PEs ({num_pes * pe_area_15:5.2f} mm2 @15nm): "
            f"{res.cycles:12,.0f} cycles, "
            f"load imbalance {res.load_imbalance:.2f}"
        )


if __name__ == "__main__":
    main()
