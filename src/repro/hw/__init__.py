"""Cycle-approximate hardware timing models of FINGERS and FlexMiner.

The models are *functionally exact* (they execute the same plan IR as the
reference engine and must produce identical counts — enforced by tests)
and *temporally approximate*: instead of simulating every wire, they
charge cycle costs according to the microarchitectural contracts stated
in the paper (see DESIGN.md section 5) and model the memory system with
sectored LRU caches and a bandwidth/latency DRAM model.

Layout
------
``config``     configuration dataclasses for both designs
``memory``     DRAM model
``cache``      shared / private sectored caches, stream buffers
``noc``        PE <-> shared-cache interconnect
``iu``         intersect-unit pool: work-item scheduling, costs and the
               task-divider phase (head lists, chunking)
``collector``  result-collector datapath, event by event (validation only)
``stats``      counters: cycles, active rate, balance rate, miss rates
``tree``       the job's search-tree trace, built once and replayed
``pe``         trace build, the shared PE traversal, and the FINGERS
               processing element (pseudo-DFS, task groups)
``flexminer``  the baseline processing element (strict DFS, serial ops)
``chip``       the simulator driver: root scheduler, event loop, result
               assembly (shared with the software model in ``repro.sw``)
``trace``      event tracer and text Gantt rendering
``area``       area/power model (paper Table 2) and iso-area helpers
``api``        `simulate` front door
"""

from repro.hw.config import FingersConfig, FlexMinerConfig, MemoryConfig
from repro.hw.api import simulate

__all__ = [
    "FingersConfig",
    "FlexMinerConfig",
    "MemoryConfig",
    "simulate",
]
