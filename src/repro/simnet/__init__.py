"""simnet — a virtual-time multicomputer.

The paper's experiments ran on a Meiko CS-2: 10 SPARC processors on a
fat tree with 50 MB/s links.  No such machine (nor any multi-core
parallelism) exists in this environment, so this package provides the
substitute: an SPMD world whose ranks run the *real* computation on
real threads while a **virtual clock** prices what that execution would
have cost on the modelled machine:

* compute is priced by the work the engine kernels report, counted
  against a model anchored to the paper's SPARC cycle cost
  (:mod:`repro.simnet.workmodel`) — host time never enters the clock;
* each message is priced by a Hockney-style model — software overhead +
  per-hop latency over the modelled topology + size/bandwidth;
* collectives are *not* given closed-form costs: they execute their
  actual point-to-point rounds (see :mod:`repro.mpc.collectives`), so
  their virtual cost emerges from the algorithm.

Numerical results are therefore bit-for-bit those of a real run; only
the clock is synthetic.  See DESIGN.md ("Substitutions") for why this
preserves the speedup/scaleup behaviour the paper measures.
"""

from repro.simnet.costmodel import CostModel
from repro.simnet.machine import MEIKO_CS2, MachineSpec, meiko_cs2
from repro.simnet.simworld import SimComm, SimRunResult, run_spmd_sim
from repro.simnet.trace import TraceEvent, Tracer, render_timeline
from repro.simnet.topology import (
    Crossbar,
    FatTree,
    Hypercube,
    Mesh2D,
    Ring,
    Topology,
)

__all__ = [
    "Crossbar",
    "CostModel",
    "FatTree",
    "Hypercube",
    "MEIKO_CS2",
    "MachineSpec",
    "Mesh2D",
    "Ring",
    "SimComm",
    "SimRunResult",
    "Topology",
    "TraceEvent",
    "Tracer",
    "meiko_cs2",
    "render_timeline",
    "run_spmd_sim",
]
