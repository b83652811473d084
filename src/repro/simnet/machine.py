"""Machine specifications — the parameters of the modelled multicomputer.

A :class:`MachineSpec` fixes everything the virtual clock charges for
communication: per-message software overheads, network
latency/bandwidth, reduction arithmetic, and the topology.
:func:`meiko_cs2` builds the paper's platform.

Numbers for the CS-2 come from the paper (10 SPARC processors, fat
tree, 50 MB/s per direction) and from published CS-2 MPI measurements of
the era (~10-20 us one-way small-message latency).  Compute is priced
separately, by the counted work model
(:class:`repro.simnet.workmodel.WorkModel`), which is anchored to the
per-(item x class) cycle cost implied by the paper's Figure 8
(:data:`SPARC_SECONDS_PER_ITEM_CLASS`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.simnet.topology import FatTree, Topology
from repro.util.validation import check_positive

#: Seconds per base_cycle per (item x class) on the paper's SPARC nodes,
#: implied by Figure 8 (J=8, 10 000 tuples/processor, ~0.33 s/cycle,
#: two real attributes): 0.33 / (10_000 * 8).
SPARC_SECONDS_PER_ITEM_CLASS = 0.33 / (10_000 * 8)


@dataclass(frozen=True)
class MachineSpec:
    """Everything the virtual clock charges for.

    Attributes
    ----------
    name:
        Human-readable platform name.
    send_overhead / recv_overhead:
        Software cost a rank pays on its own clock per message posted /
        delivered (the "o" of LogP).
    latency:
        Base one-way wire latency per message, excluding hops.
    per_hop:
        Additional latency per link of the route.
    bandwidth:
        Link bandwidth in bytes/second (per direction, uncontended).
    reduce_seconds_per_byte:
        Compute charged per payload byte combined in a reduction
        (models the arithmetic inside Allreduce on the slow CPU).
    topology:
        Interconnect model; also fixes the world size.
    """

    name: str
    send_overhead: float
    recv_overhead: float
    latency: float
    per_hop: float
    bandwidth: float
    reduce_seconds_per_byte: float
    topology: Topology

    def __post_init__(self) -> None:
        check_positive("send_overhead", self.send_overhead, strict=False)
        check_positive("recv_overhead", self.recv_overhead, strict=False)
        check_positive("latency", self.latency, strict=False)
        check_positive("per_hop", self.per_hop, strict=False)
        check_positive("bandwidth", self.bandwidth)
        check_positive(
            "reduce_seconds_per_byte", self.reduce_seconds_per_byte, strict=False
        )

    @property
    def n_processors(self) -> int:
        return self.topology.n_nodes

    def with_processors(self, n: int) -> "MachineSpec":
        """Same machine, resized world (same topology family)."""
        topo_cls = type(self.topology)
        kwargs = {}
        if hasattr(self.topology, "arity"):
            kwargs["arity"] = self.topology.arity
        return replace(self, topology=topo_cls(n, **kwargs))

    def with_topology(self, topology: Topology) -> "MachineSpec":
        return replace(self, topology=topology)


#: Raw Elan-network small-message latency of the CS-2 hardware (~10 us,
#: published NIC figures).  Used by microbenchmarks that study the
#: network itself.
CS2_RAW_LATENCY = 12e-6

#: Effective per-message cost of the *paper's* MPI stack, inferred from
#: its Figure 7: with the Figure-5 communication structure (one small
#: Allreduce per class per attribute, i.e. ~2J+1 collectives per cycle)
#: the reported speedup peaks — 4 processors for 5 000 tuples, 8 for
#: 10 000 — pin the per-round collective cost at ~1.75 ms
#: (P*(n) = n * kappa * ln2 * (sum J) / (n_allreduces * round_cost); both
#: stated peaks solve to the same constant).  The CS-2's raw hardware was
#: ~100x faster; the gap is the era's MPI software stack, which we fold
#: into this effective latency so the simulated crossovers land where
#: the measured ones did.  See EXPERIMENTS.md for the derivation.
CS2_EFFECTIVE_MPI_LATENCY = 1.7e-3


def meiko_cs2(
    n_processors: int = 10,
    *,
    latency: float = CS2_EFFECTIVE_MPI_LATENCY,
    comm_scale: float = 1.0,
) -> MachineSpec:
    """The paper's platform: Meiko CS-2, up to 10 SPARC processors.

    ``latency`` defaults to the effective per-message MPI cost inferred
    from the paper (see :data:`CS2_EFFECTIVE_MPI_LATENCY`); pass
    :data:`CS2_RAW_LATENCY` to model the bare hardware instead.

    ``comm_scale`` multiplies every latency/overhead constant; the
    experiment harness uses it to shrink communication in lock-step
    with scaled-down workloads so that comm/compute ratios — and hence
    every curve's shape — are preserved (compute is linear in the item
    count, message latencies are not).
    """
    check_positive("comm_scale", comm_scale)
    return MachineSpec(
        name=f"Meiko CS-2 ({n_processors} SPARC, fat tree, 50 MB/s)",
        send_overhead=25e-6 * comm_scale,
        recv_overhead=25e-6 * comm_scale,
        latency=latency * comm_scale,
        per_hop=0.5e-6 * comm_scale,
        bandwidth=50e6,
        reduce_seconds_per_byte=2e-8,  # ~ one flop per 8-byte word at 50 MFLOPS
        topology=FatTree(n_processors, arity=4),
    )


#: Default 10-processor CS-2.
MEIKO_CS2 = meiko_cs2()
