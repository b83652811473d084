"""The one world launcher: run an SPMD program on a named world.

The repo has four worlds — ``"serial"`` (one in-process rank),
``"threads"``, ``"processes"`` (forked, over a pipe mesh) and ``"sim"``
(the virtual-time CS-2).  Each has its own ``run_spmd_*`` entry point
with its own extras; :func:`run_world` is the single name → entry
mapping every caller above the message-passing layer uses (fitting in
:mod:`repro.api`, bulk scoring in :mod:`repro.serve.sharded`), so the
worlds cannot be wired differently in different places.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mpc.api import CollectiveConfig
from repro.mpc.procworld import run_spmd_processes
from repro.mpc.serial import SerialComm
from repro.mpc.threadworld import run_spmd_threads

#: World names :func:`run_world` accepts.
WORLDS = ("serial", "threads", "processes", "sim")


def run_world(
    world: str,
    n: int,
    fn: Callable,
    *args,
    collectives: CollectiveConfig | None = None,
    transport: str | None = None,
    tracer=None,
) -> tuple[list, float | None]:
    """Run ``fn(comm, *args)`` on ``n`` ranks of ``world``.

    Returns ``(results, sim_elapsed)``: the rank-ordered return values,
    and the virtual elapsed seconds on ``"sim"`` (``None`` on the
    wall-clocked worlds).  ``transport`` is the processes world's
    transport name (``None``, ``"shm"`` and ``"pipe"`` all mean its one
    wire, the pipe mesh; ``"shm"`` is an alias kept for
    ``benchmarks/e2e``; the other worlds ignore it);
    ``tracer`` — a :class:`repro.simnet.trace.Tracer` — records the sim
    world's virtual-time schedule.  The sim world is the paper's CS-2
    with counted compute, the setting every library-level caller wants;
    experiments that vary the machine call ``run_spmd_sim`` themselves.
    """
    if world not in WORLDS:
        raise ValueError(f"backend {world!r} not in {WORLDS}")
    if n < 1:
        raise ValueError(f"n_processors must be >= 1, got {n}")
    if world == "serial":
        if n != 1:
            raise ValueError("serial backend supports exactly 1 processor")
        return [fn(SerialComm(collectives), *args)], None
    if world == "threads":
        return run_spmd_threads(fn, n, *args, collectives=collectives), None
    if world == "processes":
        return run_spmd_processes(
            fn, n, *args, collectives=collectives,
            transport=transport or "pipe",
        ), None
    # Only a sim launch needs the simulator; the wall-clock worlds (and
    # their forked children) never load it.
    from repro.simnet.machine import meiko_cs2
    from repro.simnet.simworld import run_spmd_sim

    sim = run_spmd_sim(
        fn, n, meiko_cs2(n), *args, collectives=collectives, tracer=tracer
    )
    return sim.results, sim.elapsed
