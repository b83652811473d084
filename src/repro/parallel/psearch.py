"""The replicated BIG_LOOP of P-AutoClass.

The paper parallelizes only ``base_cycle``; the surrounding search
control flow (select J, converge a try, eliminate duplicates, pick the
best) runs *replicated* on every rank.  That is sound because every
decision the loop takes is a deterministic function of

* the shared seed (J selection, weight initialization), and
* globally Allreduced scores (convergence, duplicate detection,
  ranking),

so all ranks take identical branches with zero extra communication.
Replicated means *the same code*: the loop and the try body are
:func:`repro.engine.search.run_search` / :func:`~repro.engine.search.
run_try` — sequential AutoClass is their P = 1 case — and this module
only supplies the communicating reducer
(:mod:`repro.parallel.reducers`) and the try-grouped variant's
split / ownership / merge logic.
"""

from __future__ import annotations

import contextlib

from repro.data.database import Database
from repro.data.partition import partition_bounds
from repro.data.shards import data_digest, is_streamable
from repro.engine.search import (
    SearchConfig,
    SearchResult,
    TryResult,
    assign_duplicates,
    check_stream,
    run_search,
    run_try,
    search_config_for,
)
from repro.models.registry import ModelSpec
from repro.mpc.api import Communicator
from repro.obs import recorder as obs
from repro.parallel.reducers import reducer_for
from repro.util.rng import SeedSequenceStream


def check_try_groups(
    try_groups: int | str | None, world_size: int | None = None
) -> None:
    """Validate a ``try_groups`` option: ``None``, ``"auto"`` or an int
    (never a bool) ``>= 1`` — and, when the world size is known, at most
    that (every group needs at least one rank)."""
    if try_groups is None or try_groups == "auto":
        return
    if not isinstance(try_groups, int) or isinstance(try_groups, bool):
        raise ValueError(
            f"try_groups must be None, 'auto', or an int, got {try_groups!r}"
        )
    if try_groups < 1:
        raise ValueError(f"try_groups must be >= 1, got {try_groups}")
    if world_size is not None and try_groups > world_size:
        raise ValueError(
            f"try_groups={try_groups} exceeds the world size "
            f"(n_processors={world_size})"
        )


def pack_tries(
    config: SearchConfig, n_items: int, sizes: list[int]
) -> tuple[list[int], int]:
    """Longest-first packing of the tries onto groups of ``sizes`` ranks.

    A ``J``-class try on a group of ``s`` ranks costs its busiest rank
    ``ceil(N / s) * J`` item-class cells per cycle — the E- and M-step
    work the cycle is made of.  Tries are taken by decreasing J (ties:
    the lower try index), each to the group where it would finish first
    (ties: the lower group).  A try past the end of ``start_j_list`` —
    whose J is drawn from the seed — is priced at the list's largest J.
    Returns the owning group of every try and the makespan: the cells
    per cycle of the most loaded group.
    """
    top = max(config.start_j_list)
    js = [
        config.start_j_list[k] if k < len(config.start_j_list) else top
        for k in range(config.max_n_tries)
    ]
    rows = [-(-n_items // size) for size in sizes]  # ceil(N / s)
    loads = [0] * len(sizes)
    owner = [0] * len(js)
    for k in sorted(range(len(js)), key=lambda k: (-js[k], k)):
        finish = [load + r * js[k] for load, r in zip(loads, rows)]
        owner[k] = g = finish.index(min(finish))
        loads[g] = finish[g]
    return owner, max(loads)


def group_sizes(world_size: int, n_groups: int) -> list[int]:
    """Rank count of each group (the :func:`group_color` blocks)."""
    return [
        hi - lo
        for lo, hi in (
            partition_bounds(world_size, n_groups, g) for g in range(n_groups)
        )
    ]


def predicted_makespan(
    config: SearchConfig, n_items: int, world_size: int, n_groups: int
) -> int:
    """The rule's makespan (cells per cycle) with ``n_groups`` groups."""
    return pack_tries(config, n_items, group_sizes(world_size, n_groups))[1]


def resolve_try_groups(
    try_groups: int | str | None,
    world_size: int,
    config: SearchConfig,
    n_items: int,
) -> int:
    """Number of concurrent try groups for a world of ``world_size``.

    ``None``/``"auto"`` — the decomposition rule: of G = 1 ..
    ``min(world_size, max_n_tries)``, the G with the smallest
    :func:`predicted_makespan`, ties to the larger G.  At equal work on
    the busiest rank a larger G has smaller groups, so each cycle's
    Allreduce spans fewer ranks and rounds.  G = 1 is the paper's
    structure, every cycle split over all ranks; it wins when the tries
    cannot be packed evenly, and is the only choice on one rank or for
    one try.  The rule counts work and prices nothing in seconds, so it
    is the same on every backend.  An explicit int must pass
    :func:`check_try_groups`; ``1`` spells the paper's structure.
    """
    check_try_groups(try_groups, world_size)
    if try_groups is not None and try_groups != "auto":
        return try_groups
    spans = [
        predicted_makespan(config, n_items, world_size, g)
        for g in range(1, min(world_size, config.max_n_tries) + 1)
    ]
    best = min(spans)
    return max(g for g, span in enumerate(spans, 1) if span == best)


def run_parallel_search(
    comm: Communicator,
    local_db: Database,
    spec: ModelSpec,
    n_total_items: int,
    config: SearchConfig | None = None,
    full_db: Database | None = None,
    kernels: str | None = None,
    checkpointer=None,
    try_groups: int | str | None = None,
) -> SearchResult:
    """P-AutoClass's BIG_LOOP: replicated control, partitioned data.

    Returns the identical :class:`~repro.engine.search.SearchResult` on
    every rank.

    ``checkpointer`` (a :class:`repro.ckpt.Checkpointer`) follows the
    **rank-0-writes / all-ranks-restore** protocol: the search state at
    a cut point is identical on every rank (that is what the two
    Allreduces guarantee), so rank 0 persists one copy and every rank
    restores from the same file — after which the replicated control
    flow proceeds in lockstep exactly as if the run had never stopped.
    The checkpoint state is *global*, so a search checkpointed on P
    ranks may resume on a different world size.

    ``try_groups`` — resolved by :func:`resolve_try_groups`, the
    decomposition rule when ``None`` or ``"auto"`` — above 1 switches
    on the **two-level** search: the world splits into that many
    sub-communicator groups, each group runs its longest-first share
    of the tries data-parallel over its own block of ``full_db``, and
    the leaders exchange results for a canonical merge (see
    :func:`run_grouped_search`).  Requires ``full_db`` (each group
    re-partitions the input over its own size), in memory or a shard
    view.  An instrumented run records the chosen G and the rule's
    makespans of G = 1 and of the chosen G (cells per cycle) as
    counters.
    """
    streamed = is_streamable(local_db)
    config = search_config_for(config, seedable=not streamed)
    if config.max_seconds is not None:
        raise ValueError(
            "max_seconds is a wall-clock budget and would desynchronize "
            "the replicated control flow; parallel searches use "
            "max_n_tries instead"
        )
    n_groups = resolve_try_groups(
        try_groups, comm.size, config, n_total_items
    )
    rec = obs.current()
    if rec.enabled:
        rec.count("try_groups", n_groups)
        for name, g in (("g1", 1), ("chosen", n_groups)):
            rec.count(
                f"try_groups.makespan_{name}_cells",
                predicted_makespan(config, n_total_items, comm.size, g),
            )
    if n_groups > 1:
        if full_db is None:
            raise ValueError(
                "try-parallel search (try_groups > 1) needs the full "
                "database on every rank; use run_pautoclass "
                "(replicated input)"
            )
        return run_grouped_search(
            comm, spec, n_total_items, config, full_db, n_groups,
            kernels=kernels, checkpointer=checkpointer,
        )
    if config.init_method == "seeded" and full_db is None and not streamed:
        raise ValueError(
            "seeded initialization needs the full database on every rank; "
            "use run_pautoclass (replicated input) or another init_method"
        )
    return run_search(
        local_db, config, spec, checkpointer, kernels=kernels,
        make_reducer=lambda n_classes: reducer_for(comm, n_classes, spec),
        n_total_items=n_total_items, full_db=full_db,
    )


# ---------------------------------------------------------------------------
# two-level search: try-parallel groups over sub-communicators


def group_color(world_size: int, n_groups: int, rank: int) -> int:
    """Group of ``rank`` under a contiguous block partition of the world.

    Contiguous blocks (the same :func:`partition_bounds` rule the data
    partition uses) keep each group's ranks adjacent, so on machines
    where neighbouring ranks are cheap to reach (the simulated mesh) a
    group's collectives stay local.
    """
    for g in range(n_groups):
        lo, hi = partition_bounds(world_size, n_groups, g)
        if lo <= rank < hi:
            return g
    raise ValueError(f"rank {rank} not covered by {n_groups} groups")


def run_grouped_search(
    comm: Communicator,
    spec: ModelSpec,
    n_total_items: int,
    config: SearchConfig,
    full_db: Database,
    n_groups: int,
    *,
    kernels: str | None = None,
    checkpointer=None,
) -> SearchResult:
    """Two-level BIG_LOOP: tries concurrent across groups, data-parallel within.

    The world splits into ``n_groups`` contiguous sub-communicators;
    the tries are packed onto them longest-first (:func:`pack_tries`,
    the rule's own packing — a pure function of the config, so every
    rank computes the same owners).  Each group runs its
    tries exactly as a dedicated world of its size would — same
    ``full_db.block`` (a slice, or a shard view), same per-try RNG
    children (the streams are index-keyed, so out-of-order execution
    draws identical numbers), same reduction schedule over the group's
    ranks — which is why a grouped run's try is *bitwise identical* to
    the same try on a same-size world (tests assert this).

    The merge is deterministic whatever the groups' relative speeds:
    group leaders exchange their completed tries over an ``allgather``
    on a leader sub-communicator, broadcast within their groups, and
    every rank applies
    :func:`repro.engine.search.assign_duplicates` — duplicate links
    recomputed in canonical try order, independent of completion order.

    Checkpointing uses per-try files written by each group's leader
    (:meth:`repro.ckpt.Checkpointer.save_try`) on its writer thread,
    drained before the merge; because the search key
    covers neither world size nor group count, a checkpointed search
    resumes under any ``try_groups``.
    """
    color = group_color(comm.size, n_groups, comm.rank)
    sub = comm.split(color, key=comm.rank)
    leader_comm = comm.split(0 if sub.rank == 0 else None, key=comm.rank)
    local_db = full_db.block(sub.size, sub.rank)
    check_stream(local_db, config)
    spec.validate(local_db.probe())
    stream = SeedSequenceStream(config.seed)
    owner, _span = pack_tries(
        config, n_total_items, group_sizes(comm.size, n_groups)
    )
    rec = obs.current()
    if rec.enabled:
        rec.count("try_group", color)
        rec.count("try_group_size", sub.size)
    completed: dict[int, TryResult] = {}
    partial: dict = {}
    leader = checkpointer is not None and sub.rank == 0
    save_cycle = None
    writing = contextlib.nullcontext()
    if checkpointer is not None:
        checkpointer.bind(
            config, spec, n_total_items, data_digest=data_digest(full_db)
        )
        completed, partial = checkpointer.load_tries(spec)
        if leader and checkpointer.policy == "per_cycle":
            save_cycle = checkpointer.save_try_cycle
        writing = checkpointer.background(leader)
    mine: list[TryResult] = []
    with writing:  # drained here: every try file lands before the merge
        for k in range(config.max_n_tries):
            if owner[k] != color:
                continue
            prior = completed.get(k)
            if prior is not None:
                mine.append(prior)
                continue
            try_result = run_try(
                local_db, spec, config, stream, k,
                lambda n_classes: reducer_for(sub, n_classes, spec),
                n_total_items=n_total_items, full_db=full_db,
                kernels=kernels, resume=partial.get(k), save_cycle=save_cycle,
            )  # its duplicate link is assigned canonically at the merge
            mine.append(try_result)
            if leader:
                checkpointer.save_try(try_result)
    # Merge: leaders exchange group results, groups fan them out, and
    # every rank applies the canonical (order-independent) duplicate
    # assignment — so all ranks hold the identical SearchResult.  The
    # exchange, and the wait in it for the slowest group, is the
    # "merge" communication phase.
    merged: list[TryResult] | None = None
    with rec.phase("merge"):
        if leader_comm is not None:
            merged = [
                t for group in leader_comm.allgather(mine) for t in group
            ]
        merged = sub.bcast(merged, root=0)
    result = SearchResult(config=config)
    result.tries.extend(assign_duplicates(merged, config.duplicate_eps))
    return result
