"""P-AutoClass's one SPMD fit program: the replicated BIG_LOOP.

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
run_try` — sequential AutoClass is their P = 1 case, one group on one
rank — and this module's :func:`run_pautoclass`, the program every
rank runs, only supplies the decomposition: this rank's block of the
input, the communicating reducer (:mod:`repro.parallel.reducers`), the
rule that picks the number of try groups, and for G > 1 the group
split, each group's tries and block of the data, and the merge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.database import Database
from repro.data.partition import partition_bounds
from repro.data.shards import is_streamable
from repro.engine.search import (
    SearchConfig,
    SearchResult,
    TryResult,
    run_search,
    search_config_for,
)
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.api import Communicator
from repro.obs import recorder as obs
from repro.parallel.reducers import reducer_for

if TYPE_CHECKING:
    from repro.ckpt import CheckpointSpec


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


def run_pautoclass(
    comm: Communicator,
    db: Database,
    config: SearchConfig | None = None,
    spec: ModelSpec | None = None,
    ckpt: "CheckpointSpec | None" = None,
    try_groups: int | str | None = None,
) -> SearchResult:
    """P-AutoClass — the one SPMD fit program, run by every rank.

    Every rank is handed the whole input, ``db``: an in-memory
    :class:`~repro.data.database.Database` or a
    :class:`~repro.data.shards.ShardedDatabase` view, and fits its own
    block of it, ``db.block(size, rank)`` — a zero-copy slice, or a
    shard view that maps only the shards overlapping the block, so no
    rank reads another rank's rows and a streamed search keeps O(chunk)
    peak heap (it needs a streamable ``init_method``).  Returns the
    identical :class:`~repro.engine.search.SearchResult` on every rank.
    ``spec`` defaults to the model derived from ``db``'s summary.

    ``ckpt`` — a picklable :class:`repro.ckpt.CheckpointSpec` — makes
    the search durable under the **rank-0-of-the-group writes /
    all-ranks-restore** protocol: the search state at a cut point is
    identical on every rank of the communicator the search runs on
    (that is what the two Allreduces guarantee), so its rank 0 persists
    one copy and every rank restores from the same files — after which
    the replicated control flow proceeds in lockstep exactly as if the
    run had never stopped.  The checkpoint state is *global*, so a
    search checkpointed on P ranks may resume on a different world size
    and under any ``try_groups``.

    ``try_groups`` — resolved by :func:`resolve_try_groups`, the
    decomposition rule when ``None`` or ``"auto"`` — above 1 switches
    on the **two-level** search.  The world splits into that many
    contiguous sub-communicator groups (:func:`group_color`); each runs
    the one BIG_LOOP over its longest-first share of the tries
    (:func:`pack_tries` — a pure function of the config, so every rank
    computes the same owners), data-parallel over its own block of
    ``db``.  Per-try RNG children are index-keyed and the reduction
    schedule is the group's, so a grouped try is *bitwise identical* to
    the same try on a same-size world.  The merge is deterministic
    whatever the groups' relative speeds: group leaders exchange their
    tries over an ``allgather`` on a leader sub-communicator and
    broadcast them within their groups; the loop then assigns duplicate
    links canonically.  G = 1 is the paper's row split over the whole
    world: no split, no merge.  An instrumented run records the chosen
    G and the rule's makespans of G = 1 and of the chosen G (cells per
    cycle) as counters, and a grouped one each rank's group and group
    size.
    """
    config = search_config_for(config, seedable=not is_streamable(db))
    if config.max_seconds is not None:
        raise ValueError(
            "max_seconds is a wall-clock budget and would desynchronize "
            "the replicated control flow; parallel searches use "
            "max_n_tries instead"
        )
    if spec is None:
        spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    n_groups = resolve_try_groups(try_groups, comm.size, config, db.n_items)
    rec = obs.current()
    if rec.enabled:
        rec.count("try_groups", n_groups)
        for name, g in (("g1", 1), ("chosen", n_groups)):
            rec.count(
                f"try_groups.makespan_{name}_cells",
                predicted_makespan(config, db.n_items, comm.size, g),
            )
    checkpointer = None if ckpt is None else ckpt.build(comm.rank)
    group, tries, merge = comm, None, None
    if n_groups > 1:
        color = group_color(comm.size, n_groups, comm.rank)
        group = comm.split(color, key=comm.rank)
        leaders = comm.split(0 if group.rank == 0 else None, key=comm.rank)
        owner, _span = pack_tries(
            config, db.n_items, group_sizes(comm.size, n_groups)
        )
        tries = [k for k, g in enumerate(owner) if g == color]
        if checkpointer is not None:
            checkpointer = checkpointer.for_group(group.rank)
        if rec.enabled:
            rec.count("try_group", color)
            rec.count("try_group_size", group.size)

        def merge(mine: list[TryResult]) -> list[TryResult]:
            # the exchange, and the wait in it for the slowest group, is
            # the "merge" communication phase
            with rec.phase("merge"):
                merged = None
                if leaders is not None:
                    merged = [
                        t for got in leaders.allgather(mine) for t in got
                    ]
                return group.bcast(merged, root=0)

    return run_search(
        db.block(group.size, group.rank), config, spec, checkpointer,
        make_reducer=lambda n_classes: reducer_for(group, n_classes, spec),
        n_total_items=db.n_items, full_db=db, tries=tries, merge=merge,
    )
