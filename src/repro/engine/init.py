"""Classification initialization.

AutoClass starts each try from randomized class memberships and lets the
first M-step turn them into parameters.  Two weight initializers:

* ``"dirichlet"`` — each item's membership row drawn from a flat
  Dirichlet (soft random start; the default);
* ``"sharp"`` — each item assigned wholly to one uniformly random class
  (AutoClass's random-assignment start).

For parallel runs every rank consumes the try's deterministic stream
exactly as one full-range draw would and keeps its block's rows —
guaranteeing the parallel run starts from exactly the state the
sequential run starts from (the basis of the equivalence tests).
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.data.partition import partition_bounds
from repro.data.shards import TILE_ITEMS, as_chunk_iterable, is_streamable
from repro.engine.classification import Classification
from repro.engine.cycle import LocalReducer
from repro.engine.params import finalize_parameters, local_update_parameters
from repro.models.registry import ModelSpec

INIT_METHODS = ("dirichlet", "sharp", "seeded")

#: Init methods whose random draws consume the RNG bitstream strictly
#: item-by-item, so drawing them chunk-by-chunk yields bitwise the
#: same weights as one full-range draw.  ``"seeded"`` needs global
#: pairwise distances and therefore the materialized database.
STREAMABLE_INIT_METHODS = ("dirichlet", "sharp")


def random_weights(
    n_items: int,
    n_classes: int,
    rng: np.random.Generator,
    method: str = "dirichlet",
    db: Database | None = None,
) -> np.ndarray:
    """Random ``(n_items, n_classes)`` membership weights (rows sum to 1).

    ``"seeded"`` assigns each item to the nearest of ``n_classes``
    randomly chosen seed items (distance over the real attributes,
    standardized per attribute) — a k-means-style start that lands EM in
    good basins far more often than symmetric random weights.  It needs
    the database; without real attributes it degrades to ``"sharp"``.
    """
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    if method == "dirichlet":
        return rng.dirichlet(np.ones(n_classes), size=n_items)
    if method == "sharp":
        wts = np.zeros((n_items, n_classes), dtype=np.float64)
        wts[np.arange(n_items), rng.integers(0, n_classes, size=n_items)] = 1.0
        return wts
    if method == "seeded":
        if db is None:
            raise ValueError("seeded init needs the database")
        if db.n_items != n_items:
            raise ValueError(
                f"database has {db.n_items} items, expected {n_items}"
            )
        return _seeded_weights(db, n_classes, rng)
    raise ValueError(f"unknown init method {method!r}; choose from {INIT_METHODS}")


def _seeded_weights(
    db: Database, n_classes: int, rng: np.random.Generator
) -> np.ndarray:
    real_idx = db.schema.real_indices
    n_items = db.n_items
    if n_items < n_classes:
        # Fewer items than requested seeds: rng.choice(replace=False)
        # below would raise an opaque numpy error.  Fail with an
        # actionable message instead — the caller asked for more classes
        # than this (shard of the) database can seed.
        raise ValueError(
            f"seeded init needs at least n_classes={n_classes} items to "
            f"draw distinct seeds, but the database (shard) has only "
            f"{n_items}; reduce n_classes or use init_method='sharp'"
        )
    if not real_idx:
        return random_weights(n_items, n_classes, rng, method="sharp")
    # Standardized real matrix with missing cells at the column mean
    # (distance-neutral).
    cols = []
    for i in real_idx:
        mean, var = db.global_real_stats(i)
        col = np.where(db.missing[i], mean, db.columns[i])
        cols.append((col - mean) / np.sqrt(var))
    x = np.column_stack(cols)
    seeds = rng.choice(n_items, size=n_classes, replace=False)
    d2 = ((x[:, None, :] - x[seeds][None, :, :]) ** 2).sum(axis=-1)
    wts = np.zeros((n_items, n_classes), dtype=np.float64)
    wts[np.arange(n_items), d2.argmin(axis=1)] = 1.0
    return wts


def classification_from_weights(
    db: Database, spec: ModelSpec, wts: np.ndarray,
    *, kernels: str | None = None,
) -> Classification:
    """M-step on given weights — the sequential initialization finisher."""
    if wts.shape[0] != db.n_items:
        raise ValueError(
            f"weights rows {wts.shape[0]} != database items {db.n_items}"
        )
    stats = local_update_parameters(db, spec, wts, kernels=kernels)
    w_j = wts.sum(axis=0)
    log_pi, term_params = finalize_parameters(spec, stats, w_j, db.n_items)
    return Classification(
        spec=spec,
        n_classes=wts.shape[1],
        log_pi=log_pi,
        term_params=term_params,
    )


def initial_classification(
    db,
    spec: ModelSpec,
    n_classes: int,
    rng: np.random.Generator,
    method: str = "dirichlet",
    kernels: str | None = None,
    *,
    n_total_items: int | None = None,
    reducer: LocalReducer | None = None,
    full_db: Database | None = None,
) -> Classification:
    """Random weights + first M-step, in one call.

    Same ``chunks x reducer`` shape as the EM cycle
    (:mod:`repro.engine.cycle`).  With the defaults ``db`` is the whole
    database and this is the sequential initializer; a parallel rank
    passes its block, the global item count and its reducer, and starts
    from exactly the sequential state: the streamable initializers
    consume the RNG bitstream strictly item-by-item (see
    :data:`STREAMABLE_INIT_METHODS`), so the rank draws-and-discards the
    rows before its block, then draws its own rows chunk by chunk —
    bitwise the rows of one full-range draw — straight into the packed
    statistics; one ``[w_j, stats]`` reduction yields the identical
    starting parameters on every rank.  Peak heap is O(chunk x J): the
    ``(N, J)`` weight matrix is never materialized.

    ``"seeded"`` needs global pairwise distances: the weights are drawn
    against the full in-memory database (``full_db``, or ``db`` itself
    when it is the whole range) and sliced to the block.
    """
    if reducer is None:
        reducer = LocalReducer()
    if n_total_items is None:
        n_total_items = db.n_items
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    streamed = is_streamable(db)
    lo, hi = partition_bounds(n_total_items, reducer.size, reducer.rank)
    # A view knows its global offset; an in-memory block only its length.
    held = db.bounds if streamed and reducer.size > 1 else (lo, lo + db.n_items)
    if held != (lo, hi):
        raise ValueError(
            f"rank {reducer.rank}: block has {db.n_items} items but "
            f"partition bounds give {(lo, hi)}"
        )
    if method in STREAMABLE_INIT_METHODS:
        for skip in range(0, lo, TILE_ITEMS):
            random_weights(min(TILE_ITEMS, lo - skip), n_classes, rng, method=method)
        draws = (
            (chunk, random_weights(chunk.n_items, n_classes, rng, method=method))
            for chunk in as_chunk_iterable(db)
        )
    else:
        if streamed:
            check_streamable_init(method)
        if full_db is None:
            if hi - lo != n_total_items:
                raise ValueError(
                    f"{method} initialization needs the full database on "
                    "every rank"
                )
            full_db = db
        wts = random_weights(
            n_total_items, n_classes, rng, method=method, db=full_db
        )
        chunks = tuple(as_chunk_iterable(db))
        cuts = np.cumsum([chunk.n_items for chunk in chunks])[:-1]
        draws = zip(chunks, np.split(wts[lo:hi], cuts))
    w_j = stats = None
    for chunk, wts in draws:
        part = local_update_parameters(chunk, spec, wts, kernels=kernels)
        if stats is None:
            w_j, stats = wts.sum(axis=0), part
        else:
            w_j += wts.sum(axis=0)
            stats += part
    if stats is None:  # an empty streamed block: zero chunks
        w_j = np.zeros(n_classes, dtype=np.float64)
        stats = np.zeros((n_classes, spec.n_stats), dtype=np.float64)
    payload = reducer.allreduce(np.concatenate([w_j, stats.reshape(-1)]))
    log_pi, term_params = finalize_parameters(
        spec,
        payload[n_classes:].reshape(stats.shape),
        payload[:n_classes],
        n_total_items,
    )
    return Classification(
        spec=spec,
        n_classes=n_classes,
        log_pi=log_pi,
        term_params=term_params,
    )


def check_streamable_init(method: str) -> None:
    """Reject init methods that need the whole database in memory."""
    if method not in STREAMABLE_INIT_METHODS:
        raise ValueError(
            f"init_method {method!r} needs the full database in memory "
            f"and cannot stream a ShardedDatabase; use one of "
            f"{STREAMABLE_INIT_METHODS} (or materialize() the data)"
        )
