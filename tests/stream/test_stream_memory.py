"""Bounded memory: a fit's and a predict's allocation peak is O(chunk x J),
not O(N x J).

Peaks are traced with ``tracemalloc`` (NumPy reports its allocations to
it).  An in-memory fit runs its chunk loop over ``TILE_ITEMS``-row
tiles, so above the data and its design matrix it holds only tile-sized
buffers; a streamed fit opens the shards and holds only chunk-sized
ones.

The constant is 4 units of ``rows x J x 8`` bytes.  Per unit of rows
the workspace pool keeps two ``(rows, J)`` float64 buffers and three row
vectors (2.19 units at J = 16); the in-memory pool also holds the
ragged last tile's shape, and a streamed pass the resident chunks'
design matrices.  Measured: 3.54 (in memory) and 3.40 (streamed).
Before tiling, the in-memory excess was 2 x N x J x 8 bytes, 39 units.

``predict`` holds, above the design and the labels it returns, two
``(LABEL_BLOCK, J)`` buffers (the block and ``log pi`` repeated per
row); the same 4 units, now of ``LABEL_BLOCK`` rows, bound it.
Measured: 2.22 units.  Through a pooled ``(N, J)`` posterior it was 172.
"""

import tracemalloc

from repro import AutoClass
from repro.data.shards import TILE_ITEMS, ShardedDatabase
from repro.data.synth import make_paper_database
from repro.kernels.estep import LABEL_BLOCK
from repro.kernels.plan import clear_plan_cache, plan_cache_stats
from repro.kernels.workspace import clear_workspaces

N_ITEMS = 80_000
CHUNK_ITEMS = 8_000  # the dataset is 10x the chunk budget
N_CLASSES = 16
UNITS = 4
CONFIG = dict(
    start_j_list=(N_CLASSES,), max_n_tries=1, seed=13, max_cycles=4,
    rel_delta=1e-14, init_method="sharp",
)


def _traced_peak(fn) -> int:
    # No fit may reuse kernel buffers an earlier one allocated.
    clear_plan_cache()
    clear_workspaces()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_in_memory_peak_above_data_and_design_is_o_tile():
    db = make_paper_database(N_ITEMS, seed=7)  # data allocated untraced
    fits = []  # keeps the fit's spec, and so its tile plans, alive
    peak = _traced_peak(lambda: fits.append(AutoClass(**CONFIG).fit(db)))
    design = sum(
        plan.nbytes for _db, _spec, plan in plan_cache_stats().entries.values()
    )
    assert design > 0
    assert peak - design <= UNITS * TILE_ITEMS * N_CLASSES * 8


def test_in_memory_predict_peak_above_design_and_labels_is_o_block():
    db = make_paper_database(N_ITEMS, seed=7)
    run = AutoClass(**CONFIG).fit(db)  # fitted untraced
    labels = []
    peak = _traced_peak(lambda: labels.append(run.predict(db)))
    design = sum(
        plan.nbytes for _db, _spec, plan in plan_cache_stats().entries.values()
    )
    assert design > 0
    excess = peak - design - labels[0].nbytes
    assert excess <= UNITS * LABEL_BLOCK * N_CLASSES * 8


def test_streamed_peak_is_o_chunk(tmp_path):
    path = ShardedDatabase.from_database(
        make_paper_database(N_ITEMS, seed=7), tmp_path / "shards",
        shard_items=CHUNK_ITEMS, chunk_items=CHUNK_ITEMS,
    ).path
    peak = _traced_peak(
        lambda: AutoClass(**CONFIG).fit(ShardedDatabase.open(path))
    )
    assert peak <= UNITS * CHUNK_ITEMS * N_CLASSES * 8
