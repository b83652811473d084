"""Bounded memory: a streamed fit's allocation peak is O(chunk), not O(N).

Peaks are traced with ``tracemalloc`` (NumPy reports its allocations to
it).  The in-memory arm materializes the same shards and fits them; the
streamed arm opens the shards and fits chunk by chunk.
"""

import tracemalloc

from repro import AutoClass
from repro.data.shards import ShardedDatabase
from repro.data.synth import make_paper_database
from repro.kernels.plan import clear_plan_cache
from repro.kernels.workspace import clear_workspaces

N_ITEMS = 80_000
CHUNK_ITEMS = 8_000  # the dataset is 10x the chunk budget
CONFIG = dict(
    start_j_list=(16,), max_n_tries=1, seed=13, max_cycles=4,
    rel_delta=1e-14, init_method="sharp",
)


def _traced_peak(fn) -> int:
    # Neither arm may reuse kernel buffers the other one allocated.
    clear_plan_cache()
    clear_workspaces()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_peak_at_least_4x_below_in_memory(tmp_path):
    path = ShardedDatabase.from_database(
        make_paper_database(N_ITEMS, seed=7), tmp_path / "shards",
        shard_items=CHUNK_ITEMS, chunk_items=CHUNK_ITEMS,
    ).path
    streamed = _traced_peak(
        lambda: AutoClass(**CONFIG).fit(ShardedDatabase.open(path))
    )
    in_memory = _traced_peak(
        lambda: AutoClass(**CONFIG).fit(ShardedDatabase.open(path).materialize())
    )
    assert in_memory / streamed >= 4.0
