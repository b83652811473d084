"""No rank reads another rank's rows.

Every rank of a parallel fit is handed the whole input; handed a shard
view, it fits its own block of it, so it maps only the shards that
overlap its :func:`~repro.data.partition.partition_bounds` block.
"""

import threading

from repro import PAutoClass
from repro.data.partition import partition_bounds
from repro.data.shards import ShardedDatabase
from repro.data.synth import make_paper_database

N_RANKS = 3
N_SHARDS = 12
SHARD_ITEMS = 250


def test_each_rank_loads_only_its_block_shards(tmp_path, monkeypatch):
    db = make_paper_database(N_SHARDS * SHARD_ITEMS, seed=31)
    sdb = ShardedDatabase.from_database(
        db, tmp_path / "s", shard_items=SHARD_ITEMS
    )
    loaded: dict[int, set[int]] = {}
    load = ShardedDatabase._load_shard

    def spy(self, k):
        name = threading.current_thread().name  # "spmd-rank-<r>"
        if name.startswith("spmd-rank-"):
            loaded.setdefault(int(name.rsplit("-", 1)[1]), set()).add(k)
        return load(self, k)

    monkeypatch.setattr(ShardedDatabase, "_load_shard", spy)
    PAutoClass(
        n_processors=N_RANKS, backend="threads", try_groups=1,
        start_j_list=(2, 3), max_n_tries=2, seed=3, max_cycles=3,
        init_method="sharp",
    ).fit(sdb)

    expected = {}
    for rank in range(N_RANKS):
        lo, hi = partition_bounds(db.n_items, N_RANKS, rank)
        expected[rank] = {
            k for k in range(N_SHARDS)
            if k * SHARD_ITEMS < hi and (k + 1) * SHARD_ITEMS > lo
        }
    assert expected == {
        0: set(range(0, 4)), 1: set(range(4, 8)), 2: set(range(8, 12))
    }
    assert loaded == expected
