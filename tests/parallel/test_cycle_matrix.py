"""The one EM cycle, across its whole ``chunks x reducer`` matrix.

There is a single cycle body (:func:`repro.engine.cycle.base_cycle`)
and a single initializer; every way of running them is one cell here:

    data    in {in-memory Database, 1-chunk shards, 4-chunk shards}
  x reducer in {local, blocking}
  x P       in {1, 2, 3} (threads)

Cells that associate their sums identically — same P, same chunking —
must agree to the last bit, whichever reducer carried the payloads;
everything else must sit within ``repro.verify``'s reduction-order
tolerance of the sequential in-memory reference; and the class map is
the same everywhere.
"""

import numpy as np
import pytest

from repro.data.partition import block_partition
from repro.data.shards import ShardedDatabase
from repro.data.synth import make_paper_database
from repro.engine.cycle import LocalReducer, base_cycle
from repro.engine.init import initial_classification
from repro.engine.report import membership
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.threadworld import run_spmd_threads
from repro.parallel.packed import ReductionPlan
from repro.parallel.reducers import BlockingReducer, WorldReducer, reducer_for
from repro.util.rng import spawn_rng
from repro.verify import REDUCTION_ORDER
from repro.verify.trace import pack_term_params

N_ITEMS, N_CLASSES, N_CYCLES = 240, 3, 4
DATA = ("memory", "chunks1", "chunks4")
REDUCERS = ("local", "blocking")
SIZES = (1, 2, 3)


@pytest.fixture(scope="module")
def db():
    return make_paper_database(N_ITEMS, seed=17)


@pytest.fixture(scope="module")
def spec(db):
    return ModelSpec.default_for(db.schema, DataSummary.from_database(db))


@pytest.fixture(scope="module")
def sources(db, tmp_path_factory):
    root = tmp_path_factory.mktemp("cycle_matrix")
    sharded = {
        "chunks1": ShardedDatabase.from_database(
            db, root / "c1", shard_items=N_ITEMS, chunk_items=N_ITEMS
        ),
        "chunks4": ShardedDatabase.from_database(
            db, root / "c4", shard_items=N_ITEMS // 4, chunk_items=N_ITEMS // 4
        ),
    }
    yield {"memory": db, **sharded}
    for sdb in sharded.values():
        sdb.close()


def make_reducer(kind, comm, spec):
    if kind == "local":
        # A size-1 world reduces by identity, exactly as sequential does.
        reducer = reducer_for(comm, N_CLASSES, spec)
        assert type(reducer) is WorldReducer
        return reducer
    plan = ReductionPlan(comm, N_CLASSES, spec.n_stats)
    return BlockingReducer(comm, plan)


def cell(comm, source, spec, kind):
    """Init + N_CYCLES cycles of one matrix cell; this rank's outcome."""
    if isinstance(source, ShardedDatabase):
        local = source.block(comm.size, comm.rank)
    else:
        local = block_partition(source, comm.size, comm.rank)
    reducer = make_reducer(kind, comm, spec)
    clf = initial_classification(
        local, spec, N_CLASSES, spawn_rng(5), method="sharp",
        n_total_items=N_ITEMS, reducer=reducer,
    )
    for _ in range(N_CYCLES):
        clf, wts, _stats = base_cycle(
            local, clf, n_total_items=N_ITEMS, reducer=reducer
        )
    assert wts is None
    return clf


def numbers(clf):
    return np.concatenate([
        clf.log_pi,
        pack_term_params(clf),
        clf.scores.w_j,
        [clf.scores.log_marginal_cs, clf.scores.log_lik_obs],
    ])


@pytest.fixture(scope="module")
def matrix(sources, spec):
    cells = {}
    for size in SIZES:
        for data in DATA:
            for kind in REDUCERS:
                if kind == "local" and size > 1:
                    continue  # identity is only a reduction at P = 1
                per_rank = run_spmd_threads(
                    cell, size, sources[data], spec, kind
                )
                first = numbers(per_rank[0])
                for other in per_rank[1:]:  # replicated: ranks agree bitwise
                    np.testing.assert_array_equal(numbers(other), first)
                cells[size, data, kind] = per_rank[0]
    return cells


@pytest.fixture(scope="module")
def reference(db, spec):
    """Sequential AutoClass: the defaults of the very same functions."""
    clf = initial_classification(
        db, spec, N_CLASSES, spawn_rng(5), method="sharp"
    )
    reducer = LocalReducer()
    for _ in range(N_CYCLES):
        clf, _wts, _stats = base_cycle(db, clf, reducer=reducer)
    return clf


def test_matrix_is_complete(matrix):
    assert len(matrix) == len(DATA) * (2 + 1 + 1)


def test_sequential_is_the_size_one_cell(matrix, reference):
    np.testing.assert_array_equal(
        numbers(matrix[1, "memory", "local"]), numbers(reference)
    )


@pytest.mark.parametrize("size", SIZES)
def test_same_association_cells_are_bitwise_equal(matrix, size):
    """Same P and same chunking: the reducer — and whether the single
    chunk is a Database or a shard view — changes no bit."""
    same = [
        numbers(clf) for (p, data, _kind), clf in matrix.items()
        if p == size and data in ("memory", "chunks1")
    ]
    assert len(same) >= 2
    for other in same[1:]:
        np.testing.assert_array_equal(other, same[0])
    chunked = [
        numbers(clf) for (p, data, _kind), clf in matrix.items()
        if p == size and data == "chunks4"
    ]
    for other in chunked[1:]:
        np.testing.assert_array_equal(other, chunked[0])


def test_every_cell_within_reduction_order_tolerance(matrix, reference):
    ref = numbers(reference)
    for key, clf in matrix.items():
        got = numbers(clf)
        bad = [
            (a, b) for a, b in zip(got, ref) if not REDUCTION_ORDER.allows(a, b)
        ]
        assert not bad, f"cell {key} diverges from sequential: {bad[:3]}"


def test_identical_class_map_everywhere(matrix, reference, db):
    _wts, expected = membership(db, reference)
    for key, clf in matrix.items():
        _wts, hard = membership(db, clf)
        np.testing.assert_array_equal(hard, expected, err_msg=str(key))
