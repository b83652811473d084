"""The tentpole invariant: streamed fit == in-memory fit, all four worlds.

Cycle counts are pinned (small ``max_cycles`` with a tiny ``rel_delta``
so both arms hit the cap) to keep the comparison off convergence
knife-edges; the assertion is exact equality of the final
classification — the acceptance criterion — plus parameter agreement at
the reduction-order tolerance.
"""

import numpy as np
import pytest

from repro import AutoClass, PAutoClass
from repro.data.shards import ShardedDatabase
from repro.data.synth import make_mixed_database, make_paper_database

PINNED = dict(
    start_j_list=(3,), max_n_tries=2, seed=17, max_cycles=5,
    rel_delta=1e-14, init_method="sharp",
)


@pytest.fixture(scope="module")
def paper_pair(tmp_path_factory):
    db = make_paper_database(420, seed=23)
    sdb = ShardedDatabase.from_database(
        db, tmp_path_factory.mktemp("paper") / "s",
        shard_items=100, chunk_items=50,
    )
    return db, sdb


@pytest.fixture(scope="module")
def mixed_pair(tmp_path_factory):
    db, _ = make_mixed_database(300, missing_rate=0.08, seed=29)
    sdb = ShardedDatabase.from_database(
        db, tmp_path_factory.mktemp("mixed") / "s",
        shard_items=70, chunk_items=35,
    )
    return db, sdb


def assert_same_fit(run_mem, run_st, db, sdb):
    labels_mem = run_mem.predict(db)
    labels_st = run_st.predict(sdb)
    np.testing.assert_array_equal(labels_st, labels_mem)
    clf_m = run_mem.best.classification
    clf_s = run_st.best.classification
    assert clf_s.n_cycles == clf_m.n_cycles
    np.testing.assert_allclose(clf_s.log_pi, clf_m.log_pi, atol=1e-9)
    assert run_st.best.score == pytest.approx(run_mem.best.score, rel=1e-9)


class TestSequential:
    def test_streamed_fit_matches_inmemory(self, paper_pair):
        db, sdb = paper_pair
        run_mem = AutoClass(**PINNED).fit(db)
        run_st = AutoClass(**PINNED).fit(sdb)
        assert_same_fit(run_mem, run_st, db, sdb)

    def test_mixed_schema_with_missing(self, mixed_pair):
        db, sdb = mixed_pair
        run_mem = AutoClass(**PINNED).fit(db)
        run_st = AutoClass(**PINNED).fit(sdb)
        assert_same_fit(run_mem, run_st, db, sdb)

    def test_dirichlet_init_streams(self, paper_pair):
        db, sdb = paper_pair
        kw = dict(PINNED, init_method="dirichlet", max_n_tries=1)
        run_mem = AutoClass(**kw).fit(db)
        run_st = AutoClass(**kw).fit(sdb)
        assert_same_fit(run_mem, run_st, db, sdb)

    def test_chunk_size_does_not_change_the_fit(self, paper_pair):
        db, sdb = paper_pair
        a = AutoClass(**PINNED).fit(sdb.with_chunk_items(33))
        b = AutoClass(**PINNED).fit(sdb.with_chunk_items(100))
        np.testing.assert_array_equal(a.predict(sdb), b.predict(sdb))


@pytest.mark.parametrize(
    "backend,n_processors",
    [("serial", 1), ("threads", 3), ("processes", 3), ("sim", 4)],
)
class TestFourWorlds:
    def test_streamed_fit_matches_inmemory(
        self, paper_pair, backend, n_processors
    ):
        db, sdb = paper_pair
        kw = dict(PINNED, max_n_tries=1)
        run_mem = PAutoClass(
            n_processors=n_processors, backend=backend, **kw
        ).fit(db)
        run_st = PAutoClass(
            n_processors=n_processors, backend=backend, **kw
        ).fit(sdb)
        assert_same_fit(run_mem, run_st, db, sdb)

    def test_mixed_schema(self, mixed_pair, backend, n_processors):
        db, sdb = mixed_pair
        kw = dict(PINNED, max_n_tries=1)
        run_mem = PAutoClass(
            n_processors=n_processors, backend=backend, **kw
        ).fit(db)
        run_st = PAutoClass(
            n_processors=n_processors, backend=backend, **kw
        ).fit(sdb)
        assert_same_fit(run_mem, run_st, db, sdb)


class TestStreamedGuards:
    def test_seeded_init_refused(self, paper_pair):
        _db, sdb = paper_pair
        ac = AutoClass(**dict(PINNED, init_method="seeded"))
        with pytest.raises(ValueError, match="materialize"):
            ac.fit(sdb)

    def test_verify_conforms(self, paper_pair):
        """The shadow of a streamed fit streams the same view."""
        _db, sdb = paper_pair
        run = AutoClass(**PINNED).fit(sdb, verify="strict")
        assert run.conformance.ok
        run = PAutoClass(n_processors=2, backend="threads", **PINNED).fit(
            sdb, verify="strict"
        )
        assert run.conformance.ok

    def test_try_groups_match_inmemory(self, paper_pair):
        """Groups re-partition a view with ``block`` like a database."""
        db, sdb = paper_pair
        for backend, n_processors in (
            ("threads", 4), ("processes", 2), ("sim", 4),
        ):
            kw = dict(
                n_processors=n_processors, backend=backend, try_groups=2,
                **PINNED,
            )
            run_mem = PAutoClass(**kw).fit(db)
            run_st = PAutoClass(**kw).fit(sdb)
            assert_same_fit(run_mem, run_st, db, sdb)

    def test_default_config_uses_sharp(self, paper_pair):
        """A bare streamed fit must not fall into the seeded default."""
        _db, sdb = paper_pair
        ac = AutoClass(start_j_list=(2,), max_n_tries=1, seed=1, max_cycles=3)
        run = ac.fit(sdb)
        assert run.result.config.init_method == "sharp"


class TestStreamedObservability:
    def test_stream_counters_recorded(self, paper_pair):
        _db, sdb = paper_pair
        pac = PAutoClass(
            n_processors=2, backend="threads", instrument="phases",
            **dict(PINNED, max_n_tries=1),
        )
        run = pac.fit(sdb)
        counters = run.record.ranks[0].counters
        assert counters["stream.chunks"] > 0
        assert counters["stream.chunk_items"] == sdb.chunk_items
        assert counters["stream.manifest_digest_u48"] == int(
            sdb.manifest_digest[:12], 16
        )
        phases = run.record.ranks[0].phase_seconds
        assert "wts" in phases and "params" in phases
        # One packed reduction per cycle, accounted at the second cut point.
        assert "allreduce_params" in phases
        assert phases.get("allreduce_wts", 0.0) == 0.0

    def test_grouped_fit_records_the_same_stream_counters(self, paper_pair):
        """Both decompositions say which manifest and chunk size the fit
        streamed (``stream.chunks`` differs: the blocks do)."""
        _db, sdb = paper_pair
        names = ("stream.manifest_digest_u48", "stream.chunk_items")

        def stream_counters(try_groups):
            run = PAutoClass(
                n_processors=2, backend="threads", instrument="phases",
                try_groups=try_groups, **PINNED,
            ).fit(sdb)
            return [
                {k: r.counters.get(k) for k in names}
                for r in run.record.ranks
            ]

        grouped = stream_counters(2)
        assert grouped == stream_counters(1)
        assert grouped[0] == {
            "stream.manifest_digest_u48": int(sdb.manifest_digest[:12], 16),
            "stream.chunk_items": sdb.chunk_items,
        }
