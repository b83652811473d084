"""The overlap gate: overlapped streamed fits vs blocking, bitwise.

Acceptance bar for the nonblocking hot path: on every world, a
streamed fit with ``CollectiveConfig(overlap=True)`` must be **digest-
equal** to its blocking twin — overlap moves reduction rounds in time,
never a bit in the results.  This lives outside ``fit(verify=...)``
because the in-fit shadow harness is (deliberately) refused for
streamed data; see :mod:`repro.verify.overlap`.
"""

from __future__ import annotations

import pytest

from repro.data.shards import ShardedDatabase
from repro.data.synth import make_paper_database
from repro.verify import (
    BITWISE,
    ConformanceError,
    capture_trace,
    check_overlap_conformance,
    content_digest,
)

CONFIG = dict(start_j_list=(3,), max_n_tries=1, seed=11, max_cycles=6,
              init_method="sharp")

WORLDS = [("serial", 1), ("threads", 3), ("processes", 3), ("sim", 4)]


@pytest.fixture(scope="module")
def db():
    return make_paper_database(96, seed=13)


@pytest.fixture(scope="module")
def sdb(db, tmp_path_factory):
    return ShardedDatabase.from_database(
        db, tmp_path_factory.mktemp("shards") / "s",
        shard_items=24, chunk_items=16,
    )


class TestOverlapStrictGate:
    @pytest.mark.parametrize("world,size", WORLDS)
    def test_strict_passes_on_every_world(self, db, sdb, world, size):
        report = check_overlap_conformance(
            sdb, db, CONFIG, world=world, size=size, verify="strict",
        )
        assert report.ok and len(report.divergences) == 0
        assert report.tolerance is BITWISE
        assert report.test.meta.allreduce.endswith("+overlap")

    def test_segmented_overlap_also_bitwise(self, db, sdb):
        report = check_overlap_conformance(
            sdb, db, CONFIG, world="threads", size=3,
            verify="strict", segments=3,
        )
        assert report.ok

    def test_content_digests_agree_but_full_digests_differ(self, db, sdb):
        blocking = capture_trace(
            db, CONFIG, fit_on=sdb, world="threads", size=3, overlap=False,
        )
        overlapped = capture_trace(
            db, CONFIG, fit_on=sdb, world="threads", size=3, overlap=True,
        )
        # The arms intentionally carry different allreduce labels, so
        # the meta-inclusive digest differs while every computed number
        # is identical.
        assert content_digest(blocking) == content_digest(overlapped)
        assert blocking.digest() != overlapped.digest()

    def test_divergence_raises_in_strict_mode(self, db, sdb, monkeypatch):
        # Prove the gate can actually fail: make the overlapped arm a
        # genuinely different (other-seed) classification and the
        # strict check must refuse it.
        from repro.verify import overlap as overlap_mod

        real_capture = overlap_mod.capture_trace

        def skewed_capture(db_, config, **kwargs):
            if kwargs.get("overlap"):
                config = dict(config, seed=config["seed"] + 1)
            return real_capture(db_, config, **kwargs)

        monkeypatch.setattr(overlap_mod, "capture_trace", skewed_capture)
        with pytest.raises(ConformanceError):
            overlap_mod.check_overlap_conformance(
                sdb, db, CONFIG, world="serial", size=1, verify="strict",
            )
        # "trace" mode reports the divergence instead of raising.
        report = overlap_mod.check_overlap_conformance(
            sdb, db, CONFIG, world="serial", size=1, verify="trace",
        )
        assert not report.ok and len(report.divergences) > 0


class TestOverlapOnInMemoryData:
    def test_in_memory_fit_overlaps_and_stays_bitwise(self, db):
        """Regression: ``overlap=True`` used to be read only on the
        streamed branch of the cycle, so an in-memory fit silently ran
        blocking and recorded no ``overlap.*`` counters.  With one cycle
        the wts reduction rides under the block's M half."""
        from repro.api import PAutoClass
        from repro.mpc.api import CollectiveConfig

        run = PAutoClass(
            n_processors=3, backend="threads", instrument="phases",
            collectives=CollectiveConfig(overlap=True), **CONFIG,
        ).fit(db)
        for rank in run.record.ranks:
            assert rank.counters.get("overlap.windows", 0) > 0, rank.rank
        # The capture helper fits whatever it is handed; here that is
        # the in-memory database on both arms.
        blocking = capture_trace(
            db, CONFIG, world="threads", size=3, overlap=False,
        )
        overlapped = capture_trace(
            db, CONFIG, world="threads", size=3, overlap=True,
        )
        assert content_digest(blocking) == content_digest(overlapped)
