"""The user-level wiring: ``fit(verify="off"|"trace"|"strict")``."""

from __future__ import annotations

import pytest

from repro.api import AutoClass, PAutoClass
from repro.data.synth import make_paper_database
from repro.verify.conformance import ConformanceError
from repro.verify.tolerance import BITWISE, KERNEL

CONFIG = dict(start_j_list=(2, 3), max_n_tries=2, seed=7, max_cycles=10,
              init_method="sharp")


@pytest.fixture(scope="module")
def db():
    return make_paper_database(120, seed=13)


class TestSequentialVerify:
    def test_off_attaches_nothing(self, db):
        run = AutoClass(**CONFIG).fit(db)
        assert run.conformance is None

    def test_trace_attaches_kernel_differential(self, db):
        # a one-rank primary is shadowed on the reference kernels, the
        # same for AutoClass as for PAutoClass on one serial rank
        for est in (
            AutoClass(**CONFIG),
            PAutoClass(n_processors=1, backend="serial", **CONFIG),
        ):
            rep = est.fit(db, verify="trace").conformance
            assert rep is not None and rep.ok
            assert rep.tolerance.label == "kernel"
            # the shadow ran the opposite kernel path
            assert rep.ref.meta.kernels != rep.test.meta.kernels

    def test_strict_passes_on_healthy_code(self, db):
        run = AutoClass(**CONFIG).fit(db, verify="strict")
        assert run.conformance.ok

    def test_invalid_level_rejected(self, db):
        with pytest.raises(ValueError, match="verify"):
            AutoClass(**CONFIG).fit(db, verify="paranoid")

    def test_max_seconds_is_incompatible(self, db):
        ac = AutoClass(max_seconds=30.0, **CONFIG)
        with pytest.raises(ValueError, match="max_seconds"):
            ac.fit(db, verify="trace")


class TestParallelVerify:
    def test_two_rank_strict_reports_zero_divergences(self, db):
        # The acceptance bar: a seeded 2-rank run vs its sequential
        # shadow under verify="strict" — zero divergences (the only
        # deltas allowed are the documented reduction-order ones the
        # tolerance absorbs).
        run = PAutoClass(
            n_processors=2, backend="threads", **CONFIG
        ).fit(db, verify="strict")
        rep = run.conformance
        assert rep.ok and len(rep.divergences) == 0
        assert rep.tolerance.label == "reduction-order"
        assert rep.test.meta.world == "threads"
        assert rep.ref.meta.world == "sequential"

    def test_one_rank_world_is_held_to_the_kernel_bound(self, db):
        # the shadow is chosen by rank count: one rank on any world is
        # shadowed on the reference kernels.  P = 1 bitwise on the
        # fused kernels is held by `python -m repro.verify`'s serial cells.
        run = PAutoClass(
            n_processors=1, backend="threads", **CONFIG
        ).fit(db, verify="strict")
        assert run.conformance.ok
        assert run.conformance.tolerance == KERNEL
        assert run.conformance.ref.meta.kernels == "reference"

    def test_strict_raises_on_forced_divergence(self, db, monkeypatch):
        # Force the 2-rank comparison to bitwise: real reduction-order
        # deltas become divergences, proving the strict path fires and
        # the report localizes the first one.
        import repro.verify.conformance as conf_mod

        monkeypatch.setattr(
            conf_mod, "resolve_tolerance", lambda *_a, **_k: BITWISE
        )
        pac = PAutoClass(
            n_processors=2, backend="threads", try_groups=1, **CONFIG
        )
        with pytest.raises(ConformanceError) as exc_info:
            pac.fit(db, verify="strict")
        report = exc_info.value.report
        assert not report.ok
        first = report.first_divergence
        assert first is not None
        assert first.abs_err >= 0.0
        assert "FIRST:" in str(exc_info.value)

    def test_trace_mode_never_raises(self, db, monkeypatch):
        import repro.verify.conformance as conf_mod

        monkeypatch.setattr(
            conf_mod, "resolve_tolerance", lambda *_a, **_k: BITWISE
        )
        run = PAutoClass(
            n_processors=2, backend="threads", try_groups=1, **CONFIG
        ).fit(db, verify="trace")
        assert run.conformance is not None
        assert not run.conformance.ok  # recorded, not raised

    def test_full_instrumentation_compares_cycle_traces(self, db):
        run = PAutoClass(
            n_processors=2, backend="threads", instrument="full", **CONFIG
        ).fit(db, verify="strict")
        rep = run.conformance
        assert rep.ok
        assert rep.test.cycles and rep.ref.cycles
