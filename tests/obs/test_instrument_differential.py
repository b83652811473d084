"""Differential tests: instrumentation must observe, never perturb.

The ISSUE-level acceptance criteria for the observability layer:

* ``instrument="full"`` produces byte-identical classifications to
  ``instrument="off"`` on every backend (recording is pure
  observation);
* on the threads backend the recorded phase totals account for
  (approximately) the rank's whole wall time;
* the ``sim`` backend emits the *same record schema* as the real
  backends, only with ``clock="virtual"``.
"""

import pytest

from repro import AutoClass, PAutoClass, make_paper_database
from repro.obs.record import read_jsonl, write_jsonl

CONFIG = dict(start_j_list=(2, 3), max_n_tries=2, seed=11, max_cycles=12)


@pytest.fixture(scope="module")
def db():
    return make_paper_database(500, seed=21)


@pytest.fixture(scope="module")
def reference(db):
    """Uninstrumented sequential scores, the ground truth."""
    run = AutoClass(**CONFIG).fit(db)
    return [t.score for t in run.result.tries]


class TestInstrumentationIsPure:
    @pytest.mark.parametrize(
        "backend,procs",
        [("serial", 1), ("threads", 3), ("processes", 2), ("sim", 3)],
    )
    def test_full_matches_off_on_every_backend(
        self, db, reference, backend, procs
    ):
        runs = {
            level: PAutoClass(
                n_processors=procs, backend=backend, instrument=level,
                **CONFIG,
            ).fit(db)
            for level in ("off", "full")
        }
        scores_off = [t.score for t in runs["off"].result.tries]
        scores_full = [t.score for t in runs["full"].result.tries]
        assert scores_full == scores_off  # byte-identical decisions
        assert scores_off == pytest.approx(reference, rel=1e-9)
        assert runs["off"].record is None
        assert runs["full"].record is not None

    def test_sequential_full_matches_off(self, db, reference):
        run = AutoClass(instrument="full", **CONFIG).fit(db)
        assert [t.score for t in run.result.tries] == pytest.approx(
            reference, rel=1e-12
        )
        assert run.record is not None
        assert run.record.backend == "sequential"

    def test_cycle_telemetry_matches_em_monotonicity(self, db):
        run = AutoClass(instrument="full", **CONFIG).fit(db)
        cycles = run.record.ranks[0].cycles
        assert len(cycles) == sum(t.n_cycles for t in run.result.tries)
        # MAP-EM deltas are non-negative within a try (NaN at try start).
        deltas = [c.delta for c in cycles]
        assert all(d >= -1e-6 for d in deltas if d == d)
        assert sum(1 for d in deltas if d != d) == len(run.result.tries)


class TestPhaseTotalsCoverWallTime:
    @pytest.mark.parametrize("try_groups", [None, 1, 2])
    def test_threads_phase_totals_approx_wall(self, db, try_groups):
        """Under the default rule, the paper's structure and a grouped
        search: a group that finishes first waits in the timed merge."""
        run = PAutoClass(
            n_processors=4, backend="threads", instrument="phases",
            try_groups=try_groups, **CONFIG,
        ).fit(db)
        assert run.record is not None
        for rank in run.record.ranks:
            total = rank.total_phase_seconds
            assert total <= rank.wall_seconds * 1.05
            # The instrumented phases cover init, the whole EM loop and
            # a grouped search's merge; untimed residue (partitioning,
            # convergence checks, Python glue) must stay a minor share
            # of the rank's wall time.
            assert total >= rank.wall_seconds * 0.5
        if try_groups == 2:
            assert all(r.seconds("merge") > 0 for r in run.record.ranks)

    def test_sim_phase_totals_bounded_by_virtual_elapsed(self, db):
        run = PAutoClass(
            n_processors=3, backend="sim", instrument="phases", **CONFIG
        ).fit(db)
        assert run.record.clock == "virtual"
        for rank in run.record.ranks:
            assert rank.total_phase_seconds <= rank.wall_seconds * 1.01
        assert run.sim_elapsed == pytest.approx(
            run.record.elapsed, rel=0.2
        )


class TestSchemaParityAcrossWorlds:
    def test_sim_and_processes_emit_same_schema(self, db, tmp_path):
        sim = PAutoClass(
            n_processors=2, backend="sim", instrument="phases", **CONFIG
        ).fit(db)
        proc = PAutoClass(
            n_processors=2, backend="processes", instrument="phases",
            **CONFIG,
        ).fit(db)
        paths = {
            "sim": write_jsonl(sim.record, tmp_path / "sim.jsonl"),
            "processes": write_jsonl(proc.record, tmp_path / "proc.jsonl"),
        }
        loaded = {k: read_jsonl(p) for k, p in paths.items()}
        assert loaded["sim"].clock == "virtual"
        assert loaded["processes"].clock == "wall"
        # Identical schema: same header keys, same per-rank dict keys,
        # same phase names.
        assert (
            loaded["sim"].header_dict().keys()
            == loaded["processes"].header_dict().keys()
        )
        for a, b in zip(loaded["sim"].ranks, loaded["processes"].ranks):
            assert a.to_dict().keys() == b.to_dict().keys()
            assert set(a.phase_seconds) == set(b.phase_seconds)

    def test_threads_rank_records_are_per_rank(self, db):
        run = PAutoClass(
            n_processors=4, backend="threads", instrument="phases",
            try_groups=1, **CONFIG,
        ).fit(db)
        assert [r.rank for r in run.record.ranks] == [0, 1, 2, 3]
        # Every rank timed every cycle (replicated control flow).
        n_cycles = {r.n_cycles for r in run.record.ranks}
        assert len(n_cycles) == 1 and n_cycles.pop() > 0

    def test_kernel_counters_attributed(self, db):
        run = PAutoClass(
            n_processors=2, backend="threads", instrument="full", **CONFIG
        ).fit(db)
        counters = run.record.ranks[0].counters
        assert counters.get("estep.fused", 0) > 0
        assert counters.get("mstep.fused", 0) > 0
