"""Two-level (try-parallel) search: identity, merge order, resume, verify.

The structural claims of the grouped search:

* every try is **bitwise identical** to the same try on a dedicated
  world of the group's size (same partition, same index-keyed RNG
  children, same reduction schedule);
* the merge's duplicate assignment is a pure function of the canonical
  try order — permuting completion order cannot change it;
* per-try checkpoint files resume under any ``try_groups`` (the search
  key covers neither world size nor group count);
* the strict conformance gate holds for grouped fits.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import PAutoClass
from repro.engine.search import SearchConfig, assign_duplicates, run_search
from repro.mpc.threadworld import run_spmd_threads
from repro.parallel import run_pautoclass
from repro.parallel.psearch import (
    group_color,
    predicted_makespan,
    resolve_try_groups,
)

CFG = dict(start_j_list=(2, 3, 2, 4), max_n_tries=4, seed=11, max_cycles=8)


def _db(n=96):
    return repro.make_paper_database(n, seed=5)


def _try_key(t):
    s = t.classification.scores
    return (
        t.try_index, t.n_classes_requested, t.n_cycles, t.converged,
        t.duplicate_of, s.log_marginal_cs, tuple(s.w_j),
    )


class TestResolve:
    CONFIG = SearchConfig(**CFG)

    def test_none_and_one(self):
        """``1`` spells the paper's structure; ``None`` is the rule, which
        on one rank has nothing else to choose."""
        assert resolve_try_groups(1, 8, self.CONFIG, 96) == 1
        assert resolve_try_groups(None, 1, self.CONFIG, 96) == 1
        assert resolve_try_groups(None, 8, self.CONFIG, 96) == (
            resolve_try_groups("auto", 8, self.CONFIG, 96)
        )

    def test_auto(self):
        """``"auto"`` takes the G of least predicted makespan (ties: the
        larger G), never more groups than tries."""
        for procs in (2, 4, 8):
            spans = [
                predicted_makespan(self.CONFIG, 96, procs, g)
                for g in range(1, min(procs, 4) + 1)
            ]
            chosen = resolve_try_groups("auto", procs, self.CONFIG, 96)
            assert spans[chosen - 1] == min(spans)
            assert min(spans) not in spans[chosen:]
        one_try = SearchConfig(**dict(CFG, max_n_tries=1))
        assert resolve_try_groups("auto", 8, one_try, 96) == 1

    def test_explicit(self):
        assert resolve_try_groups(3, 8, self.CONFIG, 96) == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="int"):
            resolve_try_groups(2.5, 8, self.CONFIG, 96)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_try_groups(0, 8, self.CONFIG, 96)
        with pytest.raises(ValueError, match="exceeds"):
            resolve_try_groups(9, 8, self.CONFIG, 96)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected_on_both_entry_points(self, flag):
        """One validator: ``True == 1`` must not slip through the driver
        as "one group" while the API rejects it."""
        from repro.api import FitConfig
        from repro.mpc.serial import SerialComm

        with pytest.raises(ValueError, match="try_groups"):
            FitConfig(try_groups=flag)
        with pytest.raises(ValueError, match="try_groups"):
            run_pautoclass(
                SerialComm(), repro.make_paper_database(20, seed=1),
                try_groups=flag,
            )

    def test_group_color_partitions_world(self):
        colors = [group_color(8, 3, r) for r in range(8)]
        assert colors == sorted(colors)
        assert set(colors) == {0, 1, 2}


class TestDuplicateOrderIndependence:
    def _tries(self, eps):
        result = run_search(
            _db(), SearchConfig(duplicate_eps=eps, **CFG)
        )
        assert len(result.tries) == 4
        return result

    @pytest.mark.parametrize("eps", [0.0, 1e6])
    def test_permutations_agree(self, eps):
        """Any completion order yields the sequential assignment."""
        import itertools

        result = self._tries(eps)
        stripped = [
            dataclasses.replace(t, duplicate_of=None) for t in result.tries
        ]
        expected = [(t.try_index, t.duplicate_of) for t in result.tries]
        for perm in itertools.permutations(stripped):
            assigned = assign_duplicates(list(perm), eps)
            assert [(t.try_index, t.duplicate_of) for t in assigned] == expected

    def test_huge_eps_links_by_populated_class_count(self):
        """With eps=inf the rule reduces to equal populated counts."""
        result = self._tries(1e6)
        kept: dict[int, int] = {}
        saw_duplicate = False
        for t in result.tries:
            npop = t.classification.scores.n_populated
            if npop in kept:
                assert t.duplicate_of == kept[npop]
                saw_duplicate = True
            else:
                assert t.duplicate_of is None
                kept[npop] = t.try_index
        assert saw_duplicate  # the config must actually exercise the rule

    def test_output_in_canonical_order(self):
        result = self._tries(0.0)
        shuffled = [result.tries[i] for i in (2, 0, 3, 1)]
        assigned = assign_duplicates(shuffled, 0.0)
        assert [t.try_index for t in assigned] == [0, 1, 2, 3]


def _grouped_fit(comm, db, config, try_groups):
    return run_pautoclass(
        comm, db, config, try_groups=try_groups
    )


class TestBitwiseIdentity:
    def test_grouped_try_equals_dedicated_world_try(self):
        """G=2 on 4 ranks == every try of a dedicated 2-rank world."""
        db = _db()
        config = SearchConfig(**CFG)
        grouped = run_spmd_threads(
            _grouped_fit, 4, db, config, 2
        )
        dedicated = run_spmd_threads(
            _grouped_fit, 2, db, config, 1
        )
        # All ranks of the grouped world hold the identical result.
        keys = [_try_key(t) for t in grouped[0].tries]
        for r in grouped[1:]:
            assert [_try_key(t) for t in r.tries] == keys
        # ... and it is bitwise the dedicated 2-rank search.
        assert keys == [_try_key(t) for t in dedicated[0].tries]

    def test_grouped_classifications_bitwise(self):
        db = _db()
        config = SearchConfig(**CFG)
        grouped = run_spmd_threads(_grouped_fit, 4, db, config, 2)
        dedicated = run_spmd_threads(_grouped_fit, 2, db, config, 1)
        for tg, td in zip(grouped[0].tries, dedicated[0].tries):
            np.testing.assert_array_equal(
                tg.classification.log_pi, td.classification.log_pi
            )


class TestCheckpointResume:
    def _run(self, db, config, try_groups, ckpt_dir, n_procs=4):
        from repro.ckpt.manager import CheckpointSpec

        def prog(comm):
            spec = CheckpointSpec(directory=str(ckpt_dir), policy="per_try")
            return run_pautoclass(
                comm, db, config,
                ckpt=spec, try_groups=try_groups,
            )

        return run_spmd_threads(prog, n_procs)

    def test_resume_across_group_count_change(self, tmp_path):
        db = _db()
        config = SearchConfig(**CFG)
        first = self._run(db, config, 4, tmp_path)
        assert sorted(p.name for p in tmp_path.glob("try_*.json")) == [
            f"try_{k:04d}.json" for k in range(4)
        ]
        # Full resume under a different group count: everything loads.
        resumed = self._run(db, config, 2, tmp_path)
        assert (
            [_try_key(t) for t in resumed[0].tries]
            == [_try_key(t) for t in first[0].tries]
        )

    def test_partial_resume_recomputes_missing_try(self, tmp_path):
        db = _db()
        config = SearchConfig(**CFG)
        self._run(db, config, 4, tmp_path)
        (tmp_path / "try_0003.json").unlink()
        resumed = self._run(db, config, 2, tmp_path)
        clean = self._run(db, config, 2, tmp_path / "fresh")
        # The recomputed try ran on a 2-rank group = bitwise the clean
        # G=2 run's try 3; the loaded ones came from the G=4 files.
        assert _try_key(resumed[0].tries[3]) == _try_key(clean[0].tries[3])
        assert len(resumed[0].tries) == 4

    def test_single_level_resume_adopts_grouped_tries(self, tmp_path):
        """A grouped directory has per-try files and no head; the
        paper's single-level search adopts them instead of starting
        over (the rule may pick G = 1 on the resuming world)."""
        db = _db()
        first = self._run(db, SearchConfig(**CFG), 2, tmp_path)
        (tmp_path / "try_0001.json").unlink()
        resumed = PAutoClass(
            n_processors=4, backend="threads", try_groups=1,
            instrument="phases", **CFG,
        ).fit(db, checkpoint="per_try", checkpoint_dir=tmp_path)
        keys = [_try_key(t) for t in resumed.result.tries]
        loaded = [0, 2, 3]
        assert [keys[k] for k in loaded] == [
            _try_key(first[0].tries[k]) for k in loaded
        ]
        # Only the missing try ran (on all 4 ranks, so its bits may differ).
        assert resumed.record.ranks[0].n_cycles == first[0].tries[1].n_cycles
        assert resumed.result.tries[1].n_classes_requested == 3


class TestFitIntegration:
    def test_strict_verify_passes_grouped(self):
        db = _db(120)
        pac = PAutoClass(
            n_processors=4, backend="threads", try_groups=2,
            instrument="full", **CFG,
        )
        run = pac.fit(db, verify="strict")
        assert run.conformance is not None and run.conformance.ok
        # The group leaders' cycles are stitched into one whole-search
        # stream, compared cycle by cycle with the serial shadow's.
        serial = run.conformance.ref.cycles
        assert len(run.conformance.test.cycles) == len(serial)
        assert len(serial) == sum(t.n_cycles for t in run.result.tries)

    def test_group_counters_recorded(self):
        db = _db()
        pac = PAutoClass(
            n_processors=4, backend="threads", try_groups=4,
            instrument="phases", **CFG,
        )
        run = pac.fit(db)
        from repro.obs.report import record_try_groups

        assert record_try_groups(run.record) == 4
        sizes = {
            r.counters.get("try_group_size") for r in run.record.ranks
        }
        assert sizes == {1}

    def test_serial_backend_accepts_try_groups_one(self):
        db = _db()
        pac = PAutoClass(
            n_processors=1, backend="serial", try_groups=1, **CFG
        )
        run = pac.fit(db)
        assert len(run.result.tries) == 4


class TestOneLoop:
    @pytest.mark.parametrize(
        "backend, n_processors, try_groups",
        [("serial", 1, None), ("threads", 2, 1), ("threads", 2, 2)],
    )
    def test_every_fit_enters_the_big_loop_once_per_rank(
        self, monkeypatch, backend, n_processors, try_groups
    ):
        """Sequential, row-split and try-grouped fits all run the one
        BIG_LOOP, :func:`repro.engine.search.run_search`."""
        import sys
        import threading
        from collections import Counter

        import repro.engine.search as search_mod

        real = search_mod.run_search
        entries: Counter = Counter()

        def counting(*args, **kwargs):
            entries[threading.get_ident()] += 1
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "run_search", None) is real:
                monkeypatch.setattr(module, "run_search", counting)
        PAutoClass(
            n_processors=n_processors, backend=backend,
            try_groups=try_groups, **CFG,
        ).fit(_db())
        assert sorted(entries.values()) == [1] * n_processors


class TestTryParallelElapsed:
    def test_four_groups_beat_one_on_the_8_rank_sim(self):
        """A comm-bound 4-try search on the virtual CS-2.  Per-rank
        compute is the same in both arms; G=4 overlaps the tries and
        each Allreduce spans 2 ranks (1 round) instead of 8 (3)."""
        db = repro.make_paper_database(240, seed=0)

        def elapsed(try_groups):
            return PAutoClass(
                n_processors=8, backend="sim", try_groups=try_groups,
                start_j_list=(2, 3, 4, 5), max_n_tries=4, seed=0,
                max_cycles=6,
            ).fit(db).sim_elapsed

        assert elapsed(1) / elapsed(4) >= 1.5
