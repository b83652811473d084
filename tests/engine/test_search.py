"""Tests for repro.engine.search (the BIG_LOOP)."""

from collections import Counter

import numpy as np
import pytest

from repro.data.synth import make_separable_blobs
from repro.engine.report import membership
from repro.engine.search import (
    PAPER_START_J_LIST,
    SearchConfig,
    is_duplicate,
    run_search,
)
from repro.util.rng import SeedSequenceStream


class TestSearchConfig:
    def test_defaults_follow_paper(self):
        assert SearchConfig().start_j_list == PAPER_START_J_LIST

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(start_j_list=())
        with pytest.raises(ValueError):
            SearchConfig(start_j_list=(0, 2))
        with pytest.raises(ValueError):
            SearchConfig(max_n_tries=0)
        with pytest.raises(ValueError):
            SearchConfig(init_method="nope")
        with pytest.raises(ValueError):
            SearchConfig(duplicate_eps=-1)

    def test_select_cycles_through_list_first(self):
        cfg = SearchConfig(start_j_list=(2, 4, 8), max_n_tries=10)
        stream = SeedSequenceStream(0)
        assert [cfg.select_n_classes(k, stream) for k in range(3)] == [2, 4, 8]

    def test_select_after_list_draws_from_list(self):
        cfg = SearchConfig(start_j_list=(2, 4, 8), max_n_tries=10)
        stream = SeedSequenceStream(0)
        later = [cfg.select_n_classes(k, stream) for k in range(3, 10)]
        assert all(j in (2, 4, 8) for j in later)

    def test_select_deterministic(self):
        cfg = SearchConfig(start_j_list=(2, 4, 8))
        a = cfg.select_n_classes(5, SeedSequenceStream(1))
        b = cfg.select_n_classes(5, SeedSequenceStream(1))
        assert a == b


class TestRunSearch:
    @pytest.fixture(scope="class")
    def result(self):
        db, _ = make_separable_blobs(600, 3, 2, seed=10)
        cfg = SearchConfig(
            start_j_list=(2, 3, 5), max_n_tries=3, seed=11, max_cycles=80
        )
        return db, run_search(db, cfg)

    def test_all_tries_recorded(self, result):
        _, res = result
        assert len(res.tries) == 3
        assert [t.n_classes_requested for t in res.tries] == [2, 3, 5]

    def test_every_try_scored(self, result):
        _, res = result
        for t in res.tries:
            assert t.classification.scores is not None
            assert np.isfinite(t.score)

    def test_best_is_max_score(self, result):
        _, res = result
        kept = [t for t in res.tries if t.duplicate_of is None]
        assert res.best.score == max(t.score for t in kept)

    def test_blob_recovery(self, result):
        """On well-separated blobs, the best classification recovers
        the generating partition almost perfectly."""
        db, res = result
        db2, labels = make_separable_blobs(600, 3, 2, seed=10)
        _, hard = membership(db, res.best.classification)
        purity = sum(
            Counter(labels[hard == j]).most_common(1)[0][1]
            for j in np.unique(hard)
        ) / len(labels)
        assert purity > 0.95

    def test_summary_text(self, result):
        _, res = result
        text = res.summary()
        assert "3 tries" in text
        assert "*" in text  # best marker

    def test_deterministic_across_runs(self):
        db, _ = make_separable_blobs(300, 2, 2, seed=3)
        cfg = SearchConfig(start_j_list=(2, 3), max_n_tries=2, seed=4, max_cycles=40)
        a = run_search(db, cfg)
        b = run_search(db, cfg)
        assert [t.score for t in a.tries] == [t.score for t in b.tries]


class TestDuplicates:
    def test_identical_solutions_marked(self):
        """Two tries at the same J from inits that converge to the same
        peak must be flagged as duplicates."""
        db, _ = make_separable_blobs(500, 2, 2, seed=5, separation=10.0)
        cfg = SearchConfig(
            start_j_list=(2, 2, 2), max_n_tries=3, seed=6,
            max_cycles=120, rel_delta=1e-6,
        )
        res = run_search(db, cfg)
        assert res.n_duplicates >= 1
        dup = next(t for t in res.tries if t.duplicate_of is not None)
        original = res.tries[dup.duplicate_of]
        assert is_duplicate(
            dup.classification, original.classification, cfg.duplicate_eps
        )

    def test_resume_reassigns_links_written_in_try_files(self, tmp_path):
        """A directory whose duplicate try's file carries its link, as
        an older sequential writer wrote it, resumes to the clean fit's
        links; the loop's own writer leaves every link to the end."""
        import json

        from repro.ckpt import Checkpointer
        from repro.engine.search import SearchResult

        db, _ = make_separable_blobs(500, 2, 2, seed=5, separation=10.0)
        cfg = SearchConfig(
            start_j_list=(2, 2, 2), max_n_tries=3, seed=6,
            max_cycles=120, rel_delta=1e-6,
        )
        clean = run_search(db, cfg)
        assert [t.duplicate_of for t in clean.tries] == [None, 0, 0]
        ck = Checkpointer(tmp_path / "old", policy="per_try")
        ck.bind(cfg, clean.best.classification.spec, db.n_items)
        ck.save_boundary(
            SearchResult(config=cfg, tries=clean.tries[:2]),
            SeedSequenceStream(cfg.seed),
        )
        linked = json.loads((tmp_path / "old" / "try_0001.json").read_bytes())
        assert linked["try"]["duplicate_of"] == 0
        resumed = run_search(
            db, cfg, checkpointer=Checkpointer(tmp_path / "old")
        )
        assert [t.duplicate_of for t in resumed.tries] == [None, 0, 0]
        assert [t.score for t in resumed.tries] == [
            t.score for t in clean.tries
        ]

        fresh = run_search(db, cfg, checkpointer=Checkpointer(tmp_path / "new"))
        assert [t.duplicate_of for t in fresh.tries] == [None, 0, 0]
        written = json.loads((tmp_path / "new" / "try_0001.json").read_bytes())
        assert written["try"]["duplicate_of"] is None

    def test_different_j_not_duplicates(self):
        db, _ = make_separable_blobs(400, 3, 2, seed=7)
        cfg = SearchConfig(start_j_list=(2, 3), max_n_tries=2, seed=8, max_cycles=60)
        res = run_search(db, cfg)
        assert res.n_duplicates == 0

    def test_empty_search_best_raises(self):
        from repro.engine.search import SearchResult

        res = SearchResult(config=SearchConfig())
        with pytest.raises(ValueError, match="no classifications"):
            _ = res.best


class TestTimeBudget:
    def test_budget_stops_between_tries(self):
        from repro.data.synth import make_paper_database

        db = make_paper_database(2_000, seed=1)
        cfg = SearchConfig(
            start_j_list=(4, 4, 4, 4, 4, 4), max_n_tries=6, seed=2,
            max_cycles=40, max_seconds=1e-9,
        )
        res = run_search(db, cfg)
        # The budget expires immediately, but the first try always runs.
        assert len(res.tries) == 1

    def test_generous_budget_runs_everything(self):
        from repro.data.synth import make_paper_database

        db = make_paper_database(200, seed=1)
        cfg = SearchConfig(
            start_j_list=(2, 3), max_n_tries=2, seed=2,
            max_cycles=10, max_seconds=600.0,
        )
        assert len(run_search(db, cfg).tries) == 2

    def test_invalid_budget_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="max_seconds"):
            SearchConfig(max_seconds=0.0)

    def test_parallel_search_rejects_budget(self):
        from repro.data.synth import make_paper_database
        from repro.mpc.threadworld import run_spmd_threads
        from repro.parallel import run_pautoclass

        db = make_paper_database(100, seed=1)
        cfg = SearchConfig(start_j_list=(2,), max_n_tries=1, max_seconds=5.0)
        with _raises_runtime("max_seconds"):
            run_spmd_threads(run_pautoclass, 2, db, cfg)


from contextlib import contextmanager


@contextmanager
def _raises_runtime(match: str):
    import pytest as _pytest

    with _pytest.raises(RuntimeError, match=match):
        yield
