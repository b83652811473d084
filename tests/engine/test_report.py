"""Tests for repro.engine.report."""

import numpy as np
import pytest

from repro.data.shards import ShardedDatabase
from repro.engine.report import (
    class_reports,
    class_sizes,
    classification_report,
    influence_values,
    membership,
)
from repro.engine.rlog import detailed_report
from repro.engine.search import SearchConfig, run_search


@pytest.fixture(scope="module")
def fitted(paper_db):
    cfg = SearchConfig(start_j_list=(3,), max_n_tries=1, seed=2, max_cycles=60)
    res = run_search(paper_db, cfg)
    return res.best.classification


class TestMembership:
    def test_shapes(self, paper_db, fitted):
        wts, hard = membership(paper_db, fitted)
        assert wts.shape == (paper_db.n_items, fitted.n_classes)
        assert hard.shape == (paper_db.n_items,)

    def test_rows_normalized(self, paper_db, fitted):
        wts, _ = membership(paper_db, fitted)
        np.testing.assert_allclose(wts.sum(axis=1), 1.0, atol=1e-10)

    def test_hard_is_argmax(self, paper_db, fitted):
        wts, hard = membership(paper_db, fitted)
        np.testing.assert_array_equal(hard, wts.argmax(axis=1))


class TestInfluence:
    def test_shape(self, paper_db, fitted):
        infl = influence_values(paper_db, fitted)
        assert infl.shape == (fitted.n_classes, fitted.spec.n_terms)

    def test_nonnegative(self, paper_db, fitted):
        assert np.all(influence_values(paper_db, fitted) >= -1e-12)


class TestClassReports:
    def test_sorted_by_weight(self, paper_db, fitted):
        reports = class_reports(paper_db, fitted)
        weights = [r.weight for r in reports]
        assert weights == sorted(weights, reverse=True)

    def test_members_sum_to_n(self, paper_db, fitted):
        reports = class_reports(paper_db, fitted)
        assert sum(r.n_members for r in reports) == pytest.approx(paper_db.n_items)

    def test_influences_sorted_descending(self, paper_db, fitted):
        for r in class_reports(paper_db, fitted):
            values = [v for _, v in r.influences]
            assert values == sorted(values, reverse=True)

    def test_report_text(self, paper_db, fitted):
        text = classification_report(paper_db, fitted)
        assert "Classes by weight" in text
        assert "x0" in text


class TestShardView:
    """A view is reduced chunk by chunk: the hard counts are exact, the
    summed ``w_j`` and global statistics agree to summation order."""

    @pytest.fixture(scope="class")
    def sdb(self, paper_db, tmp_path_factory):
        return ShardedDatabase.from_database(
            paper_db, tmp_path_factory.mktemp("report") / "s",
            shard_items=700, chunk_items=300,
        )

    def test_class_sizes(self, paper_db, sdb, fitted):
        w_mem, counts_mem = class_sizes(paper_db, fitted)
        w_st, counts_st = class_sizes(sdb, fitted)
        _, hard = membership(paper_db, fitted)
        np.testing.assert_array_equal(counts_mem, np.bincount(hard, minlength=3))
        np.testing.assert_array_equal(counts_st, counts_mem)
        np.testing.assert_allclose(w_st, w_mem, rtol=1e-12)

    def test_influence_values(self, paper_db, sdb, fitted):
        np.testing.assert_allclose(
            influence_values(sdb, fitted), influence_values(paper_db, fitted),
            rtol=1e-9, atol=1e-12,
        )

    def test_detailed_report_text(self, paper_db, sdb, fitted):
        assert detailed_report(sdb, fitted) == detailed_report(paper_db, fitted)

