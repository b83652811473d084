"""One 1-rank path: :class:`AutoClass` is :class:`PAutoClass` on one
rank of the ``"serial"`` world, so sequential AutoClass is P-AutoClass
at P = 1 — the run every speedup is a ratio to.  The reference kernels
are no backend; only :mod:`repro.verify` fits them."""

import pytest

import repro.api as api
import repro.parallel as parallel
import repro.parallel.psearch as psearch
from repro import AutoClass, PAutoClass, make_paper_database

CONFIG = dict(start_j_list=(2, 3), max_n_tries=2, seed=1, max_cycles=10)

#: tests/engine/test_search.py::TestTimeBudget's shape: the budget
#: expires at once, and the first try always runs.
BUDGET = dict(
    start_j_list=(4, 4, 4, 4, 4, 4), max_n_tries=6, seed=2, max_cycles=40,
    max_seconds=1e-9,
)


@pytest.fixture(scope="module")
def db():
    return make_paper_database(300, seed=31)


def test_every_fit_enters_the_rank_program_once(db, monkeypatch):
    real = psearch.run_pautoclass
    sizes = []

    def spy(comm, *args, **kwargs):
        sizes.append(comm.size)
        return real(comm, *args, **kwargs)

    for module in (psearch, parallel, api):
        monkeypatch.setattr(module, "run_pautoclass", spy)
    AutoClass(**CONFIG).fit(db)
    assert sizes == [1]
    PAutoClass(n_processors=1, backend="serial", **CONFIG).fit(db)
    assert sizes == [1, 1]
    # the shell never runs the loop itself
    assert "run_search" not in vars(api)


def test_one_rank_budget_runs_one_try_on_both_estimators():
    db = make_paper_database(2_000, seed=1)
    ac = AutoClass(**BUDGET).fit(db)
    pac = PAutoClass(n_processors=1, backend="serial", **BUDGET).fit(db)
    assert len(ac.result.tries) == len(pac.result.tries) == 1
    assert ac.best.score == pac.best.score
