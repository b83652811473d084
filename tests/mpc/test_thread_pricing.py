"""The threads world prices an object payload only for a recording rank.

Its payloads go by reference, so pricing an object (anything but an
array or bytes) means pickling it only to count it.  Uninstrumented,
nothing reads the count; recorded, the bytes are the ones the sim
world, which prices every payload, reports for the same fit.
"""

import pytest

import repro.mpc.threadworld as threadworld
from repro import PAutoClass, make_paper_database

CONFIG = dict(start_j_list=(2, 3, 4), max_n_tries=3, seed=5, max_cycles=6)


@pytest.fixture(scope="module")
def db():
    return make_paper_database(300, seed=19)


def _fit(db, backend, instrument):
    # Two one-rank try groups: the only messages are the merge's
    # try-result lists, object payloads.
    return PAutoClass(
        n_processors=2, backend=backend, try_groups=2,
        instrument=instrument, **CONFIG,
    ).fit(db)


def test_uninstrumented_fit_pickles_no_payload(db, monkeypatch):
    priced = []
    price = threadworld.payload_nbytes

    def spy(obj):
        priced.append(type(obj).__name__)
        return price(obj)

    monkeypatch.setattr(threadworld, "payload_nbytes", spy)
    assert _fit(db, "threads", "off").record is None
    assert [n for n in priced if n not in ("ndarray", "bytes")] == []
    _fit(db, "threads", "phases")
    assert "list" in priced


def test_recorded_bytes_match_the_sim_world(db):
    threads = _fit(db, "threads", "phases").record
    sim = _fit(db, "sim", "phases").record
    for key in ("bytes_sent", "bytes_received", "n_sends"):
        got = [r.comm[key] for r in threads.ranks]
        assert got == [r.comm[key] for r in sim.ranks], key
    assert threads.total_bytes_sent > 0
