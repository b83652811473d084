"""Satellite of the conformance PR: resumed runs are *conformant* runs.

PR 3 proved interrupted-and-restored searches bit-match their
uninterrupted twins by hand-comparing a handful of fields.  With the
conformance subsystem the claim is stated once and checked everywhere:
a checkpoint-resumed run under ``verify="strict"`` is held to the same
trace comparison as any other run — every try score, every packed
parameter, the full class map — against a *fresh, uninterrupted*
sequential shadow.  If resume ever replayed a cycle, dropped a try, or
perturbed a reduction, the strict gate would raise.

Covers all four SPMD worlds (serial / threads / sim in-process with
injected faults; processes via cross-world resume — the checkpoint is
global state, so a run interrupted on one world may resume on another).
"""

from __future__ import annotations

import pytest

from repro.api import PAutoClass
from repro.data.synth import make_paper_database
from repro.mpc.faults import FaultInjector, FaultSpec

CONFIG = dict(start_j_list=(2, 3), max_n_tries=2, seed=7, max_cycles=15,
              init_method="sharp")


@pytest.fixture(scope="module")
def db():
    return make_paper_database(240, seed=31)


def _kill_at(rank):
    return FaultInjector(
        FaultSpec(rank=rank, action="kill", site="cycle", at_try=1,
                  at_cycle=2)
    )


@pytest.mark.parametrize("backend", ["serial", "threads", "sim"])
def test_resumed_run_passes_strict_verification(db, tmp_path, backend):
    procs = 1 if backend == "serial" else 2
    run = PAutoClass(
        n_processors=procs, backend=backend, try_groups=1, **CONFIG
    ).fit(
        db,
        checkpoint="per_cycle",
        checkpoint_dir=tmp_path,
        max_restarts=2,
        faults=_kill_at(procs - 1),
        verify="strict",
    )
    # the fault fired and the retry loop healed it...
    assert run.restarts == 1
    # ...and the healed run is conformant with an uninterrupted
    # sequential shadow — strict would have raised otherwise
    rep = run.conformance
    assert rep is not None and rep.ok
    assert len(rep.divergences) == 0
    expected = "bitwise" if procs == 1 else "reduction-order"
    assert rep.tolerance.label == expected


def test_processes_world_resume_is_conformant(db, tmp_path):
    # interrupt on threads, resume on the processes world: the
    # checkpoint is global state, so this exercises BOTH the fourth
    # world's strict verification and cross-world restore at once
    two = PAutoClass(
        n_processors=2, backend="threads", try_groups=1, **CONFIG
    )
    with pytest.raises(RuntimeError):
        two.fit(db, checkpoint="per_cycle", checkpoint_dir=tmp_path,
                faults=_kill_at(1))
    resumed = PAutoClass(
        n_processors=2, backend="processes", try_groups=1, **CONFIG
    ).fit(
        db, checkpoint="per_cycle", checkpoint_dir=tmp_path,
        verify="strict",
    )
    rep = resumed.conformance
    assert rep is not None and rep.ok
    assert len(rep.divergences) == 0
    assert rep.test.meta.world == "processes"
    assert rep.ref.meta.world == "sequential"
