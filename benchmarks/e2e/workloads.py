"""The six named workloads of ``bench_e2e`` and how each one is fitted.

Importing this module imports neither numpy nor ``repro`` (the parent
process reads names and reasons from it before pinning the BLAS pool);
the functions import what they call.

Every fit pins ``init_method="sharp"``, ``rel_delta=1e-14`` and a fixed
``max_cycles``, so no try converges early and the work of a fit is a
constant: cycle counts repeat exactly from run to run.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

PAPER_J = (2, 4, 8, 16, 24, 50, 64)

#: Shard and chunk rows of every ShardedDatabase the benchmark writes.
SHARD_ITEMS = 16_384


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, quoted in BENCHMARK.json
    n_items: int
    j_list: tuple[int, ...]
    n_tries: int
    n_cycles: int
    data: str = "paper"  # "paper" | "mixed"
    world: str = "serial"  # "serial" | "processes" | "sim"
    n_procs: int = 1
    streamed: bool = False
    checkpoint: bool = False
    #: The second, interleaved arm that forms this workload's ratio:
    #: "serial" (parallel_efficiency), "ckpt_off" (ckpt_fit_s_off) or None.
    alt: str | None = None
    #: Listed in BENCHMARK.json (run by the driver).  False for the sim
    #: world: 10 rank threads on 2 cores give identical fits wall times
    #: of 1.8-5.0 s, a spread no bound the contract allows can hold; its
    #: point is the exact virtual metrics, which the suite compares.
    contract: bool = True

    def scaled(self, divisor: int) -> "Workload":
        """Same shapes and checks on ``n_items / divisor`` rows (--smoke)."""
        return replace(self, n_items=max(self.n_items // divisor, 250))


WORKLOADS = (
    Workload(
        "paper_serial",
        "paper's largest dataset and J list on one thread: the plain "
        "baseline, engine/kernels do >95 % of the work, mpc none",
        100_000, PAPER_J, 7, 10,
    ),
    Workload(
        "paper_procs2",
        "same fit on 2 processes over shm: scaling efficiency and the "
        "api/mpc shell cost while compute dominates (comm share ~8 %)",
        100_000, PAPER_J, 7, 10,
        world="processes", n_procs=2, alt="serial",
    ),
    Workload(
        "small_procs2",
        "paper's smallest dataset, 100 cycles, 2 processes: 1407 "
        "collectives per fit, comm share ~31 %; bypasses the kernels, "
        "targets mpc and per-cycle overhead",
        5_000, PAPER_J, 7, 100,
        world="processes", n_procs=2, alt="serial",
    ),
    Workload(
        "stream_serial",
        "400k rows streamed from 16k-row mmap shards: same kernels used "
        "chunked plus data.shards work every cycle; peak RSS is the "
        "headline",
        400_000, (8, 16, 24), 3, 10, streamed=True,
    ),
    Workload(
        "mixed_durable",
        "mixed real/discrete data with missing cells, 8 short tries, "
        "per-cycle checkpoints: ckpt, models, search control and serve "
        "do the work the paper workloads hide",
        # The J list is written out for all 8 tries: past its end the
        # search draws J from the seed, and work per fit must not depend
        # on the seed.
        30_000, (4, 6, 8, 12) * 2, 8, 15,
        data="mixed", checkpoint=True, alt="ckpt_off",
    ),
    Workload(
        "sim_cs2_p10",
        "the paper's own vehicle: 10 ranks on the simulated CS-2; "
        "virtual time is an exact count of work, messages, bytes and "
        "rounds, wall time is the cost of regenerating a figure",
        100_000, PAPER_J, 7, 5, world="sim", n_procs=10, contract=False,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Data:
    """One set-up: the generated inputs a workload's fits receive."""

    db: object  # the in-memory Database that was synthesized
    truth: object | None  # generating labels (mixed data only)
    shard_dir: Path | None  # where the shards were written (streamed)
    seconds: dict  # synth / shard_write / open

    def fit_input(self):
        """What ``fit`` is handed: the database, or freshly opened shards."""
        if self.shard_dir is None:
            return self.db
        from repro import ShardedDatabase

        return ShardedDatabase.open(self.shard_dir)

    def discard(self) -> None:
        if self.shard_dir is not None:
            shutil.rmtree(self.shard_dir, ignore_errors=True)


def synthesize(w: Workload, seed: int):
    """``(db, truth)`` for this workload from ``seed`` alone."""
    from repro import make_mixed_database, make_paper_database

    if w.data == "mixed":
        return make_mixed_database(
            w.n_items, n_clusters=6, n_real=4, n_discrete=4, arity=6,
            missing_rate=0.05, seed=seed,
        )
    return make_paper_database(w.n_items, seed=seed), None


def write_shards(db, directory: Path):
    from repro import ShardedDatabase

    return ShardedDatabase.from_database(
        db, directory, shard_items=SHARD_ITEMS, chunk_items=SHARD_ITEMS
    )


def set_up(w: Workload, seed: int, workdir: Path, spans) -> Data:
    """Synthesize (and, for a streamed workload, shard) the inputs."""
    seconds = {}
    t0 = time.perf_counter()
    with spans.span("synth"):
        db, truth = synthesize(w, seed)
    seconds["synth"] = time.perf_counter() - t0
    shard_dir = None
    if w.streamed:
        shard_dir = workdir / "shards"
        t0 = time.perf_counter()
        with spans.span("shard"):
            write_shards(db, shard_dir).close()
        seconds["shard_write"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        with spans.span("open"):
            from repro import ShardedDatabase

            ShardedDatabase.open(shard_dir).close()
        seconds["open"] = time.perf_counter() - t0
    return Data(db, truth, shard_dir, seconds)


def search_kwargs(w: Workload, seed: int) -> dict:
    return dict(
        start_j_list=w.j_list, max_n_tries=w.n_tries, max_cycles=w.n_cycles,
        rel_delta=1e-14, init_method="sharp", seed=seed + 7,
    )


def make_model(w: Workload, seed: int, *, arm: str = "main",
               instrument: str = "off"):
    """The estimator of one arm: "main", "serial" or "sim1" (P=1 sim)."""
    from repro import AutoClass, PAutoClass

    kw = dict(search_kwargs(w, seed), instrument=instrument)
    if arm == "serial" or w.world == "serial":
        return AutoClass(**kw)
    if w.world == "processes":
        return PAutoClass(
            backend="processes", transport="shm", n_processors=w.n_procs, **kw
        )
    return PAutoClass(
        backend="sim", n_processors=1 if arm == "sim1" else w.n_procs, **kw
    )


@dataclass
class FitSample:
    run: object
    wall_s: float
    cpu_s: float  # user+sys of this process and its reaped children


def cpu_seconds() -> float:
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def fit_once(w: Workload, seed: int, data: Data, workdir: Path, *,
             arm: str = "main", instrument: str = "off",
             verify: str = "off", db=None,
             ckpt_dir: Path | None = None, resume: bool = False) -> FitSample:
    """One whole fit, timed from the constructor to ``Run`` returned.

    The main arm of a checkpointing workload writes ``per_cycle`` into a
    fresh directory per fit and removes it afterwards; a caller that
    passes ``ckpt_dir`` owns it instead (any workload then checkpoints,
    and ``resume=True`` keeps what the directory holds).
    ``arm="ckpt_off"`` is the same search with durability off.  ``db``
    overrides the input (reduced-size checks).  A streamed workload
    re-opens its shards inside the timed region, as a user's
    ``fit(ShardedDatabase.open(path))`` does.
    """
    fit_kw = {} if verify == "off" else {"verify": verify}
    own_ckpt = None
    if ckpt_dir is None and w.checkpoint and arm == "main":
        ckpt_dir = own_ckpt = workdir / "ckpt_fit"
    if ckpt_dir is not None:
        if not resume:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        fit_kw.update(checkpoint="per_cycle", checkpoint_dir=ckpt_dir)
    source = db
    try:
        c0, t0 = cpu_seconds(), time.perf_counter()
        model = make_model(
            w, seed, arm="main" if arm == "ckpt_off" else arm,
            instrument=instrument,
        )
        if source is None:
            source = data.fit_input()
        run = model.fit(source, **fit_kw)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    finally:
        if own_ckpt is not None:
            shutil.rmtree(own_ckpt, ignore_errors=True)
        if db is None and data.shard_dir is not None and source is not None:
            source.close()
    return FitSample(run, wall, cpu)


def widest_model(run, db):
    """The fit's largest-J try, frozen — the model predict is timed on.

    Which try scores best depends on the data, hence on the seed, and
    predict costs N x J; the largest requested J is fixed by the
    workload, so the timed work is the same on every seed.
    """
    widest = max(run.result.tries, key=lambda t: t.n_classes_requested)
    return replace(run.fitted(db), classification=widest.classification)


def mcells(run, n_items: int) -> float:
    """1e6 item·class·cycles the fit performed (from its own counts)."""
    return n_items * sum(
        t.n_classes_requested * t.n_cycles for t in run.result.tries
    ) / 1e6
