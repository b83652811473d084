"""Per-layer probes of the traced pass.

Each probe is a direct call into a layer's *public* function on the
workload's own data and shapes, timed from outside (spans inside
``src/`` are a later change).  A probe that raises is listed under
``probe_errors`` with its metrics left ``null``; it never aborts the
run.  The SPMD programs are module-level so the processes world can
pickle them by reference.
"""

from __future__ import annotations

import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import median_of
from workloads import Workload, fit_once, widest_model, write_shards

MEMCPY_BYTES = 64 << 20
ALLREDUCE_ITERS = 500


@dataclass
class Context:
    """What the probes share: the workload's real inputs and shapes."""

    w: Workload
    seed: int
    data: object  # workloads.Data
    workdir: Path
    spans: object
    run: object  # the traced fit's Run (instrument="phases")
    fit_wall_s: float  # wall seconds of that traced fit
    smoke: bool = False  # cut the fixed-size probes (Scorer requests)
    spec: object = None
    clf: object = None  # classification at the largest J, 2 cycles in
    db_local: object = None  # one rank's rows (N / P), in memory
    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0

    @property
    def world(self) -> tuple[str, int]:
        """The workload's world; serial workloads borrow processes/shm
        P=2 so the mpc layer is priced at their payload shapes too."""
        if self.w.world == "serial":
            return "processes", 2
        return self.w.world, self.w.n_procs

    def probe(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            with self.spans.span(f"probe:{name}"):
                self.values.update(fn(self))
        except Exception as exc:  # a probe must not abort the run
            self.errors.append({
                "probe": name,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=4),
            })


def prepare(ctx: Context) -> dict:
    """Shapes every probe uses: model spec, rank-local rows, a warm clf."""
    from repro.data.partition import block_partition
    from repro.engine.cycle import base_cycle
    from repro.engine.init import initial_classification
    from repro.util.rng import spawn_rng

    ctx.spec = ctx.run.best.classification.spec
    ctx.db_local = block_partition(ctx.data.db, ctx.w.n_procs, 0)
    clf = initial_classification(
        ctx.db_local, ctx.spec, max(ctx.w.j_list), spawn_rng(ctx.seed),
        method="sharp",
    )
    for _ in range(2):
        clf, _wts, _stats = base_cycle(ctx.db_local, clf)
    ctx.clf = clf
    return {}


# -- host ---------------------------------------------------------------

def host(ctx: Context) -> dict:
    src = np.ones(MEMCPY_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    copy_s = median_of(lambda: np.copyto(dst, src), 5)
    x = np.random.default_rng(0).normal(size=(100_000, 24))
    out = np.empty_like(x)
    exp_s = median_of(lambda: np.exp(x, out=out), 5)
    a = np.random.default_rng(1).normal(size=(512, 512))
    a @ a
    gemm_s = median_of(lambda: a @ a, 5)
    return {
        "host.memcpy_gbps": MEMCPY_BYTES / copy_s / 1e9,
        "host.exp_mops": x.size / exp_s / 1e6,
        "host.gemm_gflops": 2 * 512**3 / gemm_s / 1e9,
    }


# -- engine / kernels -----------------------------------------------------

def engine(ctx: Context) -> dict:
    from repro.engine.approx import update_approximations
    from repro.engine.cycle import base_cycle
    from repro.engine.init import initial_classification
    from repro.engine.params import update_parameters
    from repro.engine.wts import update_wts
    from repro.util.rng import spawn_rng

    db, clf = ctx.db_local, ctx.clf
    wts_s = median_of(lambda: update_wts(db, clf), 5)
    wts, reduction = update_wts(db, clf)
    params_s = median_of(
        lambda: update_parameters(db, clf, wts, reduction.w_j), 5
    )
    _new, stats = update_parameters(db, clf, wts, reduction.w_j)
    approx_s = median_of(
        lambda: update_approximations(clf, stats, reduction, db.n_items), 5
    )
    # Ranks draw the full item range and keep their slice, so a try's
    # init costs N rows on every world.
    full = ctx.data.db
    init_s = median_of(
        lambda: initial_classification(
            full, ctx.spec, clf.n_classes, spawn_rng(ctx.seed), method="sharp"
        ), 3,
    )
    cycle_s = median_of(lambda: base_cycle(db, clf), 5)
    cells = db.n_items * clf.n_classes
    return {
        "engine.update_wts_ms": wts_s * 1e3,
        "engine.update_wts_mcells_per_s": cells / wts_s / 1e6,
        "engine.update_parameters_ms": params_s * 1e3,
        "engine.update_approximations_ms": approx_s * 1e3,
        "engine.init_ms": init_s * 1e3,
        "engine.cycle_ms": cycle_s * 1e3,
    }


def stream_and_data(ctx: Context) -> dict:
    from repro import ShardedDatabase
    from repro.kernels.stream import streamed_local_pass

    # The rank-local rows as shards: the workload's own, or written here.
    if ctx.w.streamed:
        sdb = ShardedDatabase.open(ctx.data.shard_dir)
        write_s = ctx.data.seconds["shard_write"]
    else:
        t0 = time.perf_counter()
        sdb = write_shards(ctx.db_local, ctx.workdir / "probe_shards")
        write_s = time.perf_counter() - t0
    try:
        path = sdb.path
        open_s = median_of(lambda: ShardedDatabase.open(path).close(), 5)
        pass_s = median_of(lambda: streamed_local_pass(sdb, ctx.clf), 3)
        nbytes = 0

        def chunk_pass():
            nonlocal nbytes
            nbytes = 0
            total = 0.0
            for chunk in sdb.iter_chunks():
                for col in chunk.columns:
                    total += float(col.sum())
                    nbytes += col.nbytes
            return total

        chunk_s = median_of(chunk_pass, 3)
    finally:
        sdb.close()
        if not ctx.w.streamed:
            shutil.rmtree(ctx.workdir / "probe_shards", ignore_errors=True)
    return {
        "kernels.stream_pass_ms": pass_s * 1e3,
        "data.synth_ms": ctx.data.seconds["synth"] * 1e3,
        "data.shard_write_ms": write_s * 1e3,
        "data.open_ms": open_s * 1e3,
        "data.chunk_pass_ms": chunk_s * 1e3,
        "data.chunk_pass_gbps": nbytes / chunk_s / 1e9,
    }


# -- mpc / parallel -------------------------------------------------------

def run_world(kind: str, size: int, fn, *args, transport: str = "shm"):
    """Run ``fn(comm, *args)`` on a world; rank-ordered results."""
    if kind == "processes":
        from repro.mpc.procworld import run_spmd_processes

        return run_spmd_processes(fn, size, *args, transport=transport)
    if kind == "threads":
        from repro.mpc.threadworld import run_spmd_threads

        return run_spmd_threads(fn, size, *args)
    from repro.harness.runner import calibrated_machine
    from repro.simnet.simworld import run_spmd_sim

    return run_spmd_sim(
        fn, size, calibrated_machine(size), *args, compute_mode="counted"
    ).results


def _noop(comm):
    return comm.rank


def _timed(comm, call, iters: int) -> tuple[float, float]:
    """Median (wall seconds, world-clock seconds) of ``iters`` calls."""
    wall, clock = [], []
    for _ in range(iters):
        c0, t0 = comm.wtime(), time.perf_counter()
        call()
        wall.append(time.perf_counter() - t0)
        clock.append(comm.wtime() - c0)
    return statistics.median(wall), statistics.median(clock)


def _comm_probe(comm, n_small: int, n_stats: int, full: bool):
    """The fits' reduction call (``allreduce_into``, in place) at the
    workload's two payload sizes, plus 1 MiB and a barrier."""
    def reducing(buf):
        def call():
            buf.fill(1.0)  # in place: the sum would overflow otherwise
            comm.allreduce_into(buf)
        return call

    small = reducing(np.empty(n_small))
    small()
    comm.barrier()
    out = {"small": _timed(comm, small, ALLREDUCE_ITERS)}
    if full:
        out["stats"] = _timed(
            comm, reducing(np.empty(n_stats)), ALLREDUCE_ITERS
        )
        out["mib"] = _timed(comm, reducing(np.empty((1 << 20) // 8)), 20)
        out["barrier"] = _timed(comm, comm.barrier, 200)
    return out


def _slowest(results, key: str, clock: int = 0) -> float:
    return max(r[key][clock] for r in results)


def mpc(ctx: Context) -> dict:
    kind, size = ctx.world
    j = max(ctx.w.j_list)
    shapes = (j + 2, j * ctx.spec.n_stats)
    spawn_s = median_of(lambda: run_world(kind, size, _noop), 5)
    main = run_world(kind, size, _comm_probe, *shapes, True)
    pipe = run_world("processes", 2, _comm_probe, *shapes, False,
                     transport="pipe")
    threads = run_world("threads", 2, _comm_probe, *shapes, False)
    out = {
        "mpc.world_spawn_ms": spawn_s * 1e3,
        "mpc.allreduce_small_us": _slowest(main, "small") * 1e6,
        "mpc.allreduce_stats_us": _slowest(main, "stats") * 1e6,
        "mpc.allreduce_1mib_mbps": (1 << 20) / _slowest(main, "mib") / 1e6,
        "mpc.barrier_us": _slowest(main, "barrier") * 1e6,
        "mpc.allreduce_small_us.pipe": _slowest(pipe, "small") * 1e6,
        "mpc.allreduce_small_us.threads": _slowest(threads, "small") * 1e6,
    }
    if kind == "sim":
        out["simnet.allreduce_small_virtual_us"] = (
            _slowest(main, "small", clock=1) * 1e6
        )
    return out


def _pcycle_probe(comm, db, clf, n_total: int, iters: int) -> float:
    from repro.data.partition import block_partition
    from repro.data.shards import is_streamable
    from repro.parallel.packed import ReductionPlan
    from repro.parallel.pcycle import parallel_base_cycle

    if is_streamable(db):
        local = db.block(comm.size, comm.rank)
    else:
        local = block_partition(db, comm.size, comm.rank)
    plan = ReductionPlan(comm, clf.n_classes, clf.spec.n_stats)
    parallel_base_cycle(local, clf, n_total, comm, plan=plan)
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        parallel_base_cycle(local, clf, n_total, comm, plan=plan)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def parallel(ctx: Context) -> dict:
    kind, size = ctx.world
    db = ctx.data.fit_input()
    try:
        per_rank = run_world(
            kind, size, _pcycle_probe, db, ctx.clf, ctx.w.n_items, 20
        )
    finally:
        if ctx.w.streamed:
            db.close()
    return {"parallel.cycle_ms": max(per_rank) * 1e3}


# -- ckpt / serve -----------------------------------------------------------

def ckpt(ctx: Context) -> dict:
    """Save and resume at this workload's result size.

    The directory holds the finished search's checkpoint, written with
    the layer's own ``Checkpointer.save_boundary``; ``resume_ms`` is a
    whole ``fit(resume=True)`` against it on the workload's world.
    """
    from repro.ckpt import Checkpointer
    from repro.util.rng import SeedSequenceStream

    directory = ctx.workdir / "probe_ckpt"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        source = ctx.data.fit_input()
        digest = source.manifest_digest if ctx.w.streamed else None
        if ctx.w.streamed:
            source.close()
        config = ctx.run.result.config
        saver = Checkpointer(directory, policy="per_cycle")
        saver.bind(config, ctx.spec, ctx.w.n_items, data_digest=digest)
        stream = SeedSequenceStream(config.seed)
        save_s = median_of(
            lambda: saver.save_boundary(ctx.run.result, stream), 7
        )
        nbytes = saver.path.stat().st_size
        resumed = []

        def resume():
            resumed.append(fit_once(
                ctx.w, ctx.seed, ctx.data, ctx.workdir,
                ckpt_dir=directory, resume=True,
            ))

        resume_s = median_of(resume, 3)
        if resumed[-1].run.best.score != ctx.run.best.score:
            raise AssertionError("resumed fit returned another best score")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "ckpt.bytes_per_save": nbytes,
        "ckpt.save_ms": save_s * 1e3,
        "ckpt.resume_ms": resume_s * 1e3,
    }


def serve(ctx: Context) -> dict:
    from repro import FittedModel

    base = ctx.workdir / "probe_model"
    db = ctx.data.db
    freeze_s = median_of(lambda: ctx.run.fitted(db), 5)
    model = widest_model(ctx.run, db)
    try:
        save_s = median_of(lambda: model.save(base), 5)
        paths = model.save(base)
        nbytes = sum(p.stat().st_size for p in paths)
        load_s = median_of(lambda: FittedModel.load(base), 5)
        loaded = FittedModel.load(base)
    finally:
        for suffix in (".json", ".npz"):
            base.with_suffix(suffix).unlink(missing_ok=True)
    source = ctx.data.fit_input()
    try:
        predict_s = median_of(lambda: loaded.predict(source), 5)
    finally:
        if ctx.w.streamed:
            source.close()
    out = {
        "serve.freeze_ms": freeze_s * 1e3,
        "serve.save_ms": save_s * 1e3,
        "serve.load_ms": load_s * 1e3,
        "serve.artifact_bytes": nbytes,
        "serve.predict_us_per_item": predict_s / ctx.w.n_items * 1e6,
    }
    if ctx.w.name == "mixed_durable":
        out.update(_scorer(loaded, db, ctx.smoke))
    return out


def _scorer(model, db, smoke: bool):
    """Single-item requests through the micro-batching Scorer vs a plain
    itemwise ``predict`` loop.  Too noisy here (24-50 k items/s) for an
    end-to-end metric, which is why it is a layer metric."""
    from repro import Scorer, ScorerConfig

    n_requests, n_itemwise, reps = (
        (1_500, 100, 2) if smoke else (30_000, 2_000, 7)
    )
    n = db.n_items
    requests = [db.take(slice(i % n, i % n + 1)) for i in range(n_requests)]
    rates, batches = [], []
    for _ in range(reps):
        config = ScorerConfig(max_batch=64, queue_items=n_requests)
        with Scorer(model, config) as scorer:
            t0 = time.perf_counter()
            pending = [scorer.submit(r) for r in requests]
            for p in pending:
                p.result()
            rates.append(n_requests / (time.perf_counter() - t0) / 1e3)
            batches.append(scorer.metrics.mean_batch_items)
    t0 = time.perf_counter()
    for r in requests[:n_itemwise]:
        model.predict(r)
    itemwise = n_itemwise / (time.perf_counter() - t0) / 1e3
    return {
        "serve.scorer_kitems_per_s": statistics.median(rates),
        "serve.itemwise_kitems_per_s": itemwise,
        "serve.scorer_mean_batch_items": statistics.median(batches),
    }


# -- the traced fit's own record --------------------------------------------

def slowest_rank(record):
    return max(record.ranks, key=lambda r: r.wall_seconds)


def from_record(ctx: Context) -> dict:
    """Counts and phase shares from ``run.record`` (Tables 2-3 shape)."""
    run, record = ctx.run, ctx.run.record
    slowest = slowest_rank(record)
    rank0 = record.ranks[0]
    tries = run.result.tries
    shm = rank0.comm.get("n_shm_msgs", 0.0)
    pipe = rank0.comm.get("n_pipe_msgs", 0.0)
    compute = [r.compute_seconds for r in record.ranks]
    out = {
        "engine.cycles_per_fit": sum(t.n_cycles for t in tries),
        "engine.tries_per_fit": len(tries),
        "engine.duplicates_per_fit": run.result.n_duplicates,
        "mpc.collectives_per_fit": rank0.comm.get("n_collectives", 0.0),
        "mpc.msgs_per_fit": rank0.comm.get("n_sends", 0.0),
        "mpc.bytes_per_fit": rank0.comm.get("bytes_sent", 0.0),
        "mpc.shm_msg_frac": shm / (shm + pipe) if shm + pipe else 0.0,
        "parallel.comm_share":
            slowest.allreduce_seconds / slowest.wall_seconds,
        "parallel.imbalance": max(compute) / min(compute),
        "ckpt.saves_per_fit": rank0.counters.get("ckpt_saves", 0),
        "obs.unattributed_frac":
            1.0 - slowest.total_phase_seconds / (
                slowest.wall_seconds if record.clock == "virtual"
                else ctx.fit_wall_s
            ),
    }
    if record.clock == "wall":
        # On a virtual clock the rank's seconds are priced counts and
        # cannot be subtracted from wall time.
        out["engine.search_shell_ms"] = (
            slowest.wall_seconds - slowest.total_phase_seconds
        ) * 1e3
        out["api.shell_ms"] = (ctx.fit_wall_s - slowest.wall_seconds) * 1e3
    else:
        cycles = out["engine.cycles_per_fit"]
        out.update({
            "simnet.elapsed_virtual_s": run.sim_elapsed,
            "simnet.virtual_cycle_ms": run.sim_elapsed / cycles * 1e3,
            "simnet.comm_share_virtual": out["parallel.comm_share"],
            "simnet.wall_per_virtual_s": ctx.fit_wall_s / run.sim_elapsed,
        })
    return out


def derive(ctx: Context) -> dict:
    """Ratios that need two probes' values (absent inputs -> absent)."""
    v, out = ctx.values, {}
    j = max(ctx.w.j_list)
    if "engine.update_wts_mcells_per_s" in v and "host.exp_mops" in v:
        # Computed, not measured: per cell the E-step writes and reads
        # the log-joint and the scratch buffer and rewrites the weights
        # (5 x 8 B), and streams one design row of n_stats doubles per J
        # cells.  Cache misses are not in it.
        bytes_per_cell = 40.0 + 8.0 * ctx.spec.n_stats / j
        bound = min(
            v["host.exp_mops"], v["host.memcpy_gbps"] * 1e3 / bytes_per_cell
        )
        out["kernels.estep_bytes_per_cell_computed"] = bytes_per_cell
        out["kernels.estep_frac_of_bound"] = (
            v["engine.update_wts_mcells_per_s"] / bound
        )
    if "kernels.stream_pass_ms" in v and "engine.update_wts_ms" in v:
        out["kernels.stream_tax"] = v["kernels.stream_pass_ms"] / (
            v["engine.update_wts_ms"] + v["engine.update_parameters_ms"]
        )
    if "engine.cycle_ms" in v and ctx.run.record.clock == "wall":
        # Probes ran at the largest J; E/M cost is linear in J, so each
        # try is scaled by J_t / J_max ("cell-scaled").
        slowest = slowest_rank(ctx.run.record)
        phases = slowest.total_phase_seconds - slowest.allreduce_seconds
        predicted = sum(
            (t.n_cycles * v["engine.cycle_ms"] + v["engine.init_ms"])
            * t.n_classes_requested / j
            for t in ctx.run.result.tries
        ) / 1e3
        out["obs.probe_vs_phase_ratio"] = predicted / phases
    return out


def plan_and_workspace_stats():
    """Snapshot of (plan hits, plan misses, ws hits, ws misses)."""
    from repro.kernels import plan_cache_stats, workspace_stats

    p, ws = plan_cache_stats(), workspace_stats()
    return p.hits, p.misses, ws.hits, ws.misses


def cache_fracs(before, after) -> dict:
    """Useful / attempts over one fit; absent when nothing was attempted
    in this process (the processes world's ranks own their caches)."""
    ph, pm, wh, wm = (a - b for a, b in zip(after, before))
    out = {}
    if ph + pm:
        out["kernels.plan_cache_hit_frac"] = ph / (ph + pm)
    if wh + wm:
        out["kernels.workspace_reuse_frac"] = wh / (wh + wm)
    return out


def run_all(ctx: Context) -> None:
    for name, fn in (
        ("record", from_record), ("prepare", prepare),
        ("host", host), ("engine", engine),
        ("stream_and_data", stream_and_data), ("mpc", mpc),
        ("parallel", parallel), ("ckpt", ckpt), ("serve", serve),
    ):
        ctx.probe(name, fn)
    ctx.values.update(derive(ctx))
