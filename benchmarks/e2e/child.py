"""One workload, one pass, in a fresh interpreter.

``run.py`` starts this file once per (workload, pass) with the BLAS
pools pinned, and reads the result document it writes.  Passes:

* ``--trace 0`` — set-up, warm-up fit, peak RSS, timed repetitions,
  predict, correctness checks; tracing off;
* ``--trace 1`` — untraced/traced fit pairs, then the per-layer probes;
  spans go to ``out/trace_<workload>.json``;
* ``--mode checks`` — the correctness checks at full size (the suite's
  deep pass; too slow to ride on every contract run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from metrics import PINS  # noqa: E402  (numpy-free, like this module)

#: Contract runs check conformance on a prefix of this many rows (or a
#: tenth of the data if larger): the full-size strict shadow fit of
#: ``paper_serial`` alone costs ~14 s on the reference kernels.
MIN_CHECK_ITEMS = 5_000
MAX_REPS = 15
PREDICTS_PER_REP = 5
#: Pairs of (main, second-arm) fits per run; further repetitions time
#: the main arm alone (a serial paper fit costs 1.5x the 2-rank one).
MAX_ALT_REPS = 5
#: Allowed relative gap of a P-rank score to the serial one: P partial
#: sums associate differently (the repo's reduction-order tolerance).
SCORE_RTOL = 1e-9
#: Over 40 seeds the J=6 try wins on 35 (ARI >= 0.978) and a J=8 try,
#: which splits a true cluster, on 5 (ARI down to 0.941).
MIN_ARI = 0.90


def refuse_unpinned() -> None:
    """Ranks x threads must not exceed nproc: every BLAS pool is 1."""
    wrong = {k: os.environ.get(k) for k in PINS if os.environ.get(k) != "1"}
    if wrong:
        raise SystemExit(
            f"bench_e2e child refuses to run: thread pins not 1: {wrong}"
            + (" (numpy already imported)" if "numpy" in sys.modules else "")
        )


class Ops:
    """Attempted / failed operations of one pass.

    An operation is each timed fit, predict, save, load and each
    correctness check; a failure is one that raised or checked false.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def done(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, fn) -> None:
        """``fn()`` returns truth (or a message describing the failure)."""
        self.attempted += 1
        try:
            verdict = fn()
        except Exception as exc:
            verdict = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        if verdict is not True:
            self.failures.append(f"{name}: {verdict}")


def same_search(a, b, exact: bool) -> bool | str:
    """Same per-try cycle counts and best score (bitwise or to rtol)."""
    cycles = [t.n_cycles for t in a.result.tries]
    if cycles != [t.n_cycles for t in b.result.tries]:
        return "per-try cycle counts differ"
    sa, sb = a.best.score, b.best.score
    if exact:
        return sa == sb or f"best score {sa!r} != {sb!r}"
    return abs(sa - sb) <= SCORE_RTOL * abs(sb) or (
        f"best score {sa!r} vs {sb!r} beyond rtol {SCORE_RTOL}"
    )


def library_versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(args) -> dict:
    from measure import Spans, peak_rss_mb, summarize
    from repro import FittedModel
    from workloads import BY_NAME, fit_once, mcells, set_up, widest_model

    w = BY_NAME[args.workload]
    if args.scale > 1:
        w = w.scaled(args.scale)
    seed, workdir = args.seed, Path(args.workdir)
    tracing = args.trace == 1
    measuring = args.mode == "measure" and not tracing
    spans = Spans(w.name, enabled=tracing)
    ops = Ops()

    def fit(**kw):
        sample = fit_once(w, seed, data, workdir, **kw)
        ops.done()
        return sample

    t0 = time.perf_counter()
    data = set_up(w, seed, workdir, spans)
    keep_ckpt = workdir / "ckpt_keep" if w.checkpoint else None
    try:
        with spans.span("fit"):
            warm = fit(ckpt_dir=keep_ckpt)
        # The process has done set-up and one fit and nothing else.
        rss_mb = peak_rss_mb()
        base = workdir / "model"

        def round_trip(model):
            """Through save and load, as a served artifact travels."""
            with spans.span("save"):
                model.save(base)
            with spans.span("load"):
                back = FittedModel.load(base)
            ops.done(2)
            for suffix in (".json", ".npz"):
                base.with_suffix(suffix).unlink()
            return back

        with spans.span("fitted"):
            best = warm.run.fitted(data.db)
        loaded = round_trip(best)
        wide = round_trip(widest_model(warm.run, data.db))
        # Everything before the first timed repetition.
        setup_s = time.perf_counter() - t0

        doc = {
            "workload": w.name, "seed": seed, "trace": args.trace,
            "mode": args.mode, "env": library_versions(),
            "rows": {
                "n_items": w.n_items, "n_procs": w.n_procs,
                "tries": len(warm.run.result.tries),
                "cycles": sum(t.n_cycles for t in warm.run.result.tries),
                "duplicates": warm.run.result.n_duplicates,
                "best_log_marginal_cs": warm.run.best.score,
                "mcells_per_fit": mcells(warm.run, w.n_items),
            },
        }
        reference = None
        if measuring:
            doc["end_to_end"], reference = timed_pass(
                args, w, ops, fit, warm, wide, data, setup_s, rss_mb,
            )
        if tracing:
            doc.update(traced_pass(args, w, ops, fit, spans, data, workdir))
        else:
            n_check = w.n_items
            if args.mode == "measure":
                n_check = min(w.n_items, max(w.n_items // 10, MIN_CHECK_ITEMS))
            doc["checks"] = checks(
                w, ops, fit, warm, loaded, data, keep_ckpt, n_check,
                reference,
            )
            if args.mode == "checks" and w.streamed:
                # Check (c) has just fitted the same data in memory.
                doc["checks"]["streamed_fit_peak_rss_mb"] = rss_mb
                doc["checks"]["in_memory_fit_peak_rss_mb"] = peak_rss_mb()
        doc["ops"] = {
            "attempted": ops.attempted, "failed": len(ops.failures),
            "failures": ops.failures,
        }
        if measuring:
            doc["end_to_end"]["ops_failed_frac"] = dict(
                summarize([len(ops.failures) / ops.attempted]), unit="ratio"
            )
        return doc
    finally:
        data.discard()
        if keep_ckpt is not None:
            shutil.rmtree(keep_ckpt, ignore_errors=True)


def timed_pass(args, w, ops, fit, warm, wide, data, setup_s, rss_mb):
    """The untraced pass: timed repetitions, then predict.

    Returns the end-to-end metrics and the interleaved serial (or P=1
    sim) run, which check (b) compares against.
    """
    from measure import summarize
    from workloads import mcells

    main, alt, predict_s = [], [], []
    source = data.fit_input()
    t_start = time.perf_counter()
    try:
        while len(main) < args.min_reps or (
            time.perf_counter() - t_start < args.seconds
            and len(main) < MAX_REPS
        ):
            main.append(fit())
            # Arms that form a ratio are interleaved, and predict is
            # sampled after every fit, so slow host drift hits every
            # metric of the run alike.
            if w.alt is not None and len(alt) < MAX_ALT_REPS:
                alt.append(fit(arm=w.alt))
            for _ in range(PREDICTS_PER_REP):
                t0 = time.perf_counter()
                wide.predict(source)
                predict_s.append(time.perf_counter() - t0)
            ops.done(PREDICTS_PER_REP)
    finally:
        if w.streamed:
            source.close()
    ops.check("reps_repeat_exactly", lambda: all(
        same_search(s.run, warm.run, exact=True) is True for s in main
    ))

    walls = [s.wall_s for s in main]
    cells = mcells(warm.run, w.n_items)
    out = {
        "setup_s": (summarize([setup_s]), "s"),
        "fit_s": (summarize(walls), "s"),
        "fit_mcells_per_s": (
            summarize([cells / s for s in walls]), "Mcell/s"),
        "fit_cpu_s": (summarize([s.cpu_s for s in main]), "s"),
        "fit_peak_rss_mb": (summarize([rss_mb]), "MB"),
        "predict_mitems_per_s": (
            summarize([w.n_items / s / 1e6 for s in predict_s]), "Mitem/s"),
    }
    # The second-arm metrics exist only where there is a second arm.
    reference = None
    if w.alt == "serial":
        # Per-pair ratios: the two fits of a pair ran back to back, so
        # host drift divides out.
        out["parallel_efficiency"] = (summarize([
            a.wall_s / (w.n_procs * m.wall_s) for a, m in zip(alt, main)
        ]), "ratio")
        reference = alt[0].run
    elif w.alt == "ckpt_off":
        out["ckpt_fit_s_off"] = (summarize([s.wall_s for s in alt]), "s")
    if w.world == "sim":
        sim1 = fit(arm="sim1")
        reference = sim1.run
        speedup = sim1.run.sim_elapsed / warm.run.sim_elapsed
        out["sim_elapsed_s"] = (
            summarize([warm.run.sim_elapsed]), "virtual_s")
        out["sim_speedup"] = (summarize([speedup]), "ratio")
    return (
        {name: dict(s, unit=unit) for name, (s, unit) in out.items()},
        reference,
    )


def checks(w, ops, fit, warm, loaded, data, keep_ckpt, n_check,
           reference) -> dict:
    """Correctness checks (a)-(e); each one is an operation.

    ``reference`` is an already fitted serial (or P=1 sim) run of the
    same search, when the measuring pass made one.
    """
    import numpy as np

    from repro import adjusted_rand_index
    from repro.ckpt import Checkpointer

    info = {"n_check_items": n_check}
    db = data.db
    labels = warm.run.predict(db)

    if not w.streamed:
        sub = db if n_check >= w.n_items else db.take(slice(0, n_check))
        ops.check("a_strict_conformance", lambda: bool(
            fit(verify="strict", db=sub).run.conformance.ok
        ))
    if w.world != "serial":
        ref = reference
        if ref is None:
            ref = fit(arm="sim1" if w.world == "sim" else "serial").run
        ops.check("b_labels_equal_serial", lambda: bool(
            np.array_equal(labels, ref.predict(db))
        ))
        ops.check("b_search_equal_serial",
                  lambda: same_search(warm.run, ref, exact=False))
    if w.streamed:
        source = data.fit_input()
        try:
            if n_check >= w.n_items:
                streamed, memory = warm.run, fit(db=db).run
                mem_db = db
            else:
                view = source.block(w.n_items // n_check, 0)
                mem_db = view.materialize()
                streamed, memory = fit(db=view).run, fit(db=mem_db).run
            ops.check("c_streamed_labels_equal_in_memory", lambda: bool(
                np.array_equal(streamed.predict(mem_db),
                               memory.predict(mem_db))
            ))
            ops.check("c_streamed_cycles_equal_in_memory", lambda: [
                t.n_cycles for t in streamed.result.tries
            ] == [t.n_cycles for t in memory.result.tries])
            ops.check("e_artifact_labels_equal_run_labels", lambda: bool(
                np.array_equal(loaded.predict(source), labels)
            ))
        finally:
            source.close()
    else:
        ops.check("e_artifact_labels_equal_run_labels", lambda: bool(
            np.array_equal(loaded.predict(db), labels)
        ))
    if data.truth is not None:
        ari = adjusted_rand_index(data.truth, labels)
        info["adjusted_rand_index"] = ari
        ops.check("d_ari_at_least_0.90", lambda: bool(ari >= MIN_ARI))
    if keep_ckpt is not None:
        def decodes():
            ck = Checkpointer(keep_ckpt, policy="per_cycle")
            ck.bind(warm.run.result.config,
                    warm.run.best.classification.spec, w.n_items)
            state = ck.load(warm.run.best.classification.spec)
            return len(state.completed_tries) == w.n_tries

        ops.check("d_checkpoint_decodes", decodes)
        ops.check("d_resume_same_best_score", lambda: same_search(
            fit(ckpt_dir=keep_ckpt, resume=True).run, warm.run, exact=True
        ))
    return info


def traced_pass(args, w, ops, fit, spans, data, workdir) -> dict:
    """The traced pass: fit pairs, record-derived counts, layer probes."""
    import probes
    from measure import summarize

    untraced, traced, fracs = [], [], {}
    for rep in range(args.min_reps):
        spans.rep = rep
        untraced.append(fit())
        before = probes.plan_and_workspace_stats()
        with spans.span("fit"):
            traced.append(fit(instrument="phases"))
        fracs = probes.cache_fracs(before, probes.plan_and_workspace_stats())
    spans.rep = -1
    last = traced[-1]
    ctx = probes.Context(
        w=w, seed=args.seed, data=data, workdir=workdir, spans=spans,
        run=last.run, fit_wall_s=last.wall_s, smoke=args.scale > 1,
    )
    probes.run_all(ctx)
    values = ctx.values
    values.update(fracs)
    plain = statistics.median(s.wall_s for s in untraced)
    values["obs.phases_overhead_frac"] = (
        statistics.median(s.wall_s for s in traced) - plain
    ) / plain
    if w.world == "sim":
        serial, sim1 = fit(arm="serial"), fit(arm="sim1")
        values["simnet.slowdown_vs_serial"] = plain / serial.wall_s
        values["simnet.speedup_virtual"] = (
            sim1.run.sim_elapsed / last.run.sim_elapsed
        )
    ops.attempted += ctx.attempted
    ops.failures.extend(f"probe {e['probe']}: {e['error']}" for e in ctx.errors)

    expected_saves = (
        sum(t.n_cycles for t in last.run.result.tries) if w.checkpoint else 0
    )
    ops.check("d_saves_equal_tries_x_cycles", lambda: (
        values.get("ckpt.saves_per_fit") == expected_saves
        or f"{values.get('ckpt.saves_per_fit')} != {expected_saves}"
    ))
    if w.name == "paper_serial":
        # More than a tenth of the fit outside every phase timer is a
        # failing row, not a footnote.
        ops.check("obs_unattributed_at_most_0.10", lambda: (
            values["obs.unattributed_frac"] <= 0.10
            or f"unattributed {values['obs.unattributed_frac']:.3f}"
        ))

    from metrics import PER_LAYER_UNITS

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace_{w.name}.json").write_text(json.dumps({
        "workload": w.name, "seed": args.seed,
        "spans": spans.with_self_time(), "counts": values,
        "probe_errors": ctx.errors,
        "record": last.run.record.to_dict(),
    }, indent=1) + "\n", encoding="utf-8")
    return {
        "per_layer": {
            name: {"value": values.get(name), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
        "probe_errors": ctx.errors,
        "traced_fit_s": dict(
            summarize([s.wall_s for s in traced]), unit="s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("measure", "checks"),
                        default="measure")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    refuse_unpinned()
    doc = run_pass(args)
    Path(args.result).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
