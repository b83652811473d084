"""EXP-OVERLAP bench — nonblocking collectives hiding comm behind compute.

Runs the streamed P-AutoClass search on the simulated CS-2 at P=8 in a
**comm-bound** configuration (modern-CPU ``cpu_scale`` against the
machine's millisecond-class effective MPI latency, so the reductions
dominate each EM cycle) and compares the blocking hot path — one packed
Allreduce per cycle — against ``CollectiveConfig(overlap=True)`` — the
two cut points' reductions launched nonblocking inside the chunk pass
and drained round-robin at the end of the cycle.

Everything is virtual time under ``compute_mode="counted"`` with a
pinned ``cpu_scale``, so the numbers are deterministic across hosts and
``benchmarks/out/BENCH_overlap.json`` gates tightly in
``check_regression.py``.

Bars:

1. **Not slower** — overlapped per-cycle virtual seconds must stay
   within 1 % of blocking (``SPEEDUP_BAR`` = 0.99x).  The blocking arm
   packs both payloads into one Allreduce per cycle, which removes
   exactly the second reduction overlap used to hide: the two arms now
   cost the same to within a few virtual microseconds per cycle
   (0.9993x), so ``overlap=True`` no longer wins here.  Per-cycle cost
   is measured as the elapsed difference between a long and a short run
   of the identical seeded search, which cancels startup/init exactly.
2. **Equality** — both arms must return the identical classification
   (same score, same cycle count): overlap may move rounds in time,
   never a bit in the results.
"""

import json
import platform
from pathlib import Path

from repro.data.shards import ShardedDatabase
from repro.data.synth import make_paper_database
from repro.engine.search import SearchConfig
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.api import CollectiveConfig
from repro.parallel.driver import run_pautoclass
from repro.simnet import run_spmd_sim
from repro.simnet.machine import meiko_cs2

P = 8
N_ITEMS = 4_096
SHARD_ITEMS = 512
CHUNK_ITEMS = 256
CYCLES_LONG = 6
CYCLES_SHORT = 1
SPEEDUP_BAR = 0.99

#: Modern-CPU scale: local E/M shrinks to microseconds per chunk while
#: the CS-2's effective MPI latency stays at 1.7 ms — the comm-bound
#: regime where every blocking reduction is pure idle time (the regime
#: most favourable to overlap).
CPU_SCALE = 1.0


def _config(max_cycles: int) -> SearchConfig:
    return SearchConfig(
        start_j_list=(8,), max_n_tries=1, seed=29, max_cycles=max_cycles,
        rel_delta=1e-14, init_method="sharp",
    )


def _simulate(sdb, spec, *, overlap: bool, max_cycles: int):
    sim = run_spmd_sim(
        run_pautoclass,
        P,
        meiko_cs2(P, cpu_scale=CPU_SCALE),
        sdb,
        _config(max_cycles),
        spec,
        collectives=CollectiveConfig(overlap=overlap),
        compute_mode="counted",
    )
    return sim.elapsed, sim.results[0]


def test_overlap_bench_json(tmp_path):
    db = make_paper_database(N_ITEMS, seed=7)
    sdb = ShardedDatabase.from_database(
        db, tmp_path / "shards", shard_items=SHARD_ITEMS,
        chunk_items=CHUNK_ITEMS,
    )
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    del db

    arms = {}
    for name, overlap in (("blocking", False), ("overlap", True)):
        long_s, result = _simulate(
            sdb, spec, overlap=overlap, max_cycles=CYCLES_LONG
        )
        short_s, _ = _simulate(
            sdb, spec, overlap=overlap, max_cycles=CYCLES_SHORT
        )
        best = result.best
        n_long = best.classification.n_cycles
        arms[name] = {
            "elapsed_s": long_s,
            "per_cycle_s": (long_s - short_s) / (CYCLES_LONG - CYCLES_SHORT),
            "n_cycles": n_long,
            "score": best.score,
        }

    blk, ovl = arms["blocking"], arms["overlap"]
    # Equality: overlap reorders rounds in time, never a bit in results.
    assert ovl["n_cycles"] == blk["n_cycles"], arms
    assert ovl["score"] == blk["score"], arms

    speedup = blk["per_cycle_s"] / ovl["per_cycle_s"]
    report = {
        "benchmark": (
            "EXP-OVERLAP nonblocking collectives in the streamed E/M hot "
            "path, simulated CS-2"
        ),
        "platform": platform.platform(),
        "workload": (
            f"make_paper_database N={N_ITEMS}, J=8, P={P}, "
            f"chunk_items={CHUNK_ITEMS}, meiko_cs2 cpu_scale={CPU_SCALE} "
            f"(comm-bound), counted virtual time, per-cycle from "
            f"{CYCLES_LONG}-vs-{CYCLES_SHORT}-cycle runs"
        ),
        "blocking": blk,
        "overlap": ovl,
        "per_cycle_speedup": speedup,
        "bars": {"per_cycle_speedup_min": SPEEDUP_BAR},
    }
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (out_dir / "BENCH_overlap.json").write_text(payload, encoding="utf-8")
    print(payload)
    assert speedup >= SPEEDUP_BAR, report
