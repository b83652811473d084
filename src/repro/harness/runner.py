"""Experiment runners: one function per figure/claim.

Each function runs its experiment on the calibrated simulated CS-2 and
returns a result object carrying both the raw numbers (consumed by
tests and benches) and a ``render()`` that prints the same rows/series
the paper's figure plots.

All figure experiments accept ``mode``:

* ``"counted"`` (default) — compute priced by the
  :class:`~repro.simnet.workmodel.WorkModel` (deterministic, free of
  Python call-overhead artifacts);
* ``"measured"`` — compute priced by scaled host CPU time (use with
  scales large enough that partitions stay above ~10^4 items).
"""

from __future__ import annotations

import dataclasses
import functools
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.api import AutoClass, PAutoClass
from repro.data.synth import make_paper_database
from repro.engine.classification import Classification
from repro.engine.cycle import base_cycle
from repro.engine.init import initial_classification
from repro.engine.search import PAPER_START_J_LIST
from repro.harness.experiments import ExperimentScale
from repro.harness.programs import (
    allreduce_program,
    fixed_cycles_program,
    kmeans_program,
    scaleup_program,
)
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.collectives import ALLREDUCE
from repro.mpc.faults import FaultInjector, FaultSpec
from repro.serve import Scorer, ScorerConfig
from repro.simnet.calibration import calibrated_machine
from repro.simnet.costmodel import CostModel
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import SimRunResult, run_spmd_sim
from repro.simnet.topology import Crossbar, FatTree, Hypercube, Mesh2D, Ring
from repro.util.rng import SeedSequenceStream
from repro.util.tables import format_series, format_table
from repro.util.timefmt import format_hms

MODES = ("counted", "measured")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    return mode


def _run_fixed_cycles(
    db, machine, j_list, n_cycles: int, seed: int, mode: str, **program_kw
) -> SimRunResult:
    """``fixed_cycles_program`` on every processor of ``machine``."""
    return run_spmd_sim(
        fixed_cycles_program, machine.n_processors, machine, db, j_list,
        n_cycles, seed, compute_mode=_check_mode(mode), **program_kw,
    )


def _seconds_per_cycle(
    db, machine, n_classes: int, n_measure: int, seed: int, mode: str
) -> float:
    """Mean virtual seconds per measured cycle of ``scaleup_program``."""
    run = run_spmd_sim(
        scaleup_program, machine.n_processors, machine, db, n_classes,
        n_measure, seed, compute_mode=_check_mode(mode),
    )
    # Global cycle boundary = slowest rank at each mark.
    marks = np.max(np.array(run.results), axis=0)
    return float(np.diff(marks).mean())


def _run_classification_sim(
    db, n_procs: int, scale: ExperimentScale, rep: int, mode: str
) -> SimRunResult:
    return _run_fixed_cycles(
        db, calibrated_machine(n_procs, comm_scale=scale.factor),
        scale.start_j_list, scale.cycles_per_try, scale.seed + rep, mode,
    )


# ---------------------------------------------------------------------------
# EXP-F6 — elapsed time vs processors, per dataset size.

@dataclass
class Fig6Result:
    scale: ExperimentScale
    mode: str
    #: elapsed[(n_items, n_procs)] = mean virtual seconds
    elapsed: dict[tuple[int, int], float] = field(default_factory=dict)

    def series(self, n_items: int) -> tuple[list[int], list[float]]:
        procs = sorted({p for (s, p) in self.elapsed if s == n_items})
        return procs, [self.elapsed[(n_items, p)] for p in procs]

    def render(self) -> str:
        sizes = sorted({s for (s, _p) in self.elapsed})
        procs = sorted({p for (_s, p) in self.elapsed})
        rows = []
        for s in sizes:
            rows.append(
                [f"{s} tuples"]
                + [format_hms(self.elapsed[(s, p)]) for p in procs]
            )
        return format_table(
            ["dataset"] + [str(p) for p in procs],
            rows,
            title=(
                "Fig. 6 — average elapsed times [h.mm.ss] of P-AutoClass on "
                f"different numbers of processors "
                f"({self.scale.describe()}, {self.mode})"
            ),
        )


def fig6_elapsed(
    scale: ExperimentScale | None = None, mode: str = "counted"
) -> Fig6Result:
    """EXP-F6: elapsed time of the classification workload vs P."""
    scale = scale or ExperimentScale()
    result = Fig6Result(scale=scale, mode=mode)
    for n_items in scale.sizes:
        db = make_paper_database(n_items, seed=scale.seed)
        for p in scale.procs:
            runs = [
                _run_classification_sim(db, p, scale, rep, mode).elapsed
                for rep in range(scale.n_reps)
            ]
            result.elapsed[(n_items, p)] = float(np.mean(runs))
    return result


# ---------------------------------------------------------------------------
# EXP-F7 — speedup vs processors.

@dataclass
class Fig7Result:
    fig6: Fig6Result

    def speedup(self, n_items: int) -> tuple[list[int], list[float]]:
        procs, times = self.fig6.series(n_items)
        t1 = times[procs.index(1)]
        return procs, [t1 / t for t in times]

    def peak_procs(self, n_items: int) -> int:
        """Processor count at which this dataset's speedup peaks."""
        procs, sp = self.speedup(n_items)
        return procs[int(np.argmax(sp))]

    def render(self) -> str:
        sizes = sorted({s for (s, _p) in self.fig6.elapsed})
        blocks = []
        for s in sizes:
            procs, sp = self.speedup(s)
            blocks.append(
                format_series(
                    f"speedup[{s} tuples]",
                    procs,
                    [f"{v:.2f}" for v in sp],
                    x_label="no. of processors",
                    y_label="T1/Tp",
                )
            )
        procs = sorted({p for (_s, p) in self.fig6.elapsed})
        blocks.append(
            format_series(
                "linear", procs, [float(p) for p in procs],
                x_label="no. of processors", y_label="T1/Tp",
            )
        )
        head = (
            "Fig. 7 — speedup of P-AutoClass on different numbers of "
            f"processors ({self.fig6.scale.describe()}, {self.fig6.mode})"
        )
        return head + "\n" + "\n".join(blocks)


def fig7_speedup(
    scale: ExperimentScale | None = None,
    fig6: Fig6Result | None = None,
    mode: str = "counted",
) -> Fig7Result:
    """EXP-F7: speedup T1/Tp from the Fig. 6 measurements."""
    return Fig7Result(fig6=fig6 or fig6_elapsed(scale, mode))


# ---------------------------------------------------------------------------
# EXP-F8 — scaleup: time per base_cycle, fixed tuples per processor.

@dataclass
class Fig8Result:
    scale: ExperimentScale
    mode: str
    tuples_per_proc: int
    #: seconds_per_cycle[(n_classes, n_procs)]
    seconds_per_cycle: dict[tuple[int, int], float] = field(default_factory=dict)

    def series(self, n_classes: int) -> tuple[list[int], list[float]]:
        procs = sorted({p for (j, p) in self.seconds_per_cycle if j == n_classes})
        return procs, [self.seconds_per_cycle[(n_classes, p)] for p in procs]

    def flatness(self, n_classes: int) -> float:
        """max/min per-cycle time across processor counts (1 = flat)."""
        _, times = self.series(n_classes)
        return max(times) / min(times)

    def render(self) -> str:
        blocks = [
            (
                "Fig. 8 — scaleup: times per base_cycle iteration (sec), "
                f"{self.tuples_per_proc} tuples per processor "
                f"({self.scale.describe()}, {self.mode})"
            )
        ]
        for j in sorted({j for (j, _p) in self.seconds_per_cycle}):
            procs, times = self.series(j)
            blocks.append(
                format_series(
                    f"{j} clusters",
                    procs,
                    [f"{t:.4f}" for t in times],
                    x_label="Number of processors",
                    y_label="sec/cycle",
                )
            )
        return "\n".join(blocks)


def fig8_scaleup(
    scale: ExperimentScale | None = None, mode: str = "counted"
) -> Fig8Result:
    """EXP-F8: per-cycle time with the per-processor load held fixed."""
    scale = scale or ExperimentScale()
    per_proc = scale.scaleup_tuples_per_proc
    result = Fig8Result(scale=scale, mode=mode, tuples_per_proc=per_proc)
    n_measure = max(scale.cycles_per_try, 3)
    for j in scale.scaleup_j:
        for p in scale.procs:
            db = make_paper_database(per_proc * p, seed=scale.seed)
            machine = calibrated_machine(p, comm_scale=scale.factor)
            reps = [
                _seconds_per_cycle(
                    db, machine, j, n_measure, scale.seed + rep, mode
                )
                for rep in range(scale.n_reps)
            ]
            result.seconds_per_cycle[(j, p)] = float(np.mean(reps))
    return result


# ---------------------------------------------------------------------------
# EXP-T1 — profile: base_cycle dominates the sequential runtime.

@dataclass
class T1Result:
    total_seconds: float
    cycle_seconds: float
    wts_seconds: float
    params_seconds: float
    approx_seconds: float

    @property
    def cycle_fraction(self) -> float:
        return self.cycle_seconds / self.total_seconds

    @property
    def approx_fraction_of_cycle(self) -> float:
        return self.approx_seconds / self.cycle_seconds

    def render(self) -> str:
        rows = [
            ("total run", f"{self.total_seconds:.3f}", "1.000"),
            (
                "base_cycle",
                f"{self.cycle_seconds:.3f}",
                f"{self.cycle_fraction:.3f}",
            ),
            (
                "  update_wts",
                f"{self.wts_seconds:.3f}",
                f"{self.wts_seconds / self.total_seconds:.3f}",
            ),
            (
                "  update_parameters",
                f"{self.params_seconds:.3f}",
                f"{self.params_seconds / self.total_seconds:.3f}",
            ),
            (
                "  update_approximations",
                f"{self.approx_seconds:.3f}",
                f"{self.approx_seconds / self.total_seconds:.3f}",
            ),
        ]
        return format_table(
            ["phase", "seconds", "share"],
            rows,
            title=(
                "T1 — sequential time profile (paper: base_cycle ~ 99.5%, "
                "update_approximations negligible)"
            ),
        )


def t1_profile(
    n_items: int = 20_000,
    j_list: tuple[int, ...] = PAPER_START_J_LIST[:4],
    n_cycles: int = 40,
    seed: int = 2000,
) -> T1Result:
    """EXP-T1: where does the sequential run spend its time?

    Runs on the host directly (real ``base_cycle`` timings) — the claim
    is about the algorithm's structure, not the CS-2.  The base_cycle
    share is the wall time spent inside ``base_cycle`` calls; its three
    phases are the cycle's own timers, which leave out the cycle's
    bookkeeping between them.
    """
    db = make_paper_database(n_items, seed=seed)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    stream = SeedSequenceStream(seed)
    cycle_s = wts_s = params_s = approx_s = 0.0
    t_start = time.perf_counter()
    for k, j in enumerate(j_list):
        clf: Classification = initial_classification(
            db, spec, j, stream.child("try", k)
        )
        for _ in range(n_cycles):
            t0 = time.perf_counter()
            clf, _, stats = base_cycle(db, clf)
            cycle_s += time.perf_counter() - t0
            wts_s += stats.seconds_wts
            params_s += stats.seconds_params
            approx_s += stats.seconds_approx
    total = time.perf_counter() - t_start
    return T1Result(
        total_seconds=total,
        cycle_seconds=cycle_s,
        wts_seconds=wts_s,
        params_seconds=params_s,
        approx_seconds=approx_s,
    )


# ---------------------------------------------------------------------------
# EXP-T2 — sequential elapsed time grows linearly with dataset size.

@dataclass
class T2Result:
    sizes: list[int]
    seconds: list[float]

    @property
    def r_squared(self) -> float:
        """R^2 of the least-squares line through (size, seconds)."""
        x = np.asarray(self.sizes, dtype=np.float64)
        y = np.asarray(self.seconds, dtype=np.float64)
        coeffs = np.polyfit(x, y, 1)
        fit = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - fit) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    def render(self) -> str:
        rows = [
            (s, f"{t:.4f}", f"{t / s * 1e6:.2f}")
            for s, t in zip(self.sizes, self.seconds)
        ]
        return format_table(
            ["tuples", "seconds (P=1, simulated CS-2)", "us/tuple"],
            rows,
            title=(
                "T2 — sequential elapsed vs dataset size "
                f"(linear fit R^2 = {self.r_squared:.5f})"
            ),
        )


def t2_linear_sequential(
    scale: ExperimentScale | None = None,
    fig6: Fig6Result | None = None,
    mode: str = "counted",
) -> T2Result:
    """EXP-T2: linearity of sequential time in the dataset size."""
    scale = scale or ExperimentScale()
    if fig6 is None:
        fig6 = Fig6Result(scale=scale, mode=mode)
        for n_items in scale.sizes:
            db = make_paper_database(n_items, seed=scale.seed)
            fig6.elapsed[(n_items, 1)] = _run_classification_sim(
                db, 1, scale, 0, mode
            ).elapsed
    sizes = sorted({s for (s, p) in fig6.elapsed if p == 1})
    return T2Result(
        sizes=list(sizes), seconds=[fig6.elapsed[(s, 1)] for s in sizes]
    )


# ---------------------------------------------------------------------------
# EXP-A1 — P-AutoClass vs wts-only parallelization (Miller & Guo).

@dataclass
class A1Result:
    n_items: int
    n_classes: int
    procs: list[int]
    elapsed_pautoclass: list[float]
    elapsed_wts_only: list[float]

    def advantage(self, p: int) -> float:
        """wts-only time / P-AutoClass time at ``p`` processors."""
        i = self.procs.index(p)
        return self.elapsed_wts_only[i] / self.elapsed_pautoclass[i]

    def render(self) -> str:
        rows = []
        for i, p in enumerate(self.procs):
            rows.append(
                (
                    p,
                    f"{self.elapsed_pautoclass[i]:.4f}",
                    f"{self.elapsed_wts_only[i]:.4f}",
                    f"{self.advantage(p):.2f}x",
                )
            )
        return format_table(
            ["procs", "P-AutoClass (s)", "wts-only (s)", "advantage"],
            rows,
            title=(
                "A1 — both-phases-parallel (paper) vs wts-only parallel "
                f"(Miller & Guo) — {self.n_items} tuples, J={self.n_classes}"
            ),
        )


def ablation_variants(
    n_items: int = 50_000,
    n_classes: int = 8,
    n_cycles: int = 5,
    procs: tuple[int, ...] = (1, 2, 4, 6, 8, 10),
    seed: int = 2000,
    mode: str = "counted",
    comm_scale: float = 1.0,
) -> A1Result:
    """EXP-A1: quantify the paper's improvement over wts-only parallelism."""
    db = make_paper_database(n_items, seed=seed)
    out: dict[str, list[float]] = {"pautoclass": [], "wts_only": []}
    for p in procs:
        machine = calibrated_machine(p, comm_scale=comm_scale)
        for variant, acc in out.items():
            run = _run_fixed_cycles(
                db, machine, (n_classes,), n_cycles, seed, mode,
                variant=variant,
            )
            acc.append(run.elapsed)
    return A1Result(
        n_items=n_items,
        n_classes=n_classes,
        procs=list(procs),
        elapsed_pautoclass=out["pautoclass"],
        elapsed_wts_only=out["wts_only"],
    )


# ---------------------------------------------------------------------------
# EXP-A2 — why the Allreduce is recursive doubling.

#: Textbook alternatives EXP-A2 prices beside the executed algorithm.
A2_TEXTBOOK = (ALLREDUCE, "reduce_bcast", "ring")


@dataclass
class A2Result:
    nbytes: int
    procs: list[int]
    #: measured[(ALLREDUCE, p)]: simulated seconds of the executed
    #: algorithm; expected[(algorithm, p)]: closed-form seconds of each
    measured: dict[tuple[str, int], float]
    expected: dict[tuple[str, int], float]

    def render(self) -> str:
        rows = [
            (p, f"{self.measured[(ALLREDUCE, p)] * 1e6:.1f}")
            + tuple(f"{self.expected[(a, p)] * 1e6:.1f}" for a in A2_TEXTBOOK)
            for p in self.procs
        ]
        return format_table(
            ["procs", "simulated (us)"]
            + [f"textbook {a} (us)" for a in A2_TEXTBOOK],
            rows,
            title=(
                f"A2 — the {ALLREDUCE} Allreduce, simulated, vs textbook "
                f"algorithm costs on the CS-2 model ({self.nbytes} B payload)"
            ),
        )


def ablation_collectives(
    nbytes: int = 8 * 8 * 6,  # J=8 classes x 6 stats — the paper workload's
    procs: tuple[int, ...] = (2, 4, 8, 10),
    n_rounds: int = 50,
) -> A2Result:
    """EXP-A2: the simulated Allreduce vs the textbook cost of each
    algorithm it could have been."""
    measured: dict[tuple[str, int], float] = {}
    expected: dict[tuple[str, int], float] = {}
    for p in procs:
        machine = meiko_cs2(p)
        cost = CostModel(machine)
        run = run_spmd_sim(
            allreduce_program, p, machine, nbytes, n_rounds,
            compute_mode="modeled",
        )
        measured[(ALLREDUCE, p)] = float(np.mean(run.results))
        for algo in A2_TEXTBOOK:
            expected[(algo, p)] = cost.expected_allreduce(algo, p, nbytes)
    return A2Result(
        nbytes=nbytes, procs=list(procs), measured=measured, expected=expected
    )


# ---------------------------------------------------------------------------
# EXP-A3 — communication share and bytes on the wire.

@dataclass
class A3Result:
    n_items: int
    n_classes: int
    n_cycles: int
    procs: list[int]
    comm_fraction: list[float]
    bytes_per_cycle_per_rank: list[float]

    def render(self) -> str:
        rows = [
            (
                p,
                f"{self.comm_fraction[i] * 100:.2f}%",
                f"{self.bytes_per_cycle_per_rank[i]:.0f}",
            )
            for i, p in enumerate(self.procs)
        ]
        return format_table(
            ["procs", "comm share of elapsed", "bytes/cycle/rank"],
            rows,
            title=(
                "A3 — communication share (paper: 'the amount of data "
                "exchanged ... is not so large') — "
                f"{self.n_items} tuples, J={self.n_classes}"
            ),
        )


def ablation_comm_share(
    n_items: int = 10_000,
    n_classes: int = 8,
    n_cycles: int = 5,
    procs: tuple[int, ...] = (2, 4, 6, 8, 10),
    seed: int = 2000,
    mode: str = "counted",
    comm_scale: float = 1.0,
) -> A3Result:
    """EXP-A3: how much of a cycle is communication, and how many bytes."""
    db = make_paper_database(n_items, seed=seed)
    fractions, bytes_per = [], []
    for p in procs:
        run = _run_fixed_cycles(
            db, calibrated_machine(p, comm_scale=comm_scale), (n_classes,),
            n_cycles, seed, mode,
        )
        fractions.append(run.comm_fraction)
        # +1 cycle: the init's combined Allreduce.
        bytes_per.append(run.total_bytes / p / (n_cycles + 1))
    return A3Result(
        n_items=n_items,
        n_classes=n_classes,
        n_cycles=n_cycles,
        procs=list(procs),
        comm_fraction=fractions,
        bytes_per_cycle_per_rank=bytes_per,
    )


# ---------------------------------------------------------------------------
# EXP-A4 — parameter-reduction granularity (packed vs the paper's loops).

@dataclass
class A4Result:
    n_items: int
    n_classes: int
    procs: list[int]
    elapsed_packed: list[float]
    elapsed_per_term_class: list[float]

    def overhead(self, p: int) -> float:
        """per-term-class time / packed time at ``p`` processors."""
        i = self.procs.index(p)
        return self.elapsed_per_term_class[i] / self.elapsed_packed[i]

    def render(self) -> str:
        rows = [
            (
                p,
                f"{self.elapsed_packed[i]:.4f}",
                f"{self.elapsed_per_term_class[i]:.4f}",
                f"{self.overhead(p):.2f}x",
            )
            for i, p in enumerate(self.procs)
        ]
        return format_table(
            ["procs", "packed (s)", "per-term-class (s)", "overhead"],
            rows,
            title=(
                "A4 — one packed Allreduce per cycle vs the paper's "
                "Figure-5 per-(class, attribute) Allreduces — "
                f"{self.n_items} tuples, J={self.n_classes}"
            ),
        )


def ablation_granularity(
    n_items: int = 10_000,
    n_classes: int = 8,
    n_cycles: int = 5,
    procs: tuple[int, ...] = (2, 4, 8, 10),
    seed: int = 2000,
    mode: str = "counted",
    comm_scale: float = 1.0,
) -> A4Result:
    """EXP-A4: what the paper's loop-level Allreduce structure costs."""
    db = make_paper_database(n_items, seed=seed)
    out: dict[str, list[float]] = {"packed": [], "pautoclass": []}
    for p in procs:
        machine = calibrated_machine(p, comm_scale=comm_scale)
        for variant, acc in out.items():
            run = _run_fixed_cycles(
                db, machine, (n_classes,), n_cycles, seed, mode,
                variant=variant,
            )
            acc.append(run.elapsed)
    return A4Result(
        n_items=n_items,
        n_classes=n_classes,
        procs=list(procs),
        elapsed_packed=out["packed"],
        elapsed_per_term_class=out["pautoclass"],
    )


# ---------------------------------------------------------------------------
# EXP-A5 — interconnect topology ablation.

@dataclass
class A5Result:
    n_items: int
    n_classes: int
    n_procs: int
    #: elapsed[(regime, topology_name)] virtual seconds; regimes are
    #: "effective_mpi" (the paper's software-dominated latency) and
    #: "store_and_forward" (per-hop-dominated routing).
    elapsed: dict[tuple[str, str], float]

    def regime(self, name: str) -> dict[str, float]:
        return {t: v for (r, t), v in self.elapsed.items() if r == name}

    def spread(self, regime: str) -> float:
        """max/min elapsed across topologies under one regime."""
        values = list(self.regime(regime).values())
        return max(values) / min(values)

    def render(self) -> str:
        eff = self.regime("effective_mpi")
        saf = self.regime("store_and_forward")
        rows = [
            (
                name,
                f"{eff[name]:.4f}",
                f"{eff[name] / eff['fat_tree']:.3f}x",
                f"{saf[name]:.4f}",
                f"{saf[name] / saf['fat_tree']:.3f}x",
            )
            for name in sorted(eff, key=lambda n: saf[n])
        ]
        return format_table(
            ["topology", "MPI-latency (s)", "vs fat tree",
             "store-and-fwd (s)", "vs fat tree"],
            rows,
            title=(
                f"A5 — interconnect topologies at P={self.n_procs} — "
                f"{self.n_items} tuples, J={self.n_classes} "
                "(left: the paper's software-dominated regime; right: "
                "per-hop-dominated routing)"
            ),
        )


def ablation_topology(
    n_items: int = 10_000,
    n_classes: int = 8,
    n_cycles: int = 3,
    n_procs: int = 10,
    seed: int = 2000,
    mode: str = "counted",
    comm_scale: float = 1.0,
) -> A5Result:
    """EXP-A5: how much does the CS-2's fat tree matter vs alternatives?

    Latency per message = base + hops x per_hop, so topologies differ
    through their hop structure.  With the CS-2's software-dominated
    effective latency the spread is small — evidence for the paper's
    'portable to various MIMD machines' claim; with raw hardware
    latencies the spread is the classic topology story.
    """
    db = make_paper_database(n_items, seed=seed)
    topologies = {
        "fat_tree": FatTree(n_procs, arity=4),
        "crossbar": Crossbar(n_procs),
        "hypercube": Hypercube(n_procs),
        "mesh_2d": Mesh2D(n_procs),
        "ring": Ring(n_procs),
    }
    base = calibrated_machine(n_procs, comm_scale=comm_scale)
    regimes = {
        "effective_mpi": base,
        # Early-multicomputer store-and-forward: tiny base latency, the
        # route's hops carry the cost.
        "store_and_forward": dataclasses.replace(
            base,
            latency=2e-6 * comm_scale,
            per_hop=400e-6 * comm_scale,
        ),
    }
    elapsed: dict[tuple[str, str], float] = {}
    for regime_name, machine0 in regimes.items():
        for name, topo in topologies.items():
            machine = machine0.with_topology(topo)
            run = _run_fixed_cycles(
                db, machine, (n_classes,), n_cycles, seed, mode
            )
            elapsed[(regime_name, name)] = run.elapsed
    return A5Result(
        n_items=n_items,
        n_classes=n_classes,
        n_procs=n_procs,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# EXP-B1 — baseline comparison: P-AutoClass vs parallel k-means.

@dataclass
class B1Result:
    n_items: int
    n_clusters: int
    procs: list[int]
    sec_per_iter_kmeans: list[float]
    sec_per_cycle_pautoclass: list[float]

    def speedup(self, which: str) -> list[float]:
        times = (
            self.sec_per_iter_kmeans
            if which == "kmeans"
            else self.sec_per_cycle_pautoclass
        )
        return [times[0] / t for t in times]

    def render(self) -> str:
        rows = []
        km_sp = self.speedup("kmeans")
        pa_sp = self.speedup("pautoclass")
        for i, p in enumerate(self.procs):
            rows.append(
                (
                    p,
                    f"{self.sec_per_cycle_pautoclass[i]:.4f}",
                    f"{pa_sp[i]:.2f}",
                    f"{self.sec_per_iter_kmeans[i]:.4f}",
                    f"{km_sp[i]:.2f}",
                )
            )
        return format_table(
            ["procs", "P-AutoClass s/cycle", "speedup",
             "k-means s/iter", "speedup"],
            rows,
            title=(
                "B1 — per-iteration cost: P-AutoClass vs parallel k-means "
                f"(Stoffel & Belkoniene pattern) — {self.n_items} tuples, "
                f"k=J={self.n_clusters}"
            ),
        )


def baseline_kmeans_comparison(
    n_items: int = 10_000,
    n_clusters: int = 8,
    n_measure: int = 5,
    procs: tuple[int, ...] = (1, 2, 4, 8, 10),
    seed: int = 2000,
    mode: str = "counted",
    comm_scale: float = 1.0,
) -> B1Result:
    """EXP-B1: the same SPMD pattern on a much lighter kernel.

    K-means' E-step is ~10x cheaper per (item x class) than AutoClass's
    Bayesian weighting, while its per-iteration communication is similar
    — so k-means hits the communication wall at lower processor counts.
    P-AutoClass's heavier compute is exactly why the paper's approach
    scales: there is more work to amortize each Allreduce over.
    """
    db = make_paper_database(n_items, seed=seed)
    km_times, pa_times = [], []
    for p in procs:
        machine = calibrated_machine(p, comm_scale=comm_scale)
        km = run_spmd_sim(
            kmeans_program,
            p,
            machine,
            db,
            n_clusters,
            n_measure,
            seed,
            compute_mode=_check_mode(mode),
        )
        km_times.append(float(np.max(km.results)))
        pa_times.append(
            _seconds_per_cycle(db, machine, n_clusters, n_measure, seed, mode)
        )
    return B1Result(
        n_items=n_items,
        n_clusters=n_clusters,
        procs=list(procs),
        sec_per_iter_kmeans=km_times,
        sec_per_cycle_pautoclass=pa_times,
    )


# ---------------------------------------------------------------------------
# EXP-OBS — instrumented phase breakdown through the observability layer.

@dataclass
class ObsResult:
    """EXP-OBS: one instrumented fit and its merged run record."""

    n_items: int
    n_classes: int
    record: "object"  # repro.obs.record.RunRecord

    def render(self) -> str:
        from repro.obs.report import render_run

        head = (
            "OBS — instrumented phase breakdown "
            f"({self.n_items} tuples, J={self.n_classes}; "
            "repro.obs record, same schema on every backend)"
        )
        return head + "\n\n" + render_run(self.record)


def obs_phase_breakdown(
    scale: ExperimentScale | None = None,
    n_processors: int = 4,
    backend: str = "threads",
    n_classes: int = 8,
    instrument: str = "phases",
) -> ObsResult:
    """EXP-OBS: per-rank compute vs Allreduce split on a real backend.

    Runs one P-AutoClass fit with ``instrument="phases"`` (default) on
    the ``threads`` world and renders the paper-style Tables 2/3-shaped
    breakdown from the merged :class:`~repro.obs.record.RunRecord` —
    the same report the ``sim`` backend produces in virtual seconds.
    """
    scale = scale or ExperimentScale.from_env()
    n_items = max(400, scale.sizes[0])
    db = make_paper_database(n_items, seed=scale.seed)
    pac = PAutoClass(
        n_processors=n_processors,
        backend=backend,
        instrument=instrument,
        start_j_list=(n_classes,),
        max_n_tries=1,
        seed=scale.seed,
        max_cycles=max(scale.cycles_per_try, 3),
    )
    run = pac.fit(db)
    assert run.record is not None
    return ObsResult(
        n_items=n_items, n_classes=n_classes, record=run.record
    )


# ---------------------------------------------------------------------------
# EXP-FAULT — checkpointed recovery from an injected rank failure.

@dataclass
class FaultRecoveryResult:
    """EXP-FAULT: a fault-injected fit vs its clean reference."""

    n_items: int
    n_processors: int
    backend: str
    fault: "object"          # repro.mpc.faults.FaultSpec
    restarts: int
    clean_score: float
    recovered_score: float
    n_checkpoint_saves: int

    @property
    def identical(self) -> bool:
        return self.recovered_score == self.clean_score

    def render(self) -> str:
        f = self.fault
        lines = [
            "FAULT — checkpointed recovery from an injected rank failure "
            f"({self.n_items} tuples, {self.n_processors} ranks, "
            f"{self.backend} world)",
            "",
            f"  injected: rank {f.rank} {f.action} at try {f.at_try}, "
            f"cycle {f.at_cycle}",
            f"  restarts needed:     {self.restarts}",
            f"  checkpoint saves:    {self.n_checkpoint_saves}",
            f"  clean logP(X|T)~:    {self.clean_score:.6f}",
            f"  recovered logP(X|T)~:{self.recovered_score:.6f}",
            f"  bit-identical:       {'yes' if self.identical else 'NO'}",
        ]
        return "\n".join(lines)


def fault_recovery_demo(
    scale: ExperimentScale | None = None,
    n_processors: int = 2,
    backend: str = "processes",
    action: str = "exit",
) -> FaultRecoveryResult:
    """EXP-FAULT: lose a rank mid-search, restart from checkpoint.

    Runs the same fit twice on the ``processes`` world: once cleanly,
    once with a :class:`~repro.mpc.faults.FaultSpec` hard-killing a rank
    mid-try.  The faulted fit restarts from its ``per_cycle`` checkpoint
    (``max_restarts``) and must land on the *bit-identical*
    classification — the paper's deterministic replicated control flow
    is what makes that possible.
    """
    scale = scale or ExperimentScale.from_env()
    n_items = max(300, scale.sizes[0] // 2)
    db = make_paper_database(n_items, seed=scale.seed)
    config = dict(
        start_j_list=(4,),
        max_n_tries=1,
        seed=scale.seed,
        max_cycles=max(scale.cycles_per_try, 4),
        init_method="sharp",
    )
    clean = PAutoClass(
        n_processors=n_processors, backend=backend, **config
    ).fit(db)
    spec = FaultSpec(
        rank=n_processors - 1, action=action, site="cycle",
        at_try=0, at_cycle=2,
    )
    with tempfile.TemporaryDirectory() as ckpt_dir:
        pac = PAutoClass(
            n_processors=n_processors, backend=backend,
            instrument="phases", **config,
        )
        run = pac.fit(
            db,
            checkpoint="per_cycle",
            checkpoint_dir=ckpt_dir,
            max_restarts=2,
            faults=FaultInjector(spec),
        )
    assert run.record is not None
    saves = run.record.ranks[0].counters.get("ckpt_saves", 0)
    return FaultRecoveryResult(
        n_items=n_items,
        n_processors=n_processors,
        backend=backend,
        fault=spec,
        restarts=run.restarts,
        clean_score=clean.best.score,
        recovered_score=run.best.score,
        n_checkpoint_saves=saves,
    )


# ---------------------------------------------------------------------------
# EXP-SPLIT — two-level try-parallel search over sub-communicators.

@dataclass
class SplitScalingResult:
    """EXP-SPLIT: the same seeded search at several try-group counts."""

    n_items: int
    n_tries: int
    n_processors: int
    group_counts: list[int]
    elapsed_s: list[float]
    best_scores: list[float]

    def render(self) -> str:
        head = (
            "SPLIT — try-parallel BIG_LOOP over sub-communicators "
            f"({self.n_items} tuples, {self.n_tries} tries, "
            f"{self.n_processors}-rank virtual CS-2)"
        )
        t_ref = self.elapsed_s[0]
        rows = [
            (g, f"{t:.4f}", f"{t_ref / t:.2f}", f"{s:.4f}")
            for g, t, s in zip(
                self.group_counts, self.elapsed_s, self.best_scores
            )
        ]
        table = format_table(
            ["groups", "virtual elapsed (s)", "speedup vs G=1",
             "best logP(X|T)~"],
            rows,
        )
        note = (
            "each try runs data-parallel inside its group and is "
            "bitwise identical to a dedicated world of the group's "
            "size; groups differ only in reduction order."
        )
        return head + "\n\n" + table + "\n\n" + note


def split_group_scaling(
    scale: ExperimentScale | None = None,
    n_processors: int = 8,
    group_counts: tuple[int, ...] = (1, 2, 4),
) -> SplitScalingResult:
    """EXP-SPLIT: group-parallel tries shrink the search's critical path.

    Runs one seeded multi-J search on the virtual CS-2 at several
    ``try_groups`` settings.  With G groups, G tries run concurrently
    (each on P/G ranks), so per-cycle Allreduces span fewer ranks and
    the tries' cycle times overlap instead of serializing — the
    elapsed-time win the two-level scheme exists for.
    """
    scale = scale or ExperimentScale.from_env()
    n_items = max(240, scale.sizes[0] // 4)
    db = make_paper_database(n_items, seed=scale.seed)
    config = dict(
        start_j_list=(2, 3, 4, 5),
        max_n_tries=4,
        seed=scale.seed,
        max_cycles=max(scale.cycles_per_try, 3),
    )
    elapsed: list[float] = []
    scores: list[float] = []
    for g in group_counts:
        run = PAutoClass(
            n_processors=n_processors, backend="sim", try_groups=g, **config
        ).fit(db)
        assert run.sim_elapsed is not None
        elapsed.append(run.sim_elapsed)
        scores.append(run.best.score)
    return SplitScalingResult(
        n_items=n_items,
        n_tries=config["max_n_tries"],
        n_processors=n_processors,
        group_counts=list(group_counts),
        elapsed_s=elapsed,
        best_scores=scores,
    )


# ---------------------------------------------------------------------------
# EXP-SERVE — micro-batched scoring throughput vs a single-item loop.

@dataclass
class ServeThroughputResult:
    """EXP-SERVE: the same request stream, itemwise vs micro-batched."""

    n_train: int
    n_requests: int
    n_classes: int
    max_batch: int
    n_workers: int
    single_elapsed_s: float
    batched_elapsed_s: float
    mean_batch_items: float

    @property
    def speedup(self) -> float:
        return self.single_elapsed_s / self.batched_elapsed_s

    @property
    def single_items_per_s(self) -> float:
        return self.n_requests / self.single_elapsed_s

    @property
    def batched_items_per_s(self) -> float:
        return self.n_requests / self.batched_elapsed_s

    def render(self) -> str:
        head = (
            "SERVE — micro-batched scoring throughput "
            f"({self.n_requests} single-item requests against a "
            f"J={self.n_classes} model fitted on {self.n_train} tuples)"
        )
        rows = [
            ("single-item loop", f"{self.single_elapsed_s:.4f}",
             f"{self.single_items_per_s:,.0f}", "1.0"),
            (f"Scorer (max_batch={self.max_batch})",
             f"{self.batched_elapsed_s:.4f}",
             f"{self.batched_items_per_s:,.0f}",
             f"{self.speedup:.1f}"),
        ]
        table = format_table(
            ["mode", "elapsed (s)", "items/s", "speedup"], rows
        )
        note = (
            f"mean items per executed batch: {self.mean_batch_items:.1f}; "
            "the win is per-call overhead amortization — one fused "
            "E-step pass over the coalesced batch instead of one per "
            "request."
        )
        return head + "\n\n" + table + "\n\n" + note


def serve_throughput_demo(
    scale: ExperimentScale | None = None,
    n_requests: int = 1024,
    max_batch: int = 64,
    n_workers: int = 1,
    n_classes: int = 4,
) -> ServeThroughputResult:
    """EXP-SERVE: dynamic batching amortizes per-request scoring cost.

    Fits a small model, exports it as a :class:`repro.serve.FittedModel`,
    then scores the same stream of single-item requests two ways: a
    plain ``predict`` loop (one kernel pass per item) and a
    :class:`repro.serve.Scorer` draining a pre-filled queue (one kernel
    pass per coalesced batch).  The queue is filled before the workers
    start so the measurement is the steady-state backlog case — the
    regime micro-batching exists for.
    """
    scale = scale or ExperimentScale.from_env()
    n_train = max(400, scale.sizes[0])
    db = make_paper_database(n_train, seed=scale.seed)
    run = AutoClass(
        start_j_list=(n_classes,), max_n_tries=1, seed=scale.seed,
        max_cycles=max(scale.cycles_per_try, 3),
    ).fit(db)
    model = run.fitted(db)
    requests = [
        db.take(slice(i % n_train, i % n_train + 1))
        for i in range(n_requests)
    ]

    t0 = time.perf_counter()
    for r in requests:
        model.predict(r)
    single_elapsed = time.perf_counter() - t0

    config = ScorerConfig(
        max_batch=max_batch, n_workers=n_workers,
        queue_items=n_requests,
    )
    scorer = Scorer(model, config, start=False)
    pending = [scorer.submit(r) for r in requests]
    t0 = time.perf_counter()
    scorer.start()
    for p in pending:
        p.result()
    batched_elapsed = time.perf_counter() - t0
    mean_batch = scorer.metrics.mean_batch_items
    scorer.close()

    return ServeThroughputResult(
        n_train=n_train,
        n_requests=n_requests,
        n_classes=n_classes,
        max_batch=max_batch,
        n_workers=n_workers,
        single_elapsed_s=single_elapsed,
        batched_elapsed_s=batched_elapsed,
        mean_batch_items=mean_batch,
    )


# ---------------------------------------------------------------------------
# The experiment registry: what ``pautoclass experiments --which KEY`` runs,
# and the names :mod:`repro.harness` exports.

class Experiment(NamedTuple):
    """One registered experiment."""

    title: str
    #: The public runner; its result has a ``render()``.
    fn: Callable
    #: Which shared inputs ``fn`` is handed: ``"scale"``, ``"fig6"``.
    takes: tuple[str, ...] = ()


#: key -> experiment, in the order ``--which all`` prints them.
EXPERIMENTS: dict[str, Experiment] = {
    "fig6": Experiment("elapsed time vs processors", fig6_elapsed, ("scale",)),
    "fig7": Experiment("speedup vs processors", fig7_speedup, ("fig6",)),
    "fig8": Experiment("scaleup at fixed load", fig8_scaleup, ("scale",)),
    "t1": Experiment("sequential time profile", t1_profile),
    "t2": Experiment(
        "sequential time vs size", t2_linear_sequential, ("scale", "fig6")),
    "a1": Experiment("P-AutoClass vs wts-only parallelism", ablation_variants),
    "a2": Experiment("Allreduce algorithms", ablation_collectives),
    "a3": Experiment("communication share", ablation_comm_share),
    "a4": Experiment("reduction granularity", ablation_granularity),
    "a5": Experiment("interconnect topologies", ablation_topology),
    "b1": Experiment("parallel k-means baseline", baseline_kmeans_comparison),
    "obs": Experiment("phase breakdown", obs_phase_breakdown, ("scale",)),
    "fault": Experiment("recovery of a lost rank", fault_recovery_demo, ("scale",)),
    "split": Experiment("try-parallel search", split_group_scaling, ("scale",)),
    "serve": Experiment("micro-batched scoring", serve_throughput_demo, ("scale",)),
}


@functools.lru_cache(maxsize=1)
def _fig6_sweep(scale: ExperimentScale) -> Fig6Result:
    return fig6_elapsed(scale)


def run_experiment(key: str, scale: ExperimentScale):
    """Run one registered experiment at ``scale``.

    The Fig. 6 sweep is memoised on the (frozen) scale: ``fig7`` and
    ``t2`` are derived from the same measurements ``fig6`` prints, so
    one invocation that shows several of them sweeps once.
    """
    if key == "fig6":
        return _fig6_sweep(scale)
    exp = EXPERIMENTS[key]
    kwargs = {}
    if "scale" in exp.takes:
        kwargs["scale"] = scale
    if "fig6" in exp.takes:
        kwargs["fig6"] = _fig6_sweep(scale)
    return exp.fn(**kwargs)
