"""Experiment runners: one :data:`EXPERIMENTS` row per figure or claim.

Each row names its title, the ``benchmarks/out/`` file it regenerates
and its runner.  Every runner is
``run(scale)`` and returns one of two result types: a :class:`Table`,
or a :class:`Series` for the series plots of Figs. 7 and 8.  Both keep
the raw numbers (read by tests and ``benchmarks/bench_figures.py``
through their accessors) and ``render()`` what the paper's figure
plots.  At the default :class:`ExperimentScale`, :func:`run_experiment`
reproduces every committed ``benchmarks/out/`` file byte for byte,
except the host-timed T1 profile.

Simulated compute is priced by the
:class:`~repro.simnet.workmodel.WorkModel` from the work the kernels
report: deterministic, and free of Python call-overhead artifacts.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.data.synth import make_paper_database
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
from repro.simnet.costmodel import CostModel
from repro.simnet.machine import meiko_cs2
from repro.simnet.simworld import SimRunResult, run_spmd_sim
from repro.simnet.topology import Crossbar, FatTree, Hypercube, Mesh2D, Ring
from repro.util.rng import SeedSequenceStream
from repro.util.tables import format_series, format_table
from repro.util.timefmt import format_hms

#: :func:`meiko_cs2` under the name ``benchmarks/e2e/probes.py`` imports;
#: the runners here call ``meiko_cs2`` directly.
calibrated_machine = meiko_cs2

# The ablations' and the baseline's workload: the paper's mid-size
# dataset, its J=8 scaleup class count, and cycles enough to amortise
# the initial reduction.
N_ITEMS = 10_000
J = 8
CYCLES = 3


# ---------------------------------------------------------------------------
# The two result types.

def _fmt(spec, value) -> str:
    return spec(value) if callable(spec) else spec.format(value)


@dataclass(frozen=True)
class Table:
    """A titled table of raw rows, formatted only by :meth:`render`.

    A derived number (speedup, ratio, share) is a column of its own,
    computed once when the rows are built.  A table with no columns is
    its title and note alone; a title ending in a newline leaves a
    blank line above the grid.
    """

    title: str
    columns: tuple[str, ...] = ()
    #: One ``str.format`` template or callable per column.
    formats: tuple = ()
    rows: tuple[tuple, ...] = ()
    note: str = ""
    #: The printed headers, where two columns print the same one.
    headers: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.formats) != len(self.columns):
            raise ValueError(
                f"{len(self.formats)} formats for {len(self.columns)} columns"
            )

    def col(self, name: str) -> list:
        """Every row's value in column ``name``."""
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def at(self, name: str, key):
        """Column ``name`` of the row whose first cell is ``key``."""
        i = self.columns.index(name)
        for row in self.rows:
            if row[0] == key:
                return row[i]
        raise KeyError(f"no row {key!r} in {self.title!r}")

    def render(self) -> str:
        text = self.title
        if self.columns:
            text = format_table(
                self.headers or self.columns,
                [[_fmt(f, v) for f, v in zip(self.formats, row)]
                 for row in self.rows],
                title=self.title,
            )
        return f"{text}\n\n{self.note}" if self.note else text


@dataclass(frozen=True)
class Series:
    """Named ``x -> y`` series under one title (Figs. 7 and 8)."""

    title: str
    x_label: str
    y_label: str
    #: name -> (xs, ys, the format of each y)
    blocks: dict[str, tuple[list, list, object]]

    def get(self, name: str) -> tuple[list, list]:
        """The ``(xs, ys)`` of series ``name``."""
        xs, ys, _ = self.blocks[name]
        return xs, ys

    def render(self) -> str:
        return "\n".join([self.title] + [
            format_series(
                name, xs, [_fmt(f, y) for y in ys],
                x_label=self.x_label, y_label=self.y_label,
            )
            for name, (xs, ys, f) in self.blocks.items()
        ])


def r_squared(xs, ys) -> float:
    """R^2 of the least-squares line through ``(xs, ys)``."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    fit = np.polyval(np.polyfit(x, y, 1), x)
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


# ---------------------------------------------------------------------------
# Shared simulated workloads.

def _run_fixed_cycles(
    db, machine, j_list, n_cycles: int, seed: int, **program_kw
) -> SimRunResult:
    """``fixed_cycles_program`` on every processor of ``machine``."""
    return run_spmd_sim(
        fixed_cycles_program, machine.n_processors, machine, db, j_list,
        n_cycles, seed, **program_kw,
    )


def _seconds_per_cycle(
    db, machine, n_classes: int, n_measure: int, seed: int
) -> float:
    """Mean virtual seconds per measured cycle of ``scaleup_program``."""
    run = run_spmd_sim(
        scaleup_program, machine.n_processors, machine, db, n_classes,
        n_measure, seed,
    )
    # Global cycle boundary = slowest rank at each mark.
    marks = np.max(np.array(run.results), axis=0)
    return float(np.diff(marks).mean())


def _variant_pair(
    scale: ExperimentScale, n_items: int, procs, first: str, second: str
) -> tuple[tuple, ...]:
    """``(P, first s, second s, second / first)`` for each P: the J=8
    fixed-cycles workload under two reducer variants."""
    db = make_paper_database(n_items, seed=scale.seed)
    rows = []
    for p in procs:
        machine = meiko_cs2(p)
        a, b = (
            _run_fixed_cycles(
                db, machine, (J,), CYCLES, scale.seed, variant=v
            ).elapsed
            for v in (first, second)
        )
        rows.append((p, a, b, b / a))
    return tuple(rows)


# ---------------------------------------------------------------------------
# EXP-F6, F7, F8 — the paper's figures.

@functools.lru_cache(maxsize=1)
def fig6_elapsed(scale: ExperimentScale) -> Table:
    """EXP-F6: elapsed time of the classification workload vs P.

    Memoised on the (frozen) scale: Fig. 7 and T2 are derived from this
    sweep, so one invocation that prints several of them sweeps once.
    """
    rows = []
    for n_items in scale.sizes:
        db = make_paper_database(n_items, seed=scale.seed)
        rows.append((n_items, *(
            float(np.mean([
                _run_fixed_cycles(
                    db, meiko_cs2(p, comm_scale=scale.factor),
                    scale.start_j_list, scale.cycles_per_try,
                    scale.seed + rep,
                ).elapsed
                for rep in range(scale.n_reps)
            ]))
            for p in scale.procs
        )))
    return Table(
        title=(
            "Fig. 6 — average elapsed times [h.mm.ss] of P-AutoClass on "
            f"different numbers of processors ({scale.describe()}, counted)"
        ),
        columns=("dataset", *map(str, scale.procs)),
        formats=("{} tuples", *[format_hms] * len(scale.procs)),
        rows=tuple(rows),
    )


def fig7_speedup(scale: ExperimentScale) -> Series:
    """EXP-F7: speedup T1/Tp from the Fig. 6 sweep."""
    procs = list(scale.procs)
    blocks: dict = {
        f"speedup[{n_items} tuples]": (
            procs, [times[0] / t for t in times], "{:.2f}"
        )
        for n_items, *times in fig6_elapsed(scale).rows
    }
    blocks["linear"] = (procs, procs, "{}")
    return Series(
        title=(
            "Fig. 7 — speedup of P-AutoClass on different numbers of "
            f"processors ({scale.describe()}, counted)"
        ),
        x_label="no. of processors", y_label="T1/Tp", blocks=blocks,
    )


def fig8_scaleup(scale: ExperimentScale) -> Series:
    """EXP-F8: per-cycle time with the per-processor load held fixed."""
    per_proc = scale.scaleup_tuples_per_proc
    n_measure = max(scale.cycles_per_try, 3)
    procs = list(scale.procs)
    blocks = {}
    for j in scale.scaleup_j:
        times = []
        for p in procs:
            db = make_paper_database(per_proc * p, seed=scale.seed)
            machine = meiko_cs2(p, comm_scale=scale.factor)
            times.append(float(np.mean([
                _seconds_per_cycle(db, machine, j, n_measure, scale.seed + rep)
                for rep in range(scale.n_reps)
            ])))
        blocks[f"{j} clusters"] = (procs, times, "{:.4f}")
    return Series(
        title=(
            "Fig. 8 — scaleup: times per base_cycle iteration (sec), "
            f"{per_proc} tuples per processor ({scale.describe()}, counted)"
        ),
        x_label="Number of processors", y_label="sec/cycle", blocks=blocks,
    )


# ---------------------------------------------------------------------------
# EXP-T1, T2 — the text claims about the sequential run.

#: T1's workload: where the paper's "base_cycle dominates, approx
#: negligible" claim holds (approx's cost and the per-try init do not
#: grow with items or cycles, so small runs understate the cycle).
T1_ITEMS = 20_000
T1_J_LIST = PAPER_START_J_LIST[:4]
T1_CYCLES = 40


def t1_profile(scale: ExperimentScale) -> Table:
    """EXP-T1: where does the sequential run spend its time?

    Runs on the host directly (real ``base_cycle`` timings) — the claim
    is about the algorithm's structure, not the CS-2 — so only
    ``scale.seed`` is used.  The base_cycle share is the wall time spent
    inside ``base_cycle`` calls; its three phases are the cycle's own
    timers, which leave out the cycle's bookkeeping between them.
    """
    db = make_paper_database(T1_ITEMS, seed=scale.seed)
    spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    stream = SeedSequenceStream(scale.seed)
    cycle_s = wts_s = params_s = approx_s = 0.0
    t_start = time.perf_counter()
    for k, j in enumerate(T1_J_LIST):
        clf = initial_classification(db, spec, j, stream.child("try", k))
        for _ in range(T1_CYCLES):
            t0 = time.perf_counter()
            clf, _, stats = base_cycle(db, clf)
            cycle_s += time.perf_counter() - t0
            wts_s += stats.seconds_wts
            params_s += stats.seconds_params
            approx_s += stats.seconds_approx
    total = time.perf_counter() - t_start
    phases = (
        ("total run", total), ("base_cycle", cycle_s),
        ("  update_wts", wts_s), ("  update_parameters", params_s),
        ("  update_approximations", approx_s),
    )
    return Table(
        title=(
            "T1 — sequential time profile (paper: base_cycle ~ 99.5%, "
            "update_approximations negligible)"
        ),
        columns=("phase", "seconds", "share"),
        formats=("{}", "{:.3f}", "{:.3f}"),
        rows=tuple((name, s, s / total) for name, s in phases),
    )


def t2_linear_sequential(scale: ExperimentScale) -> Table:
    """EXP-T2: linearity of sequential time in the dataset size."""
    fig6 = fig6_elapsed(scale)
    sizes, seconds = fig6.col("dataset"), fig6.col("1")
    return Table(
        title=(
            "T2 — sequential elapsed vs dataset size "
            f"(linear fit R^2 = {r_squared(sizes, seconds):.5f})"
        ),
        columns=("tuples", "seconds (P=1, simulated CS-2)", "us/tuple"),
        formats=("{}", "{:.4f}", "{:.2f}"),
        rows=tuple((s, t, t / s * 1e6) for s, t in zip(sizes, seconds)),
    )


# ---------------------------------------------------------------------------
# EXP-A1..A5 — the ablations.

def ablation_variants(scale: ExperimentScale) -> Table:
    """EXP-A1: quantify the paper's improvement over wts-only parallelism.

    Twelve times ``scale``'s largest Fig. 6 size (at least 10 000):
    about the paper's mid dataset sizes.
    """
    n_items = max(scale.sizes[-1] * 12, N_ITEMS)
    return Table(
        title=(
            "A1 — both-phases-parallel (paper) vs wts-only parallel "
            f"(Miller & Guo) — {n_items} tuples, J={J}"
        ),
        columns=("procs", "P-AutoClass (s)", "wts-only (s)", "advantage"),
        formats=("{}", "{:.4f}", "{:.4f}", "{:.2f}x"),
        rows=_variant_pair(
            scale, n_items, (1, 2, 4, 6, 8, 10), "pautoclass", "wts_only"
        ),
    )


#: EXP-A2's payload: J=8 classes x 6 statistics, the paper workload's.
A2_NBYTES = 8 * 8 * 6
#: Textbook alternatives EXP-A2 prices beside the executed algorithm.
A2_TEXTBOOK = (ALLREDUCE, "reduce_bcast", "ring")


def ablation_collectives(scale: ExperimentScale) -> Table:
    """EXP-A2: the simulated Allreduce vs the textbook cost of each
    algorithm it could have been.  Independent of ``scale``."""
    rows = []
    for p in (2, 4, 8, 10):
        machine = meiko_cs2(p)
        cost = CostModel(machine)
        run = run_spmd_sim(allreduce_program, p, machine, A2_NBYTES, 50)
        rows.append((p, float(np.mean(run.results)) * 1e6, *(
            cost.expected_allreduce(a, p, A2_NBYTES) * 1e6 for a in A2_TEXTBOOK
        )))
    return Table(
        title=(
            f"A2 — the {ALLREDUCE} Allreduce, simulated, vs textbook "
            f"algorithm costs on the CS-2 model ({A2_NBYTES} B payload)"
        ),
        columns=(
            "procs", "simulated (us)",
            *(f"textbook {a} (us)" for a in A2_TEXTBOOK),
        ),
        formats=("{}", *["{:.1f}"] * (1 + len(A2_TEXTBOOK))),
        rows=tuple(rows),
    )


def ablation_comm_share(scale: ExperimentScale) -> Table:
    """EXP-A3: how much of a cycle is communication, and how many bytes."""
    db = make_paper_database(N_ITEMS, seed=scale.seed)
    rows = []
    for p in (2, 4, 6, 8, 10):
        run = _run_fixed_cycles(db, meiko_cs2(p), (J,), CYCLES, scale.seed)
        # +1 cycle: the init's combined Allreduce.
        rows.append((p, run.comm_fraction, run.total_bytes / p / (CYCLES + 1)))
    return Table(
        title=(
            "A3 — communication share (paper: 'the amount of data "
            "exchanged ... is not so large') — "
            f"{N_ITEMS} tuples, J={J}"
        ),
        columns=("procs", "comm share of elapsed", "bytes/cycle/rank"),
        formats=("{}", lambda f: f"{f * 100:.2f}%", "{:.0f}"),
        rows=tuple(rows),
    )


def ablation_granularity(scale: ExperimentScale) -> Table:
    """EXP-A4: what the paper's loop-level Allreduce structure costs."""
    return Table(
        title=(
            "A4 — one packed Allreduce per cycle vs the paper's "
            "Figure-5 per-(class, attribute) Allreduces — "
            f"{N_ITEMS} tuples, J={J}"
        ),
        columns=("procs", "packed (s)", "per-term-class (s)", "overhead"),
        formats=("{}", "{:.4f}", "{:.4f}", "{:.2f}x"),
        rows=_variant_pair(
            scale, N_ITEMS, (2, 4, 8, 10), "packed", "pautoclass"
        ),
    )


def ablation_topology(scale: ExperimentScale) -> Table:
    """EXP-A5: how much does the CS-2's fat tree matter vs alternatives?

    Latency per message = base + hops x per_hop, so topologies differ
    through their hop structure.  With the CS-2's software-dominated
    effective latency the spread is small — evidence for the paper's
    'portable to various MIMD machines' claim; with raw hardware
    latencies the spread is the classic topology story.
    """
    n_procs = 10
    db = make_paper_database(N_ITEMS, seed=scale.seed)
    topologies = {
        "fat_tree": FatTree(n_procs, arity=4),
        "crossbar": Crossbar(n_procs),
        "hypercube": Hypercube(n_procs),
        "mesh_2d": Mesh2D(n_procs),
        "ring": Ring(n_procs),
    }
    base = meiko_cs2(n_procs)
    # The paper's software-dominated latency, then early-multicomputer
    # store-and-forward: tiny base latency, the route's hops carry the
    # cost.
    regimes = (base, dataclasses.replace(base, latency=2e-6, per_hop=400e-6))
    eff, saf = (
        {
            name: _run_fixed_cycles(
                db, machine.with_topology(topo), (J,), CYCLES, scale.seed
            ).elapsed
            for name, topo in topologies.items()
        }
        for machine in regimes
    )
    return Table(
        title=(
            f"A5 — interconnect topologies at P={n_procs} — "
            f"{N_ITEMS} tuples, J={J} "
            "(left: the paper's software-dominated regime; right: "
            "per-hop-dominated routing)"
        ),
        columns=("topology", "MPI-latency (s)", "MPI-latency vs fat tree",
                 "store-and-fwd (s)", "store-and-fwd vs fat tree"),
        headers=("topology", "MPI-latency (s)", "vs fat tree",
                 "store-and-fwd (s)", "vs fat tree"),
        formats=("{}", "{:.4f}", "{:.3f}x", "{:.4f}", "{:.3f}x"),
        rows=tuple(
            (name, eff[name], eff[name] / eff["fat_tree"],
             saf[name], saf[name] / saf["fat_tree"])
            for name in sorted(eff, key=lambda n: saf[n])
        ),
    )


# ---------------------------------------------------------------------------
# EXP-B1 — baseline comparison: P-AutoClass vs parallel k-means.

def baseline_kmeans_comparison(scale: ExperimentScale) -> Table:
    """EXP-B1: the same SPMD pattern on a much lighter kernel.

    K-means' E-step is ~10x cheaper per (item x class) than AutoClass's
    Bayesian weighting, while its per-iteration communication is similar
    — so k-means hits the communication wall at lower processor counts.
    P-AutoClass's heavier compute is exactly why the paper's approach
    scales: there is more work to amortize each Allreduce over.
    """
    n_measure = 5
    db = make_paper_database(N_ITEMS, seed=scale.seed)
    times = []
    for p in (1, 2, 4, 8, 10):
        machine = meiko_cs2(p)
        km = run_spmd_sim(
            kmeans_program, p, machine, db, J, n_measure, scale.seed
        )
        times.append((
            p, _seconds_per_cycle(db, machine, J, n_measure, scale.seed),
            float(np.max(km.results)),
        ))
    _, pa1, km1 = times[0]
    return Table(
        title=(
            "B1 — per-iteration cost: P-AutoClass vs parallel k-means "
            f"(Stoffel & Belkoniene pattern) — {N_ITEMS} tuples, k=J={J}"
        ),
        columns=("procs", "P-AutoClass s/cycle", "P-AutoClass speedup",
                 "k-means s/iter", "k-means speedup"),
        headers=("procs", "P-AutoClass s/cycle", "speedup",
                 "k-means s/iter", "speedup"),
        formats=("{}", "{:.4f}", "{:.2f}", "{:.4f}", "{:.2f}"),
        rows=tuple((p, pa, pa1 / pa, km, km1 / km) for p, pa, km in times),
    )


# ---------------------------------------------------------------------------
# The experiment table: what ``pautoclass experiments --which KEY`` runs
# and ``benchmarks/bench_figures.py`` regenerates, and the names
# :mod:`repro.harness` exports.

class Experiment(NamedTuple):
    """One registered experiment."""

    title: str
    #: File name of its rendered output under ``benchmarks/out/``.
    out: str
    #: The public runner, ``run(scale)``.
    run: Callable[[ExperimentScale], Table | Series]


#: key -> experiment, in the order ``--which all`` prints them.
EXPERIMENTS: dict[str, Experiment] = {
    "fig6": Experiment(
        "elapsed time vs processors", "fig6_elapsed.txt", fig6_elapsed),
    "fig7": Experiment(
        "speedup vs processors", "fig7_speedup.txt", fig7_speedup),
    "fig8": Experiment(
        "scaleup at fixed load", "fig8_scaleup.txt", fig8_scaleup),
    "t1": Experiment(
        "sequential time profile", "t1_profile.txt", t1_profile),
    "t2": Experiment(
        "sequential time vs size", "t2_linear_seq.txt", t2_linear_sequential),
    "a1": Experiment(
        "P-AutoClass vs wts-only parallelism", "ablation_variants.txt",
        ablation_variants),
    "a2": Experiment(
        "Allreduce algorithms", "ablation_collectives.txt",
        ablation_collectives),
    "a3": Experiment(
        "communication share", "ablation_commshare.txt", ablation_comm_share),
    "a4": Experiment(
        "reduction granularity", "ablation_granularity.txt",
        ablation_granularity),
    "a5": Experiment(
        "interconnect topologies", "ablation_topology.txt", ablation_topology),
    "b1": Experiment(
        "parallel k-means baseline", "baseline_kmeans.txt",
        baseline_kmeans_comparison),
}


def run_experiment(key: str, scale: ExperimentScale) -> Table | Series:
    """Run one registered experiment at ``scale``: the one path the CLI
    and the figure bench both take."""
    return EXPERIMENTS[key].run(scale)
