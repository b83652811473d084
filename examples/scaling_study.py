#!/usr/bin/env python
"""Scaling study — a miniature of the paper's evaluation, end to end.

Reruns the paper's three experiments at a reduced scale on the
simulated Meiko CS-2 and prints the same series the figures plot,
plus the design ablation of §5 (P-AutoClass vs wts-only parallelism):

* Figure 6 — elapsed times vs processors per dataset size;
* Figure 7 — speedup, with the small-dataset peaks the paper reports;
* Figure 8 — scaleup (flat per-cycle time at fixed tuples/processor);
* §5 ablation — the cost of parallelizing only ``update_wts``.

Each is the registered experiment ``pautoclass experiments --which KEY``
runs.  The full-scale versions live in ``benchmarks/`` (set
``REPRO_BENCH_SCALE=1.0`` for the paper's exact parameters).

Run: ``python examples/scaling_study.py``
"""

from repro.harness import ExperimentScale, run_experiment


def main() -> None:
    scale = ExperimentScale(factor=0.04, cycles_per_try=3)
    print(f"workload: {scale.describe()}", end="\n\n")

    # Fig. 7 is derived from the Fig. 6 sweep, which runs once.
    print(run_experiment("fig6", scale).render(), end="\n\n")
    fig7 = run_experiment("fig7", scale)
    print(fig7.render(), end="\n\n")

    def peak_procs(n_items: int) -> int:
        procs, speedup = fig7.get(f"speedup[{n_items} tuples]")
        return procs[speedup.index(max(speedup))]

    smallest, largest = scale.sizes[0], scale.sizes[-1]
    print(
        f"smallest dataset ({smallest} tuples) peaks at "
        f"{peak_procs(smallest)} processors; "
        f"largest ({largest} tuples) peaks at "
        f"{peak_procs(largest)} — the paper's Figure 7 pattern.",
        end="\n\n",
    )

    fig8 = run_experiment("fig8", scale)
    print(fig8.render(), end="\n\n")
    for j in scale.scaleup_j:
        _, times = fig8.get(f"{j} clusters")
        print(
            f"scaleup flatness at J={j}: max/min per-cycle time = "
            f"{max(times) / min(times):.2f} (1.0 = perfectly flat)"
        )
    print()

    a1 = run_experiment("a1", scale)
    print(a1.render(), end="\n\n")
    print(
        "parallelizing update_parameters too (the paper's design) beats "
        f"the wts-only prototype by {a1.at('advantage', 8):.1f}x at 8 "
        "processors."
    )


if __name__ == "__main__":
    main()
