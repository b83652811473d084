#!/usr/bin/env python
"""Gate benchmark results against the committed baselines.

``benchmarks/out/`` is the single source of truth for benchmark
reports: the committed copies there are the baselines, and the bench
jobs overwrite them in the working tree with fresh numbers.  This
script therefore reads the *committed* version of each report through
``git show HEAD:benchmarks/out/<name>`` and compares it with the fresh
file on disk, failing — exit code 1 — when any timing metric regressed
by more than ``--tolerance`` (default 20 %).  Speedups are never
failures; they just print.

CI runs this right after the bench jobs regenerate the fresh reports::

    pytest benchmarks/bench_kernels.py -q
    python benchmarks/check_regression.py BENCH_kernels.json

With no file arguments every baseline that has a fresh counterpart is
checked.  A report with no committed baseline yet (a brand-new bench)
passes in record-only mode: the fresh numbers become the baseline once
they are committed.  A missing fresh report is an error when named
explicitly and a skip otherwise (the bench may not have run in this
job).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: metric paths (dotted) holding seconds — lower is better.
TIMING_METRICS: dict[str, tuple[str, ...]] = {
    "BENCH_kernels.json": (
        "kernels.update_wts.fused_s",
        "kernels.update_parameters.fused_s",
        "combined.fused_s",
    ),
    "BENCH_obs.json": ("off_s", "phases_s"),
    # Virtual elapsed is deterministic, so both arms gate tightly.
    "BENCH_split.json": (
        "try_parallel.elapsed_g1_s",
        "try_parallel.elapsed_g4_s",
    ),
    # The batched arm is asserted via the >= 5x speedup bar inside the
    # bench; gating it here too would double-count the same noise.
    "BENCH_serve.json": ("single.elapsed_s",),
    # The in-memory arm is covered by the >= 0.7x throughput-ratio bar
    # inside the bench; only the streamed arm's wall time gates here.
    "BENCH_stream.json": ("streamed.fit_elapsed_s",),
    # Wall time on a shared runner; the pipe arm is covered by the
    # >= 2x speedup bar inside the bench, so only the shm arm gates.
    "BENCH_shm.json": (
        "mib1.shm.seconds",
        "mib4.shm.seconds",
    ),
}


def committed_baseline(name: str) -> dict | None:
    """The committed copy of ``benchmarks/out/<name>``, or None if new."""
    proc = subprocess.run(
        ["git", "show", f"HEAD:benchmarks/out/{name}"],
        cwd=REPO, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def _dig(payload: dict, dotted: str) -> float:
    node = payload
    for part in dotted.split("."):
        node = node[part]
    return float(node)


def compare(name: str, baseline: dict, tolerance: float) -> tuple[list[str], int]:
    """Compare one fresh report against its committed baseline.

    Returns (report lines, number of regressions).
    """
    fresh = json.loads((OUT / name).read_text(encoding="utf-8"))
    lines = [f"{name}:"]
    regressions = 0
    for metric in TIMING_METRICS[name]:
        base = _dig(baseline, metric)
        new = _dig(fresh, metric)
        ratio = new / base if base > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + tolerance:
            flag = "  << REGRESSION"
            regressions += 1
        elif ratio < 1.0 - tolerance:
            flag = "  (faster)"
        lines.append(
            f"  {metric:42s} base {base:.6g}s  now {new:.6g}s "
            f" x{ratio:.3f}{flag}"
        )
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*",
        help="baseline file names to check (default: all with fresh runs)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed slowdown fraction before failing (default 0.20)",
    )
    args = parser.parse_args(argv)
    if args.tolerance <= 0:
        parser.error("--tolerance must be positive")

    explicit = bool(args.files)
    names = args.files or sorted(TIMING_METRICS)
    total_regressions = 0
    checked = 0
    for name in names:
        if name not in TIMING_METRICS:
            print(f"error: no timing metrics registered for {name!r}",
                  file=sys.stderr)
            return 2
        if not (OUT / name).exists():
            if explicit:
                print(f"error: fresh report benchmarks/out/{name} missing "
                      "(did the bench run?)", file=sys.stderr)
                return 2
            print(f"{name}: no fresh report, skipped")
            continue
        baseline = committed_baseline(name)
        if baseline is None:
            print(f"{name}: no committed baseline yet, recorded only")
            checked += 1
            continue
        lines, regressions = compare(name, baseline, args.tolerance)
        print("\n".join(lines))
        total_regressions += regressions
        checked += 1
    if checked == 0:
        print("error: nothing was checked", file=sys.stderr)
        return 2
    if total_regressions:
        print(
            f"\nFAIL: {total_regressions} metric(s) regressed by more than "
            f"{args.tolerance:.0%} vs the committed baselines"
        )
        return 1
    print(f"\nOK: {checked} report(s) within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
