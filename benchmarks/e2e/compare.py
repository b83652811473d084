"""Compare two bench_e2e result files: is B (the change) worse than A?

    python benchmarks/e2e/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio B/A with its base, the metric's bound and a
verdict (choosing-metrics §6.5):

* ``worse``      — B's median is worse than A's by more than the bound
  (for a spread wider than the bound: and every run of B reads worse
  than every run of A);
* ``unresolved`` — the run-to-run spread (IQR / median, of either side)
  is wider than the bound and the runs overlap: not "unchanged";
* ``ok``         — otherwise.

Exit status 1 on any ``worse`` row, on a workload or metric that A has
and B lacks (B's run crashed), or on a higher share of failed operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END  # noqa: E402


def spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0


def verdict(metric, a: dict, b: dict) -> str:
    """``a`` and ``b`` are summaries: value (median), q1, q3, min, max."""
    sign = 1.0 if metric.better == "lower" else -1.0
    # > 0 means B is worse, in units of A's median (the base).
    if a["value"]:
        worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    else:
        worse_by = float("inf") if sign * b["value"] > 0 else 0.0
    best, worst = ("min", "max") if sign > 0 else ("max", "min")
    if max(spread(a), spread(b)) > metric.bound:
        if sign * (b[worst] - a[best]) < 0:
            return "ok"  # every run of B better than every run of A
        all_worse = sign * (b[best] - a[worst]) > 0
        if not (all_worse and worse_by > metric.bound):
            return "unresolved"
    return "worse" if worse_by > metric.bound else "ok"


def cell(s: dict) -> str:
    return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"


def failed_frac(entry: dict) -> float:
    """Failed / attempted operations of all of a workload's passes
    (always written, even when the measuring child crashed)."""
    return entry["ops"]["failed"] / entry["ops"]["attempted"]


def compare(a_doc: dict, b_doc: dict) -> tuple[list[str], bool]:
    rows, failed = [], False
    a_wl, b_wl = a_doc["workloads"], b_doc["workloads"]
    for name in a_wl:
        if name not in b_wl:
            rows.append(f"{name}: only in A  worse")
            failed = True
            continue
        fa, fb = failed_frac(a_wl[name]), failed_frac(b_wl[name])
        if fb > fa:
            rows.append(f"{name:14s} failed operations A {fa:.4g} "
                        f"B {fb:.4g}  worse")
            failed = True
        a_e2e = a_wl[name].get("end_to_end", {})
        b_e2e = b_wl[name].get("end_to_end", {})
        for metric in END_TO_END:
            a, b = a_e2e.get(metric.name), b_e2e.get(metric.name)
            if a is None and b is None:
                continue  # not reported on this workload
            if b is None:
                rows.append(f"{name:14s} {metric.name:22s} only in A  worse")
                failed = True
                continue
            if a is None:
                rows.append(f"{name:14s} {metric.name:22s} only in B")
                continue
            v = verdict(metric, a, b)
            ratio = (f"{b['value'] / a['value']:.4f}" if a["value"]
                     else "n/a")
            rows.append(
                f"{name:14s} {metric.name:22s} A {cell(a):38s} "
                f"B {cell(b):38s} B/A {ratio} (base A={a['value']:.5g} "
                f"{a['unit']}, {metric.better} is better) "
                f"bound {metric.bound:g}  {v}"
            )
            failed |= v == "worse"
    rows += [f"{name}: only in B" for name in b_wl if name not in a_wl]
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (
        json.loads(Path(p).read_text(encoding="utf-8")) for p in argv
    )
    rows, failed = compare(a_doc, b_doc)
    print("\n".join(rows))
    print("RESULT:", "worse" if failed else "no row is worse")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
