"""bench_e2e — the repo's one end-to-end benchmark.

Suite (what a person runs; writes ``out/BENCH_e2e.json``)::

    python -m benchmarks.e2e.run [--workload NAME ...] [--seed 2000]
                                 [--seconds 15] [--out FILE] [--smoke]

Contract (what the driver runs; last stdout line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
                                  --trace 0|1

Either way each workload pass runs in its own fresh child interpreter,
one at a time, with every BLAS/OpenMP pool pinned to one thread.  This
process never imports numpy and measures nothing itself; it starts the
children, checks that they leave nothing behind, and reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PINS, per_layer_for  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
SHM = Path("/dev/shm")
#: ``repro.mpc.shm.SEGMENT_PREFIX`` (not imported: that would import
#: numpy here).  A segment's name goes on with the pid of the process
#: that made the world, which is the child itself.
SHM_PREFIX = "repro_shm_"
HYGIENE_OPS = 3  # checked after every child: /dev/shm, descendants, temp dirs

#: Floors of repetitions: (timed fits of the untraced pass,
#: untraced/traced pairs of the traced pass).  The untraced pass repeats
#: until ``--seconds`` are spent, so a slow host phase costs repetitions,
#: not the time cap (30 s per pass, all-in).  Smoke runs spend none.
REPS = {"full": (3, 2), "smoke": (2, 1)}
#: ``--seconds`` of the suite (the driver passes its own `run_seconds`).
SUITE_SECONDS = 15
SMOKE_DIVISOR = 20


def session_members(sid: int) -> list[int]:
    """Live processes whose session is ``sid`` (the child's descendants)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def reap_session(sid: int) -> list[int]:
    """Processes the child left running, after killing and outwaiting them.

    Helpers that end by themselves once the child is gone (Python's
    shared-memory resource tracker exits on its pipe's EOF) get a short
    grace period; what is still alive after it is a leak.
    """
    deadline = time.monotonic() + 2
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.02)
    leaked = session_members(sid)
    if leaked:
        try:
            os.killpg(sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10
        while session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.05)
    return leaked


def run_child(workload: str, seed: int, *, trace: int, mode: str,
              seconds: float, min_reps: int, scale: int):
    """One pass in a fresh interpreter.

    Returns ``(doc | None, failures)``: the child's result document and
    the hygiene violations found after it ended — a leaked ``/dev/shm``
    segment, a live descendant, a temp dir left behind, a crash.  Each
    of the three hygiene checks is one operation.
    """
    workdir = OUT / f"tmp_{os.getpid()}_{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in PINS})
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--min-reps", str(min_reps),
        "--trace", str(trace), "--mode", mode, "--scale", str(scale),
        "--workdir", str(workdir), "--result", str(result),
    ]
    failures, doc = [], None
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        leaked = reap_session(proc.pid)
        proc.wait()
    if code != 0:
        failures.append(f"child exited with {code}")
    elif result.exists():
        doc = json.loads(result.read_text(encoding="utf-8"))
    result.unlink(missing_ok=True)
    if leaked and code == 0:
        failures.append(f"live descendants after exit: {leaked}")
    # Only segments this child made: other users of /dev/shm on a
    # shared host are neither reported nor touched.
    leaked_shm = sorted(SHM.glob(f"{SHM_PREFIX}{proc.pid}_*"))
    if leaked_shm:
        failures.append(
            f"leaked /dev/shm entries: {[p.name for p in leaked_shm]}")
        for path in leaked_shm:
            path.unlink(missing_ok=True)
    left = sorted(p.name for p in workdir.iterdir())
    if left:
        failures.append(f"temp entries left behind: {left}")
    shutil.rmtree(workdir, ignore_errors=True)
    return doc, failures


def llc_bytes() -> int | None:
    """Size of the highest-level cache cpu0 reports."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        nbytes = int(size.rstrip("KMG")) * mult
        if level >= best[0]:
            best = (level, nbytes)
    return best[1]


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, reps, seconds: float, smoke: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "memcpy_probe_bytes": 64 << 20,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "thread_pins": {k: "1" for k in PINS},
        "PYTHONHASHSEED": "0",
        "seed": seed,
        "search_seed": seed + 7,
        "timed_seconds": seconds,
        "min_timed_reps": reps[0],
        "traced_pairs": reps[1],
        "smoke": smoke,
    }


def fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -- contract mode ------------------------------------------------------------

def contract(args) -> int:
    """One workload, one pass; the last stdout line is the result."""
    reps = REPS["full"]
    doc, failures = run_child(
        args.workload[0], args.seed, trace=args.trace, mode="measure",
        seconds=args.seconds, min_reps=reps[args.trace], scale=1,
    )
    if doc is None:
        print("\n".join(failures), file=sys.stderr)
        return 1
    if args.trace == 0:
        e2e = doc["end_to_end"]
        # The driver wants every listed metric from every workload.  With
        # no second arm P = 1 and the serial fit is the fit itself, and
        # a fit that never checkpoints is its own `checkpoint="off"` arm.
        e2e.setdefault("parallel_efficiency", {"value": 1.0})
        e2e.setdefault("ckpt_fit_s_off", e2e["fit_s"])
        metrics = {
            m.name: {"value": e2e[m.name]["value"], "unit": m.unit}
            for m in END_TO_END if m.contract
        }
    else:
        # A probe that does not apply to this workload (or failed, and
        # is then counted in `failed`) prints 0.
        metrics = {
            name: {"value": doc["per_layer"][name]["value"] or 0.0,
                   "unit": unit}
            for name, unit, _better in per_layer_for(
                BY_NAME[args.workload[0]].world == "sim")
        }
    for name, m in metrics.items():
        print(f"{name:40s} {fmt(m['value']):>14s} {m['unit']}")
    for failure in doc["ops"]["failures"] + failures:
        print(f"FAILED {failure}")
    failed = doc["ops"]["failed"] + len(failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": doc["ops"]["attempted"] + HYGIENE_OPS,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- suite mode ---------------------------------------------------------------

def suite_workload(name: str, seed: int, reps, seconds: float,
                   scale: int) -> dict:
    """Untraced pass, traced pass, deep checks — three fresh children.

    At smoke scale the untraced pass already checks (nearly) all rows,
    so the deep pass is left out.
    """
    entry = {"why": BY_NAME[name].why}
    attempted, failures = 0, []
    passes = [
        ("untraced", dict(trace=0, mode="measure", min_reps=reps[0])),
        ("traced", dict(trace=1, mode="measure", min_reps=reps[1])),
    ]
    if scale == 1:
        passes.append(("deep_checks", dict(trace=0, mode="checks", min_reps=0)))
    for label, kw in passes:
        t0 = time.perf_counter()
        doc, hygiene = run_child(
            name, seed, seconds=seconds, scale=scale, **kw)
        entry.setdefault("pass_seconds", {})[label] = time.perf_counter() - t0
        attempted += HYGIENE_OPS
        failures += [f"{label}: {f}" for f in hygiene]
        if doc is None:
            continue
        attempted += doc["ops"]["attempted"]
        failures += [f"{label}: {f}" for f in doc["ops"]["failures"]]
        entry.setdefault("rows", doc["rows"])
        entry.setdefault("libraries", doc["env"])
        for key in ("end_to_end", "per_layer", "probe_errors",
                    "traced_fit_s"):
            if key in doc:
                entry[key] = doc[key]
        if label == "deep_checks":
            entry["deep_checks"] = doc["checks"]
    w = BY_NAME[name]
    e2e = entry.get("end_to_end", {})
    if e2e:
        # Every pass's operations, not only the untraced child's.
        frac = len(failures) / attempted
        e2e["ops_failed_frac"].update(
            value=frac, q1=frac, q3=frac, min=frac, max=frac)
        if w.world == "processes" and (os.cpu_count() or 1) < w.n_procs:
            # More ranks than cores: counts only, no wall-clock scaling.
            del e2e["parallel_efficiency"]
    entry["ops"] = {
        "attempted": attempted, "failed": len(failures), "failures": failures,
    }
    return entry


def sanity(workloads: dict) -> dict:
    """The interaction table checked on this run's own numbers."""
    def layer(name, metric):
        value = workloads.get(name, {}).get("per_layer", {}).get(metric, {})
        return value.get("value")

    out = {}
    small = layer("small_procs2", "parallel.comm_share")
    paper = layer("paper_procs2", "parallel.comm_share")
    if small is not None and paper:
        out["comm_share_small_over_paper"] = small / paper
    deep = workloads.get("stream_serial", {}).get("deep_checks", {})
    if "in_memory_fit_peak_rss_mb" in deep:
        out["stream_rss_in_memory_over_streamed"] = (
            deep["in_memory_fit_peak_rss_mb"]
            / deep["streamed_fit_peak_rss_mb"]
        )
    out["ckpt_saves_per_fit"] = {
        name: layer(name, "ckpt.saves_per_fit") for name in workloads
    }
    out["mpc_collectives_per_fit"] = {
        name: layer(name, "mpc.collectives_per_fit") for name in workloads
    }
    return out


def print_suite(report: dict) -> None:
    for name, entry in report["workloads"].items():
        rows = entry.get("rows", {})
        print(f"\n== {name}  N={rows.get('n_items')} "
              f"tries={rows.get('tries')} cycles={rows.get('cycles')} "
              f"duplicates={rows.get('duplicates')} "
              f"best log_marginal_cs={rows.get('best_log_marginal_cs')}")
        for metric, s in entry.get("end_to_end", {}).items():
            print(f"  {metric:38s} {fmt(s['value']):>12s} {s['unit']:10s}"
                  f" q1={fmt(s['q1'])} q3={fmt(s['q3'])} min={fmt(s['min'])}"
                  f" max={fmt(s['max'])} n={s['n']}")
        for metric, s in entry.get("per_layer", {}).items():
            print(f"  {metric:38s} {fmt(s['value']):>12s} {s['unit']}")
        for err in entry.get("probe_errors", []):
            print(f"  FAILED probe {err['probe']}: {err['error']}")
        for failure in entry["ops"]["failures"]:
            print(f"  FAILED {failure}")
    print("\nsanity:", json.dumps(report["sanity"], indent=1))


def suite(args) -> int:
    reps = REPS["smoke" if args.smoke else "full"]
    seconds = 0.0 if args.smoke else args.seconds
    scale = SMOKE_DIVISOR if args.smoke else 1
    names = args.workload or [w.name for w in WORKLOADS]
    report = {
        "benchmark": "bench_e2e",
        "env": environment(args.seed, reps, seconds, args.smoke),
        "workloads": {},
    }
    for name in names:
        print(f"[bench_e2e] {name} ...", file=sys.stderr, flush=True)
        report["workloads"][name] = suite_workload(
            name, args.seed, reps, seconds, scale)
    for entry in report["workloads"].values():
        report["env"].update(entry.pop("libraries", {}))
    report["sanity"] = sanity(report["workloads"])
    report["claim"] = None  # this benchmark defines the baseline
    out = Path(args.out) if args.out else OUT / (
        "BENCH_e2e_smoke.json" if args.smoke else "BENCH_e2e.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_suite(report)
    print(f"\nwrote {out}")
    failed = sum(e["ops"]["failed"] for e in report["workloads"].values())
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=2000,
                        help="data seed S; the search uses S+7")
    parser.add_argument("--out", help="suite result file")
    parser.add_argument("--smoke", action="store_true",
                        help="N/20 and 2 repetitions, same shapes and checks")
    parser.add_argument("--seconds", type=float, default=SUITE_SECONDS,
                        help="seconds of timed repetitions per untraced pass")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    if not (HERE.parents[1] / "src" / "repro").is_dir():
        print("bench_e2e: src/repro not found next to benchmarks/",
              file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return contract(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
