"""Self-test of bench_e2e at smoke scale.

Outside tier-1's ``testpaths``; run as ``pytest benchmarks/e2e -q``.
Two ``--smoke`` suites (N/20, 2 repetitions, same shapes and checks)
must emit every metric and workload ``BENCHMARK.json`` names, with
units, and repeat their deterministic metrics exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import compare  # noqa: E402
from metrics import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402
from run import SHM_PREFIX  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Counts and virtual-clock metrics: the same on every run of a commit.
EXACT_E2E = ("sim_elapsed_s", "sim_speedup", "ops_failed_frac")
EXACT_LAYER = tuple(
    name for name, unit, _better in PER_LAYER
    if name.endswith("_per_fit") or unit.startswith("virtual_")
    or name == "simnet.speedup_virtual"
)


def reported(metric, w) -> bool:
    """Whether the suite reports ``metric`` on workload ``w``: the
    second-arm and virtual-clock metrics exist only where the arm does."""
    if metric.name.startswith("sim_"):
        return w.world == "sim"
    if metric.name == "parallel_efficiency":
        return w.alt == "serial"
    if metric.name == "ckpt_fit_s_off":
        return w.alt == "ckpt_off"
    return True


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    docs = []
    for i in range(2):
        path = out / f"smoke_{i}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke",
             "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    return docs


def test_benchmark_json_is_the_metric_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert committed == benchmark_json(WORKLOADS)


def test_shm_prefix_is_the_programs():
    from repro.mpc.shm import SEGMENT_PREFIX

    assert SHM_PREFIX == SEGMENT_PREFIX


def test_compare_fails_on_a_crashed_run():
    row = {"value": 1.0, "q1": 1.0, "q3": 1.0, "min": 1.0, "max": 1.0,
           "n": 1, "unit": "s"}
    ops = {"attempted": 10, "failed": 0}
    a = {"workloads": {"w": {"end_to_end": {"fit_s": row}, "ops": ops}}}
    crashed = {"workloads": {"w": {"ops": {"attempted": 9, "failed": 1}}}}
    assert not compare(a, a)[1]
    assert compare(a, crashed)[1]
    assert compare(a, {"workloads": {}})[1]


def test_every_named_metric_and_workload_is_emitted(smoke_runs):
    doc = smoke_runs[0]
    assert list(doc)[-1] == "claim" and doc["claim"] is None
    assert set(doc["workloads"]) == {w.name for w in WORKLOADS}
    for w in WORKLOADS:
        entry = doc["workloads"][w.name]
        for metric in END_TO_END:
            assert NAME.fullmatch(metric.name)
            if not reported(metric, w):
                assert metric.name not in entry["end_to_end"]
                continue
            row = entry["end_to_end"][metric.name]
            assert row["unit"] == metric.unit and row["value"] is not None
        for name, unit, _better in PER_LAYER:
            assert entry["per_layer"][name]["unit"] == unit
            assert NAME.fullmatch(name)
        assert NAME.fullmatch(w.name)
        assert entry["probe_errors"] == []


def test_no_operation_failed(smoke_runs):
    for doc in smoke_runs:
        for name, entry in doc["workloads"].items():
            assert entry["ops"]["failures"] == [], name
            assert entry["end_to_end"]["ops_failed_frac"]["value"] == 0


def test_deterministic_metrics_repeat_exactly(smoke_runs):
    a, b = (doc["workloads"] for doc in smoke_runs)
    for name in a:
        assert a[name]["rows"] == b[name]["rows"]
        for metric in EXACT_E2E:
            if metric in a[name]["end_to_end"]:
                assert (a[name]["end_to_end"][metric]["value"]
                        == b[name]["end_to_end"][metric]["value"]), metric
        for metric in EXACT_LAYER:
            assert (a[name]["per_layer"][metric]["value"]
                    == b[name]["per_layer"][metric]["value"]), (name, metric)


def test_compare_finds_no_worse_exact_row(smoke_runs):
    rows, _failed = compare(*smoke_runs)
    exact = [r for r in rows if any(m in r for m in EXACT_E2E)]
    assert exact and not [r for r in exact if r.endswith("worse")]
