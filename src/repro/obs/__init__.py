"""repro.obs — backend-agnostic run observability.

The measurement substrate of the redesigned fit API: per-rank phase
timers over the paper's EM phases (wts / params / approx and the two
Allreduce cut points), per-EM-cycle telemetry, communication accounting
that subsumes :class:`repro.mpc.api.CommStats`, and paper-style
reporting (Tables 2–4 shapes) with JSONL export.

Layer map:

* :mod:`repro.obs.record`   — the serializable schema (RunRecord etc.);
* :mod:`repro.obs.recorder` — the hot-path recorder + ambient install;
* :mod:`repro.obs.runtime`  — running SPMD programs under a recorder
  on any world (serial / threads / processes / sim);
* :mod:`repro.obs.report`   — tables, speedup/efficiency, JSONL;
* :mod:`repro.obs.serve`    — serving-side metrics (queue depth, batch
  histogram, latency, throughput) for :mod:`repro.serve`.

Instrumented code does::

    from repro.obs import recorder as obs

    rec = obs.current()            # thread-local; NULL_RECORDER if off
    with rec.phase("wts"):
        ...                        # timed on the world's clock

which costs one thread-local read when instrumentation is off.
"""

from repro.obs.record import (
    CLOCK_KINDS,
    COMM_PHASES,
    PHASES,
    SCHEMA_VERSION,
    CommEventRecord,
    CycleRecord,
    RankRecord,
    RunRecord,
    SchemaError,
    read_jsonl,
    write_jsonl,
)
from repro.obs.recorder import (
    INSTRUMENT_LEVELS,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    RunRecorder,
    check_instrument,
    current,
    recording,
)
from repro.obs.runtime import build_run_record, run_recorded
from repro.obs.serve import ServeMetrics

__all__ = [
    "CLOCK_KINDS",
    "COMM_PHASES",
    "CommEventRecord",
    "CycleRecord",
    "INSTRUMENT_LEVELS",
    "NULL_RECORDER",
    "NullRecorder",
    "PHASES",
    "RankRecord",
    "Recorder",
    "RunRecord",
    "RunRecorder",
    "SCHEMA_VERSION",
    "SchemaError",
    "ServeMetrics",
    "build_run_record",
    "check_instrument",
    "current",
    "read_jsonl",
    "recording",
    "run_recorded",
    "write_jsonl",
]
