"""The observability data model: what one instrumented run records.

Everything in this module is plain data — picklable (records cross
process boundaries when the ``processes`` backend merges its workers'
records) and JSON-serializable (the benchmark harness consumes runs as
JSONL).  The schema is versioned: every exported record carries
``schema_version`` so downstream tooling can reject records it does not
understand.

Schema overview (one :class:`RunRecord` per fit):

* ``RunRecord`` — backend, world size, instrumentation level, and one
  :class:`RankRecord` per SPMD rank;
* ``RankRecord`` — per-rank phase timers (``phase_seconds`` /
  ``phase_calls`` over :data:`PHASES`), kernel counters, the final
  communication totals (subsuming :class:`repro.mpc.api.CommStats`),
  and — at ``instrument="full"`` — per-EM-cycle telemetry
  (:class:`CycleRecord`) and per-collective communication events
  (:class:`CommEventRecord`);
* ``clock`` names the timebase: ``"wall"`` for real backends,
  ``"virtual"`` for the simulated CS-2 — *the schema is identical*,
  which is the point: the paper-style tables render from either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.docfile import write_bytes

#: Schema version stamped into every exported record.
SCHEMA_VERSION = 1

#: The phase names a run may time, in presentation order.  ``wts`` /
#: ``params`` / ``approx`` are local compute (the paper's Table 2
#: columns); ``allreduce_wts`` / ``allreduce_params`` are the two
#: Allreduce cut points of Figures 4 and 5; ``init`` is the per-try
#: initialization (weights draw + starting M-step); ``ckpt`` is what
#: the checkpoint cut points cost the cycle (a search's saves run on a
#: writer thread, whose time is the ``ckpt_write_us`` counter) —
#: neither compute nor communication, and only the writer rank spends
#: it.
PHASES = (
    "init", "wts", "allreduce_wts", "params", "allreduce_params", "approx",
    "ckpt", "merge",
)

#: Phases that are communication: the Allreduce cut points, and a
#: try-grouped search's merge of the groups' tries.
COMM_PHASES = ("allreduce_wts", "allreduce_params", "merge")

#: Valid timebases.
CLOCK_KINDS = ("wall", "virtual")


class SchemaError(ValueError):
    """An exported record does not match the expected schema."""


@dataclass(frozen=True)
class CycleRecord:
    """Telemetry of one EM cycle (``instrument="full"`` only)."""

    index: int  # cycle number within the run (monotone per rank)
    n_classes: int  # J of the try this cycle belongs to
    log_marginal: float  # Cheeseman–Stutz log P(X|T) approximation
    delta: float  # log_marginal - previous cycle's (NaN on try start)
    w_j_entropy: float  # entropy (nats) of normalized class weights
    try_index: int = 0  # the BIG_LOOP try this cycle belongs to

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "n_classes": self.n_classes,
            "log_marginal": self.log_marginal,
            "delta": self.delta,
            "w_j_entropy": self.w_j_entropy,
            "try_index": self.try_index,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CycleRecord":
        return cls(
            index=int(d["index"]),
            n_classes=int(d["n_classes"]),
            log_marginal=float(d["log_marginal"]),
            delta=float(d["delta"]),
            w_j_entropy=float(d["w_j_entropy"]),
            try_index=int(d.get("try_index", 0)),
        )


@dataclass(frozen=True)
class CommEventRecord:
    """One collective at an instrumented cut point (``"full"`` only)."""

    phase: str  # which cut point ("allreduce_wts" / "allreduce_params")
    nbytes: int  # reduction payload size
    seconds: float  # time spent in the collective (rank's clock)
    n_calls: int = 1  # >1 when a cut point issues several collectives
    # (the figure harness's per-(class, term) reducer)

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "nbytes": self.nbytes,
            "seconds": self.seconds,
            "n_calls": self.n_calls,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CommEventRecord":
        return cls(
            phase=str(d["phase"]),
            nbytes=int(d["nbytes"]),
            seconds=float(d["seconds"]),
            n_calls=int(d.get("n_calls", 1)),
        )


@dataclass
class RankRecord:
    """Everything one rank recorded during one fit."""

    rank: int
    size: int
    instrument: str  # "phases" | "full"
    clock: str = "wall"  # "wall" | "virtual"
    wall_seconds: float = 0.0  # rank total, entry to exit, in `clock`
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    cycles: list[CycleRecord] = field(default_factory=list)
    comm_events: list[CommEventRecord] = field(default_factory=list)
    #: Final :class:`~repro.mpc.api.CommStats` of the rank's communicator
    #: (empty for the sequential backend, which has no communicator).
    comm: dict[str, float] = field(default_factory=dict)

    # -- derived -----------------------------------------------------------

    @property
    def total_phase_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def allreduce_seconds(self) -> float:
        return sum(self.phase_seconds.get(p, 0.0) for p in COMM_PHASES)

    @property
    def compute_seconds(self) -> float:
        return (
            self.total_phase_seconds - self.allreduce_seconds
            - self.seconds("ckpt")
        )

    @property
    def n_cycles(self) -> int:
        """EM cycles timed on this rank (from the wts phase counter)."""
        return self.phase_calls.get("wts", 0)

    def seconds(self, phase: str) -> float:
        return self.phase_seconds.get(phase, 0.0)

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "rank": self.rank,
            "size": self.size,
            "instrument": self.instrument,
            "clock": self.clock,
            "wall_seconds": self.wall_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "phase_calls": dict(self.phase_calls),
            "counters": dict(self.counters),
            "cycles": [c.to_dict() for c in self.cycles],
            "comm_events": [e.to_dict() for e in self.comm_events],
            "comm": dict(self.comm),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RankRecord":
        return cls(
            rank=int(d["rank"]),
            size=int(d["size"]),
            instrument=str(d["instrument"]),
            clock=str(d["clock"]),
            wall_seconds=float(d["wall_seconds"]),
            phase_seconds={str(k): float(v) for k, v in d["phase_seconds"].items()},
            phase_calls={str(k): int(v) for k, v in d["phase_calls"].items()},
            counters={str(k): int(v) for k, v in d.get("counters", {}).items()},
            cycles=[CycleRecord.from_dict(c) for c in d.get("cycles", [])],
            comm_events=[
                CommEventRecord.from_dict(e) for e in d.get("comm_events", [])
            ],
            comm={str(k): float(v) for k, v in d.get("comm", {}).items()},
        )


@dataclass
class RunRecord:
    """One instrumented fit: per-rank records plus run metadata."""

    backend: str
    n_processors: int
    instrument: str
    ranks: list[RankRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self.ranks = sorted(self.ranks, key=lambda r: r.rank)

    @property
    def clock(self) -> str:
        return self.ranks[0].clock if self.ranks else "wall"

    @property
    def elapsed(self) -> float:
        """Run time in the record's clock (slowest rank)."""
        return max((r.wall_seconds for r in self.ranks), default=0.0)

    @property
    def total_bytes_sent(self) -> int:
        return int(sum(r.comm.get("bytes_sent", 0) for r in self.ranks))

    def rank(self, rank: int) -> RankRecord:
        for r in self.ranks:
            if r.rank == rank:
                return r
        raise KeyError(f"no record for rank {rank}")

    def phase_seconds(self, phase: str) -> float:
        """Mean seconds per rank spent in ``phase``."""
        if not self.ranks:
            return 0.0
        return sum(r.seconds(phase) for r in self.ranks) / len(self.ranks)

    # -- (de)serialization -------------------------------------------------

    def header_dict(self) -> dict[str, Any]:
        return {
            "kind": "run",
            "schema_version": self.schema_version,
            "backend": self.backend,
            "n_processors": self.n_processors,
            "instrument": self.instrument,
            "clock": self.clock,
            "elapsed": self.elapsed,
        }

    def to_dict(self) -> dict[str, Any]:
        d = self.header_dict()
        d["ranks"] = [r.to_dict() for r in self.ranks]
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        return cls(
            backend=str(d["backend"]),
            n_processors=int(d["n_processors"]),
            instrument=str(d["instrument"]),
            ranks=[RankRecord.from_dict(r) for r in d.get("ranks", [])],
            schema_version=int(d.get("schema_version", SCHEMA_VERSION)),
        )


# ---------------------------------------------------------------------------
# JSONL export — one header line, then one line per rank record.

_REQUIRED_HEADER_KEYS = (
    "kind", "schema_version", "backend", "n_processors", "instrument",
    "clock", "elapsed",
)
_REQUIRED_RANK_KEYS = (
    "kind", "rank", "size", "instrument", "clock", "wall_seconds",
    "phase_seconds", "phase_calls",
)


def write_jsonl(record: RunRecord, path: str | Path) -> Path:
    """Export ``record`` as JSONL: a ``run`` header + one rank per line."""
    lines = [json.dumps(record.header_dict(), sort_keys=True)]
    for rank in record.ranks:
        d = {"kind": "rank", **rank.to_dict()}
        lines.append(json.dumps(d, sort_keys=True))
    return write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_jsonl(path: str | Path) -> RunRecord:
    """Load and schema-validate a JSONL export (see :func:`write_jsonl`)."""
    rows = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {i + 1} is not JSON: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: empty JSONL export")
    header, rank_rows = rows[0], rows[1:]
    for key in _REQUIRED_HEADER_KEYS:
        if key not in header:
            raise SchemaError(f"{path}: header missing key {key!r}")
    if header["kind"] != "run":
        raise SchemaError(f"{path}: first line kind {header['kind']!r} != 'run'")
    if int(header["schema_version"]) != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema_version {header['schema_version']} != {SCHEMA_VERSION}"
        )
    if header["clock"] not in CLOCK_KINDS:
        raise SchemaError(f"{path}: unknown clock {header['clock']!r}")
    ranks = []
    for i, row in enumerate(rank_rows):
        for key in _REQUIRED_RANK_KEYS:
            if key not in row:
                raise SchemaError(f"{path}: rank line {i} missing key {key!r}")
        if row["kind"] != "rank":
            raise SchemaError(f"{path}: line kind {row['kind']!r} != 'rank'")
        for phase in row["phase_seconds"]:
            if phase not in PHASES:
                raise SchemaError(f"{path}: unknown phase {phase!r}")
        ranks.append(RankRecord.from_dict(row))
    if len(ranks) != int(header["n_processors"]):
        raise SchemaError(
            f"{path}: {len(ranks)} rank lines but header says "
            f"{header['n_processors']} processors"
        )
    return RunRecord(
        backend=str(header["backend"]),
        n_processors=int(header["n_processors"]),
        instrument=str(header["instrument"]),
        ranks=ranks,
        schema_version=int(header["schema_version"]),
    )
