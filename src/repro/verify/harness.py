"""The differential conformance harness and the golden corpus.

``run_case_matrix`` fits one corpus case across the full
{worlds} x {world sizes} matrix on the fused kernels — the only path
a world runs — and compares every cell against the sequential fused
reference, and that reference against the sequential reference-kernel
oracle, under the tolerance the metadata resolves — bitwise wherever
the operation sequence is fixed, reduction-order / kernel bounds where
it provably is not.  This is the machine-checkable form of the paper's
claim that P-AutoClass computes *the same classification* as AutoClass.

The **golden corpus** pins the sequential references themselves: for
each (case, kernels) pair a committed JSON trace + sha256 digest under
``repro/verify/golden/``.  ``check_golden`` recomputes the trace and
fails on digest drift — any change to the E/M hot path that moves a
single bit of the search shows up here before it ships.  Regenerate
deliberately with ``python -m repro.verify --regen`` and commit the
diff (the review of that diff *is* the numerical review).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.util import docfile
from repro.verify.conformance import ConformanceReport, compare_traces
from repro.verify.trace import RunTrace, capture_trace

#: Directory holding the committed golden traces.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Kernel paths of the sequential references (and golden traces).
KERNEL_MODES = ("fused", "reference")


def _paper_tiny():
    from repro.data.synth import make_paper_database

    return make_paper_database(120, seed=13)


def _mixed_missing():
    from repro.data.synth import make_mixed_database

    db, _ = make_mixed_database(90, missing_rate=0.2, seed=5)
    return db


@dataclass(frozen=True)
class CorpusCase:
    """One golden-corpus dataset + seeded search configuration."""

    name: str
    make_db: Callable[[], Any]
    config: dict
    #: (world, sizes) cells this case runs in the full matrix.
    worlds: tuple[tuple[str, tuple[int, ...]], ...] = (
        ("serial", (1,)),
        ("threads", (2, 3)),
        ("processes", (2,)),
        ("sim", (2, 3)),
    )
    #: Subset used by ``--quick`` (CI smoke / pre-commit).  The
    #: processes cell rides along so the one world without a shared
    #: address space gets a bitwise conformance check on every smoke
    #: run.
    quick_worlds: tuple[tuple[str, tuple[int, ...]], ...] = (
        ("serial", (1,)),
        ("threads", (2, 3)),
        ("processes", (2,)),
    )


CORPUS: tuple[CorpusCase, ...] = (
    CorpusCase(
        name="paper-tiny",
        make_db=_paper_tiny,
        config=dict(
            start_j_list=(2, 3), max_n_tries=2, seed=7, max_cycles=12,
            init_method="seeded",
        ),
    ),
    CorpusCase(
        name="mixed-missing",
        make_db=_mixed_missing,
        config=dict(
            start_j_list=(3,), max_n_tries=1, seed=3, max_cycles=10,
            init_method="sharp",
        ),
    ),
)


def corpus_case(name: str) -> CorpusCase:
    for case in CORPUS:
        if case.name == name:
            return case
    raise KeyError(
        f"unknown corpus case {name!r}; choose from "
        f"{tuple(c.name for c in CORPUS)}"
    )


@dataclass
class MatrixResult:
    """All comparisons of one case's conformance matrix."""

    case: str
    reports: list[ConformanceReport] = field(default_factory=list)
    golden_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.golden_failures and all(r.ok for r in self.reports)

    @property
    def n_cells(self) -> int:
        return len(self.reports)

    def failures(self) -> list[ConformanceReport]:
        return [r for r in self.reports if not r.ok]

    def render(self) -> str:
        lines = [
            f"case {self.case}: {self.n_cells} cells, "
            f"{len(self.failures())} conformance failure(s), "
            f"{len(self.golden_failures)} golden failure(s)"
        ]
        for msg in self.golden_failures:
            lines.append(f"  GOLDEN: {msg}")
        for rep in self.failures():
            lines.append("  " + rep.render().replace("\n", "\n  "))
        return "\n".join(lines)


def sequential_reference(
    case: CorpusCase, kernels: str, db=None
) -> RunTrace:
    """The sequential trace every matrix cell is compared against."""
    if db is None:
        db = case.make_db()
    return capture_trace(
        db, case.config, world="sequential", size=1, kernels=kernels,
        case=case.name,
    )


def run_case_matrix(
    case: CorpusCase,
    *,
    quick: bool = False,
    check_golden: bool = True,
    golden_dir: Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> MatrixResult:
    """Fit the whole matrix for one case and compare every cell.

    Every world cell runs the fused kernels and is compared against
    the sequential fused reference (isolating the parallelism axis);
    that reference is compared against the sequential reference-kernel
    oracle (isolating the kernel axis).  With ``check_golden`` both
    sequential references are also checked against the committed
    digests.
    """
    db = case.make_db()
    out = MatrixResult(case=case.name)
    say = progress or (lambda _msg: None)

    refs: dict[str, RunTrace] = {}
    for kernels in KERNEL_MODES:
        say(f"[{case.name}] sequential reference, kernels={kernels}")
        refs[kernels] = sequential_reference(case, kernels, db=db)
        if check_golden:
            msg = _check_one_golden(case, kernels, refs[kernels], golden_dir)
            if msg is not None:
                out.golden_failures.append(msg)

    # the kernel axis, isolated: fused vs reference, sequentially
    out.reports.append(compare_traces(refs["reference"], refs["fused"]))

    worlds = case.quick_worlds if quick else case.worlds
    for world, sizes in worlds:
        for size in sizes:
            say(f"[{case.name}] {world} P={size}")
            trace = capture_trace(
                db, case.config, world=world, size=size, case=case.name,
            )
            out.reports.append(compare_traces(refs["fused"], trace))
    return out


# -- golden corpus ---------------------------------------------------------

def golden_path(case_name: str, kernels: str, golden_dir: Path | None = None
                ) -> Path:
    base = golden_dir if golden_dir is not None else GOLDEN_DIR
    return Path(base) / f"{case_name}-{kernels}.json"


def write_golden(
    case: CorpusCase, kernels: str, golden_dir: Path | None = None
) -> Path:
    """(Re)generate one golden file from a fresh sequential run."""
    trace = sequential_reference(case, kernels)
    payload = {"digest": trace.digest(), "trace": trace.to_dict()}
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    return docfile.write_bytes(
        golden_path(case.name, kernels, golden_dir), text.encode("utf-8")
    )


def load_golden(
    case_name: str, kernels: str, golden_dir: Path | None = None
) -> tuple[str, RunTrace]:
    """``(digest, trace)`` from a committed golden file."""
    path = golden_path(case_name, kernels, golden_dir)
    if not path.exists():
        raise FileNotFoundError(
            f"no golden trace at {path}; generate with "
            "`python -m repro.verify --regen`"
        )
    payload = docfile.read_json(path, what="golden trace", error=ValueError)
    with docfile.decoding(f"golden file {path}", ValueError):
        trace = RunTrace.from_dict(payload["trace"])
        stored = str(payload["digest"])
    actual = trace.digest()
    if stored != actual:
        raise ValueError(
            f"golden file {path} is internally inconsistent: stored "
            f"digest {stored[:12]}… != recomputed {actual[:12]}… "
            "(hand-edited?); regenerate with `python -m repro.verify "
            "--regen`"
        )
    return stored, trace


def _check_one_golden(
    case: CorpusCase,
    kernels: str,
    fresh: RunTrace,
    golden_dir: Path | None,
) -> str | None:
    """None when the fresh trace matches the committed golden, else a
    failure message (digest drift = the build-failing condition)."""
    try:
        stored_digest, stored_trace = load_golden(
            case.name, kernels, golden_dir
        )
    except (FileNotFoundError, ValueError) as exc:
        return str(exc)
    if fresh.digest() == stored_digest:
        return None
    # Digest drift: diagnose with a value-level compare so the failure
    # message says *where* the numbers moved, not just that they did.
    rep = compare_traces(stored_trace, fresh)
    detail = (
        rep.render()
        if not rep.ok
        else "no value-level divergence (serialization-level drift)"
    )
    return (
        f"digest drift for case={case.name} kernels={kernels}: "
        f"committed {stored_digest[:12]}… != fresh "
        f"{fresh.digest()[:12]}…\n{detail}\n"
        "If the change is intentional, regenerate with "
        "`python -m repro.verify --regen` and commit the diff."
    )


def regen_golden(golden_dir: Path | None = None,
                 progress: Callable[[str], None] | None = None) -> list[Path]:
    say = progress or (lambda _msg: None)
    paths = []
    for case in CORPUS:
        for kernels in KERNEL_MODES:
            say(f"regen {case.name} kernels={kernels}")
            paths.append(write_golden(case, kernels, golden_dir))
    return paths


def run_full_matrix(
    *,
    quick: bool = False,
    check_golden: bool = True,
    golden_dir: Path | None = None,
    cases: tuple[str, ...] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[MatrixResult]:
    selected = (
        CORPUS
        if cases is None
        else tuple(corpus_case(name) for name in cases)
    )
    return [
        run_case_matrix(
            case, quick=quick, check_golden=check_golden,
            golden_dir=golden_dir, progress=progress,
        )
        for case in selected
    ]
