"""CLI entry point: ``python -m repro.verify``.

Default: run the full conformance matrix over the golden corpus and
exit non-zero on any divergence or golden-digest drift.

Flags:

* ``--regen``         regenerate the committed golden traces (then run
                      nothing; commit the diff);
* ``--quick``         the CI-smoke subset of the matrix;
* ``--case NAME``     restrict to one corpus case (repeatable);
* ``--no-golden``     skip the digest check (pure differential run);
* ``--golden-dir``    use an alternate golden directory (tests).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.verify.harness import CORPUS, regen_golden, run_full_matrix


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="cross-backend conformance matrix + golden corpus",
    )
    parser.add_argument(
        "--regen", action="store_true",
        help="regenerate the golden traces and exit",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the reduced CI-smoke matrix",
    )
    parser.add_argument(
        "--case", action="append", default=None,
        choices=[c.name for c in CORPUS],
        help="restrict to one corpus case (repeatable)",
    )
    parser.add_argument(
        "--no-golden", action="store_true",
        help="skip the committed-digest check",
    )
    parser.add_argument(
        "--golden-dir", type=Path, default=None,
        help="alternate golden directory (default: the committed one)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print every matrix cell as it runs",
    )
    args = parser.parse_args(argv)

    say = print if args.verbose else (lambda _msg: None)
    started = time.perf_counter()
    if args.regen:
        for path in regen_golden(golden_dir=args.golden_dir, progress=say):
            print(f"wrote {path}")
        print(
            f"golden corpus regenerated in "
            f"{time.perf_counter() - started:.1f}s — review and commit "
            "the diff"
        )
        return 0

    results = run_full_matrix(
        quick=args.quick,
        check_golden=not args.no_golden,
        golden_dir=args.golden_dir,
        cases=tuple(args.case) if args.case else None,
        progress=say,
    )
    ok = all(r.ok for r in results)
    for result in results:
        print(result.render())
    n_cells = sum(r.n_cells for r in results)
    print(
        f"conformance: {n_cells} cells (world x size, plus the "
        f"kernel axis) over {len(results)} case(s) in "
        f"{time.perf_counter() - started:.1f}s -> "
        f"{'OK' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
