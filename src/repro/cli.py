"""``pautoclass`` — command-line interface.

Subcommands:

* ``run`` — classify a ``.hd2``/``.db2`` database (or a synthetic one)
  on any registered backend (``sequential`` by default), and print the
  report;
* ``predict`` — classify a database with a previously stored fitted
  model artifact or results file (no refitting);
* ``experiments`` — regenerate the paper's figures/claims;
* ``synth`` — write a synthetic database to disk.

Examples::

    pautoclass synth --items 5000 --out /tmp/demo
    pautoclass run --data /tmp/demo --j-list 2,4,8 --seed 7
    pautoclass run --synthetic 5000 --backend sim --procs 8
    pautoclass run --data /tmp/demo --save-model /tmp/model
    pautoclass predict --model /tmp/model --data /tmp/demo --proba
    pautoclass experiments --which fig7 --scale 0.04
"""

from __future__ import annotations

import argparse
import sys

from repro.api import BACKENDS, PAutoClass
from repro.ckpt.manager import CHECKPOINT_POLICIES
from repro.obs.recorder import INSTRUMENT_LEVELS
from repro.data.io import load_database, save_database
from repro.data.synth import make_paper_database
from repro.harness import EXPERIMENTS, ExperimentScale, run_experiment


def _parse_j_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad J list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("J list must not be empty")
    return values


def _parse_try_groups(text: str) -> int | str:
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --try-groups value: {text!r} (want an int or 'auto')"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pautoclass",
        description="P-AutoClass: scalable parallel Bayesian clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="classify a database")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="basename of a .hd2/.db2 pair")
    src.add_argument(
        "--synthetic", type=int, metavar="N",
        help="use a synthetic paper-style database of N tuples",
    )
    p_run.add_argument(
        "--j-list", type=_parse_j_list, default=(2, 4, 8),
        help="comma-separated class counts to try (default 2,4,8)",
    )
    p_run.add_argument("--tries", type=int, default=None,
                       help="number of tries (default: length of --j-list)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-cycles", type=int, default=200)
    p_run.add_argument(
        "--backend", choices=tuple(BACKENDS), default="sequential"
    )
    p_run.add_argument("--procs", type=int, default=4,
                       help="processors for parallel backends (default 4)")
    p_run.add_argument(
        "--try-groups", type=_parse_try_groups, default=None,
        metavar="G|auto",
        help="run BIG_LOOP tries concurrently across G sub-communicator "
             "groups; 1 is the paper's single-level search; default "
             "('auto'): a work-count rule picks G per fit (parallel backends "
             "only; see docs/parallel_search.md)",
    )
    p_run.add_argument(
        "--transport", choices=("shm", "pipe"), default=None,
        help="processes-backend wire: shared-memory rings (shm, the "
             "default) or pickled pipes (pipe); see "
             "docs/message_passing.md#transports",
    )
    p_run.add_argument(
        "--model-search", action="store_true",
        help="also search over model forms (independent vs correlated "
             "real attributes); sequential backend only",
    )
    p_run.add_argument(
        "--save-results", metavar="PATH",
        help="write the search result as a JSON results file",
    )
    p_run.add_argument(
        "--save-model", metavar="PATH",
        help="write the fitted model as a servable artifact "
             "(PATH.json + PATH.npz; see docs/serving.md)",
    )
    p_run.add_argument(
        "--instrument", choices=INSTRUMENT_LEVELS, default="off",
        help="collect per-rank phase timings ('phases') or full "
             "per-cycle telemetry ('full') and print the breakdown",
    )
    p_run.add_argument(
        "--obs-out", metavar="PATH",
        help="write the observability record as JSONL "
             "(requires --instrument phases|full)",
    )
    p_run.add_argument(
        "--report-out", metavar="PATH",
        help="write the detailed per-class report (AutoClass .rlog style)",
    )
    p_run.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="directory for checkpoint/restart state (see "
             "docs/fault_tolerance.md); enables checkpointing",
    )
    p_run.add_argument(
        "--checkpoint", choices=CHECKPOINT_POLICIES, default="off",
        help="checkpoint cut-point policy (default: per_try when "
             "--checkpoint-dir is given)",
    )
    p_run.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="resume from an existing checkpoint in --checkpoint-dir "
             "(--no-resume starts fresh; default: resume)",
    )
    p_run.add_argument(
        "--max-restarts", type=int, default=0, metavar="N",
        help="retry a failed run from its checkpoint up to N times "
             "with exponential backoff (default 0)",
    )
    p_run.add_argument(
        "--verify", choices=("off", "trace", "strict"), default="off",
        help="run a sequential shadow fit and compare under the "
             "conformance tolerance model (see docs/conformance.md); "
             "'strict' exits non-zero on any divergence",
    )

    p_exp = sub.add_parser("experiments", help="regenerate paper results")
    p_exp.add_argument(
        "--which", choices=(*EXPERIMENTS, "all"), default="all",
        help="; ".join(f"{k}: {e.title}" for k, e in EXPERIMENTS.items()),
    )
    p_exp.add_argument("--scale", type=float, default=None,
                       help="workload scale factor (default from env or 0.04)")

    p_pred = sub.add_parser(
        "predict",
        help="classify a database with a stored model artifact or "
             "results file",
    )
    model_src = p_pred.add_mutually_exclusive_group(required=True)
    model_src.add_argument(
        "--model",
        help="fitted model artifact written by run --save-model",
    )
    model_src.add_argument("--results",
                           help="results JSON written by run --save-results")
    p_pred.add_argument("--data", required=True,
                        help="basename of a .hd2/.db2 pair to classify")
    p_pred.add_argument("--out", default=None,
                        help="write assignments as CSV (default: stdout)")
    p_pred.add_argument(
        "--proba", action="store_true",
        help="include per-class membership probabilities",
    )

    p_synth = sub.add_parser("synth", help="write a synthetic database")
    p_synth.add_argument("--items", type=int, required=True)
    p_synth.add_argument("--clusters", type=int, default=8)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True,
                         help="output basename (.hd2/.db2 appended)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.data:
        db = load_database(args.data)
    else:
        db = make_paper_database(args.synthetic, seed=args.seed)
    config = dict(
        start_j_list=args.j_list,
        max_n_tries=args.tries or len(args.j_list),
        seed=args.seed,
        max_cycles=args.max_cycles,
    )
    instrument = args.instrument
    if args.obs_out and instrument == "off":
        raise SystemExit("--obs-out requires --instrument phases|full")
    fit_options = dict(
        checkpoint=args.checkpoint,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        max_restarts=args.max_restarts,
        verify=args.verify,
    )
    if args.verify != "off" and args.model_search:
        raise SystemExit("--verify does not apply to --model-search")
    if args.save_model and args.model_search:
        raise SystemExit("--save-model does not apply to --model-search")
    if args.checkpoint != "off" and args.checkpoint_dir is None:
        raise SystemExit(f"--checkpoint {args.checkpoint} needs --checkpoint-dir")
    if args.max_restarts > 0 and args.checkpoint_dir is None:
        raise SystemExit("--max-restarts needs --checkpoint-dir")
    if args.transport is not None and args.backend != "processes":
        raise SystemExit("--transport needs --backend processes")
    sequential = args.backend == "sequential"
    if args.try_groups is not None and sequential:
        raise SystemExit("--try-groups needs a parallel --backend")
    if args.model_search:
        if not sequential:
            raise SystemExit("--model-search needs --backend sequential")
        if args.checkpoint_dir or args.checkpoint != "off":
            raise SystemExit(
                "--model-search does not support checkpointing yet"
            )
        from repro.engine.modelsearch import run_model_search
        from repro.engine.search import SearchConfig

        ms = run_model_search(db, SearchConfig(**config))
        print(ms.summary())
        print()
        result = ms.best.search
        print(result.summary())
        if args.save_results:
            _save(result, db, args.save_results)
        return 0
    est = PAutoClass(
        n_processors=1 if args.backend in ("sequential", "serial") else args.procs,
        backend=args.backend, instrument=instrument,
        try_groups=args.try_groups, transport=args.transport,
        **config,
    )
    run = est.fit(db, **fit_options)
    print(run.summary())
    if run.conformance is not None:
        print()
        print(run.conformance.render())
    print()
    print(est.report())
    if run.restarts:
        print(f"\ncompleted after {run.restarts} checkpointed restart(s)")
    if run.sim_elapsed is not None:
        print(
            f"\nsimulated elapsed on {run.n_processors}-processor CS-2: "
            f"{run.sim_elapsed:.3f} s"
        )
    if run.timeline is not None:
        print()
        print(run.timeline)
    _emit_obs(run, args.obs_out)
    if args.report_out:
        _write_rlog(db, run.result, args.report_out)
    if args.save_results:
        _save(run.result, db, args.save_results)
    if args.save_model:
        _save_model(run, db, args.save_model)
    return 0


def _save_model(run, db, path: str) -> None:
    json_path, npz_path = run.fitted(db).save(path)
    print(f"\nfitted model written to {json_path} + {npz_path}")


def _emit_obs(run, obs_out: str | None) -> None:
    """Print the instrumented breakdown and optionally write JSONL."""
    if run.record is None:
        return
    print()
    print(run.report())
    if obs_out:
        from repro.obs.record import write_jsonl

        write_jsonl(run.record, obs_out)
        print(f"\nobservability record written to {obs_out}")


def _write_rlog(db, result, path: str) -> None:
    from repro.engine.rlog import write_report

    write_report(db, result.best.classification, path)
    print(f"\ndetailed report written to {path}")


def _save(result, db, path: str) -> None:
    from repro.engine.results_io import save_search_result
    from repro.models.summary import DataSummary

    save_search_result(result, DataSummary.from_database(db), path)
    print(f"\nresults written to {path}")


def _cmd_experiments(args: argparse.Namespace) -> int:
    scale = (
        ExperimentScale(args.scale)
        if args.scale is not None
        else ExperimentScale.from_env()
    )
    for key in EXPERIMENTS if args.which == "all" else (args.which,):
        print(run_experiment(key, scale).render(), end="\n\n")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    db = make_paper_database(
        args.items, n_true_clusters=args.clusters, seed=args.seed
    )
    hd2, db2 = save_database(db, args.out)
    print(f"wrote {hd2} and {db2} ({db.n_items} items)")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import io

    import numpy as np

    from repro.serve.artifact import ArtifactError, FittedModel
    from repro.serve.scoring import score_batch

    db = load_database(args.data)
    if args.model:
        try:
            model = FittedModel.load(args.model)
        except ArtifactError as exc:
            raise SystemExit(f"bad model artifact: {exc}") from None
        clf = model.classification
    else:
        from repro.engine.results_io import (
            ResultsFormatError,
            load_search_result,
        )

        try:
            search = load_search_result(args.results)
        except ResultsFormatError as exc:
            raise SystemExit(f"bad results file: {exc}") from None
        clf = search.best.classification
    if clf.spec.schema != db.schema:
        raise SystemExit(
            "schema mismatch: the model was fitted on different "
            "attributes than the given database"
        )
    scores = score_batch(db, clf)
    hard = scores.labels
    buf = io.StringIO()
    if args.proba:
        wts = np.exp(scores.log_proba)
        header = ["item", "class"] + [f"p{j}" for j in range(clf.n_classes)]
        buf.write(",".join(header) + "\n")
        for i in range(db.n_items):
            probs = ",".join(f"{p:.6f}" for p in wts[i])
            buf.write(f"{i},{hard[i]},{probs}\n")
    else:
        buf.write("item,class\n")
        for i in range(db.n_items):
            buf.write(f"{i},{hard[i]}\n")
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {db.n_items} assignments to {args.out}")
    else:
        print(buf.getvalue(), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "synth":
        return _cmd_synth(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
