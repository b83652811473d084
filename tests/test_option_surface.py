"""The independently settable surface, pinned.

Every field here is one more axis the tests and ``bench_e2e`` must
cover, so adding (or dropping) a knob has to be a deliberate diff of
this file, not a side effect.  Counted: the fields of the five config
dataclasses a fit or a scorer reads, and the flags of ``pautoclass run``.
"""

import argparse
import dataclasses

from repro.api import FitConfig
from repro.ckpt import CheckpointSpec
from repro.cli import build_parser
from repro.engine.search import SearchConfig
from repro.mpc.api import CollectiveConfig
from repro.serve import ScorerConfig

CONFIG_FIELDS = {
    FitConfig: (
        "instrument", "verify", "checkpoint", "checkpoint_dir",
        "resume", "max_restarts", "faults", "try_groups", "collectives",
        "transport",
    ),
    SearchConfig: (
        "start_j_list", "max_n_tries", "rel_delta", "n_consecutive",
        "max_cycles", "init_method", "seed", "duplicate_eps", "max_seconds",
    ),
    CollectiveConfig: ("timeout_seconds",),
    CheckpointSpec: ("directory", "policy", "resume"),
    ScorerConfig: ("max_batch", "queue_items"),
}

RUN_FLAGS = (
    "--backend", "--checkpoint", "--checkpoint-dir", "--data",
    "--instrument", "--j-list", "--max-cycles", "--max-restarts",
    "--model-search", "--obs-out", "--procs", "--report-out", "--resume",
    "--save-model", "--save-results", "--seed", "--synthetic",
    "--transport", "--tries", "--try-groups", "--verify",
)


def test_config_fields_are_exactly_the_pinned_ones():
    for cls, expected in CONFIG_FIELDS.items():
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == expected, cls.__name__
    assert sum(len(v) for v in CONFIG_FIELDS.values()) == 25


def test_run_flags_are_exactly_the_pinned_ones():
    (subparsers,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    run = subparsers.choices["run"]
    flags = sorted(
        a.option_strings[0] for a in run._actions
        if a.option_strings and a.dest != "help"
    )
    assert tuple(flags) == RUN_FLAGS
    assert len(RUN_FLAGS) == 21
    assert sum(len(v) for v in CONFIG_FIELDS.values()) + len(RUN_FLAGS) == 46
