"""``repro.ckpt`` — checkpoint/restart for long P-AutoClass searches.

The paper's BIG_LOOP converges many tries over many EM cycles; on a
real multicomputer a single rank failure would throw the whole search
away.  This package captures the search state at the two Allreduce cut
points (where it is global and identical on every rank) in versioned,
atomically written files — a small head plus one file per completed
try — and restores it such that a resumed run is **bit-identical** to
an uninterrupted one.

See :mod:`repro.ckpt.format` for the file format and guarantees,
:mod:`repro.ckpt.manager` for policies and the rank-0-of-the-group
writes / all-ranks-restore protocol, and ``docs/fault_tolerance.md`` for the
cookbook.
"""

from repro.ckpt.format import (
    CKPT_FORMAT_VERSION,
    CheckpointError,
    CheckpointState,
    InProgressTry,
    checkpoint_key,
    decode_checkpoint,
    encode_checkpoint,
    read_checkpoint_file,
)
from repro.ckpt.manager import (
    CHECKPOINT_POLICIES,
    Checkpointer,
    CheckpointSpec,
    check_policy,
)

__all__ = [
    "CKPT_FORMAT_VERSION",
    "CHECKPOINT_POLICIES",
    "CheckpointError",
    "CheckpointSpec",
    "CheckpointState",
    "Checkpointer",
    "InProgressTry",
    "check_policy",
    "checkpoint_key",
    "decode_checkpoint",
    "encode_checkpoint",
    "read_checkpoint_file",
]
