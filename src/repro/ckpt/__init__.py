"""``repro.ckpt`` — checkpoint/restart for long P-AutoClass searches.

The paper's BIG_LOOP converges many tries over many EM cycles; on a
real multicomputer a single rank failure would throw the whole search
away.  This package captures the search state at the two Allreduce cut
points (where it is global and identical on every rank) in a
versioned, atomically written file, and restores it such that a
resumed run is **bit-identical** to an uninterrupted one.

See :mod:`repro.ckpt.format` for the file format and guarantees,
:mod:`repro.ckpt.manager` for policies and the rank-0-writes /
all-ranks-restore protocol, and ``docs/fault_tolerance.md`` for the
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
    CKPT_FILENAME,
    Checkpointer,
    CheckpointSpec,
    check_policy,
)

__all__ = [
    "CKPT_FORMAT_VERSION",
    "CKPT_FILENAME",
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
