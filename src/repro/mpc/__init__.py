"""mpc — a message-passing library in the image of MPI.

The paper implements P-AutoClass against MPI; this package provides the
MPI-shaped substrate the reproduction runs on (mpi4py is unavailable in
this environment, and the algorithms are interesting to own anyway):

* :mod:`repro.mpc.api` — the :class:`Communicator` contract: blocking
  ``send``, blocking ``recv`` from an exact (source, tag) channel, and
  the collectives the paper uses;
* :mod:`repro.mpc.collectives` — the collectives (binomial-tree
  broadcast, recursive-doubling Allreduce, dissemination barrier,
  linear gather, Bruck allgather) built purely on point-to-point
  messages, so any backend that can send and recv gets every collective
  for free — and so a simulated network prices collectives by their
  actual message rounds;
* :mod:`repro.mpc.serial` / :mod:`repro.mpc.threadworld` /
  :mod:`repro.mpc.procworld` — single-rank, thread-backed, and
  process-backed worlds.

The virtual-time multicomputer world lives in :mod:`repro.simnet` and
implements the same contract.
"""

from repro.mpc.api import CollectiveConfig, Communicator
from repro.mpc.errors import MessageError, WorldAborted
from repro.mpc.procworld import run_spmd_processes
from repro.mpc.serial import SerialComm
from repro.mpc.split import SubComm
from repro.mpc.threadworld import run_spmd_threads

__all__ = [
    "CollectiveConfig",
    "Communicator",
    "MessageError",
    "SerialComm",
    "SubComm",
    "WorldAborted",
    "run_spmd_processes",
    "run_spmd_threads",
]
