"""The message-passing surface, pinned.

Every public name of :class:`Communicator` is one more operation each
world must honour and the tests must cover, so adding (or dropping) one
has to be a deliberate diff of this file, not a side effect.
"""

import inspect

import repro.mpc
from repro.mpc import Communicator

COMMUNICATOR_NAMES = (
    "allgather", "allreduce", "allreduce_into", "barrier", "bcast",
    "charge", "clock_kind", "collective_config", "gather", "rank", "recv",
    "send", "size", "split", "wtime",
)

PACKAGE_NAMES = (
    "CollectiveConfig", "Communicator", "MessageError", "SerialComm",
    "SubComm", "WorldAborted", "run_spmd_processes", "run_spmd_threads",
)


def test_communicator_names_are_exactly_the_pinned_ones():
    names = tuple(sorted(n for n in dir(Communicator) if not n.startswith("_")))
    assert names == COMMUNICATOR_NAMES


def test_package_exports_are_exactly_the_pinned_ones():
    assert tuple(sorted(repro.mpc.__all__)) == PACKAGE_NAMES


def test_point_to_point_names_every_channel():
    """``send``/``recv`` take an exact peer and tag: no parameter has a
    default to fall back on."""
    for method in (Communicator.send, Communicator.recv):
        params = inspect.signature(method).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), (
            method.__name__
        )
