"""SerialComm — the one-rank world.

Sequential AutoClass *is* P-AutoClass on a world of size 1; giving the
degenerate world a real implementation lets the parallel program express
that identity directly (and lets tests run SPMD code without threads).
Self-sends are supported with a FIFO queue so collective algorithms that
happen to message rank 0 from rank 0 still work.
"""

from __future__ import annotations

from collections import deque

from repro.mpc.api import CollectiveConfig, Communicator, payload_nbytes
from repro.mpc.errors import MessageError


class SerialComm(Communicator):
    """A world of exactly one rank."""

    def __init__(self, collectives: CollectiveConfig | None = None) -> None:
        super().__init__(rank=0, size=1, collectives=collectives)
        self._queue: deque[tuple[object, int, int]] = deque()

    def _send_raw(self, obj: object, dest: int, tag: int) -> int:
        # dest is validated to be 0 by the base class.
        nbytes = payload_nbytes(obj)
        self._queue.append((obj, tag, nbytes))
        return nbytes

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
        # source is validated to be 0 by the base class.
        for i, (obj, msg_tag, nbytes) in enumerate(self._queue):
            if msg_tag == tag:
                del self._queue[i]
                return obj, nbytes
        raise MessageError(
            "serial recv would deadlock: no buffered message matches "
            f"(source={source}, tag={tag})"
        )
