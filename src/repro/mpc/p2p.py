"""The shared-memory point-to-point engine: mailboxes of FIFO channels.

Used by the thread world and the virtual-time simulator.  Each rank owns
a :class:`Mailbox`; a send deposits an :class:`Envelope` into the
destination's mailbox, a recv blocks until the ``(source, tag)``
channel it names holds an envelope.

Every receive names an exact source and tag, so matching is a dict
lookup of one channel, and each channel is a FIFO: messages from one
sender with one tag are received in send order (MPI's non-overtaking
rule).  Which message a receive gets therefore never depends on thread
scheduling — the property the simulator's reproducibility rests on.

Abort safety: every blocking wait watches the world's abort flag, so one
crashed rank wakes all its peers with :class:`WorldAborted` instead of a
deadlock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.mpc.errors import CommTimeout, WorldAborted

#: How often blocked receivers re-check the abort flag (seconds).
_WAKE_INTERVAL = 0.05


@dataclass
class Envelope:
    """One in-flight message."""

    source: int
    tag: int
    payload: object
    nbytes: int
    #: Virtual availability time; only the simulator sets this.
    available_at: float = 0.0


@dataclass
class AbortFlag:
    """World-wide failure latch shared by all mailboxes."""

    _event: threading.Event = field(default_factory=threading.Event)
    failed_rank: int = -1
    reason: str = ""

    def trip(self, rank: int, reason: str) -> None:
        if not self._event.is_set():
            self.failed_rank = rank
            self.reason = reason
            self._event.set()

    @property
    def tripped(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise WorldAborted(self.failed_rank, self.reason)


class Mailbox:
    """One rank's inbox, shared across sender threads."""

    def __init__(self, owner: int, abort: AbortFlag) -> None:
        self.owner = owner
        self._abort = abort
        self._cond = threading.Condition()
        self._channels: dict[tuple[int, int], deque[Envelope]] = {}

    def deposit(self, env: Envelope) -> None:
        with self._cond:
            self._channels.setdefault((env.source, env.tag), deque()).append(env)
            self._cond.notify_all()

    def collect(
        self, source: int, tag: int, timeout: float | None = None
    ) -> Envelope:
        """Block until channel (source, tag) is non-empty; pop its head.

        With ``timeout`` set, raises
        :class:`~repro.mpc.errors.CommTimeout` after that many seconds
        without a message — the hook the configurable collective timeout
        (``CollectiveConfig.timeout_seconds``) rides on.
        """
        key = (source, tag)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                self._abort.check()
                channel = self._channels.get(key)
                if channel:
                    env = channel.popleft()
                    if not channel:
                        # Collective tags are used once; drop the
                        # channel so the dict does not grow per call.
                        del self._channels[key]
                    return env
                if deadline is not None and time.monotonic() >= deadline:
                    raise CommTimeout(
                        f"rank {self.owner} timed out after {timeout:.3g}s "
                        f"waiting for (source={source}, tag={tag})"
                    )
                self._cond.wait(timeout=_WAKE_INTERVAL)

    def wake(self) -> None:
        """Nudge a blocked owner (used when the abort flag trips)."""
        with self._cond:
            self._cond.notify_all()
