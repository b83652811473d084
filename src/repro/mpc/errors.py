"""Exceptions of the message-passing layer."""

from __future__ import annotations


class MessageError(RuntimeError):
    """Invalid point-to-point usage (bad rank, bad tag, self-send, ...)."""


class CommTimeout(MessageError):
    """A blocking communication exceeded its configured timeout.

    Raised when :class:`~repro.mpc.api.CollectiveConfig.timeout_seconds`
    is set and a receive (typically inside a collective) makes no
    progress for that long — the symptom of a hung or wedged peer.  The
    fit-level restart policy treats it like any other rank failure:
    abort the attempt and restart from the last checkpoint.
    """


class WorldAborted(RuntimeError):
    """Raised in surviving ranks when another rank of the world failed.

    A blocking ``recv`` from a rank that has crashed would hang forever;
    the worlds instead trip an abort flag on any rank failure and every
    blocked operation raises this, carrying the original failure's
    description.
    """

    def __init__(self, failed_rank: int, reason: str) -> None:
        super().__init__(f"rank {failed_rank} failed: {reason}")
        self.failed_rank = failed_rank
        self.reason = reason
