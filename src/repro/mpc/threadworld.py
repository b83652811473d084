"""Thread-backed SPMD world.

``run_spmd_threads(fn, size)`` runs ``fn(comm, *args)`` on ``size``
threads, each holding a :class:`ThreadComm` over the shared mailbox
engine of :mod:`repro.mpc.p2p`.  Payloads are passed by reference —
cheap, but it means ranks must not mutate arrays they have sent
(the library's own collectives never do; the Allreduce sends only its
own copies and fresh sums).

This backend exists for *semantics*: it runs real concurrent SPMD code
with real blocking communication, which is what the correctness tests
exercise.  Wall-clock speedup is not its job (the GIL and the host's
single core see to that) — performance experiments run on the
virtual-time world in :mod:`repro.simnet`.
"""

from __future__ import annotations

import threading
import traceback
from collections.abc import Callable, Sequence

import numpy as np

from repro.mpc.api import CollectiveConfig, Communicator, payload_nbytes
from repro.mpc.p2p import AbortFlag, Envelope, Mailbox
from repro.obs import recorder as obs


class ThreadComm(Communicator):
    """One rank's endpoint over shared mailboxes."""

    def __init__(
        self,
        rank: int,
        mailboxes: Sequence[Mailbox],
        abort: AbortFlag,
        collectives: CollectiveConfig | None = None,
    ) -> None:
        super().__init__(rank=rank, size=len(mailboxes), collectives=collectives)
        self._mailboxes = mailboxes
        self._abort = abort

    def _send_raw(self, obj: object, dest: int, tag: int) -> int:
        self._abort.check()
        # An object goes by reference, so its price is a pickle made
        # only to be counted: pay for it only when a recorder reads it.
        nbytes = 0
        if isinstance(obj, (np.ndarray, bytes, bytearray)) or obs.current().enabled:
            nbytes = payload_nbytes(obj)
        self._mailboxes[dest].deposit(Envelope(self.rank, tag, obj, nbytes))
        return nbytes

    def _recv_raw(self, source: int, tag: int) -> tuple[object, int]:
        env = self._mailboxes[self.rank].collect(
            source, tag, timeout=self.collective_config.timeout_seconds
        )
        return env.payload, env.nbytes


def run_spmd_threads(
    fn: Callable,
    size: int,
    *args,
    collectives: CollectiveConfig | None = None,
    comm_factory: Callable[..., Communicator] | None = None,
    **kwargs,
) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` concurrent ranks.

    Returns the per-rank return values, rank-ordered.  If any rank
    raises, the world aborts (peers blocked in communication raise
    :class:`~repro.mpc.errors.WorldAborted`) and the *first* failure is
    re-raised with its traceback and rank attached.

    ``comm_factory`` lets callers substitute a Communicator subclass
    (the simulator does); it receives the same arguments as
    :class:`ThreadComm`.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    abort = AbortFlag()
    mailboxes = [Mailbox(owner=r, abort=abort) for r in range(size)]
    factory = comm_factory or ThreadComm
    comms = [factory(r, mailboxes, abort, collectives) for r in range(size)]

    results: list = [None] * size
    failures: dict[int, BaseException] = {}

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must reach the caller
            failures[rank] = exc
            abort.trip(rank, f"{type(exc).__name__}: {exc}")
            for mb in mailboxes:
                mb.wake()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if failures:
        # Prefer the originating failure over peers' WorldAborted echoes.
        from repro.mpc.errors import WorldAborted

        origin = [r for r, e in failures.items() if not isinstance(e, WorldAborted)]
        rank = min(origin) if origin else min(failures)
        exc = failures[rank]
        note = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        raise RuntimeError(f"SPMD rank {rank} failed:\n{note}") from exc
    return results
