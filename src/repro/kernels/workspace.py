"""The Workspace: a per-thread pool of reusable E-step scratch buffers.

The fused E-step needs one ``(n_items, n_classes)`` log-joint buffer,
one equally sized scratch buffer and three ``(n_items,)`` row vectors.
Instead of fresh per-cycle temporaries they are allocated once per
``(n_items, n_classes)`` shape and reused across every cycle of every
BIG_LOOP try.  A fit's shapes are tile- or chunk-sized (the cycle cuts
every block; :mod:`repro.data.shards`); scoring still passes whole ones.

The pool is **thread-local** because P-AutoClass runs SPMD ranks as
threads (:mod:`repro.mpc.threadworld`, :mod:`repro.simnet.simworld`):
each rank thread owns its buffers outright and no locking is needed on
the hot path.

Layout
------
The two ``(n_items, n_classes)`` buffers are **class-major**: each is a
C-order ``(n_classes, n_items)`` array handed out as its ``.T`` view.
Every per-item reduction over the J classes (max, sum, the entropy dot)
then runs over the outer axis — J elementwise passes over contiguous
item rows — instead of numpy's per-row inner loop over J elements,
which costs the same few nanoseconds per item whether J is 2 or 64.
Callers index the views as ``(n_items, n_classes)``; only
:mod:`repro.kernels` reads them through ``.T``.

Aliasing contract
-----------------
:func:`repro.kernels.estep.fused_local_update_wts` returns the weight
matrix *in* the workspace's log-joint buffer.  The weights stay valid
until the next fused E-step **of the same shape on the same thread**
overwrites them — exactly the lifetime the EM loop needs (the M-step of
cycle *k* consumes the weights of cycle *k* before cycle *k+1* begins).
Callers that must retain weights across E-steps copy them explicitly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


class Workspace:
    """Scratch buffers for one ``(n_items, n_classes)`` problem shape."""

    __slots__ = ("n_items", "n_classes", "log_joint", "scratch",
                 "row_a", "row_b", "row_c")

    def __init__(self, n_items: int, n_classes: int) -> None:
        self.n_items = int(n_items)
        self.n_classes = int(n_classes)
        # Class-major storage behind (n_items, n_classes) views.
        self.log_joint = np.empty((n_classes, n_items), dtype=np.float64).T
        self.scratch = np.empty((n_classes, n_items), dtype=np.float64).T
        self.row_a = np.empty(n_items, dtype=np.float64)
        self.row_b = np.empty(n_items, dtype=np.float64)
        self.row_c = np.empty(n_items, dtype=np.float64)

    @property
    def nbytes(self) -> int:
        return (
            self.log_joint.nbytes
            + self.scratch.nbytes
            + self.row_a.nbytes
            + self.row_b.nbytes
            + self.row_c.nbytes
        )


@dataclass
class WorkspaceStats:
    """Per-thread pool counters (observability + tests)."""

    hits: int = 0
    misses: int = 0
    pool: dict = field(default_factory=dict)


_tls = threading.local()


def _state() -> WorkspaceStats:
    state = getattr(_tls, "state", None)
    if state is None:
        state = _tls.state = WorkspaceStats()
    return state


def get_workspace(n_items: int, n_classes: int) -> Workspace:
    """The calling thread's workspace for this shape (created on miss)."""
    state = _state()
    key = (n_items, n_classes)
    ws = state.pool.get(key)
    if ws is None:
        ws = state.pool[key] = Workspace(n_items, n_classes)
        state.misses += 1
    else:
        state.hits += 1
    return ws


def workspace_stats() -> WorkspaceStats:
    """This thread's pool counters."""
    return _state()


def clear_workspaces() -> None:
    """Drop this thread's pooled buffers (frees memory, resets counters)."""
    _tls.state = WorkspaceStats()
