"""Chunk-accumulated E/M payloads for streamed (out-of-core) data.

The two Allreduce cut points of P-AutoClass reduce *fixed-size*
statistics — the ``J + 2`` wts payload and the ``(J, n_stats)`` packed
parameter statistics — and both are additive over items.  That makes
the E/M hot path streamable without touching either cut point: the one
EM cycle (:mod:`repro.engine.cycle`) runs its per-chunk local kernels
over a :class:`repro.data.shards.ShardedDatabase` view and accumulates
the very same payload vectors an in-memory block — itself passed as
cached :data:`~repro.data.shards.TILE_ITEMS`-row tiles — would reduce.

Workspace reuse: the per-chunk kernels draw their scratch from the
thread-local pool (:mod:`repro.kernels.workspace`) keyed by chunk
shape, so a pass over equally-sized chunks reuses one chunk-sized
Workspace; peak heap stays O(chunk), not O(N).

Equivalence note: sums over chunks or tiles (and their GEMMs) associate
floating-point additions differently than one whole-block kernel call,
so any two cuts of a block (streamed chunks, in-memory tiles, the whole
block) agree to the *reduction-order* tolerance (1e-9, as
:mod:`repro.verify` allows for any change of summation order), and
bitwise when both cut alike: a view within one chunk and a block within
one tile, or a fit pass over tile-aligned shards, whose chunks are the
block's tiles.  The acceptance
invariant — asserted across all four worlds — is that a streamed fit
reproduces the in-memory fit's final classification exactly.
"""

from __future__ import annotations

import numpy as np


def streamed_local_pass(
    data, clf, *, kernels: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One pass over ``data``'s chunks: this rank's two local payloads.

    Returns ``(payload, stats)`` exactly as the two Allreduce cut points
    receive them: the additive ``[w_j (J), sum_log_z, sum_w_log_w]``
    vector of length ``J + 2`` and the additive ``(J, n_stats)`` packed
    statistics — the chunk pass of the one EM cycle
    (:func:`repro.engine.cycle.local_pass`), stopped before any
    reduction.
    """
    # Imported here: repro.engine's kernels import this package.
    from repro.engine.cycle import LocalReducer, local_pass

    reducer = LocalReducer()
    local_pass(data, clf, reducer, kernels=kernels)
    return reducer.finish()
