"""Deterministic random-number plumbing.

Every stochastic component (synthetic data, weight initialization, the
BIG_LOOP's choice of class counts) draws from a generator spawned off a
single seed so that

* a sequential run and a parallel run of the same experiment see the
  *identical* random stream where the paper requires identical semantics
  (initial weights are generated for the full dataset, then partitioned);
* SPMD ranks that must make replicated pseudo-random decisions (e.g. the
  search's choice of the next J) spawn the *same* child stream on every
  rank instead of communicating the decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def spawn_rng(seed: int | np.random.Generator | None, *key: int) -> np.random.Generator:
    """Return a Generator for (seed, \\*key).

    ``key`` namespaces independent streams: ``spawn_rng(s, 1)`` and
    ``spawn_rng(s, 2)`` are statistically independent, and the same
    ``(seed, key)`` always yields the same stream.  Passing an existing
    Generator returns it unchanged (key must then be empty).
    """
    if isinstance(seed, np.random.Generator):
        if key:
            raise ValueError("cannot re-key an existing Generator; pass a seed int")
        return seed
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


@dataclass
class SeedSequenceStream:
    """A counter-based factory of named child generators.

    Used by the search loop: each classification try gets
    ``stream.child("try", k)`` so that re-running try ``k`` in isolation
    reproduces exactly the same initialization the full search saw.
    """

    seed: int
    _cache: dict[tuple, np.random.Generator] = field(default_factory=dict, repr=False)

    def child(self, *key: int | str) -> np.random.Generator:
        """Deterministic child generator for a hashable key path."""
        norm = tuple(_key_to_int(k) for k in key)
        if norm not in self._cache:
            self._cache[norm] = spawn_rng(self.seed, *norm)
        return self._cache[norm]

    def forget(self, *key: int | str) -> None:
        """Drop a child no draw will touch again (it leaves :meth:`state_dict`)."""
        self._cache.pop(tuple(_key_to_int(k) for k in key), None)

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict[str, dict]:
        """Serializable bit-generator states of every spawned child.

        Keys are the normalized key paths joined by ``","``; values are
        numpy ``bit_generator.state`` dicts (plain ints/strings, so they
        survive a JSON round trip exactly).  Used by :mod:`repro.ckpt`
        to freeze the search's RNG position at a checkpoint cut point.
        """
        return {
            ",".join(str(part) for part in key): gen.bit_generator.state
            for key, gen in self._cache.items()
        }

    def restore_state(self, states: dict[str, dict]) -> None:
        """Re-seed spawned children to previously captured states.

        Children are first re-derived from ``(seed, key)`` — so a stream
        restored on a fresh process is bit-identical to the one that was
        checkpointed, including any partially consumed generators.
        """
        for key_text, state in states.items():
            key = tuple(int(part) for part in key_text.split(","))
            gen = self.child(*key)
            gen.bit_generator.state = state


def _key_to_int(k: int | str) -> int:
    if isinstance(k, int):
        if k < 0:
            raise ValueError("stream keys must be non-negative")
        return k
    # Stable, platform-independent string hash (FNV-1a, 32-bit).
    h = 2166136261
    for byte in k.encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h
