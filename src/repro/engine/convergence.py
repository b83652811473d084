"""Stopping condition for the inner EM loop.

AutoClass C offers several "try convergence" criteria; the search uses
its ``converge_print`` style one, :class:`RelativeDeltaChecker`: stop
when the relative improvement of the score falls below ``rel_delta``
for ``n_consecutive`` cycles, or after ``max_cycles``.

It is a deterministic function of the score sequence, so replicated
ranks of a parallel run — which all see identical (allreduced) scores —
decide to stop on exactly the same cycle with no extra communication.
"""

from __future__ import annotations

import numpy as np


class RelativeDeltaChecker:
    """Feed per-cycle scores to :meth:`update`; it returns True to stop —
    after ``n_consecutive`` cycles of relative change < ``rel_delta``,
    or at ``max_cycles``."""

    def __init__(
        self,
        rel_delta: float = 1e-4,
        n_consecutive: int = 2,
        max_cycles: int = 200,
    ) -> None:
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        if rel_delta <= 0:
            raise ValueError(f"rel_delta must be > 0, got {rel_delta}")
        if n_consecutive < 1:
            raise ValueError(f"n_consecutive must be >= 1, got {n_consecutive}")
        self.rel_delta = rel_delta
        self.n_consecutive = n_consecutive
        self.max_cycles = max_cycles
        self.history: list[float] = []

    def update(self, score: float) -> bool:
        """Record this cycle's score; return True if the loop should stop."""
        if not np.isfinite(score):
            raise ValueError(f"non-finite convergence score: {score}")
        self.history.append(float(score))
        if len(self.history) >= self.max_cycles:
            return True
        return self._decide()

    @property
    def n_cycles(self) -> int:
        return len(self.history)

    @property
    def hit_cycle_limit(self) -> bool:
        return len(self.history) >= self.max_cycles

    def _decide(self) -> bool:
        h = self.history
        if len(h) < self.n_consecutive + 1:
            return False
        for new, old in zip(h[-self.n_consecutive :], h[-self.n_consecutive - 1 : -1]):
            scale = max(abs(old), 1.0)
            if abs(new - old) / scale >= self.rel_delta:
                return False
        return True

    def fresh(self) -> "RelativeDeltaChecker":
        """A new checker with the same settings and empty history."""
        return RelativeDeltaChecker(
            rel_delta=self.rel_delta,
            n_consecutive=self.n_consecutive,
            max_cycles=self.max_cycles,
        )
