"""Global data summaries — the prior anchors.

AutoClass anchors its parameter priors at the statistics of the *whole*
dataset (global mean/variance per real attribute, presence counts, ...).
These summaries are defined by **additive moment vectors**:
:meth:`DataSummary.local_moments` of disjoint blocks sum to the moments
of their union, and :meth:`DataSummary.from_moments` reconstructs the
summary from them.  :meth:`DataSummary.from_database` summarizes a
whole database or shard view this way, chunk by chunk; a saved result
stores the moment vector itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.attributes import AttributeSet, DiscreteAttribute, RealAttribute
from repro.data.database import Database

#: Moment-vector slots per attribute: [n_present, n_missing, sum, sum_sq].
#: Discrete attributes use only the first two.
_SLOTS = 4


@dataclass(frozen=True)
class AttributeSummary:
    """Global statistics of one attribute."""

    n_present: float
    n_missing: float
    mean: float
    var: float

    @property
    def has_missing(self) -> bool:
        return self.n_missing > 0


@dataclass(frozen=True)
class DataSummary:
    """Global dataset statistics used to build priors and pick models."""

    n_items: int
    attributes: tuple[AttributeSummary, ...]
    schema: AttributeSet

    @staticmethod
    def local_moments(db) -> np.ndarray:
        """Additive moment vector of a (partial) database.

        Layout: ``[n_items, then per attribute (n_present, n_missing,
        sum, sum_sq)]``.  Sums are zero for discrete attributes.  The
        vector is summed over ``db.iter_chunks()``: an in-memory
        database is its own one chunk (summing per tile would move the
        priors in the last bit), a
        :class:`~repro.data.shards.ShardedDatabase` view streams with
        O(chunk) peak heap.
        """
        out = np.zeros(1 + _SLOTS * len(db.schema), dtype=np.float64)
        for chunk in db.iter_chunks():
            out += DataSummary._moments_of(chunk)
        return out

    @staticmethod
    def _moments_of(db: Database) -> np.ndarray:
        out = np.zeros(1 + _SLOTS * len(db.schema), dtype=np.float64)
        out[0] = db.n_items
        for i, attr in enumerate(db.schema):
            base = 1 + _SLOTS * i
            miss = db.missing[i]
            n_miss = float(miss.sum())
            out[base + 0] = db.n_items - n_miss
            out[base + 1] = n_miss
            if isinstance(attr, RealAttribute):
                col = db.columns[i]
                present = col[~miss]
                out[base + 2] = present.sum()
                out[base + 3] = np.square(present).sum()
        return out

    @staticmethod
    def from_moments(schema: AttributeSet, moments: np.ndarray) -> "DataSummary":
        """Rebuild the global summary from (all)reduced moment vectors."""
        moments = np.asarray(moments, dtype=np.float64)
        expect = 1 + _SLOTS * len(schema)
        if moments.shape != (expect,):
            raise ValueError(f"moment vector shape {moments.shape} != ({expect},)")
        summaries = []
        for i, attr in enumerate(schema):
            base = 1 + _SLOTS * i
            n_p, n_m, s, ss = moments[base : base + _SLOTS]
            if isinstance(attr, RealAttribute):
                if n_p > 0:
                    mean = s / n_p
                    var = max(ss / n_p - mean**2, attr.error**2)
                else:
                    mean, var = 0.0, attr.error**2
            else:
                assert isinstance(attr, DiscreteAttribute)
                mean, var = 0.0, 0.0
            summaries.append(
                AttributeSummary(n_present=n_p, n_missing=n_m, mean=mean, var=var)
            )
        return DataSummary(
            n_items=int(round(moments[0])),
            attributes=tuple(summaries),
            schema=schema,
        )

    @staticmethod
    def from_database(db) -> "DataSummary":
        """Sequential path: summarize a full database (or a shard view)
        directly, through :meth:`local_moments`."""
        return DataSummary.from_moments(db.schema, DataSummary.local_moments(db))

    def attribute(self, key: int | str) -> AttributeSummary:
        if isinstance(key, str):
            key = self.schema.index(key)
        return self.attributes[key]
