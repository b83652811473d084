"""The Database: column-major item storage with missing-value masks.

Storage layout follows the hpc-parallel guidance on cache behaviour:
the E/M kernels stream over *columns* (one attribute at a time across
all items), so each column is kept as its own contiguous float64/int64
array rather than a single 2-D object table.  Real columns hold NaN
where missing; discrete columns hold -1, with an explicit boolean mask
alongside both so kernels never have to re-derive missingness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.attributes import (
    AttributeSet,
    DiscreteAttribute,
    RealAttribute,
)
from repro.data.partition import partition_bounds


@dataclass(frozen=True)
class Database:
    """An immutable table of ``n_items`` rows over an :class:`AttributeSet`.

    Build one with :meth:`from_columns` (validates and normalizes) or the
    generators in :mod:`repro.data.synth`.  Slicing with :meth:`take`
    returns a view-backed sub-database (no copies), which is how
    P-AutoClass hands each rank its block partition.  Like a
    :class:`~repro.data.shards.ShardedDatabase` view it answers
    :meth:`iter_chunks`, :meth:`block` and :meth:`probe`.
    """

    schema: AttributeSet
    columns: tuple[np.ndarray, ...]
    missing: tuple[np.ndarray, ...]

    @staticmethod
    def from_columns(
        schema: AttributeSet,
        columns: list[np.ndarray] | tuple[np.ndarray, ...],
    ) -> "Database":
        """Validate raw columns against ``schema`` and build a Database.

        Real columns: any float array; NaN marks missing.  Discrete
        columns: integer codes; negative marks missing; codes must be
        below the attribute's arity.

        Every stored column (and its missing mask) is normalized to a
        1-D **C-contiguous** ``float64`` / ``int64`` / ``bool`` array —
        the layout the fused kernels (:mod:`repro.kernels`) assume when
        building design matrices and gather tables, so no kernel ever
        pays a hidden copy or strided pass.
        """
        if len(columns) != len(schema):
            raise ValueError(
                f"{len(columns)} columns for {len(schema)} attributes"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        norm_cols: list[np.ndarray] = []
        miss_cols: list[np.ndarray] = []
        for attr, col in zip(schema, columns):
            col = np.asarray(col)
            if col.ndim != 1:
                raise ValueError(
                    f"column {attr.name!r} must be 1-D, got {col.ndim}-D"
                )
            if isinstance(attr, RealAttribute):
                col = col.astype(np.float64, copy=True)
                miss = np.isnan(col)
            else:
                assert isinstance(attr, DiscreteAttribute)
                if not np.issubdtype(col.dtype, np.integer) and not np.issubdtype(
                    col.dtype, np.floating
                ):
                    raise ValueError(
                        f"discrete column {attr.name!r} must be numeric codes"
                    )
                if np.issubdtype(col.dtype, np.floating):
                    if np.any(np.isfinite(col) & (col != np.round(col))):
                        raise ValueError(
                            f"discrete column {attr.name!r} has non-integer codes"
                        )
                    miss = ~np.isfinite(col) | (col < 0)
                    col = np.where(miss, -1, col).astype(np.int64)
                else:
                    col = col.astype(np.int64, copy=True)
                    miss = col < 0
                    col[miss] = -1
                present = col[~miss]
                if present.size and present.max() >= attr.arity:
                    raise ValueError(
                        f"discrete column {attr.name!r}: code {present.max()} "
                        f">= arity {attr.arity}"
                    )
            col = np.ascontiguousarray(col)
            miss = np.ascontiguousarray(miss)
            col.setflags(write=False)
            miss.setflags(write=False)
            norm_cols.append(col)
            miss_cols.append(miss)
        return Database(schema, tuple(norm_cols), tuple(miss_cols))

    @staticmethod
    def from_real_array(
        x: np.ndarray,
        names: tuple[str, ...] | None = None,
        *,
        error: float = 1e-2,
    ) -> "Database":
        """Build an all-real database from an ``(n_items, d)`` matrix.

        The common entry point for array-shaped data (feature matrices,
        embeddings): column names default to ``x0..x{d-1}``, NaN marks
        missing.  For mixed schemas use :meth:`from_columns`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got {x.ndim}-D")
        d = x.shape[1]
        if names is None:
            names = tuple(f"x{i}" for i in range(d))
        if len(names) != d:
            raise ValueError(f"{len(names)} names for {d} columns")
        schema = AttributeSet(
            tuple(RealAttribute(name, error=error) for name in names)
        )
        return Database.from_columns(schema, [x[:, i] for i in range(d)])

    @property
    def n_items(self) -> int:
        return 0 if not self.columns else len(self.columns[0])

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self.n_items

    def column(self, key: int | str) -> np.ndarray:
        """Raw values of one column (NaN / -1 where missing)."""
        if isinstance(key, str):
            key = self.schema.index(key)
        return self.columns[key]

    def missing_mask(self, key: int | str) -> np.ndarray:
        """Boolean missing mask of one column."""
        if isinstance(key, str):
            key = self.schema.index(key)
        return self.missing[key]

    def n_missing(self) -> int:
        """Total count of missing cells."""
        return int(sum(m.sum() for m in self.missing))

    def take(self, index: slice | np.ndarray) -> "Database":
        """Sub-database of the selected rows.

        Slices produce views (zero-copy — this is the partitioning path);
        fancy indices copy.
        """
        cols = tuple(c[index] for c in self.columns)
        miss = tuple(m[index] for m in self.missing)
        for arr in (*cols, *miss):
            arr.setflags(write=False)
        return Database(self.schema, cols, miss)

    def iter_chunks(self) -> Iterator["Database"]:
        """The database itself, as one chunk: the log-posterior pass pays
        its per-class passes once per chunk, so tiles made it slower
        (docs/data.md); ``predict`` cuts its own row blocks."""
        return iter((self,))

    def block(self, n_ranks: int, rank: int) -> "Database":
        """The rows ``rank`` owns under
        :func:`~repro.data.partition.partition_bounds` (a zero-copy slice)."""
        lo, hi = partition_bounds(self.n_items, n_ranks, rank)
        return self.take(slice(lo, hi))

    def probe(self) -> "Database":
        """What :meth:`~repro.models.registry.ModelSpec.validate` reads: itself."""
        return self

    def real_matrix(self) -> np.ndarray:
        """Dense ``(n_items, n_real)`` float matrix of the real columns.

        Convenience for examples and reports; kernels use per-column
        access instead.
        """
        idx = self.schema.real_indices
        if not idx:
            return np.empty((self.n_items, 0))
        return np.column_stack([self.columns[i] for i in idx])

    def global_real_stats(self, key: int | str) -> tuple[float, float]:
        """(mean, variance) of a real column over present values.

        These anchor the normal model's priors, as AutoClass anchors its
        priors at the full-data statistics.  Variance is floored at the
        attribute's declared error squared so constant columns stay
        well-posed.
        """
        if isinstance(key, str):
            key = self.schema.index(key)
        attr = self.schema[key]
        if not isinstance(attr, RealAttribute):
            raise TypeError(f"attribute {attr.name!r} is not real")
        col = self.columns[key]
        present = col[~self.missing[key]]
        if present.size == 0:
            return 0.0, attr.error**2
        mean = float(present.mean())
        var = float(present.var())
        return mean, max(var, attr.error**2)

    def describe(self) -> str:
        """One-line-per-attribute summary used by the CLI and examples."""
        lines = [f"Database: {self.n_items} items x {len(self.schema)} attributes"]
        for i, attr in enumerate(self.schema):
            nmiss = int(self.missing[i].sum())
            if isinstance(attr, RealAttribute):
                mean, var = self.global_real_stats(i)
                lines.append(
                    f"  [{i}] real     {attr.name!r}: mean={mean:.4g} "
                    f"var={var:.4g} error={attr.error:g} missing={nmiss}"
                )
            else:
                lines.append(
                    f"  [{i}] discrete {attr.name!r}: arity={attr.arity} "
                    f"missing={nmiss}"
                )
        return "\n".join(lines)
