"""Attribute descriptors — the reproduction of AutoClass's ``.hd2`` schema.

AutoClass declares each column of the database with a type and
type-specific metadata.  The two families the paper's workloads need:

* **real** attributes (AutoClass ``real location``): continuous values
  with a declared measurement error ``rel_error``/``error`` that floors
  the class variance (a class can never claim to know a value more
  precisely than the instrument that measured it);
* **discrete** attributes (AutoClass ``discrete nominal``): categorical
  values with a declared ``range`` (number of distinct symbols).

Missing values are first-class: every attribute may be absent on any
item, recorded in the database's missing mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import check_positive

#: Sentinel used in text files for a missing value (AutoClass uses '?').
MISSING_TOKEN = "?"


@dataclass(frozen=True)
class RealAttribute:
    """A continuous column.

    Parameters
    ----------
    name:
        Column name (unique within the attribute set).
    error:
        Absolute measurement error.  The single-normal model floors its
        class sigma at this value, mirroring AutoClass's ``error``
        declaration; it also regularizes empty classes.
    """

    name: str
    error: float = 1e-2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        check_positive(f"error of attribute {self.name!r}", self.error)

    @property
    def kind(self) -> str:
        return "real"


@dataclass(frozen=True)
class DiscreteAttribute:
    """A categorical column with ``arity`` distinct symbols.

    Values are stored as integer codes ``0 .. arity-1``; ``symbols``
    optionally names them for reports and file round-trips.
    """

    name: str
    arity: int
    symbols: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.arity < 2:
            raise ValueError(
                f"discrete attribute {self.name!r} needs arity >= 2, got {self.arity}"
            )
        if self.symbols and len(self.symbols) != self.arity:
            raise ValueError(
                f"attribute {self.name!r}: {len(self.symbols)} symbols for arity {self.arity}"
            )

    @property
    def kind(self) -> str:
        return "discrete"

    def symbol(self, code: int) -> str:
        """Human-readable symbol for a code (falls back to the code itself)."""
        if not 0 <= code < self.arity:
            raise ValueError(f"code {code} out of range for {self.name!r}")
        return self.symbols[code] if self.symbols else str(code)


Attribute = RealAttribute | DiscreteAttribute


@dataclass(frozen=True)
class AttributeSet:
    """Ordered collection of attributes — one database schema.

    Provides index lookups used throughout the models package:
    ``real_indices`` / ``discrete_indices`` give the column positions of
    each family, preserving declaration order.
    """

    attributes: tuple[Attribute, ...]
    _by_name: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate attribute names: {dupes}")
        object.__setattr__(
            self, "_by_name", {a.name: i for i, a in enumerate(self.attributes)}
        )

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            try:
                key = self._by_name[key]
            except KeyError:
                raise KeyError(f"no attribute named {key!r}") from None
        return self.attributes[key]

    def index(self, name: str) -> int:
        """Column position of the attribute called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no attribute named {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def to_dicts(self) -> list[dict]:
        """The schema as plain data — the one codec every on-disk
        document that carries a schema (results, artifact, shard
        manifest) embeds."""
        out: list[dict] = []
        for a in self.attributes:
            if isinstance(a, RealAttribute):
                out.append({"kind": "real", "name": a.name, "error": a.error})
            else:
                out.append({
                    "kind": "discrete", "name": a.name, "arity": a.arity,
                    "symbols": list(a.symbols),
                })
        return out

    @classmethod
    def from_dicts(cls, items: list[dict]) -> "AttributeSet":
        """Inverse of :meth:`to_dicts`; malformed input raises
        ``KeyError`` / ``TypeError`` / ``ValueError`` for the calling
        loader to retype."""
        attrs: list[Attribute] = []
        for d in items:
            if d["kind"] == "real":
                attrs.append(RealAttribute(d["name"], error=d["error"]))
            elif d["kind"] == "discrete":
                attrs.append(DiscreteAttribute(
                    d["name"], arity=d["arity"],
                    symbols=tuple(d.get("symbols", ())),
                ))
            else:
                raise ValueError(f"unknown attribute kind {d['kind']!r}")
        return cls(tuple(attrs))

    @property
    def real_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, a in enumerate(self.attributes) if isinstance(a, RealAttribute)
        )

    @property
    def discrete_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, a in enumerate(self.attributes) if isinstance(a, DiscreteAttribute)
        )
