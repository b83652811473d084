"""AutoClass-style database files: ``.hd2`` headers and ``.db2`` data.

AutoClass C reads a header file declaring the attributes and a separate
whitespace-separated data file.  This module reproduces that format
closely enough that a database round-trips exactly:

``.hd2`` header (one declaration per line)::

    ;; comment
    num_db2_format_defs 2
    number_of_attributes 3
    separator_char ' '
    0 real location x0 error 0.01
    1 real location x1 error 0.01
    2 discrete nominal color range 4 symbols red green blue white

``.db2`` data (one item per line, '?' for missing)::

    1.25 -0.5 red
    ? 2.0 blue

Only the declaration families the models support are accepted; unknown
attribute types raise with the offending line number.
"""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np

from repro.data.attributes import (
    MISSING_TOKEN,
    AttributeSet,
    DiscreteAttribute,
    RealAttribute,
)
from repro.data.database import Database


class HeaderFormatError(ValueError):
    """Raised for malformed ``.hd2`` content, with the line number."""


class DataFormatError(ValueError):
    """Raised for malformed ``.db2`` content, with the line number."""


def write_header(schema: AttributeSet, path: str | Path) -> None:
    """Write an ``.hd2``-style header for ``schema``."""
    lines = [
        ";; AutoClass-style header written by repro.data.io",
        "num_db2_format_defs 2",
        f"number_of_attributes {len(schema)}",
        "separator_char ' '",
    ]
    for i, attr in enumerate(schema):
        if isinstance(attr, RealAttribute):
            lines.append(f"{i} real location {attr.name} error {attr.error:g}")
        else:
            decl = f"{i} discrete nominal {attr.name} range {attr.arity}"
            if attr.symbols:
                decl += " symbols " + " ".join(attr.symbols)
            lines.append(decl)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_header(path: str | Path) -> AttributeSet:
    """Parse an ``.hd2``-style header into an :class:`AttributeSet`."""
    attrs: list[tuple[int, RealAttribute | DiscreteAttribute]] = []
    declared: int | None = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("num_db2_format_defs", "separator_char"):
            continue
        if head == "number_of_attributes":
            declared = _parse_int(tokens, 1, lineno, "number_of_attributes")
            continue
        # Attribute declaration: <index> <type> <subtype> <name> ...
        idx = _parse_int(tokens, 0, lineno, "attribute index")
        if len(tokens) < 4:
            raise HeaderFormatError(f"line {lineno}: truncated declaration: {line!r}")
        atype, subtype, name = tokens[1], tokens[2], tokens[3]
        rest = tokens[4:]
        if atype == "real" and subtype == "location":
            error = _keyword_float(rest, "error", lineno, default=1e-2)
            attrs.append((idx, RealAttribute(name, error=error)))
        elif atype == "discrete" and subtype == "nominal":
            arity = int(_keyword_float(rest, "range", lineno))
            symbols: tuple[str, ...] = ()
            if "symbols" in rest:
                symbols = tuple(rest[rest.index("symbols") + 1 :])
            attrs.append((idx, DiscreteAttribute(name, arity=arity, symbols=symbols)))
        else:
            raise HeaderFormatError(
                f"line {lineno}: unsupported attribute type {atype} {subtype!r}"
            )
    attrs.sort(key=lambda pair: pair[0])
    indices = [i for i, _ in attrs]
    if indices != list(range(len(attrs))):
        raise HeaderFormatError(f"attribute indices not dense 0..n-1: {indices}")
    if declared is not None and declared != len(attrs):
        raise HeaderFormatError(
            f"header declares {declared} attributes but defines {len(attrs)}"
        )
    return AttributeSet(tuple(a for _, a in attrs))


def write_data(db: Database, path: str | Path) -> None:
    """Write the items of ``db`` as a ``.db2``-style text file."""
    buf = _io.StringIO()
    schema = db.schema
    for row in range(db.n_items):
        fields = []
        for j, attr in enumerate(schema):
            if db.missing[j][row]:
                fields.append(MISSING_TOKEN)
            elif isinstance(attr, RealAttribute):
                fields.append(repr(float(db.columns[j][row])))
            else:
                fields.append(attr.symbol(int(db.columns[j][row])))
        buf.write(" ".join(fields))
        buf.write("\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def read_data(schema: AttributeSet, path: str | Path) -> Database:
    """Parse a ``.db2``-style data file against ``schema``."""
    n_attrs = len(schema)
    columns: list[list[float]] = [[] for _ in range(n_attrs)]
    symbol_maps: list[dict[str, int] | None] = []
    for attr in schema:
        if isinstance(attr, DiscreteAttribute) and attr.symbols:
            symbol_maps.append({s: i for i, s in enumerate(attr.symbols)})
        else:
            symbol_maps.append(None)
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) != n_attrs:
            raise DataFormatError(
                f"line {lineno}: {len(fields)} fields, expected {n_attrs}"
            )
        for j, (attr, field) in enumerate(zip(schema, fields)):
            if field == MISSING_TOKEN:
                columns[j].append(np.nan if isinstance(attr, RealAttribute) else -1)
                continue
            if isinstance(attr, RealAttribute):
                try:
                    columns[j].append(float(field))
                except ValueError:
                    raise DataFormatError(
                        f"line {lineno}: bad real value {field!r} "
                        f"for attribute {attr.name!r}"
                    ) from None
            else:
                smap = symbol_maps[j]
                if smap is not None:
                    if field not in smap:
                        raise DataFormatError(
                            f"line {lineno}: unknown symbol {field!r} "
                            f"for attribute {attr.name!r}"
                        )
                    columns[j].append(smap[field])
                else:
                    try:
                        columns[j].append(int(field))
                    except ValueError:
                        raise DataFormatError(
                            f"line {lineno}: bad code {field!r} "
                            f"for attribute {attr.name!r}"
                        ) from None
    arrays = [
        np.array(col, dtype=np.float64 if isinstance(attr, RealAttribute) else np.int64)
        for attr, col in zip(schema, columns)
    ]
    return Database.from_columns(schema, arrays)


def save_database(db: Database, basepath: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.hd2`` + ``<base>.db2``; returns the two paths."""
    base = Path(basepath)
    hd2, db2 = base.with_suffix(".hd2"), base.with_suffix(".db2")
    write_header(db.schema, hd2)
    write_data(db, db2)
    return hd2, db2


def load_database(basepath: str | Path) -> Database:
    """Read ``<base>.hd2`` + ``<base>.db2`` back into a Database."""
    base = Path(basepath)
    schema = read_header(base.with_suffix(".hd2"))
    return read_data(schema, base.with_suffix(".db2"))


def _parse_int(tokens: list[str], pos: int, lineno: int, what: str) -> int:
    try:
        return int(tokens[pos])
    except (IndexError, ValueError):
        raise HeaderFormatError(f"line {lineno}: expected integer {what}") from None


def _keyword_float(
    rest: list[str], keyword: str, lineno: int, default: float | None = None
) -> float:
    if keyword in rest:
        pos = rest.index(keyword)
        try:
            return float(rest[pos + 1])
        except (IndexError, ValueError):
            raise HeaderFormatError(
                f"line {lineno}: {keyword} needs a numeric argument"
            ) from None
    if default is None:
        raise HeaderFormatError(f"line {lineno}: missing required {keyword!r}")
    return default

