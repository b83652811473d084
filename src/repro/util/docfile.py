"""The one on-disk layer: durable, identified, verified JSON documents.

Every file this package writes and reads back — checkpoints, results
files, fitted-model artifacts, shard manifests, golden traces, JSONL
exports — is a JSON *document*, and this module owns the three things
that must not differ between them:

* **durable** — :func:`write_bytes` / :func:`write_json` go through a
  same-directory temp file that is fsynced and then ``os.replace``d
  over the target, so a reader (or a writer that died mid-write) only
  ever sees a complete previous file or the complete new one;
* **identified** — :func:`digest` is the sha256 of a document's
  canonical JSON form with its own ``digest`` key left out, the single
  definition behind artifact, manifest and trace digests;
* **verified** — :func:`read_json` turns every way a file can be wrong
  (missing, unreadable, not UTF-8, not JSON, not an object, another
  kind, another version, digest mismatch) into the *caller's* typed
  exception; each kind of document declares the checks it carries and
  pays for no others (checkpoints are written every EM cycle and carry
  no digest).

A document body may hold ``ndarray`` leaves.  :func:`write_json` inlines
them as lists (``repr``-exact doubles, through the pure-Python encoder
that ``indent`` forces); :func:`hoist_arrays` instead moves them into a
side table, leaving ``{"npz": name}`` references that
:func:`restore_arrays` resolves.  The artifact keeps that table in its
npz payload; :func:`embed_arrays` keeps it in the document itself as
base64 little-endian bytes with dtype and shape, so a document written
every EM cycle (a checkpoint) is one compact :func:`canonical_json`
pass with no per-element work.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any

import numpy as np

#: The key a hoisted ndarray leaf is replaced by (value: its npz name).
ARRAY_REF = "npz"

#: The key of a document's own array table (see :func:`embed_arrays`).
ARRAYS = "arrays"


def _inline(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(doc: Any) -> bytes:
    """The byte form digests are taken over: sorted keys, no whitespace."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), default=_inline
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    """Streaming sha256 of a file too large to want in memory at once."""
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest(doc: dict) -> str:
    """sha256 of ``doc``'s canonical form, its ``digest`` key excluded."""
    return sha256_hex(
        canonical_json({k: v for k, v in doc.items() if k != "digest"})
    )


# ---------------------------------------------------------------------------
# writing

def write_bytes(path: str | Path, data: bytes) -> Path:
    """Replace ``path`` with ``data``, all or nothing.

    The temp file lives in the target's directory so the final
    ``os.replace`` is a same-filesystem atomic rename; a crash at any
    point leaves either the previous complete file or none at all.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def write_json(path: str | Path, doc: dict, indent: int = 1) -> Path:
    """:func:`write_bytes` of ``doc`` as JSON (ndarray leaves inlined)."""
    text = json.dumps(doc, indent=indent, default=_inline)
    return write_bytes(path, text.encode("utf-8"))


def fsync_dir(path: str | Path) -> None:
    """Make the renames already done inside directory ``path`` durable.

    :func:`write_bytes` fsyncs a file's bytes, not the directory entry
    its rename created; a document that refers to another file must not
    land before that file's entry has.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# reading

def check(
    doc: Any,
    *,
    what: str,
    error: type[Exception],
    kind: tuple[str, str] | None = None,
    version: tuple[str, int] | None = None,
    digested: bool = False,
    source: str = "payload",
) -> dict:
    """Validate a parsed document's envelope; returns ``doc``.

    ``kind`` / ``version`` are ``(key, expected)`` pairs (the formats
    predate this module and spell their keys differently); ``digested``
    requires a ``digest`` key equal to :func:`digest` of the rest.
    """
    if not isinstance(doc, dict):
        raise error(f"corrupt {what} {source}: not an object")
    if kind is not None and doc.get(kind[0]) != kind[1]:
        raise error(
            f"{source} is not a {what} file "
            f"({kind[0]}={doc.get(kind[0])!r}, expected {kind[1]!r})"
        )
    if version is not None and doc.get(version[0]) != version[1]:
        raise error(
            f"{what} {version[0]} {doc.get(version[0])!r} not supported "
            f"(expected {version[1]})"
        )
    if digested and doc.get("digest") != digest(doc):
        raise error(
            f"{what} digest mismatch in {source}: the file was modified "
            "or corrupted after it was written"
        )
    return doc


def read_bytes(path: str | Path, *, error: type[Exception]) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def read_json(
    path: str | Path,
    *,
    what: str,
    error: type[Exception],
    kind: tuple[str, str] | None = None,
    version: tuple[str, int] | None = None,
    digested: bool = False,
) -> dict:
    """Read one document; anything wrong with it raises ``error``."""
    data = read_bytes(path, error=error)
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(
            f"{path} is not a {what} file: not valid JSON "
            f"(truncated or corrupt): {exc}"
        ) from exc
    return check(
        doc, what=what, error=error, kind=kind, version=version,
        digested=digested, source=str(path),
    )


#: What a decoder fed a structurally wrong document trips over.
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


@contextlib.contextmanager
def decoding(what: str, error: type[Exception]):
    """Retype a decoder's stumble over a parsed-but-wrong document as
    the caller's ``error`` (which itself passes through untouched)."""
    try:
        yield
    except error:
        raise
    except MALFORMED as exc:
        raise error(f"malformed {what}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# ndarray leaves

def hoist_arrays(node: Any, arrays: dict[str, np.ndarray], path: str = "") -> Any:
    """Copy of ``node`` with every ndarray leaf moved into ``arrays``.

    Leaves are named by their dotted path in the document, so the side
    table is self-describing (``term_params.0.params.mu``).
    """
    if isinstance(node, np.ndarray):
        arrays[path] = np.ascontiguousarray(node)
        return {ARRAY_REF: path}
    if isinstance(node, dict):
        return {
            k: hoist_arrays(v, arrays, f"{path}.{k}" if path else k)
            for k, v in node.items()
        }
    if isinstance(node, (list, tuple)):
        return [
            hoist_arrays(v, arrays, f"{path}.{i}") for i, v in enumerate(node)
        ]
    return node


def restore_arrays(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`hoist_arrays` (``KeyError`` on a dangling ref)."""
    if isinstance(node, dict):
        if node.keys() == {ARRAY_REF}:
            return arrays[node[ARRAY_REF]]
        return {k: restore_arrays(v, arrays) for k, v in node.items()}
    if isinstance(node, list):
        return [restore_arrays(v, arrays) for v in node]
    return node


def encode_array(a: np.ndarray) -> dict:
    """One ndarray as plain data: dtype, shape, little-endian bytes in base64."""
    le = np.asarray(a, dtype=a.dtype.newbyteorder("<"))
    return {
        "dtype": le.dtype.str,
        "shape": list(le.shape),
        "b64": base64.b64encode(le.tobytes()).decode("ascii"),
    }


#: What :func:`encode_array` writes for a bool/int/float array; checked
#: before ``np.dtype`` sees it, whose string parser can raise anything.
_NUMERIC_DTYPE = re.compile(r"[<|][biuf][1248]")


def decode_array(entry: dict) -> np.ndarray:
    """Inverse of :func:`encode_array`, bit-exact and writable.

    Damage raises one of :data:`MALFORMED` (``binascii.Error`` from
    invalid base64 is a ``ValueError``), which :func:`decoding` retypes.
    """
    if not _NUMERIC_DTYPE.fullmatch(entry["dtype"]):
        raise ValueError(f"array dtype {entry['dtype']!r} is not numeric")
    dtype = np.dtype(entry["dtype"])
    shape = tuple(entry["shape"])
    if not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ValueError(f"bad array shape {entry['shape']!r}")
    raw = base64.b64decode(entry["b64"], validate=True)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(
        dtype.newbyteorder("=")
    )


def embed_arrays(doc: dict) -> dict:
    """Copy of ``doc`` with its ndarray leaves hoisted into ``doc[ARRAYS]``."""
    arrays: dict[str, np.ndarray] = {}
    body = hoist_arrays(doc, arrays)
    body[ARRAYS] = {name: encode_array(a) for name, a in arrays.items()}
    return body


def unembed_arrays(doc: dict) -> dict:
    """Inverse of :func:`embed_arrays` (call inside :func:`decoding`)."""
    arrays = {name: decode_array(e) for name, e in doc[ARRAYS].items()}
    return restore_arrays(
        {k: v for k, v in doc.items() if k != ARRAYS}, arrays
    )
