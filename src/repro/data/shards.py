"""Out-of-core sharded databases: bounded-memory streaming over big data.

Every in-memory :class:`~repro.data.database.Database` caps the
reachable problem size at RAM; the paper's 100K-tuple workload fits,
the ROADMAP's "millions of users" does not.  A
:class:`ShardedDatabase` keeps the items on disk as fixed-size
**shards** (a ``.npy`` pair per shard, column-major so a chunk's
columns are contiguous views) described by a ``manifest.json``
carrying the schema, per-shard row counts and sha256 digests, and
streams them through the E/M hot path in **chunks**:

* at most :data:`MAX_RESIDENT_SHARDS` (2) shards are resident at a
  time, least recently used evicted first;
* shards are memory-mapped, so a "resident" shard costs page cache,
  not heap — the heap footprint of a streamed pass is O(chunk);
* every shard file is verified against its manifest sha256 the first
  time it is loaded; a mismatch raises :class:`ShardCorruptionError`
  naming the shard file.

:meth:`ShardedDatabase.block` returns a view over this rank's rows
under exactly the :func:`repro.data.partition.partition_bounds` rule,
so per-rank shard ownership lines up with the in-memory block
partition and the two Allreduce cut points see identical payload
layouts (see :mod:`repro.kernels.stream`).
"""

from __future__ import annotations

import mmap
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.data.attributes import AttributeSet, RealAttribute
from repro.data.database import Database
from repro.data.partition import partition_bounds
from repro.util import docfile

#: Name of the manifest file inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: On-disk layout version (bumped on incompatible changes).
SHARD_FORMAT_VERSION = 1

#: The manifest's ``format`` value: memory-mappable ``.npy`` pairs.
SHARD_FORMAT = "npy"

#: Default rows per shard.
DEFAULT_SHARD_ITEMS = 8192

#: Hard cap on simultaneously resident shards per view.
MAX_RESIDENT_SHARDS = 2

#: Rows per tile of an in-memory block's chunk pass (a constant, not an
#: option): a tile's ``(TILE_ITEMS, J)`` E-step buffers stay in cache.
TILE_ITEMS = 4096


class ShardCorruptionError(RuntimeError):
    """A shard file's bytes do not match its manifest sha256."""


class ShardFormatError(ValueError):
    """Malformed or incompatible shard directory contents."""


def is_streamable(obj) -> bool:
    """True for a shard-backed view (the rows live on disk)."""
    return isinstance(obj, ShardedDatabase)


def data_digest(obj) -> str | None:
    """A view's manifest digest (a checkpoint's data key), else ``None``."""
    return obj.manifest_digest if is_streamable(obj) else None


def _check_chunk_items(chunk_items: int) -> int:
    step = int(chunk_items)
    if step < 1:
        raise ValueError(f"chunk_items must be >= 1, got {chunk_items}")
    return step


# id(db) -> (weakref to db, its tiles), beside the Database so its pickle
# stays data-sized; locked as threads and sim worlds tile blocks at once.
_tiles: dict[int, tuple[weakref.ref, tuple[Database, ...]]] = {}
_tiles_lock = threading.Lock()


def as_chunk_iterable(data):
    """A fit pass's chunks: at most ``TILE_ITEMS`` rows each.

    A streamed view yields chunks of ``min(chunk_items, TILE_ITEMS)``
    rows, clipped at shard boundaries; an in-memory block its zero-copy
    ``TILE_ITEMS``-row tiles (itself if it fits), the same objects each
    call for the plan cache.  Where shard boundaries fall on multiples
    of ``TILE_ITEMS`` from the view's start, both cut the rows alike,
    so a streamed fit sums in the in-memory order, bit for bit.
    """
    if is_streamable(data):
        return data.iter_chunks(min(data.chunk_items, TILE_ITEMS))
    if data.n_items <= TILE_ITEMS:
        return iter((data,))
    key = id(data)
    with _tiles_lock:
        ref, cut = _tiles.get(key, (None, ()))
        if ref is None or ref() is not data:
            cut = tuple(
                data.take(slice(lo, lo + TILE_ITEMS))
                for lo in range(0, data.n_items, TILE_ITEMS)
            )
            ref = weakref.ref(data, lambda _ref: _tiles.pop(key, None))
            _tiles[key] = (ref, cut)
    return iter(cut)


class _DigestLedger:
    """Which shard indices were already verified, shared across views."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seen: set[int] = set()

    def covers(self, index: int) -> bool:
        with self._lock:
            return index in self._seen

    def add(self, index: int) -> None:
        with self._lock:
            self._seen.add(index)


class _Resident:
    """One loaded shard: its column-major arrays plus cached chunk views."""

    __slots__ = ("real", "disc", "chunks")

    def __init__(self, real: np.ndarray, disc: np.ndarray) -> None:
        self.real = real
        self.disc = disc
        #: (local_lo, local_hi) -> chunk Database.  Reusing the same
        #: Database object while the shard stays resident lets the
        #: identity-keyed KernelPlan cache hit across EM cycles.
        self.chunks: dict[tuple[int, int], Database] = {}


class ShardedDatabase:
    """A database stored as digest-verified shards, streamed in chunks.

    Build one with :meth:`from_database` (sharding an in-memory
    database to a directory) or :meth:`open` (attaching to an existing
    directory); neither loads item data.  :meth:`iter_chunks` yields
    ordinary :class:`~repro.data.database.Database` chunks whose
    columns are zero-copy views into the resident shard, so a full
    pass over N items keeps only O(chunk) on the heap.

    Instances compare data by :attr:`manifest_digest` and are
    picklable (the receiving process re-opens the directory lazily),
    which is how the processes world ships per-rank views to forked
    workers.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict,
        schema: AttributeSet,
        *,
        lo: int,
        hi: int,
        chunk_items: int,
        ledger: _DigestLedger | None = None,
        npy_meta: dict[str, tuple] | None = None,
    ) -> None:
        self._path = Path(path)
        self._manifest = manifest
        self.schema = schema
        self._lo = int(lo)
        self._hi = int(hi)
        self.chunk_items = _check_chunk_items(chunk_items)
        sizes = [int(s["n_items"]) for s in manifest["shards"]]
        self._offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self._real_idx = schema.real_indices
        self._disc_idx = schema.discrete_indices
        self._ledger = ledger if ledger is not None else _DigestLedger()
        #: file name -> parsed .npy header (shape, fortran, dtype,
        #: data offset), shared across views like the ledger.
        self._npy_meta = npy_meta if npy_meta is not None else {}
        self._lock = threading.Lock()
        self._resident: OrderedDict[int, _Resident] = OrderedDict()

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_database(
        db: Database,
        directory: str | Path,
        *,
        shard_items: int = DEFAULT_SHARD_ITEMS,
        chunk_items: int | None = None,
    ) -> "ShardedDatabase":
        """Shard an in-memory database into ``directory``.

        ``shard_items`` is the on-disk unit (rows per shard: two
        memory-mappable ``.npy`` files, reals and discretes);
        ``chunk_items`` the default compute unit for
        :meth:`iter_chunks` (defaults to ``shard_items``).
        """
        if shard_items < 1:
            raise ValueError(f"shard_items must be >= 1, got {shard_items}")
        chunk_items = _check_chunk_items(
            shard_items if chunk_items is None else chunk_items
        )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            raise FileExistsError(
                f"{manifest_path} already exists; refusing to overwrite "
                "an existing shard directory"
            )
        real_idx = db.schema.real_indices
        disc_idx = db.schema.discrete_indices
        shards = []
        for k, lo in enumerate(range(0, db.n_items, shard_items)):
            hi = min(lo + shard_items, db.n_items)
            # Column-major (n_attrs_of_kind, n_rows): a column chunk is
            # a contiguous row slice, so streamed reads are zero-copy.
            real = np.ascontiguousarray(
                np.stack([db.columns[i][lo:hi] for i in real_idx])
                if real_idx else np.empty((0, hi - lo), dtype=np.float64)
            )
            disc = np.ascontiguousarray(
                np.stack([db.columns[i][lo:hi] for i in disc_idx])
                if disc_idx else np.empty((0, hi - lo), dtype=np.int64)
            )
            files = {}
            for part, arr in (("real", real), ("disc", disc)):
                name = f"shard_{k:05d}.{part}.npy"
                np.save(directory / name, arr)
                files[part] = {
                    "name": name,
                    "sha256": docfile.sha256_file(directory / name),
                }
            shards.append({"index": k, "n_items": hi - lo, "files": files})
        manifest = {
            "format_version": SHARD_FORMAT_VERSION,
            "format": SHARD_FORMAT,
            "n_items": db.n_items,
            "shard_items": int(shard_items),
            "chunk_items": chunk_items,
            "schema": db.schema.to_dicts(),
            "missing_any": [bool(m.any()) for m in db.missing],
            "shards": shards,
        }
        manifest["digest"] = docfile.digest(manifest)
        # Written last: a directory without a manifest is not a dataset.
        docfile.write_json(manifest_path, manifest, indent=2)
        return ShardedDatabase.open(directory, chunk_items=chunk_items)

    @staticmethod
    def open(
        directory: str | Path, *, chunk_items: int | None = None
    ) -> "ShardedDatabase":
        """Attach to a shard directory (verifies the manifest digest)."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = docfile.read_json(
            manifest_path, what="shard manifest", error=ShardFormatError,
            version=("format_version", SHARD_FORMAT_VERSION),
            kind=("format", SHARD_FORMAT),
        )
        docfile.check(
            manifest, what="shard manifest", error=ShardCorruptionError,
            digested=True, source=str(manifest_path),
        )
        return ShardedDatabase(
            directory,
            manifest,
            AttributeSet.from_dicts(manifest["schema"]),
            lo=0,
            hi=int(manifest["n_items"]),
            chunk_items=int(manifest["chunk_items"])
            if chunk_items is None else chunk_items,
        )

    # -- Database-alike surface -------------------------------------------

    @property
    def n_items(self) -> int:
        return self._hi - self._lo

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self.n_items

    @property
    def path(self) -> Path:
        return self._path

    @property
    def manifest_digest(self) -> str:
        """sha256 of the canonical manifest — the identity of the data."""
        return self._manifest["digest"]

    @property
    def n_shards(self) -> int:
        return len(self._manifest["shards"])

    @property
    def shard_items(self) -> int:
        return int(self._manifest["shard_items"])

    @property
    def bounds(self) -> tuple[int, int]:
        """This view's ``[lo, hi)`` row range of the full item space."""
        return self._lo, self._hi

    @property
    def base_n_items(self) -> int:
        """Total items of the underlying directory (ignoring the view)."""
        return int(self._manifest["n_items"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedDatabase({str(self._path)!r}, items=[{self._lo}:"
            f"{self._hi}) of {self.base_n_items}, shards={self.n_shards}, "
            f"chunk_items={self.chunk_items})"
        )

    def _view(self, lo: int, hi: int) -> "ShardedDatabase":
        return ShardedDatabase(
            self._path,
            self._manifest,
            self.schema,
            lo=lo,
            hi=hi,
            chunk_items=self.chunk_items,
            ledger=self._ledger,
            npy_meta=self._npy_meta,
        )

    def block(self, n_ranks: int, rank: int) -> "ShardedDatabase":
        """This rank's block view — the balanced
        :func:`~repro.data.partition.partition_bounds` rule, so streamed
        per-rank ownership lines up row-for-row with
        :meth:`Database.block <repro.data.database.Database.block>`."""
        lo, hi = partition_bounds(self.n_items, n_ranks, rank)
        return self._view(self._lo + lo, self._lo + hi)

    def with_chunk_items(self, chunk_items: int) -> "ShardedDatabase":
        """Same view, different default chunk size."""
        view = self._view(self._lo, self._hi)
        view.chunk_items = _check_chunk_items(chunk_items)
        return view

    # -- shard residency ---------------------------------------------------

    def _mmap_npy(self, path: Path) -> np.ndarray:
        """Memory-map a ``.npy`` shard file, caching its parsed header.

        A long streamed fit re-maps every shard once per EM pass (the
        LRU holds two), so the per-map cost is paid per chunk-pass:
        ``np.load(mmap_mode="r")`` re-parses the header each call and
        ``np.memmap`` adds a Python subclass layer on top of the map.
        Shard files are immutable, so the header is parsed once per
        file and each re-map is one read-only ``mmap`` wrapped in a
        plain ndarray at the cached geometry (read-only because the
        buffer is).
        """
        meta = self._npy_meta.get(path.name)
        with path.open("rb") as f:
            if meta is None:
                version = np.lib.format.read_magic(f)
                if version == (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(f)
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(f)
                    )
                else:  # an exotic header version: let numpy handle it
                    return np.load(path, mmap_mode="r")
                meta = (shape, fortran, dtype, f.tell())
                self._npy_meta[path.name] = meta
            buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        shape, fortran, dtype, offset = meta
        return np.ndarray(
            shape, dtype, buffer=buf, offset=offset,
            order="F" if fortran else "C",
        )

    def _load_shard(self, k: int) -> _Resident:
        info = self._manifest["shards"][k]
        files = [info["files"][part] for part in ("real", "disc")]
        if not self._ledger.covers(k):
            for f in files:
                path = self._path / f["name"]
                if not path.exists():
                    raise ShardCorruptionError(
                        f"shard {k}: file {f['name']} is missing from "
                        f"{self._path}"
                    )
                digest = docfile.sha256_file(path)
                if digest != f["sha256"]:
                    raise ShardCorruptionError(
                        f"shard {k}: file {f['name']} sha256 {digest[:12]}… "
                        f"does not match the manifest ({f['sha256'][:12]}…); "
                        "the shard is corrupted or was modified after "
                        "sharding"
                    )
            self._ledger.add(k)
        real, disc = (self._mmap_npy(self._path / f["name"]) for f in files)
        n = int(info["n_items"])
        if real.shape != (len(self._real_idx), n) or disc.shape != (
            len(self._disc_idx), n,
        ):
            raise ShardCorruptionError(
                f"shard {k}: array shapes {real.shape}/{disc.shape} do not "
                f"match the manifest ({len(self._real_idx)}/"
                f"{len(self._disc_idx)} attributes x {n} items)"
            )
        return _Resident(real, disc)

    def _get_shard(self, k: int) -> _Resident:
        with self._lock:
            entry = self._resident.get(k)
            if entry is not None:
                self._resident.move_to_end(k)
                return entry
        entry = self._load_shard(k)
        with self._lock:
            self._resident[k] = entry
            self._resident.move_to_end(k)
            while len(self._resident) > MAX_RESIDENT_SHARDS:
                self._resident.popitem(last=False)
        return entry

    def resident_shards(self) -> tuple[int, ...]:
        """Currently resident shard indices (oldest first; for tests)."""
        with self._lock:
            return tuple(self._resident)

    def close(self) -> None:
        """Drop resident shards."""
        with self._lock:
            self._resident.clear()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- chunk iteration ---------------------------------------------------

    def _chunk_db(self, entry: _Resident, k: int, lo: int, hi: int) -> Database:
        a = lo - int(self._offsets[k])
        b = hi - int(self._offsets[k])
        db = entry.chunks.get((a, b))
        if db is not None:
            return db
        cols: list[np.ndarray] = [None] * len(self.schema)  # type: ignore
        miss: list[np.ndarray] = [None] * len(self.schema)  # type: ignore
        for pos, i in enumerate(self._real_idx):
            col = entry.real[pos, a:b]
            m = np.isnan(col)
            m.setflags(write=False)
            cols[i], miss[i] = col, m
        for pos, i in enumerate(self._disc_idx):
            col = entry.disc[pos, a:b]
            m = col < 0
            m.setflags(write=False)
            cols[i], miss[i] = col, m
        db = Database(self.schema, tuple(cols), tuple(miss))
        entry.chunks[(a, b)] = db
        return db

    def iter_chunks(
        self, chunk_items: int | None = None
    ) -> Iterator[Database]:
        """Stream the view's rows as bounded Database chunks.

        Chunks are clipped at shard boundaries (a chunk never spans two
        shards), so every yielded Database is a zero-copy view into a
        single resident shard.  Shards load inline: a first touch pays
        the digest verification, a verified shard re-maps in
        microseconds.
        """
        step = self.chunk_items
        if chunk_items is not None:
            step = _check_chunk_items(chunk_items)
        offsets = self._offsets
        pos = self._lo
        while pos < self._hi:
            k = int(np.searchsorted(offsets, pos, side="right")) - 1
            entry = self._get_shard(k)
            limit = min(int(offsets[k + 1]), self._hi)
            while pos < limit:
                end = min(pos + step, limit)
                yield self._chunk_db(entry, k, pos, end)
                pos = end

    # -- whole-view helpers ------------------------------------------------

    def probe(self) -> Database:
        """One fabricated row reproducing each attribute's missingness.

        ``ModelSpec.validate`` inspects only the schema and whether a
        column *has* missing values, so validating this probe is
        equivalent to validating the full materialized database —
        without touching any shard.
        """
        missing_any = self._manifest["missing_any"]
        cols: list[np.ndarray] = []
        miss: list[np.ndarray] = []
        for i, attr in enumerate(self.schema):
            m = bool(missing_any[i])
            if isinstance(attr, RealAttribute):
                col = np.array([np.nan if m else 0.0], dtype=np.float64)
            else:
                col = np.array([-1 if m else 0], dtype=np.int64)
            mask = np.array([m])
            col.setflags(write=False)
            mask.setflags(write=False)
            cols.append(col)
            miss.append(mask)
        return Database(self.schema, tuple(cols), tuple(miss))

    def materialize(self) -> Database:
        """Load the whole view into one in-memory Database (O(N) heap)."""
        parts: list[list[np.ndarray]] = [[] for _ in self.schema]
        for chunk in self.iter_chunks():
            for i in range(len(self.schema)):
                parts[i].append(np.array(chunk.columns[i]))
        cols: list[np.ndarray] = []
        miss: list[np.ndarray] = []
        for i, attr in enumerate(self.schema):
            if parts[i]:
                col = np.ascontiguousarray(np.concatenate(parts[i]))
            elif isinstance(attr, RealAttribute):
                col = np.empty(0, dtype=np.float64)
            else:
                col = np.empty(0, dtype=np.int64)
            if isinstance(attr, RealAttribute):
                m = np.isnan(col)
            else:
                m = col < 0
            col.setflags(write=False)
            m.setflags(write=False)
            cols.append(col)
            miss.append(m)
        return Database(self.schema, tuple(cols), tuple(miss))

    # -- pickling (the processes world ships views to forked ranks) --------

    def __getstate__(self) -> dict:
        return {
            "path": str(self._path),
            "lo": self._lo,
            "hi": self._hi,
            "chunk_items": self.chunk_items,
        }

    def __setstate__(self, state: dict) -> None:
        fresh = ShardedDatabase.open(
            state["path"], chunk_items=state["chunk_items"]
        )
        self.__dict__.update(fresh.__dict__)
        self._lo = int(state["lo"])
        self._hi = int(state["hi"])
