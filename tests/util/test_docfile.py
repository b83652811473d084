"""repro.util.docfile: the document contract, and every loader's typed errors."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.util import docfile
from tests.util.docfile_kinds import KIND_NAMES, build_kinds


class Refused(Exception):
    pass


class TestWrite:
    def test_replaces_whole_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "sub" / "x.json"
        docfile.write_json(target, {"v": 1})
        docfile.write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}
        assert [p.name for p in target.parent.iterdir()] == ["x.json"]

    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "x.json"
        docfile.write_json(target, {"v": 1})

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            docfile.write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 1}

    def test_ndarray_leaves_are_inlined_exactly(self, tmp_path):
        arr = np.array([0.1, 1e-300, -2.5e17])
        docfile.write_json(tmp_path / "a.json", {"a": arr})
        back = json.loads((tmp_path / "a.json").read_text())["a"]
        assert np.array_equal(np.asarray(back), arr)


class TestDigest:
    def test_excludes_its_own_key_and_ignores_layout(self):
        doc = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
        d = docfile.digest(doc)
        assert docfile.digest({**doc, "digest": "anything"}) == d
        assert docfile.digest(json.loads(json.dumps(doc, indent=3))) == d
        assert docfile.digest({**doc, "b": [1, 2.5000000000000004]}) != d

    def test_arrays_digest_as_their_lists(self):
        assert docfile.digest({"a": np.array([1.5, 2.0])}) == docfile.digest(
            {"a": [1.5, 2.0]}
        )


class TestHoist:
    def test_round_trip_names_leaves_by_path(self):
        doc = {"n": 2, "w": np.arange(3.0), "t": [{"mu": np.ones((2, 2))}, 5]}
        arrays: dict = {}
        refs = docfile.hoist_arrays(doc, arrays)
        assert sorted(arrays) == ["t.0.mu", "w"]
        json.dumps(refs)  # plain data now
        back = docfile.restore_arrays(refs, arrays)
        assert back["n"] == 2 and back["t"][1] == 5
        assert np.array_equal(back["w"], doc["w"])
        assert np.array_equal(back["t"][0]["mu"], doc["t"][0]["mu"])

    def test_dangling_reference_is_a_key_error(self):
        with pytest.raises(KeyError):
            docfile.restore_arrays({"w": {docfile.ARRAY_REF: "gone"}}, {})


class TestEmbeddedArrays:
    @pytest.mark.parametrize("a", [
        np.array([0.1, -0.0, 1e-310, np.inf, np.nan, -2.5e17]),
        np.arange(12, dtype=np.int32).reshape(3, 4)[:, ::2],
        np.array([[True, False]]),
        np.arange(3.0).astype(">f8"),
        np.zeros((0, 3)),
        np.array(2.5),
    ])
    def test_round_trip_is_bit_exact(self, a):
        entry = json.loads(json.dumps(docfile.encode_array(a)))
        assert entry["dtype"][0] in "<|" and entry["shape"] == list(a.shape)
        back = docfile.decode_array(entry)
        assert back.shape == a.shape and back.dtype == a.dtype.newbyteorder("=")
        assert back.tobytes() == a.astype(back.dtype).tobytes()
        back[...] = 0  # a writable copy, not a view of the decoded bytes

    def test_document_round_trip(self):
        doc = {"n": 2, "w": np.arange(3.0), "t": [{"mu": np.ones((2, 2))}]}
        packed = json.loads(docfile.canonical_json(docfile.embed_arrays(doc)))
        assert sorted(packed[docfile.ARRAYS]) == ["t.0.mu", "w"]
        back = docfile.unembed_arrays(packed)
        assert back.keys() == doc.keys() and back["n"] == 2
        assert np.array_equal(back["w"], doc["w"])
        assert np.array_equal(back["t"][0]["mu"], doc["t"][0]["mu"])

    @pytest.mark.parametrize("damage", [
        {"dtype": "|O"}, {"dtype": "<U3"}, {"dtype": "<f9"}, {"dtype": "<f,"},
        {"dtype": 8},
        {"shape": [-1]}, {"shape": [4]}, {"shape": [1.5, 2]},
        {"b64": "AAAA!AAA"}, {"b64": "AAAAAAA"}, {"b64": 7},
    ])
    def test_damaged_entry_is_malformed(self, damage):
        entry = {**docfile.encode_array(np.arange(3.0)), **damage}
        with pytest.raises(docfile.MALFORMED):
            docfile.decode_array(entry)


class TestReadJson:
    def read(self, path, **checks):
        return docfile.read_json(path, what="sample", error=Refused, **checks)

    def test_every_defect_raises_the_callers_error(self, tmp_path):
        path = tmp_path / "d.json"
        with pytest.raises(Refused, match="cannot read"):
            self.read(path)
        for raw in (b"", b"{\"a\": 1", b"\xff\xfe{}", b"[]", b"3"):
            path.write_bytes(raw)
            with pytest.raises(Refused):
                self.read(path)
        doc = {"kind": "k", "v": 1, "body": [1, 2]}
        doc["digest"] = docfile.digest(doc)
        path.write_text(json.dumps(doc))
        checks = dict(kind=("kind", "k"), version=("v", 1), digested=True)
        assert self.read(path, **checks) == doc
        with pytest.raises(Refused, match="not a sample"):
            self.read(path, **{**checks, "kind": ("kind", "other")})
        with pytest.raises(Refused, match="not supported"):
            self.read(path, **{**checks, "version": ("v", 2)})
        path.write_text(json.dumps({**doc, "body": [1, 3]}))
        with pytest.raises(Refused, match="digest mismatch"):
            self.read(path, **checks)
        del doc["digest"]
        path.write_text(json.dumps(doc))
        with pytest.raises(Refused, match="digest mismatch"):
            self.read(path, **checks)


# ---------------------------------------------------------------------------
# the typed-error matrix: kind x fault -> the kind's own exception

FAULTS = (
    "missing file", "empty file", "[]", "{}", "wrong kind", "version + 1",
    "required key deleted",
)


@pytest.fixture(scope="module")
def kinds(tmp_path_factory):
    return build_kinds(tmp_path_factory.mktemp("kinds"))


def _damaged(kinds, name, fault) -> bytes | None:
    """The bytes ``fault`` leaves in the kind's JSON file (None: no file)."""
    kind = kinds[name]
    if fault == "missing file":
        return None
    if fault == "empty file":
        return b""
    if fault in ("[]", "{}"):
        return fault.encode()
    if fault == "wrong kind":
        # a perfectly good document — of the next kind over
        other = KIND_NAMES[(KIND_NAMES.index(name) + 1) % len(KIND_NAMES)]
        return kinds[other].files[0].read_bytes()
    doc = kind.doc()
    if fault == "version + 1":
        node = doc
        for key in kind.version_key[:-1]:
            node = node[key]
        node[kind.version_key[-1]] += 1
    else:
        del doc[kind.required_key]
    return json.dumps(doc).encode()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", KIND_NAMES)
def test_loader_raises_its_own_typed_error(kinds, name, fault):
    kind = kinds[name]
    path = kind.files[0]
    good = path.read_bytes()
    expected = kind.typed
    if name == "golden-trace" and fault == "missing file":
        # deliberate: the message tells the user to run --regen
        expected = (FileNotFoundError,)
    try:
        damaged = _damaged(kinds, name, fault)
        if damaged is None:
            path.unlink()
        else:
            path.write_bytes(damaged)
        with pytest.raises(expected) as caught:
            kind.load()
        assert type(caught.value) in expected  # not a subclass passing by
    finally:
        path.write_bytes(good)
    kind.load()  # the sample is whole again


def test_bit_flip_inside_base64_is_a_checkpoint_error(kinds):
    """Every single-bit flip of an embedded array's base64 text loads or
    raises the checkpoint's own error — never a bare ``binascii.Error``."""
    kind = kinds["checkpoint"]
    path = kind.files[0]
    good = path.read_bytes()
    b64 = next(iter(kind.doc()["arrays"].values()))["b64"].encode()
    start = good.index(b64)
    refused = 0
    try:
        for bit in range(8 * len(b64)):
            flipped = bytearray(good)
            flipped[start + bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                kind.load()
            except kind.typed as exc:
                assert type(exc) in kind.typed
                refused += 1
    finally:
        path.write_bytes(good)
    assert refused > 0
