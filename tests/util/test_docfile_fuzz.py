"""Corruption property: a damaged document is refused, typed, or harmless.

For every kind of on-disk document, truncate a file at any byte offset
or flip any single bit of it, then call the kind's own loader:

* it may raise the kind's typed error, and nothing else — not a
  ``KeyError`` from a decoder, not the ``UnicodeDecodeError`` a flipped
  high bit provokes;
* an *undigested* kind (checkpoint, results) may instead return an
  object: without a digest a changed digit is just another number;
* a *digested* kind (artifact JSON and npz, shard manifest, golden
  trace) may return only when the damage did not change the parsed
  content (``e`` -> ``E`` in a float), and then the load is bitwise
  equal to the undamaged one; damage to the npz always raises.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.util.docfile_kinds import KIND_NAMES, build_kinds


@pytest.fixture(scope="module")
def kinds(tmp_path_factory):
    return build_kinds(tmp_path_factory.mktemp("fuzz"))


@pytest.fixture(scope="module")
def originals(kinds):
    return {name: kind.load() for name, kind in kinds.items()}


@pytest.mark.parametrize("name", KIND_NAMES)
@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_damage_is_refused_typed_or_harmless(kinds, originals, name, data):
    kind = kinds[name]
    path = data.draw(st.sampled_from(kind.files), label="file")
    good = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(0, len(good) - 1), label="cut at")
        bad = good[:cut]
    else:
        bit = data.draw(st.integers(0, 8 * len(good) - 1), label="flip bit")
        flipped = bytearray(good)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad = bytes(flipped)
    path.write_bytes(bad)
    try:
        loaded = kind.load()
    except kind.typed as exc:
        assert type(exc) in kind.typed, exc
    else:
        if kind.digested:
            assert path.suffix != ".npz", "damaged npz payload went unnoticed"
            assert loaded == originals[name]
    finally:
        path.write_bytes(good)
