"""The plan's one in-place design equals the per-term concatenation.

Each term writes its columns straight into its slice of one C-order
``(n_items, n_stats)`` array.  Where a column lands must not change a
bit of it, so the design equals, bitwise, the per-term blocks written
into fresh arrays and concatenated; the GEMMs against it, and with them
the golden corpus, stay bitwise.
"""

import numpy as np
import pytest

from repro.data.shards import TILE_ITEMS, ShardedDatabase, as_chunk_iterable
from repro.data.synth import make_mixed_database
from repro.kernels.plan import KernelPlan
from repro.models.ignore import IgnoreTerm
from repro.models.multinomial import MultinomialTerm
from repro.models.multinormal import MultiNormalTerm
from repro.models.normal import NormalMissingTerm, NormalTerm
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary


@pytest.fixture(scope="module")
def db():
    db, _ = make_mixed_database(
        TILE_ITEMS + 500, n_real=4, n_discrete=3, arity=4, missing_rate=0.1, seed=5
    )
    return db


@pytest.fixture(scope="module")
def spec(db):
    """Every built-in term kind, over cells with missing values."""
    schema, summary = db.schema, DataSummary.from_database(db)
    real, disc = schema.real_indices, schema.discrete_indices
    terms = (
        NormalTerm(real[0], schema[real[0]], summary),
        NormalMissingTerm(real[1], schema[real[1]], summary),
        MultiNormalTerm(
            (real[2], real[3]), (schema[real[2]], schema[real[3]]), summary
        ),
        MultinomialTerm(disc[0], schema[disc[0]], model_missing=True),
        MultinomialTerm(disc[1], schema[disc[1]], model_missing=False),
        IgnoreTerm(disc[2]),
    )
    return ModelSpec(schema=schema, terms=terms)


def concatenated(db, spec):
    """Each term's block in a fresh array, then concatenated."""
    blocks = []
    for term in spec.terms:
        block = np.full((db.n_items, term.n_stats), np.nan)
        term.design_columns(db, block)
        blocks.append(block)
    design = np.concatenate([np.empty((db.n_items, 0)), *blocks], axis=1)
    return np.ascontiguousarray(design, dtype=np.float64)


def assert_one_owned_design(plan, db, spec):
    design = plan.design
    assert design.shape == (db.n_items, spec.n_stats)
    assert design.dtype == np.float64
    assert design.flags.c_contiguous and design.flags.owndata
    assert not design.flags.writeable
    assert np.array_equal(design, concatenated(db, spec))


def test_every_term_kind_is_covered(db, spec):
    kinds = {term.spec_name for term in spec.terms}
    assert kinds == {
        "single_normal_cn", "single_normal_cm", "multi_normal_cn",
        "single_multinomial", "ignore",
    }
    for term in spec.terms:
        assert any(db.missing[i].any() for i in term.attribute_indices)


def test_in_place_design_equals_concatenation(db, spec):
    assert_one_owned_design(KernelPlan(db, spec), db, spec)


def test_tile_and_shard_chunk_designs(db, spec, tmp_path):
    """Zero-copy tile views and mapped shard chunks build the same way."""
    sdb = ShardedDatabase.from_database(db, tmp_path / "s", shard_items=1500)
    chunks = (*as_chunk_iterable(db), *as_chunk_iterable(sdb))
    assert len(chunks) == 2 + 4
    for chunk in chunks:
        assert_one_owned_design(KernelPlan(chunk, spec), chunk, spec)
