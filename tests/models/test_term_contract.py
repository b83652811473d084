"""The TermModel contract, pinned.

Every abstract method is one more thing each term must implement and
the differential tests must cover, so adding (or dropping) one has to be
a deliberate diff of this file.  The GEMM pair (``design_columns`` /
``loglik_coefficients``) is required: the fused E/M path has no per-term
fallback.
"""

import pytest

from repro.models.base import TermModel
from repro.models.ignore import IgnoreTerm
from repro.models.multinomial import MultinomialTerm
from repro.models.multinormal import MultiNormalTerm
from repro.models.normal import NormalMissingTerm, NormalTerm

ABSTRACT_METHODS = frozenset({
    "accumulate_stats", "attribute_indices", "design_columns", "influence",
    "log_likelihood", "log_marginal", "log_prior_density",
    "loglik_coefficients", "map_params", "n_free_params", "n_stats",
    "validate",
})

BUILT_IN_TERMS = (
    IgnoreTerm, MultinomialTerm, MultiNormalTerm, NormalMissingTerm,
    NormalTerm,
)


def test_abstract_methods_are_exactly_the_pinned_ones():
    assert TermModel.__abstractmethods__ == ABSTRACT_METHODS


@pytest.mark.parametrize("missing", ["design_columns", "loglik_coefficients"])
def test_a_term_without_the_gemm_pair_cannot_be_built(missing):
    """Subclass the complete ``NormalTerm`` but re-abstract one of the
    pair: construction fails (before ``__init__`` even runs)."""
    partial = type(
        "Partial", (NormalTerm,),
        {missing: TermModel.__dict__[missing]},
    )
    assert partial.__abstractmethods__ == {missing}
    with pytest.raises(TypeError, match=missing):
        partial(0, None, None)


@pytest.mark.parametrize("cls", BUILT_IN_TERMS, ids=lambda c: c.spec_name)
def test_no_built_in_term_carries_the_removed_fallback(cls):
    assert not cls.__abstractmethods__
    for name in ("encode", "log_likelihood_into"):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
