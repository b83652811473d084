"""Detailed report files — AutoClass's ``.rlog`` output.

AutoClass C's report generator writes, for the best classification,
each class's full parameterization: for every attribute, the class-
conditional distribution (mean and sigma for reals, the top symbol
probabilities for discretes), ordered by influence, plus the class
weights and the classification's scores.  :func:`detailed_report`
reproduces that document; :func:`write_report` puts it in a file next
to the results.

This is the human-consumption counterpart of
:mod:`repro.engine.results_io` (exact machine round-trip) and the
long-form version of :func:`repro.engine.report.classification_report`
(the one-table summary).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.database import Database
from repro.engine.classification import Classification
from repro.engine.report import class_reports, class_sizes, influence_values
from repro.models.ignore import IgnoreTerm
from repro.models.multinomial import MultinomialParams, MultinomialTerm
from repro.models.multinormal import MultiNormalParams, MultiNormalTerm
from repro.models.normal import NormalMissingParams, NormalParams

#: How many symbols of a multinomial to list per class.
TOP_SYMBOLS = 4


def _describe_term(term, params, j: int, schema) -> list[str]:
    """Lines describing class ``j``'s distribution under one term."""
    names = "/".join(schema[i].name for i in term.attribute_indices)
    if isinstance(term, IgnoreTerm):
        return [f"    {names}: ignored"]
    if isinstance(term, MultinomialTerm):
        assert isinstance(params, MultinomialParams)
        attr = schema[term.attribute_indices[0]]
        probs = params.p[j]
        order = np.argsort(-probs)[:TOP_SYMBOLS]
        cells = []
        for code in order:
            label = (
                "<unknown>"
                if term.model_missing and code == attr.arity
                else attr.symbol(int(code))
            )
            cells.append(f"{label}={probs[code]:.3f}")
        more = term.n_cells - len(order)
        suffix = f" (+{more} more)" if more > 0 else ""
        return [f"    {names}: multinomial  " + "  ".join(cells) + suffix]
    if isinstance(params, NormalMissingParams):
        return [
            f"    {names}: normal  mu={params.mu[j]:.4g}  "
            f"sigma={params.sigma[j]:.4g}  "
            f"P(present)={params.p_present[j]:.3f}"
        ]
    if isinstance(params, NormalParams):
        return [
            f"    {names}: normal  mu={params.mu[j]:.4g}  "
            f"sigma={params.sigma[j]:.4g}"
        ]
    if isinstance(term, MultiNormalTerm):
        assert isinstance(params, MultiNormalParams)
        lines = [f"    {names}: multivariate normal"]
        mu = params.mu[j]
        sigma = params.sigma[j]
        stds = np.sqrt(np.diag(sigma))
        for local_i, attr_idx in enumerate(term.attribute_indices):
            lines.append(
                f"      {schema[attr_idx].name}: mu={mu[local_i]:.4g}  "
                f"sigma={stds[local_i]:.4g}"
            )
        # Correlations above the diagonal, only the meaningful ones.
        d = term.dim
        corr_cells = []
        for a in range(d):
            for b in range(a + 1, d):
                rho = sigma[a, b] / (stds[a] * stds[b])
                if abs(rho) >= 0.05:
                    corr_cells.append(
                        f"corr({schema[term.attribute_indices[a]].name},"
                        f"{schema[term.attribute_indices[b]].name})={rho:+.2f}"
                    )
        if corr_cells:
            lines.append("      " + "  ".join(corr_cells))
        return lines
    raise TypeError(f"no report renderer for term {type(term).__name__}")


def detailed_report(db: Database, clf: Classification) -> str:
    """The full AutoClass-style report of one classification."""
    scores = clf.scores
    lines = [
        "=" * 70,
        "P-AutoClass classification report",
        "=" * 70,
        f"items: {db.n_items}    attributes: {len(db.schema)}    "
        f"classes: {clf.n_classes}",
    ]
    if scores is not None:
        lines.append(
            f"log P(X|T) ~= {scores.log_marginal_cs:.4f} (Cheeseman-Stutz)   "
            f"log P(X|V) = {scores.log_lik_obs:.4f}"
        )
        lines.append(f"populated classes: {scores.n_populated}")
    lines.append(
        f"model: {clf.spec.n_terms} terms, "
        f"{clf.spec.n_free_params(clf.n_classes)} free parameters"
    )
    lines.append(f"EM cycles: {clf.n_cycles}")
    lines.append("")

    _w_j, counts = class_sizes(db, clf)
    infl = influence_values(db, clf)
    for report in class_reports(db, clf):
        j = report.class_index
        lines.append("-" * 70)
        lines.append(
            f"CLASS {j}   weight pi={report.weight:.4f}   "
            f"soft members={report.n_members:.1f}   "
            f"hard members={int(counts[j])}"
        )
        lines.append("  attributes by influence (KL vs global):")
        order = np.argsort(-infl[j])
        for t in order:
            term = clf.spec.terms[t]
            lines.append(
                f"  [{infl[j][t]:7.3f}]"
            )
            body = _describe_term(term, clf.term_params[t], j, clf.spec.schema)
            # Merge the influence tag into the first body line.
            lines[-1] = lines[-1] + body[0][3:]
            lines.extend(body[1:])
    lines.append("=" * 70)
    return "\n".join(lines)


def write_report(db: Database, clf: Classification, path: str | Path) -> Path:
    """Write the detailed report to ``path`` (AutoClass's ``.rlog``)."""
    path = Path(path)
    path.write_text(detailed_report(db, clf) + "\n", encoding="utf-8")
    return path
