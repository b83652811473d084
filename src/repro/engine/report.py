"""AutoClass-style result reports.

AutoClass's report generator lists, for the best classification, each
class by weight with its most *influential* attributes — those whose
class-conditional distribution diverges most from the global one.  This
module reproduces that report: influence values are per-term KL
divergences against the single-class (global) parameters, and items can
be hard-assigned for the membership listing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.database import Database
from repro.engine.classification import Classification
from repro.engine.wts import compute_log_joint
from repro.util.logspace import log_normalize_rows
from repro.util.tables import format_table


@dataclass(frozen=True)
class ClassReport:
    """One class of the final classification."""

    class_index: int
    weight: float  # normalized class weight pi_j
    n_members: float  # total membership weight w_j
    #: (attribute names, influence) sorted by descending influence.
    influences: tuple[tuple[str, float], ...]


def membership(db: Database, clf: Classification) -> tuple[np.ndarray, np.ndarray]:
    """Posterior membership of every item of one in-memory block.

    Returns ``(wts, hard)``: the ``(n_items, n_classes)`` weight matrix
    and the argmax hard assignment.  Whole-database consumers call it
    per ``db.iter_chunks()`` chunk, so a shard view streams.
    """
    wts, _ = log_normalize_rows(compute_log_joint(db, clf))
    return wts, np.argmax(wts, axis=1)


def class_sizes(db, clf: Classification) -> tuple[np.ndarray, np.ndarray]:
    """``(w_j, counts)``: soft and hard class sizes, ``(n_classes,)`` each.

    Reduced per chunk — summed ``w_j``, bincounted hard labels — so a
    :class:`~repro.data.shards.ShardedDatabase` view streams with
    O(chunk x n_classes) heap.
    """
    w_j = np.zeros(clf.n_classes)
    counts = np.zeros(clf.n_classes, dtype=np.int64)
    for chunk in db.iter_chunks():
        wts, hard = membership(chunk, clf)
        w_j += wts.sum(axis=0)
        counts += np.bincount(hard, minlength=clf.n_classes)
    return w_j, counts


def influence_values(db, clf: Classification) -> np.ndarray:
    """``(n_classes, n_terms)`` influence of each term on each class.

    Influence of term t on class j = KL(class-j term distribution ||
    global single-class term distribution), AutoClass's "influence
    value" diagnostic.  The global statistics are summed per chunk.
    """
    stats = None
    for chunk in db.iter_chunks():
        part = [term.global_stats(chunk) for term in clf.spec.terms]
        stats = part if stats is None else [
            a + b for a, b in zip(stats, part)
        ]
    out = np.empty((clf.n_classes, clf.spec.n_terms))
    for t, (term, params) in enumerate(zip(clf.spec.terms, clf.term_params)):
        out[:, t] = term.influence(params, term.map_params(stats[t]))
    return out


def class_reports(db, clf: Classification) -> list[ClassReport]:
    """Per-class reports sorted by descending class weight."""
    w_j, _counts = class_sizes(db, clf)
    pi = clf.pi
    infl = influence_values(db, clf)
    term_names = [
        "/".join(clf.spec.schema[i].name for i in term.attribute_indices)
        for term in clf.spec.terms
    ]
    reports = []
    for j in np.argsort(-pi):
        pairs = sorted(
            zip(term_names, infl[j]), key=lambda nv: -nv[1]
        )
        reports.append(
            ClassReport(
                class_index=int(j),
                weight=float(pi[j]),
                n_members=float(w_j[j]),
                influences=tuple((n, float(v)) for n, v in pairs),
            )
        )
    return reports


def classification_report(db, clf: Classification) -> str:
    """Human-readable report of a classification (AutoClass ``.rlog`` style)."""
    reports = class_reports(db, clf)
    header = [clf.describe(), ""]
    rows = []
    for r in reports:
        top = ", ".join(f"{name}={value:.3f}" for name, value in r.influences[:3])
        rows.append(
            (r.class_index, f"{r.weight:.4f}", f"{r.n_members:.1f}", top)
        )
    table = format_table(
        ["class", "weight", "members", "top influences (KL vs global)"],
        rows,
        title=f"Classes by weight (J={clf.n_classes})",
    )
    return "\n".join(header) + table
