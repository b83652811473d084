"""Persisting classifications — AutoClass's results files.

Figure 1's final step is "Store Results on the Output Files", and the
BIG_LOOP "store[s] partial results" so long searches survive restarts.
This module provides that: a JSON results format that round-trips a
:class:`~repro.engine.classification.Classification` (and a whole
:class:`~repro.engine.search.SearchResult`) exactly — schema, prior
anchors (summary moments), model form, per-class parameters, and
scores.  Loading requires no database: everything needed to classify
new items is in the file.

Floats survive the round trip bit-exactly (JSON serialization uses
``repr``-faithful doubles), which the tests assert.

This module also holds the only codecs of the objects every on-disk
format shares — the classification body, the schema / prior-anchor /
model-form header, a try, the search config — which the checkpoint
(:mod:`repro.ckpt.format`) and the served artifact
(:mod:`repro.serve.artifact`) reuse; how a document reaches the disk
and is verified on the way back is :mod:`repro.util.docfile`'s.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.data.attributes import AttributeSet, RealAttribute
from repro.engine.classification import Classification, Scores
from repro.engine.search import SearchConfig, SearchResult, TryResult
from repro.models.base import TermParams
from repro.models.ignore import IgnoreParams
from repro.models.multinomial import MultinomialParams
from repro.models.multinormal import MultiNormalParams
from repro.models.normal import NormalMissingParams, NormalParams
from repro.models.registry import ModelSpec, parse_model_spec
from repro.models.summary import DataSummary
from repro.util.docfile import decoding, read_json, write_json

#: Version 2 writes the schema / prior anchors / model form of a search
#: once per file instead of once per try; version 1 files are refused.
FORMAT_VERSION = 2

#: ``kind`` of a one-classification file / of a whole-search file.
CLASSIFICATION_KIND = "pautoclass-classification"
SEARCH_KIND = "pautoclass-search"

#: TermParams class per term spec name (single registry for loading).
_PARAMS_CLASSES: dict[str, type[TermParams]] = {
    "ignore": IgnoreParams,
    "single_multinomial": MultinomialParams,
    "single_normal_cn": NormalParams,
    "single_normal_cm": NormalMissingParams,
    "multi_normal_cn": MultiNormalParams,
}


class ResultsFormatError(ValueError):
    """Raised for unreadable or version-mismatched results files."""


# ---------------------------------------------------------------------------
# classification body (spec-relative: parameters + scores)
#
# Encoders leave ndarray leaves as they are: ``docfile.write_json``
# inlines them as lists, the artifact hoists them into its npz, the
# checkpoint embeds them as base64.  The decoder accepts either form.

def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _decode_params(spec_name: str, data: dict) -> TermParams:
    try:
        cls = _PARAMS_CLASSES[spec_name]
    except KeyError:
        raise ValueError(f"unknown term model {spec_name!r}") from None
    kwargs = {}
    for f in fields(cls):
        value = data[f.name]
        if isinstance(value, dict):  # e.g. an array reference left unresolved
            raise ValueError(f"parameter {f.name!r} is not a number or array")
        kwargs[f.name] = (
            _array(value) if isinstance(value, (list, np.ndarray)) else value
        )
    return cls(**kwargs)


def encode_classification(clf: Classification) -> dict:
    """The spec-relative body of a classification: parameters + scores.

    The one classification codec: the results file and the artifact
    prefix it with schema, prior anchors and model form (so they load
    with no database), the checkpoint stores the body alone and
    validates it against the live spec.
    """
    payload: dict = {
        "n_classes": clf.n_classes,
        "log_pi": clf.log_pi,
        "term_params": [
            {
                "model": term.spec_name,
                "params": {
                    f.name: getattr(params, f.name) for f in fields(params)
                },
            }
            for term, params in zip(clf.spec.terms, clf.term_params)
        ],
        "n_cycles": clf.n_cycles,
    }
    if clf.scores is not None:
        payload["scores"] = {
            f.name: getattr(clf.scores, f.name) for f in fields(Scores)
        }
    return payload


def decode_classification(
    data: dict, spec: ModelSpec, error: type[Exception] = ResultsFormatError
) -> Classification:
    """Rebuild a classification body against ``spec``.

    A body whose term blocks do not match the spec's terms raises
    ``error`` — each file format keeps its own exception type.
    """
    entries = data["term_params"]
    if len(entries) != spec.n_terms:
        raise error(
            f"{len(entries)} term-parameter blocks for a "
            f"{spec.n_terms}-term model"
        )
    term_params = []
    for term, entry in zip(spec.terms, entries):
        if entry["model"] != term.spec_name:
            raise error(
                f"term model mismatch: spec says {term.spec_name!r}, "
                f"file says {entry['model']!r}"
            )
        term_params.append(_decode_params(entry["model"], entry["params"]))
    scores = None
    if "scores" in data:
        s = data["scores"]
        scores = Scores(**{**s, "w_j": _array(s["w_j"])})
    return Classification(
        spec=spec,
        n_classes=data["n_classes"],
        log_pi=_array(data["log_pi"]),
        term_params=tuple(term_params),
        scores=scores,
        n_cycles=data["n_cycles"],
    )


# ---------------------------------------------------------------------------
# model header: schema + prior anchors + model form

def _summary_moments(summary: DataSummary) -> np.ndarray:
    """Reconstruct the additive moment vector a summary came from."""
    schema = summary.schema
    out = np.zeros(1 + 4 * len(schema), dtype=np.float64)
    out[0] = summary.n_items
    for i, attr in enumerate(schema):
        info = summary.attributes[i]
        base = 1 + 4 * i
        out[base] = info.n_present
        out[base + 1] = info.n_missing
        if isinstance(attr, RealAttribute):
            out[base + 2] = info.mean * info.n_present
            out[base + 3] = (info.var + info.mean**2) * info.n_present
    return out


def encode_header(spec: ModelSpec, summary: DataSummary) -> dict:
    """Everything needed to rebuild ``spec`` with no database."""
    return {
        "schema": spec.schema.to_dicts(),
        "summary_moments": _summary_moments(summary),
        "spec": [
            f"{term.spec_name} "
            + " ".join(spec.schema[i].name for i in term.attribute_indices)
            for term in spec.terms
        ],
    }


def decode_header(doc: dict) -> tuple[ModelSpec, DataSummary]:
    schema = AttributeSet.from_dicts(doc["schema"])
    summary = DataSummary.from_moments(schema, _array(doc["summary_moments"]))
    return parse_model_spec("\n".join(doc["spec"]), schema, summary), summary


def classification_to_dict(
    clf: Classification, summary: DataSummary
) -> dict:
    """A self-contained classification: header + body, as plain data."""
    return {**encode_header(clf.spec, summary), **encode_classification(clf)}


def classification_from_dict(
    doc: dict, error: type[Exception] = ResultsFormatError
) -> tuple[Classification, DataSummary]:
    """Inverse of :func:`classification_to_dict`; malformed → ``error``."""
    with decoding("classification", error):
        spec, summary = decode_header(doc)
        return decode_classification(doc, spec, error), summary


# ---------------------------------------------------------------------------
# tries and search config (shared with the checkpoint format)

def encode_try(t: TryResult) -> dict:
    return {
        "try_index": t.try_index,
        "n_classes_requested": t.n_classes_requested,
        "converged": t.converged,
        "n_cycles": t.n_cycles,
        "duplicate_of": t.duplicate_of,
        "classification": encode_classification(t.classification),
    }


def decode_try(
    entry: dict, spec: ModelSpec, error: type[Exception] = ResultsFormatError
) -> TryResult:
    return TryResult(
        try_index=entry["try_index"],
        n_classes_requested=entry["n_classes_requested"],
        classification=decode_classification(
            entry["classification"], spec, error
        ),
        converged=entry["converged"],
        n_cycles=entry["n_cycles"],
        duplicate_of=entry["duplicate_of"],
    )


def encode_config(config: SearchConfig) -> dict:
    return asdict(config)


def decode_config(data: dict) -> SearchConfig:
    return SearchConfig(
        **{**data, "start_j_list": tuple(data["start_j_list"])}
    )


# ---------------------------------------------------------------------------
# files

def _read(path: str | Path, kind: str) -> dict:
    return read_json(
        path, what="results", error=ResultsFormatError,
        kind=("kind", kind), version=("format_version", FORMAT_VERSION),
    )


def save_classification(
    clf: Classification, summary: DataSummary, path: str | Path
) -> None:
    """Write one classification as a ``.results.json`` file."""
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": CLASSIFICATION_KIND,
        **classification_to_dict(clf, summary),
    })


def load_classification(path: str | Path) -> tuple[Classification, DataSummary]:
    """Read a classification back; needs no database."""
    return classification_from_dict(_read(path, CLASSIFICATION_KIND))


def save_search_result(
    result: SearchResult, summary: DataSummary, path: str | Path
) -> None:
    """Persist a whole BIG_LOOP outcome (all tries + config)."""
    write_json(path, {
        "format_version": FORMAT_VERSION,
        "kind": SEARCH_KIND,
        "config": encode_config(result.config),
        **encode_header(result.best.classification.spec, summary),
        "tries": [encode_try(t) for t in result.tries],
    })


def load_search_result(path: str | Path) -> SearchResult:
    """Read a persisted search back into a :class:`SearchResult`."""
    doc = _read(path, SEARCH_KIND)
    with decoding("results file", ResultsFormatError):
        spec, _summary = decode_header(doc)
        return SearchResult(
            config=decode_config(doc["config"]),
            tries=[decode_try(entry, spec) for entry in doc["tries"]],
        )
