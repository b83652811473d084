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
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.data.attributes import AttributeSet, DiscreteAttribute, RealAttribute
from repro.engine.classification import Classification, Scores
from repro.engine.search import SearchConfig, SearchResult, TryResult
from repro.models.base import TermParams
from repro.models.ignore import IgnoreParams
from repro.models.multinomial import MultinomialParams
from repro.models.multinormal import MultiNormalParams
from repro.models.normal import NormalMissingParams, NormalParams
from repro.models.registry import ModelSpec, parse_model_spec
from repro.models.summary import DataSummary

FORMAT_VERSION = 1

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
# schema / spec / summary encoding

def _encode_schema(schema: AttributeSet) -> list[dict]:
    out = []
    for attr in schema:
        if isinstance(attr, RealAttribute):
            out.append({"kind": "real", "name": attr.name, "error": attr.error})
        else:
            assert isinstance(attr, DiscreteAttribute)
            out.append(
                {
                    "kind": "discrete",
                    "name": attr.name,
                    "arity": attr.arity,
                    "symbols": list(attr.symbols),
                }
            )
    return out


def _decode_schema(items: list[dict]) -> AttributeSet:
    attrs = []
    for item in items:
        if item["kind"] == "real":
            attrs.append(RealAttribute(item["name"], error=item["error"]))
        elif item["kind"] == "discrete":
            attrs.append(
                DiscreteAttribute(
                    item["name"],
                    arity=item["arity"],
                    symbols=tuple(item.get("symbols", ())),
                )
            )
        else:
            raise ResultsFormatError(f"unknown attribute kind {item['kind']!r}")
    return AttributeSet(tuple(attrs))


def _encode_spec(spec: ModelSpec) -> list[str]:
    lines = []
    for term in spec.terms:
        names = " ".join(spec.schema[i].name for i in term.attribute_indices)
        lines.append(f"{term.spec_name} {names}")
    return lines


def _encode_params(params: TermParams) -> dict:
    out: dict = {}
    for f in fields(params):
        value = getattr(params, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _decode_params(spec_name: str, data: dict) -> TermParams:
    try:
        cls = _PARAMS_CLASSES[spec_name]
    except KeyError:
        raise ResultsFormatError(f"unknown term model {spec_name!r}") from None
    kwargs = {}
    for f in fields(cls):
        value = data[f.name]
        kwargs[f.name] = (
            np.asarray(value, dtype=np.float64)
            if isinstance(value, list)
            else value
        )
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# classification

def encode_classification(clf: Classification) -> dict:
    """The spec-relative body of a classification: parameters + scores.

    Shared by the results file (which prefixes schema, prior anchors
    and model form, so it loads with no database) and the checkpoint
    (which stores the body alone and validates it against the live
    spec) — one codec, so the two formats cannot drift.
    """
    payload: dict = {
        "n_classes": clf.n_classes,
        "log_pi": clf.log_pi.tolist(),
        "term_params": [
            {"model": term.spec_name, "params": _encode_params(params)}
            for term, params in zip(clf.spec.terms, clf.term_params)
        ],
        "n_cycles": clf.n_cycles,
    }
    if clf.scores is not None:
        payload["scores"] = {
            "log_marginal_cs": clf.scores.log_marginal_cs,
            "log_lik_obs": clf.scores.log_lik_obs,
            "log_map_objective": clf.scores.log_map_objective,
            "w_j": clf.scores.w_j.tolist(),
            "n_items": clf.scores.n_items,
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
        scores = Scores(
            log_marginal_cs=s["log_marginal_cs"],
            log_lik_obs=s["log_lik_obs"],
            log_map_objective=s["log_map_objective"],
            w_j=np.asarray(s["w_j"], dtype=np.float64),
            n_items=s["n_items"],
        )
    return Classification(
        spec=spec,
        n_classes=data["n_classes"],
        log_pi=np.asarray(data["log_pi"], dtype=np.float64),
        term_params=tuple(term_params),
        scores=scores,
        n_cycles=data["n_cycles"],
    )


def classification_to_dict(
    clf: Classification, summary: DataSummary
) -> dict:
    """Encode a classification (with its prior anchors) as plain data."""
    return {
        "format_version": FORMAT_VERSION,
        "schema": _encode_schema(clf.spec.schema),
        "summary_moments": _summary_moments(summary).tolist(),
        "spec": _encode_spec(clf.spec),
        **encode_classification(clf),
    }


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


def classification_from_dict(payload: dict) -> tuple[Classification, DataSummary]:
    """Rebuild a classification (and its summary) from plain data."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ResultsFormatError(
            f"results format version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    schema = _decode_schema(payload["schema"])
    summary = DataSummary.from_moments(
        schema, np.asarray(payload["summary_moments"], dtype=np.float64)
    )
    spec = parse_model_spec("\n".join(payload["spec"]), schema, summary)
    return decode_classification(payload, spec), summary


def save_classification(
    clf: Classification, summary: DataSummary, path: str | Path
) -> None:
    """Write one classification as a ``.results.json`` file."""
    Path(path).write_text(
        json.dumps(classification_to_dict(clf, summary), indent=1),
        encoding="utf-8",
    )


def load_classification(path: str | Path) -> tuple[Classification, DataSummary]:
    """Read a classification back; needs no database."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ResultsFormatError(f"not a results file: {exc}") from exc
    return classification_from_dict(payload)


# ---------------------------------------------------------------------------
# whole search results

def save_search_result(
    result: SearchResult, summary: DataSummary, path: str | Path
) -> None:
    """Persist a whole BIG_LOOP outcome (all tries + config)."""
    cfg = result.config
    payload = {
        "format_version": FORMAT_VERSION,
        "config": {
            "start_j_list": list(cfg.start_j_list),
            "max_n_tries": cfg.max_n_tries,
            "rel_delta": cfg.rel_delta,
            "n_consecutive": cfg.n_consecutive,
            "max_cycles": cfg.max_cycles,
            "init_method": cfg.init_method,
            "seed": cfg.seed,
            "duplicate_eps": cfg.duplicate_eps,
            "max_seconds": cfg.max_seconds,
        },
        "tries": [
            {
                "try_index": t.try_index,
                "n_classes_requested": t.n_classes_requested,
                "converged": t.converged,
                "n_cycles": t.n_cycles,
                "duplicate_of": t.duplicate_of,
                "classification": classification_to_dict(
                    t.classification, summary
                ),
            }
            for t in result.tries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_search_result(path: str | Path) -> SearchResult:
    """Read a persisted search back into a :class:`SearchResult`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ResultsFormatError(f"not a results file: {exc}") from exc
    if payload.get("format_version") != FORMAT_VERSION:
        raise ResultsFormatError("unsupported results format version")
    cfg_data = payload["config"]
    config = SearchConfig(
        start_j_list=tuple(cfg_data["start_j_list"]),
        max_n_tries=cfg_data["max_n_tries"],
        rel_delta=cfg_data["rel_delta"],
        n_consecutive=cfg_data["n_consecutive"],
        max_cycles=cfg_data["max_cycles"],
        init_method=cfg_data["init_method"],
        seed=cfg_data["seed"],
        duplicate_eps=cfg_data["duplicate_eps"],
        max_seconds=cfg_data.get("max_seconds"),
    )
    result = SearchResult(config=config)
    for entry in payload["tries"]:
        clf, _summary = classification_from_dict(entry["classification"])
        result.tries.append(
            TryResult(
                try_index=entry["try_index"],
                n_classes_requested=entry["n_classes_requested"],
                classification=clf,
                converged=entry["converged"],
                n_cycles=entry["n_cycles"],
                duplicate_of=entry["duplicate_of"],
            )
        )
    return result
