"""Schema-versioned persistence for fitted models and run manifests.

Models are stored as a single JSON document (diffable, deterministic key
order) embedding the three class densities, their marginals, vine
structures, counts and fit settings.  Schema 3 stores each fact once: the
engine is the submodels' `type`, the atom width is epsilon, a vine's
dimension its number of marginals, and its edges' conditioned and
conditioning sets follow from the tree edges; Frank is at rotation 0.
Other schemas fail with a migration error.  Loading checks a document as
strictly as a fit (every key the writer emits, boolean flags, numbers
that are JSON numbers rather than booleans or strings, positive finite
component parameters, weights in [0, 1], thetas in the fitted
ranges, rotations a fit stores, non-negative integer counts, epsilon in
(0, 0.5), a valid vine, one submodel type, `FitSettings` valid for it, and
no truncation but the composition marginal's, to exactly (epsilon,
1 - epsilon)); a document that fails exits as a data error.  Every CLI run
also writes a manifest with the resolved configuration, its hash, the seed
and library versions.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .copulas import FIT_ROTATIONS, PairCopula
from .errors import ArgumentError, ParseError, SchemaError, StructuralError
from .marginals import BetaParams, GammaParams, MixtureModel
from .model import CompositeModel, FitSettings
from .vine import (
    ArchimedeanModel,
    RVineModel,
    RVineStructure,
    validate_structure,
)

SCHEMA_VERSION = 3


def _mixture_doc(m: MixtureModel) -> dict:
    comp = (lambda c: {"alpha": c.alpha, "beta": c.beta}
            if isinstance(c, GammaParams) else {"p": c.p, "q": c.q})
    return {"family": m.family, "comp1": comp(m.comp1), "comp2": comp(m.comp2),
            "lam": m.lam,
            "truncation": list(m.truncation) if m.truncation else None,
            "degenerate": m.degenerate}


def _mixture_from(doc: dict) -> MixtureModel:
    comp = (lambda c: GammaParams(_number(c, "alpha"), _number(c, "beta"))
            if doc["family"] == "gamma" else BetaParams(_number(c, "p"), _number(c, "q")))
    c1, c2 = comp(doc["comp1"]), comp(doc["comp2"])
    trunc = tuple(doc["truncation"]) if doc["truncation"] is not None else None
    return MixtureModel(doc["family"], c1, c2, _number(doc, "lam"), truncation=trunc,
                        degenerate=_flag(doc, "degenerate"))


def _flag(doc: dict, key: str) -> bool:
    if type(doc[key]) is not bool:
        raise ParseError(f"model document {key} {doc[key]!r} is not a boolean")
    return doc[key]


def _number(doc: dict, key: str) -> int | float:
    """A number of the document: a JSON int or float, never a boolean or a
    string."""
    if type(doc[key]) not in (int, float):
        raise ParseError(f"model document {key} {doc[key]!r} is not a number")
    return doc[key]


def _copula_doc(c: PairCopula) -> dict:
    return {"family": c.family, "rotation": c.rotation, "theta": c.theta,
            "fallback": c.fallback}


def _copula_from(doc: dict) -> PairCopula:
    # PairCopula admits exactly the thetas a fit stores
    theta = None if doc["theta"] is None else _number(doc, "theta")
    cop = PairCopula(doc["family"], doc["rotation"], theta, _flag(doc, "fallback"))
    if type(cop.rotation) is not int or cop.rotation not in FIT_ROTATIONS[cop.family]:
        raise ParseError(f"model document {cop.family} copula at rotation "
                         f"{cop.rotation}, which no fit stores")
    return cop


def _engine_doc(model) -> dict:
    if isinstance(model, RVineModel):
        tree_edges = [[list(e.nodes) for e in level]
                      for level in model.structure.levels]
        return {"type": "rvine", "tree_edges": tree_edges,
                "edges": [_copula_doc(c) for c in model.pair_copulas],
                "marginals": [_mixture_doc(m) for m in model.marginals]}
    if isinstance(model, ArchimedeanModel):
        return {"type": "archimedean", "family": model.family,
                "theta": model.theta,
                "marginals": [_mixture_doc(m) for m in model.marginals]}
    raise SchemaError(f"cannot serialize model of type {type(model).__name__}")


def _engine_from(doc: dict):
    marginals = tuple(_mixture_from(m) for m in doc["marginals"])
    if doc["type"] == "rvine":
        structure = RVineStructure.from_tree_edges(
            len(marginals),
            [[tuple(e) for e in level] for level in doc["tree_edges"]])
        copulas = tuple(_copula_from(e) for e in doc["edges"])
        model = RVineModel(structure, copulas, marginals)
        problem = validate_structure(model.structure)
        if problem is not None:
            raise StructuralError(f"model document vine is invalid: {problem}")
        return model
    if doc["type"] == "archimedean":
        return ArchimedeanModel(doc["family"], _number(doc, "theta"), marginals)
    raise SchemaError(f"unknown engine type {doc['type']!r}")


def composite_to_doc(model: CompositeModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "composite_model",
        "epsilon": model.epsilon,
        "settings": asdict(model.settings),
        "counts": {"valuable": model.n_v, "non_valuable": model.n_nv,
                   "composite": model.n_c},
        "submodels": {"valuable": _engine_doc(model.f_v),
                      "non_valuable": _engine_doc(model.f_nv),
                      "composite": _engine_doc(model.f_c)},
    }


def composite_from_doc(doc) -> CompositeModel:
    if not isinstance(doc, dict):
        raise ParseError(f"model document root is a {type(doc).__name__}, "
                         "not an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"model document schema {version!r} is not supported by this "
            f"build (expected {SCHEMA_VERSION}); migrate the document first")
    if doc.get("kind") != "composite_model":
        raise SchemaError(f"not a composite model document: {doc.get('kind')!r}")
    try:
        classes = ("valuable", "non_valuable", "composite")
        counts = [doc["counts"][c] for c in classes]
        if not (all(type(n) is int and n >= 0 for n in counts) and sum(counts) > 0):
            raise ParseError(f"model document counts {counts} must be "
                             "non-negative integers with a positive sum")
        f_v, f_nv, f_c = (_engine_from(doc["submodels"][c]) for c in classes)
        fit = doc["settings"]
        model = CompositeModel(f_v, f_nv, f_c, *counts,
                               epsilon=float(_number(doc, "epsilon")),
                               settings=FitSettings(fit["candidates"], fit["min_rows"],
                                                    _number(fit, "em_tol")))
        eps = model.epsilon
        # only the composite class's composition marginal, the last one,
        # is truncated, and to exactly the open composite band
        truncations = [m.truncation for f in (f_v, f_nv, f_c) for m in f.marginals]
        if truncations != [None] * (len(truncations) - 1) + [(eps, 1.0 - eps)]:
            raise ParseError(f"model document truncations {truncations} must be "
                             "null but for the composition marginal's "
                             f"(epsilon, 1 - epsilon) = ({eps!r}, {1.0 - eps!r})")
        return model
    except (KeyError, TypeError, ValueError, ArgumentError) as exc:
        # ArgumentError: a value outside what the model classes accept
        raise ParseError(f"malformed model document: {exc}") from exc


def save_model(path, model: CompositeModel) -> None:
    Path(path).write_text(json.dumps(composite_to_doc(model), indent=2,
                                     sort_keys=True))


def load_model(path) -> CompositeModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    return composite_from_doc(doc)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, command: str, config: dict, seed=None) -> None:
    doc = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": {
            "orevine": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))
