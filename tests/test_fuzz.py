"""Seeded mutation fuzzing of model documents through `predict` and of
scene specs through `synth`.

Each model case mutates a fitted model document (a deleted or retyped
field, a non-finite, negative or huge number, or a value no fit produces:
theta out of range, `lam` outside [0, 1], a bad truncation, bad counts or
bad fit settings), runs `predict` in-process and checks that the CLI exits
0 with finite predictions or exits 3 with a message, and never raises.

Each scene case deletes or retypes a field of a small scene spec, or sets a
number of it from NUMBERS, runs `synth` in-process and checks that the CLI
exits 0 with finite outputs or exits 2, 3 or 4 with a message, and never
raises.
"""

import json
import math

import numpy as np
import pytest

from orevine.cli import main
from orevine.descriptors import Dataset
from orevine.model import fit_composite
from orevine.persist import composite_to_doc
from orevine.synth import (Primitive, SceneSpec, benchmark_truth,
                           generate_composite_dataset)
from orevine.voxel import read_volume

SEEDS = (0, 1, 2, 3)
CASES_PER_SEED = 40
NUMBERS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300, -1e300, 2.5)
RETYPES = ("x", [], {}, None, True, 7, [1.0, 2.0])


@pytest.fixture(scope="module")
def base_documents():
    ds = generate_composite_dataset(benchmark_truth(), 15, 15, 15, seed=5)
    return [composite_to_doc(fit_composite(ds, engine=engine, min_rows=10))
            for engine in ("rvine", "archimedean")]


def paths(node, prefix=()):
    """Every path below `node`, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def delete_field(doc, rng):
    path = pick(rng, list(paths(doc)))
    del get(doc, path[:-1])[path[-1]]
    return f"delete {path}"


def retype_field(doc, rng):
    path = pick(rng, list(paths(doc)))
    value = pick(rng, RETYPES)
    get(doc, path[:-1])[path[-1]] = value
    return f"set {path} = {value!r}"


def bad_number(doc, rng):
    numeric = [p for p in paths(doc) if type(get(doc, p)) in (int, float)]
    path = pick(rng, numeric)
    value = pick(rng, NUMBERS)
    get(doc, path[:-1])[path[-1]] = value
    return f"set {path} = {value!r}"


def submodel(doc, rng):
    name = pick(rng, ["valuable", "non_valuable", "composite"])
    return name, doc["submodels"][name]


def bad_theta(doc, rng):
    name, sub = submodel(doc, rng)
    family = pick(rng, ["clayton", "gumbel", "joe", "frank"])
    theta = pick(rng, [-50.0, 0.0, 0.5, 1e6, math.nan])
    target = (pick(rng, sub["edges"]) if sub["type"] == "rvine" else sub)
    target.update(family=family, theta=theta)
    return f"{name} theta {family} {theta!r}"


def bad_weight(doc, rng):
    name, sub = submodel(doc, rng)
    lam = pick(rng, [-0.5, 1.5, math.nan, -1e-9])
    pick(rng, sub["marginals"])["lam"] = lam
    return f"{name} lam {lam!r}"


def bad_truncation(doc, rng):
    name, sub = submodel(doc, rng)
    truncation = pick(rng, [[0.99, 0.01], [-1.0, 2.0], [0.5, 0.5], [0.1],
                            [math.nan, 0.9], [0.01, 0.99, 0.5]])
    pick(rng, sub["marginals"])["truncation"] = truncation
    return f"{name} truncation {truncation!r}"


def bad_counts(doc, rng):
    counts = pick(rng, [{"valuable": -1}, {"composite": 1.5},
                        {"non_valuable": "3"},
                        {"valuable": 0, "non_valuable": 0, "composite": 0},
                        {"valuable": 10 ** 400}])
    doc["counts"].update(counts)
    return f"counts {counts}"


def bad_settings(doc, rng):
    settings = pick(rng, [{"candidates": ["normal"]}, {"candidates": []},
                          {"candidates": "frank"}, {"candidates": [1]},
                          {"min_rows": 0}, {"min_rows": 2.5},
                          {"min_rows": None}, {"em_tol": math.nan},
                          {"em_tol": -1.0}, {"em_tol": math.inf},
                          {"em_tol": "1e-8"}])
    doc["settings"].update(settings)
    return f"settings {settings}"


MUTATIONS = (delete_field, retype_field, bad_number, bad_theta, bad_weight,
             bad_truncation, bad_counts, bad_settings)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_model_document(tmp_path, capsys, base_documents, seed):
    rows = generate_composite_dataset(benchmark_truth(), 1, 1, 1, seed=seed)
    data = tmp_path / "rows.csv"
    rows.to_csv(data)
    out = tmp_path / "pred.csv"
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(CASES_PER_SEED):
        doc = json.loads(json.dumps(pick(rng, base_documents)))
        what = pick(rng, MUTATIONS)(doc, rng)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        try:
            rc = main(["predict", "--model", str(model), "--data", str(data),
                       "--out", str(out)])
        except Exception as exc:  # an escape is the finding this test reports
            problems.append(f"case {case} ({what}): raised {exc!r}")
            continue
        err = capsys.readouterr().err
        if rc not in (0, 3):
            problems.append(f"case {case} ({what}): exit {rc}")
        elif rc != 0 and not err.strip():
            problems.append(f"case {case} ({what}): exit {rc} without a message")
        elif rc == 0:
            values = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
            if not all(v == "" or math.isfinite(float(v)) for v in values):
                problems.append(f"case {case} ({what}): predictions {values}")
    assert problems == []


SCENE_CASES_PER_SEED = 100

# a scene mutation never makes `dims` or a count large: NUMBERS are floats,
# which an integer field rejects, and RETYPES hold no integer above 7, so no
# volume is bigger than this one
SCENE = json.loads(SceneSpec(
    dims=(14, 12, 10),
    particles=(Primitive("ball", (4.0, 5.5, 5.0), radius=3.0, gray_mean=2.0, vfvm=0.4),
               Primitive("box", (10.5, 6.0, 5.0), size=(4.0, 5.0, 3.0),
                         angles=(20.0, 30.0, 40.0), vfvm=0.7)),
    phase_planes=((2, 5), (0, 4)), seed=3).to_json())


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_scene_spec(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(SCENE_CASES_PER_SEED):
        doc = json.loads(json.dumps(SCENE))
        what = pick(rng, (delete_field, retype_field, bad_number))(doc, rng)
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(doc))
        prefix = tmp_path / f"case{case}"
        try:
            rc = main(["synth", "--spec", str(spec), "--out-prefix", str(prefix)])
        except Exception as exc:  # an escape is the finding this test reports
            problems.append(f"case {case} ({what}): raised {exc!r}")
            continue
        err = capsys.readouterr().err
        if rc not in (0, 2, 3, 4):
            problems.append(f"case {case} ({what}): exit {rc}")
        elif rc != 0 and not err.strip():
            problems.append(f"case {case} ({what}): exit {rc} without a message")
        elif rc == 0:
            matrix = Dataset.from_csv(f"{prefix}_dataset.csv").matrix
            values = read_volume(f"{prefix}_volume.raw").values
            if not (np.all(np.isfinite(matrix[:, :-1]))
                    and np.all(np.isfinite(values))):
                problems.append(f"case {case} ({what}): non-finite output")
    assert problems == []
