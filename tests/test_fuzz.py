"""Seeded mutation fuzzing of every file format the CLI reads.

Each model case mutates a fitted model document (a deleted or retyped
field, a non-finite, negative or huge number, or a value no fit produces:
theta out of range, `lam` outside [0, 1], a bad truncation, bad counts or
bad fit settings), runs `predict` in-process and checks that the CLI exits
0 with finite predictions or exits 3 with a message, and never raises.

Each scene case deletes or retypes a field of a small scene spec, or sets a
number of it from NUMBERS, runs `synth` in-process and checks that the CLI
exits 0 with finite outputs or exits 2, 3 or 4 with a message, and never
raises.

The same field mutations run on phase-slice JSON and volume sidecars
through `descriptors`.  Byte mutations (a flipped bit, a truncation, an
inserted 0xff byte) run on every format: model JSON through `predict`, the
scene spec through `synth`, volume and label files (raw with sidecar, and
container) and phase slices through `descriptors`, and the dataset CSV
through `fit`.  A fault of a file read by `predict` or `descriptors` must
exit 3; `synth` and `fit` may also exit 2 or 4.
"""

import json
import math

import numpy as np
import pytest

from orevine.cli import main
from orevine.descriptors import Dataset
from orevine.model import fit_composite
from orevine.persist import composite_to_doc, load_model
from orevine.synth import (Primitive, SceneSpec, benchmark_truth,
                           generate_composite_dataset, generate_scene)
from orevine.voxel import read_volume, write_labels, write_phase_slice, write_volume

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


def flip_bit(data, rng):
    at, bit = int(rng.integers(len(data))), int(rng.integers(8))
    flipped = data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
    return flipped, f"flip bit {bit} of byte {at}"


def truncate(data, rng):
    at = int(rng.integers(len(data)))
    return data[:at], f"truncate at byte {at}"


def insert_ff(data, rng):
    at = int(rng.integers(len(data) + 1))
    return data[:at] + b"\xff" + data[at:], f"insert 0xff at byte {at}"


def byte_mutation(data, rng):
    return pick(rng, (flip_bit, truncate, insert_ff))(data, rng)


BYTE_CASES_PER_SEED = 40


def run_cli(argv, capsys, codes, outputs_ok):
    """The problem of one in-process CLI run, or None.  A problem is an
    escaping exception, an exit code outside `codes`, a non-zero exit
    without a message, or, on exit 0, `outputs_ok()` false."""
    try:
        rc = main([str(a) for a in argv])
    except Exception as exc:  # an escape is the finding these tests report
        return f"raised {exc!r}"
    err = capsys.readouterr().err
    if rc not in codes:
        return f"exit {rc}"
    if rc != 0 and not err.strip():
        return f"exit {rc} without a message"
    if rc == 0 and not outputs_ok():
        return "non-finite output"
    return None


def predictions_finite(out):
    values = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    return all(v == "" or math.isfinite(float(v)) for v in values)


@pytest.mark.parametrize("seed", SEEDS)
def test_byte_mutated_model_document(tmp_path, capsys, base_documents, seed):
    rows = generate_composite_dataset(benchmark_truth(), 1, 1, 1, seed=seed)
    data, model, out = tmp_path / "rows.csv", tmp_path / "model.json", tmp_path / "pred.csv"
    rows.to_csv(data)
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(BYTE_CASES_PER_SEED):
        text = json.dumps(pick(rng, base_documents), indent=2).encode()
        mutated, what = byte_mutation(text, rng)
        model.write_bytes(mutated)
        out.unlink(missing_ok=True)
        problem = run_cli(["predict", "--model", model, "--data", data, "--out", out],
                          capsys, (0, 3), lambda: predictions_finite(out))
        if problem:
            problems.append(f"case {case} ({what}): {problem}")
    assert problems == []


def synth_outputs_finite(prefix):
    matrix = Dataset.from_csv(f"{prefix}_dataset.csv").matrix
    values = read_volume(f"{prefix}_volume.raw").values
    return np.all(np.isfinite(matrix[:, :-1])) and np.all(np.isfinite(values))


@pytest.mark.parametrize("seed", SEEDS)
def test_byte_mutated_scene_spec(tmp_path, capsys, seed):
    # a byte mutation changes one character, so at most one digit of `dims`
    # grows, to a 9: no volume is larger than 94 x 12 x 10
    text = json.dumps(SCENE, indent=2).encode()
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(BYTE_CASES_PER_SEED):
        mutated, what = byte_mutation(text, rng)
        spec = tmp_path / "scene.json"
        spec.write_bytes(mutated)
        prefix = tmp_path / f"case{case}"
        problem = run_cli(["synth", "--spec", spec, "--out-prefix", prefix],
                          capsys, (0, 2, 3, 4), lambda: synth_outputs_finite(prefix))
        if problem:
            problems.append(f"case {case} ({what}): {problem}")
    assert problems == []


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    """The bytes of SCENE's volume and labels, each as raw data plus sidecar
    (`.raw`, `.raw.json`) and as container (`.ovol`), and of its phase
    slices, by file name."""
    d = tmp_path_factory.mktemp("scene_files")
    volume, labels, slices = generate_scene(SceneSpec.from_json(json.dumps(SCENE)))
    for container in (False, True):
        suffix = ".ovol" if container else ".raw"
        write_volume(d / f"vol{suffix}", volume, container=container)
        write_labels(d / f"lab{suffix}", labels, container=container)
    for i, sl in enumerate(slices):
        write_phase_slice(d / f"phase{i}.json", sl)
    return {p.name: p.read_bytes() for p in d.iterdir()}


def field_mutation(data, rng):
    doc = json.loads(data)
    what = pick(rng, (delete_field, retype_field, bad_number))(doc, rng)
    return json.dumps(doc).encode(), what


def mutated_descriptors_run(directory, files, rng, mutate, suffix):
    """Write `files` (name -> bytes) to `directory`, one file that a
    `descriptors` run reads and whose name ends in `suffix` replaced by
    `mutate(its bytes, rng)`.  The volume and the labels are each read as
    raw data plus sidecar or as container, picked by `rng`.  Returns the
    run's argv and what was mutated."""
    vol, lab = pick(rng, ["vol.raw", "vol.ovol"]), pick(rng, ["lab.raw", "lab.ovol"])
    phases = sorted(name for name in files if name.startswith("phase"))
    read = [vol, lab, *phases] + [f"{f}.json" for f in (vol, lab) if f.endswith(".raw")]
    target = pick(rng, [name for name in read if name.endswith(suffix)])
    data, what = mutate(files[target], rng)
    directory.mkdir()
    for name, content in {**files, target: data}.items():
        (directory / name).write_bytes(content)
    argv = ["descriptors", "--volume", directory / vol, "--labels", directory / lab,
            "--phases", *(directory / name for name in phases), "--include-unmatched",
            "--out", directory / "desc.csv"]
    return argv, f"{target}: {what}"


def descriptors_outputs_finite(out):
    # `rat` is empty for a particle no slice meets
    return np.all(np.isfinite(Dataset.from_csv(out).matrix[:, :-1]))


VOXEL_CASES_PER_SEED = 40


@pytest.mark.parametrize("mutate, suffix", [(field_mutation, ".json"), (byte_mutation, "")],
                         ids=["fields", "bytes"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_voxel_files(tmp_path, capsys, scene_files, seed, mutate, suffix):
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(VOXEL_CASES_PER_SEED):
        argv, what = mutated_descriptors_run(tmp_path / f"case{case}", scene_files,
                                             rng, mutate, suffix)
        problem = run_cli(argv, capsys, (0, 3),
                          lambda: descriptors_outputs_finite(argv[-1]))
        if problem:
            problems.append(f"case {case} ({what}): {problem}")
    assert problems == []


@pytest.mark.parametrize("seed", SEEDS)
def test_byte_mutated_dataset_csv(tmp_path, capsys, seed):
    data, model = tmp_path / "rows.csv", tmp_path / "model.json"
    generate_composite_dataset(benchmark_truth(), 12, 12, 12, seed=5).to_csv(data)
    text = data.read_bytes()
    rng = np.random.default_rng(seed)
    problems = []
    for case in range(BYTE_CASES_PER_SEED):
        mutated, what = byte_mutation(text, rng)
        data.write_bytes(mutated)
        model.unlink(missing_ok=True)
        problem = run_cli(["fit", "--data", data, "--out", model, "--min-rows", 10],
                          capsys, (0, 2, 3, 4), lambda: load_model(model) is not None)
        if problem:
            problems.append(f"case {case} ({what}): {problem}")
    assert problems == []
