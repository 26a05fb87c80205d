import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from orevine.cli import main
from orevine.descriptors import Dataset
from orevine.model import CompositeModel, FitSettings, fit_composite, predict_vfvm
from orevine.persist import load_model, save_model
from orevine.synth import Primitive, SceneSpec, benchmark_truth, generate_composite_dataset
from orevine.voxel import (
    LabelVolume,
    PhaseSlice,
    VoxelVolume,
    write_labels,
    write_phase_slice,
    write_volume,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# SHA-256 of the synth dataset CSV and of the `descriptors --include-unmatched`
# CSV per fixture scene, written with the flush-face calipers box search
FIXTURE_CSV_DIGESTS = {
    "demo_scene": (
        "2bed9eda3fa62617b500071982cf932f44fc0e9e1c71ca3cd18d5e814e66dbde",
        "63002ee0004f2e243866c68d8484ce66ab83e67a5cf4bcdba1e6ace2455fdb41"),
    "six_particles": (
        "414a4a8b0393d0e612a03c3069f704106a3b5fc4ffaf1fa459cf229ee3f3c9d6",
        "4e10422cd1ab85a6c7a3da35dc1212df6924eb4a129c2ba2f2033baf39e59b98"),
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    truth = benchmark_truth()
    ds = generate_composite_dataset(truth, 45, 45, 50, seed=5)
    path = tmp_path_factory.mktemp("data") / "train.csv"
    ds.to_csv(path)
    return path, ds


@pytest.fixture(scope="module")
def fitted_model_path(tmp_path_factory, small_dataset):
    data_path, _ = small_dataset
    out = tmp_path_factory.mktemp("model") / "model.json"
    rc = main(["fit", "--data", str(data_path), "--out", str(out)])
    assert rc == 0
    return out


def read_no_manifest(directory):
    out = {}
    for p in sorted(Path(directory).iterdir()):
        if p.name.endswith(".manifest.json"):
            doc = json.loads(p.read_text())
            doc.pop("timestamp", None)
            out[p.name] = json.dumps(doc, sort_keys=True)
        else:
            out[p.name] = p.read_bytes()
    return out


def negative_count(doc):
    doc["counts"]["composite"] = -3


def truncation_outside_support(doc):
    doc["submodels"]["composite"]["marginals"][-1]["truncation"] = [-5, 7]


def huge_clayton_theta(doc):
    doc["submodels"]["composite"]["edges"][0].update(
        family="clayton", rotation=0, theta=1e300)


def engine_mismatch(doc):
    # an archimedean valuable class next to rvine classes
    doc["submodels"]["valuable"] = {
        "type": "archimedean", "family": "frank", "theta": 2.0,
        "marginals": doc["submodels"]["valuable"]["marginals"]}


def weight_above_one(doc):
    doc["submodels"]["valuable"]["marginals"][0]["lam"] = 2


def epsilon_too_large(doc):
    doc["epsilon"] = 0.7


def negative_gamma_shape(doc):
    # column 0 (med) has a gamma marginal
    doc["submodels"]["valuable"]["marginals"][0]["comp1"]["alpha"] = -1


def settings_min_rows_zero(doc):
    doc["settings"]["min_rows"] = 0


def composition_truncation_inside_band(doc):
    doc["submodels"]["composite"]["marginals"][-1]["truncation"] = [0.2, 0.8]


def edge_fallback_not_boolean(doc):
    doc["submodels"]["composite"]["edges"][0]["fallback"] = "x"


def marginal_degenerate_not_boolean(doc):
    doc["submodels"]["valuable"]["marginals"][0]["degenerate"] = 7


def edge_rotation_deleted(doc):
    del doc["submodels"]["composite"]["edges"][0]["rotation"]


def frank_edge_at_rotation_90(doc):
    # Frank is fitted at rotation 0 only; its rotation 90 is rotation 0 at -theta
    doc["submodels"]["composite"]["edges"][0].update(
        family="frank", rotation=90, theta=2.0)


def archimedean_candidates_independence(doc):
    for name, sub in doc["submodels"].items():
        doc["submodels"][name] = {"type": "archimedean", "family": "frank",
                                  "theta": 2.0, "marginals": sub["marginals"]}
    doc["settings"]["candidates"] = ["independence"]


def lam_boolean(doc):
    doc["submodels"]["valuable"]["marginals"][0]["lam"] = True


def gamma_alpha_boolean(doc):
    doc["submodels"]["valuable"]["marginals"][0]["comp1"]["alpha"] = True


def settings_em_tol_boolean(doc):
    doc["settings"]["em_tol"] = True


def epsilon_string(doc):
    doc["epsilon"] = str(doc["epsilon"])


def frank_edge_theta_boolean(doc):
    doc["submodels"]["composite"]["edges"][0].update(
        family="frank", rotation=0, theta=True)


def archimedean_theta_boolean(doc):
    for name, sub in doc["submodels"].items():
        doc["submodels"][name] = {"type": "archimedean", "family": "frank",
                                  "theta": 2.0, "marginals": sub["marginals"]}
    doc["submodels"]["valuable"]["theta"] = True


def composition_truncation_null(doc):
    doc["submodels"]["composite"]["marginals"][-1]["truncation"] = None


def truncated_ct_marginal(doc):
    # column 3 (elo) has a beta marginal, so [0.01, 0.99] is inside its support
    doc["submodels"]["valuable"]["marginals"][3]["truncation"] = [0.01, 0.99]


def tree_edge_node_boolean(doc):
    # would read as node 1 and be written back as true
    edge = next(e for e in doc["submodels"]["composite"]["tree_edges"][0] if 1 in e)
    edge[edge.index(1)] = True


def schema_version_float(doc):
    doc["schema_version"] = 3.0     # equal to 3, but not a JSON integer


# raw file contents no reader may raise on: a JSON nesting too deep to
# decode, and a UTF-16 byte order mark, which is not UTF-8
NESTING_BOMB = b"[" * 200000 + b"]" * 200000
NOT_UTF8 = b"\xff\xfe" + b'{"dims": [6, 6, 6]}'


def line_2_cell(text, column, cell):
    """The CSV bytes `text` with the cell of `column` on line 2 set to `cell`."""
    lines = text.split(b"\n")
    fields = lines[1].split(b",")
    fields[column] = cell
    lines[1] = b",".join(fields)
    return b"\n".join(lines)


class TestPersistence:
    def test_model_document_round_trip(self, small_dataset, tmp_path):
        _, ds = small_dataset
        for engine in ("rvine", "archimedean"):
            model = fit_composite(ds, engine=engine)
            p = tmp_path / f"{engine}.json"
            save_model(p, model)
            back = load_model(p)
            assert back == model
            # identical predictions on identical inputs
            x = ds.matrix[0, :6]
            assert predict_vfvm(back, x).value == predict_vfvm(model, x).value
            # identical re-serialization
            p2 = tmp_path / f"{engine}2.json"
            save_model(p2, back)
            assert p.read_bytes() == p2.read_bytes()

    def test_archimedean_composite_round_trip(self, small_dataset, tmp_path):
        # built from its submodels alone, the engine is read off their type
        _, ds = small_dataset
        fitted = fit_composite(ds, engine="archimedean")
        model = CompositeModel(fitted.f_v, fitted.f_nv, fitted.f_c, fitted.n_v,
                               fitted.n_nv, fitted.n_c, epsilon=fitted.epsilon)
        p = tmp_path / "archimedean.json"
        save_model(p, model)
        back = load_model(p)
        assert back.engine == "archimedean"
        assert back == model

    @pytest.mark.parametrize("engine", ["rvine", "archimedean"])
    def test_fit_settings_round_trip(self, small_dataset, tmp_path, engine):
        _, ds = small_dataset
        model = fit_composite(ds, engine=engine, candidates=("frank",),
                              min_rows=10, em_tol=1e-6)
        assert model.settings == FitSettings(("frank",), 10, 1e-6)
        p = tmp_path / "model.json"
        save_model(p, model)
        assert json.loads(p.read_text())["settings"] == {
            "candidates": ["frank"], "min_rows": 10, "em_tol": 1e-6}
        assert load_model(p) == model

    def test_schema_version_mismatch(self, tmp_path, fitted_model_path):
        from orevine.errors import SchemaError
        for version in (99, 2, 1):
            doc = json.loads(Path(fitted_model_path).read_text())
            doc["schema_version"] = version
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            with pytest.raises(SchemaError, match="migrate"):
                load_model(bad)

    @pytest.mark.parametrize("fault", [negative_count, truncation_outside_support,
                                       huge_clayton_theta, engine_mismatch,
                                       weight_above_one, epsilon_too_large,
                                       negative_gamma_shape,
                                       composition_truncation_inside_band,
                                       composition_truncation_null,
                                       truncated_ct_marginal,
                                       settings_min_rows_zero,
                                       edge_fallback_not_boolean,
                                       marginal_degenerate_not_boolean,
                                       edge_rotation_deleted,
                                       frank_edge_at_rotation_90,
                                       archimedean_candidates_independence,
                                       lam_boolean, gamma_alpha_boolean,
                                       settings_em_tol_boolean, epsilon_string,
                                       frank_edge_theta_boolean,
                                       archimedean_theta_boolean,
                                       tree_edge_node_boolean, schema_version_float,
                                       [1], 3, None],
                             ids=lambda f: (f.__name__ if callable(f)
                                            else f"root_{json.dumps(f)}"))
    def test_bad_model_document_is_data_error(self, tmp_path, small_dataset,
                                              fitted_model_path, capsys, fault):
        data_path, _ = small_dataset
        doc = json.loads(Path(fitted_model_path).read_text())
        if callable(fault):
            fault(doc)
        else:
            doc = fault       # a JSON root that is not an object
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(bad), "--data", str(data_path),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("content", [NESTING_BOMB, NOT_UTF8],
                             ids=["nesting_bomb", "not_utf8"])
    def test_raw_model_bytes_are_data_error(self, tmp_path, small_dataset, capsys,
                                            content):
        data_path, _ = small_dataset
        bad = tmp_path / "bad_model.json"
        bad.write_bytes(content)
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(bad), "--data", str(data_path),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()

    def test_loaded_truncation_cache_is_fresh(self, fitted_model_path):
        rat = load_model(fitted_model_path).f_c.marginals[-1]
        lo, hi = rat.truncation
        assert rat._cdf_lo == rat._raw_cdf(lo)
        assert rat._mass == float(rat._raw_cdf(hi) - rat._raw_cdf(lo))

    def test_invalid_vine_document_is_data_error(self, tmp_path, small_dataset,
                                                 fitted_model_path, capsys):
        data_path, _ = small_dataset
        doc = json.loads(Path(fitted_model_path).read_text())
        sub = doc["submodels"]["composite"]
        # tree 1 joins the same two variables six times; only the vine
        # check can catch it
        sub["tree_edges"][0] = [[0, 1]] * len(sub["tree_edges"][0])
        bad = tmp_path / "bad_vine.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(bad), "--data", str(data_path),
                   "--out", str(out)])
        assert rc == 3
        assert "tree 1: edge (0, 1) creates a cycle" in capsys.readouterr().err
        assert not out.exists()


class TestCliFitPredict:
    def test_fit_writes_model_and_report(self, tmp_path, small_dataset):
        data_path, _ = small_dataset
        out = tmp_path / "model.json"
        rc = main(["fit", "--data", str(data_path), "--out", str(out),
                   "--report-prefix", str(tmp_path / "scores")])
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "scores.txt").exists()
        assert (tmp_path / "scores.json").exists()
        assert (str(out) + ".manifest.json") in [str(p) for p in tmp_path.iterdir()]

    def test_band_edge_rows_score_finite(self, tmp_path, small_dataset):
        # a row at rat = 1 - epsilon is fitted as valuable and must be
        # scored by the valuable atom, a row at epsilon by the non-valuable one
        _, ds = small_dataset
        matrix = ds.matrix.copy()
        composite = np.flatnonzero((matrix[:, 6] > 0.01) & (matrix[:, 6] < 0.99))
        matrix[composite[:2], 6] = (0.01, 1.0 - 0.01)
        data = tmp_path / "edges.csv"
        Dataset(ds.ids, matrix, ds.columns).to_csv(data)
        rc = main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--report-prefix", str(tmp_path / "scores")])
        assert rc == 0
        scores = json.loads((tmp_path / "scores.json").read_text())["scores"]
        assert [s["subset"] for s in scores] == ["all", "composite_only"]
        assert all(np.isfinite(s["ll"]) for s in scores)

    def test_atom_width_option_is_gone(self, tmp_path, small_dataset):
        data_path, _ = small_dataset
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(data_path), "--out", str(out),
                  "--atom-width", "0.02"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_predict_rows_in_unit_interval(self, tmp_path, small_dataset,
                                           fitted_model_path):
        data_path, ds = small_dataset
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(fitted_model_path),
                   "--data", str(data_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,value,label"
        assert len(lines) == len(ds) + 1
        for ln in lines[1:]:
            _, value, label = ln.split(",")
            if value:
                assert 0.0 <= float(value) <= 1.0
            else:
                assert label == "out_of_support"

    def test_sample_zero_rows(self, tmp_path, fitted_model_path):
        out = tmp_path / "sampled.csv"
        rc = main(["sample", "--model", str(fitted_model_path), "--n", "0",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == ["id,med,iqr,vol,elo,flat,sphe,rat"]

    def test_sample_rows_partition_correctly(self, tmp_path, fitted_model_path):
        out = tmp_path / "sampled.csv"
        rc = main(["sample", "--model", str(fitted_model_path), "--n", "50",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        ds = Dataset.from_csv(out)
        assert len(ds) == 50
        assert np.all((ds.column("rat") >= 0) & (ds.column("rat") <= 1))

    def test_bad_csv_exit_code(self, tmp_path, fitted_model_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,med\n1,2\n")
        rc = main(["predict", "--model", str(fitted_model_path),
                   "--data", str(bad), "--out", str(tmp_path / "p.csv")])
        assert rc == 3

    @pytest.mark.parametrize("fault, place", [
        (lambda text: NOT_UTF8 + text, ""),
        (lambda text: line_2_cell(text, 1, b"1" * 200000), "line 2: "),
        (lambda text: line_2_cell(text, 0, b"99999999999999999999"), "line 2: "),
    ], ids=["not_utf8", "cell_beyond_csv_field_limit", "id_beyond_int64"])
    def test_raw_dataset_bytes_are_data_error(self, tmp_path, small_dataset, capsys,
                                              fault, place):
        data_path, _ = small_dataset
        bad = tmp_path / "bad.csv"
        bad.write_bytes(fault(Path(data_path).read_bytes()))
        out = tmp_path / "model.json"
        assert main(["fit", "--data", str(bad), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: {place}")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_ct_cell_is_data_error(self, tmp_path, small_dataset,
                                              fitted_model_path, capsys, cell):
        data_path, _ = small_dataset
        lines = Path(data_path).read_text().splitlines()
        fields = lines[4].split(",")
        fields[5] = cell          # the flat column of CSV line 5
        lines[4] = ",".join(fields)
        bad = tmp_path / "bad_cells.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(fitted_model_path),
                   "--data", str(bad), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 5" in err and "flat" in err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("column, cell", [
        ("flat", "nan"), ("flat", "inf"), ("rat", "2"), ("rat", "-inf"),
        ("rat", ""), ("rat", "nan")])
    def test_bad_training_cell_is_data_error(self, tmp_path, small_dataset,
                                             fitted_model_path, capsys,
                                             command, column, cell):
        data_path, _ = small_dataset
        lines = Path(data_path).read_text().splitlines()
        fields = lines[6].split(",")
        fields[lines[0].split(",").index(column)] = cell   # CSV line 7
        lines[6] = ",".join(fields)
        bad = tmp_path / "bad_cells.csv"
        bad.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if command == "fit":
            argv = ["fit", "--data", str(bad), "--out", str(out_dir / "m.json"),
                    "--report-prefix", str(out_dir / "scores")]
        else:
            argv = ["evaluate", "--model", str(fitted_model_path), "--data",
                    str(bad), "--out-prefix", str(out_dir / "eval"), "--fast-loo"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "line 7" in err and f"{column} cell" in err
        assert list(out_dir.iterdir()) == []

    def test_fitting_failure_exit_code(self, tmp_path):
        rng = np.random.default_rng(0)
        from orevine.descriptors import COLUMNS
        ds = Dataset(np.arange(1, 41, dtype=np.int64),
                     np.column_stack([rng.uniform(0.5, 2, (40, 6)),
                                      rng.uniform(0.3, 0.7, 40)]), COLUMNS)
        path = tmp_path / "all_composite.csv"
        ds.to_csv(path)
        rc = main(["fit", "--data", str(path), "--out", str(tmp_path / "m.json")])
        assert rc == 4

    @pytest.mark.parametrize("engine", ["rvine", "archimedean"])
    def test_unknown_candidate_is_argument_error(self, tmp_path, small_dataset, engine):
        data_path, _ = small_dataset
        rc = main(["fit", "--data", str(data_path), "--engine", engine,
                   "--candidates", "frank", "normal", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert not (tmp_path / "m.json").exists()

    def test_archimedean_independence_candidate_is_argument_error(
            self, tmp_path, small_dataset, capsys, monkeypatch):
        def no_em(*args, **kwargs):
            raise AssertionError("the marginal EM ran")

        monkeypatch.setattr("orevine.model.fit_mixture_em", no_em)
        data_path, _ = small_dataset
        rc = main(["fit", "--data", str(data_path), "--engine", "archimedean",
                   "--candidates", "independence", "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "archimedean candidates" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value", [("--em-tol", "nan"), ("--em-tol", "-1"),
                                               ("--min-rows", "-5"), ("--epsilon", "0.7"),
                                               ("--epsilon", "0.5"), ("--epsilon", "nan")])
    def test_bad_fit_setting_is_argument_error(self, tmp_path, small_dataset,
                                               capsys, option, value):
        data_path, _ = small_dataset
        rc = main(["fit", "--data", str(data_path), option, value,
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ")
        assert f"{option[2:].replace('-', '_')} must" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["predict", "--model", str(tmp_path / "nope.json"),
                   "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_directory_path_is_argument_error(self, tmp_path, small_dataset,
                                              fitted_model_path, capsys, command):
        data_path, _ = small_dataset
        if command == "fit":      # a directory where the data file should be
            argv = ["fit", "--data", str(tmp_path), "--out", str(tmp_path / "m.json")]
        else:                     # a directory where the output file should be
            argv = ["predict", "--model", str(fitted_model_path),
                    "--data", str(data_path), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("argument error: ")
        assert list(tmp_path.iterdir()) == []


class TestCliSynthWeights:
    def scene_file(self, tmp_path):
        spec = SceneSpec(
            dims=(36, 36, 24),
            particles=(
                Primitive("ball", center=(10, 10, 12), radius=6,
                          gray_mean=2.5, vfvm=1.0),
                Primitive("ball", center=(26, 26, 12), radius=7,
                          gray_mean=1.2, vfvm=0.0),
            ),
            phase_planes=((2, 12),),
            seed=11)
        path = tmp_path / "scene.json"
        path.write_text(spec.to_json())
        return path

    def test_synth_then_weights(self, tmp_path):
        spec_path = self.scene_file(tmp_path)
        prefix = tmp_path / "scene_out"
        rc = main(["synth", "--spec", str(spec_path), "--out-prefix", str(prefix)])
        assert rc == 0
        assert (tmp_path / "scene_out_dataset.csv").exists()

        wout = tmp_path / "weights.raw"
        rc = main(["weights", "--labels", str(prefix) + "_labels.raw",
                   "--slices", "12", "--out", str(wout)])
        assert rc == 0
        header = json.loads((tmp_path / "weights.raw.json").read_text())
        assert header["c_f"] > 0
        from orevine.voxel import read_volume
        wm = read_volume(wout)
        assert wm.values[:, :, 11].sum() == 0.0  # only z=12 annotated

    @pytest.mark.parametrize("option, value", [("--decay", "0"), ("--decay", "-1"),
                                               ("--decay", "inf"), ("--d-hat", "-1"),
                                               ("--d-hat", "nan"), ("--d-hat", "0")])
    def test_bad_weight_parameter_is_argument_error(self, tmp_path, capsys, option, value):
        prefix = str(tmp_path / "scene_out")
        assert main(["synth", "--spec", str(self.scene_file(tmp_path)),
                     "--out-prefix", prefix]) == 0
        capsys.readouterr()
        wout = tmp_path / "weights.raw"
        rc = main(["weights", "--labels", prefix + "_labels.raw", "--slices", "12",
                   option, value, "--out", str(wout)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ")
        assert f"{option[2:].replace('-', '_')} must" in err
        assert not wout.exists()

    def test_infinite_d_hat_means_no_cutoff(self, tmp_path):
        from orevine.voxel import read_volume
        prefix = str(tmp_path / "scene_out")
        assert main(["synth", "--spec", str(self.scene_file(tmp_path)),
                     "--out-prefix", prefix]) == 0
        above_floor = []
        for d_hat in ("5", "inf"):
            wout = tmp_path / f"weights_{d_hat}.raw"
            assert main(["weights", "--labels", prefix + "_labels.raw", "--slices", "12",
                         "--d-hat", d_hat, "--out", str(wout)]) == 0
            above_floor.append(int((read_volume(wout).values[:, :, 12] > 0.04).sum()))
        # past d_hat a voxel keeps only the floor; with no cutoff it keeps more
        assert above_floor[1] > above_floor[0]

    @pytest.mark.parametrize("fault", [
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "center": [10, 10]}]},
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "radius": "x"}]},
        lambda doc: {**doc, "phase_planes": [[2]]},
        lambda doc: [1, 2],
        lambda doc: {**doc, "dims": [36, 36]},
        lambda doc: {**doc, "spacing": 0},
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "vfvm": 1.5}]},
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "shape": "cone"}]},
        lambda doc: {**doc, "phase_planes": [[2, 24]]},
        lambda doc: {**doc, "particles": [doc["particles"][0], doc["particles"][0]]},
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "radius": -2}]},
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "shape": "box",
                                           "size": [4, -1, 4]}]},
        lambda doc: {**doc, "particles": [{**doc["particles"][0], "radius": 10 ** 400}]},
        lambda doc: {**doc, "background_mean": 1e300},
    ], ids=["center_two_elements", "radius_not_number", "phase_plane_one_element",
            "root_not_object", "dims_two_elements", "spacing_zero", "vfvm_above_one",
            "shape_cone", "phase_plane_outside", "particles_overlap", "radius_negative",
            "size_negative", "radius_int_beyond_float", "gray_beyond_float32"])
    def test_bad_scene_spec_is_data_error(self, tmp_path, capsys, fault):
        spec_path = self.scene_file(tmp_path)
        spec_path.write_text(json.dumps(fault(json.loads(spec_path.read_text()))))
        prefix = tmp_path / "scene_out"
        rc = main(["synth", "--spec", str(spec_path), "--out-prefix", str(prefix)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: malformed scene spec: ")
        assert not (tmp_path / "scene_out_dataset.csv").exists()

    @pytest.mark.parametrize("content", [NESTING_BOMB, NOT_UTF8],
                             ids=["nesting_bomb", "not_utf8"])
    def test_raw_spec_bytes_are_data_error(self, tmp_path, capsys, content):
        spec_path = tmp_path / "scene.json"
        spec_path.write_bytes(content)
        rc = main(["synth", "--spec", str(spec_path),
                   "--out-prefix", str(tmp_path / "scene_out")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: malformed scene spec: ")
        assert not (tmp_path / "scene_out_dataset.csv").exists()

    @pytest.mark.parametrize("dims", [[0, 36, 24], [2 ** 70, 4, 4],
                                      [2 ** 40, 2 ** 40, 2 ** 40]],
                             ids=["zero", "dim_beyond_intp", "voxels_beyond_intp"])
    def test_scene_dims_out_of_range_is_argument_error(self, tmp_path, capsys, dims):
        # only sizes numpy cannot index at all: a size it can index would
        # start a real allocation.  `SceneSpec` raises ArgumentError; read
        # from a file, the fault is the file's, so exit 3
        spec_path = self.scene_file(tmp_path)
        spec_path.write_text(json.dumps({**json.loads(spec_path.read_text()),
                                         "dims": dims}))
        rc = main(["synth", "--spec", str(spec_path),
                   "--out-prefix", str(tmp_path / "scene_out")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: malformed scene spec: scene dims")
        assert not (tmp_path / "scene_out_dataset.csv").exists()

    def test_huge_radius_fills_the_volume(self, tmp_path):
        # finite but beyond any square: every voxel of the clipped cube is inside
        spec_path = tmp_path / "scene.json"
        spec_path.write_text(json.dumps({
            "dims": [6, 5, 4], "phase_planes": [[2, 1]], "seed": 2,
            "particles": [{"shape": "ball", "center": [40, 2, 2], "radius": 1e300}]}))
        prefix = tmp_path / "scene_out"
        assert main(["synth", "--spec", str(spec_path), "--out-prefix", str(prefix)]) == 0
        from orevine.voxel import read_labels
        assert np.all(read_labels(str(prefix) + "_labels.raw").labels == 1)

    def test_synth_determinism(self, tmp_path):
        spec_path = self.scene_file(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        cmd = ["synth", "--spec", str(spec_path), "--out-prefix", str(out / "s")]
        assert main(cmd) == 0
        first = read_no_manifest(out)
        assert main(cmd) == 0
        assert read_no_manifest(out) == first


def write_raw_grid(path, values, dtype):
    """A raw grid plus sidecar, bypassing the in-memory volume checks."""
    Path(path).write_bytes(values.astype(np.dtype(dtype).newbyteorder("<")).tobytes())
    Path(str(path) + ".json").write_text(json.dumps(
        {"dims": list(values.shape), "dtype": dtype, "spacing": 1.0}))


def truncate_raw(d):
    raw = d / "vol.raw"
    raw.write_bytes(raw.read_bytes()[:-4])
    return raw


def short_dims(d):
    sidecar = d / "vol.raw.json"
    doc = json.loads(sidecar.read_text())
    doc["dims"] = doc["dims"][:2]
    sidecar.write_text(json.dumps(doc))
    return sidecar


def sidecar_spacing(d, value):
    sidecar = d / "vol.raw.json"
    doc = json.loads(sidecar.read_text())
    doc["spacing"] = value
    sidecar.write_text(json.dumps(doc))
    return sidecar


def nan_spacing(d):
    return sidecar_spacing(d, float("nan"))


def string_spacing(d):
    return sidecar_spacing(d, "2.5")        # would read as 2.5


def huge_integer_spacing(d):
    return sidecar_spacing(d, 10 ** 400)    # a JSON integer no float can hold


def boolean_spacing(d):
    raw = d / "vol.raw"          # a container header this time
    write_volume(raw, VoxelVolume(np.ones((6, 6, 6))), container=True)
    data = raw.read_bytes()
    hlen = int.from_bytes(data[4:12], "little")
    header = json.loads(data[12:12 + hlen])
    header["spacing"] = True     # would read as 1.0
    text = json.dumps(header).encode()
    raw.write_bytes(data[:4] + len(text).to_bytes(8, "little") + text + data[12 + hlen:])
    return raw


def sidecar_not_json(d):
    sidecar = d / "vol.raw.json"
    sidecar.write_text("{dims: [6, 6, 6]")
    return sidecar


def container_header_not_json(d):
    raw = d / "vol.raw"
    write_volume(raw, VoxelVolume(np.ones((6, 6, 6))), container=True)
    data = bytearray(raw.read_bytes())
    data[12] = ord("#")          # first byte of the JSON header
    raw.write_bytes(bytes(data))
    return raw


def nan_voxel(d):
    values = np.ones((6, 6, 6))
    values[2, 3, 4] = np.nan
    write_raw_grid(d / "vol.raw", values, "float32")
    return d / "vol.raw"


def label_gap(d):
    labels = np.zeros((6, 6, 6))
    labels[1:3, 1:3, 1:3] = 1
    labels[4:6, 4:6, 4:6] = 3   # no particle 2
    write_raw_grid(d / "lab.raw", labels, "uint32")
    return d / "lab.raw"


def float_label(d):
    labels = np.zeros((6, 6, 6))
    labels[1:4, 1:4, 1:4] = 1.0
    labels[2, 2, 2] = 1.7       # would read as id 1
    write_raw_grid(d / "lab.raw", labels, "float32")
    return d / "lab.raw"


def phase_root_not_object(d):
    phases = d / "phase.json"
    phases.write_text("[1]")
    return phases


def phase_fractional_numbers(d):
    phases = d / "phase.json"     # would read as plane (1, 2), phases [1, 2, 0, 1]
    phases.write_text('{"plane": {"axis": 1.7, "index": 2.9}, "grid": [[1.6, 2.2], [0, 1]]}')
    return phases


def phase_boolean_numbers(d):
    phases = d / "phase.json"     # would read true as 1
    phases.write_text('{"plane": {"axis": true, "index": 2}, "grid": [[1, 2], [0, true]]}')
    return phases


def negative_label(d):
    labels = np.zeros((6, 6, 6))
    labels[1:4, 1:4, 1:4] = 1.0
    labels[0, 0, 0] = -1.0      # would wrap to 4294967295
    write_raw_grid(d / "lab.raw", labels, "float64")
    return d / "lab.raw"


def sidecar_nesting_bomb(d):
    sidecar = d / "vol.raw.json"
    sidecar.write_bytes(NESTING_BOMB)
    return sidecar


def phase_nesting_bomb(d):
    phases = d / "phase.json"
    phases.write_bytes(NESTING_BOMB)
    return phases


def label_id_beyond_voxel_count(d):
    labels = np.zeros((6, 6, 6))
    labels[1:4, 1:4, 1:4] = 1
    labels[0, 0, 0] = 2 ** 32 - 1   # 216 voxels hold at most 216 contiguous ids
    write_raw_grid(d / "lab.raw", labels, "uint32")
    return d / "lab.raw"


class TestCliDescriptors:
    @pytest.mark.parametrize("fault", [truncate_raw, short_dims, nan_spacing,
                                       string_spacing, boolean_spacing, huge_integer_spacing,
                                       sidecar_not_json, container_header_not_json,
                                       nan_voxel, label_gap, float_label,
                                       negative_label, phase_root_not_object,
                                       phase_fractional_numbers, phase_boolean_numbers,
                                       sidecar_nesting_bomb, phase_nesting_bomb,
                                       label_id_beyond_voxel_count],
                             ids=lambda f: f.__name__)
    def test_bad_volume_file_is_data_error(self, tmp_path, capsys, fault):
        labels = np.zeros((6, 6, 6), dtype=np.uint32)
        labels[1:4, 1:4, 1:4] = 1
        write_volume(tmp_path / "vol.raw", VoxelVolume(np.ones((6, 6, 6))))
        write_labels(tmp_path / "lab.raw", LabelVolume(labels))
        write_phase_slice(tmp_path / "phase.json",
                          PhaseSlice.from_plane(2, 2, np.zeros((6, 6), dtype=np.int64)))
        bad_file = fault(tmp_path)
        out = tmp_path / "desc.csv"
        rc = main(["descriptors", "--volume", str(tmp_path / "vol.raw"),
                   "--labels", str(tmp_path / "lab.raw"),
                   "--phases", str(tmp_path / "phase.json"), "--out", str(out)])
        assert rc == 3
        assert f"error: {bad_file}: " in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_labels_read_as_ids(self, tmp_path):
        labels = np.zeros((6, 6, 6), dtype=np.uint32)
        labels[1:4, 1:4, 1:4] = 1
        labels[4:6, 4:6, 4:6] = 2
        write_volume(tmp_path / "vol.raw", VoxelVolume(np.ones((6, 6, 6))))
        outs = []
        for dtype in ("uint32", "float32"):
            write_raw_grid(tmp_path / "lab.raw", labels, dtype)
            out = tmp_path / f"desc_{dtype}.csv"
            assert main(["descriptors", "--volume", str(tmp_path / "vol.raw"),
                         "--labels", str(tmp_path / "lab.raw"),
                         "--include-unmatched", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") == 3

    @pytest.mark.parametrize("scene", sorted(FIXTURE_CSV_DIGESTS))
    def test_fixture_descriptor_csv_golden(self, tmp_path, scene):
        prefix = str(tmp_path / scene)
        assert main(["synth", "--spec", str(FIXTURES / f"{scene}.json"),
                     "--out-prefix", prefix]) == 0
        out = tmp_path / "desc.csv"
        phases = sorted(str(p) for p in tmp_path.glob(f"{scene}_phase_*.json"))
        assert main(["descriptors", "--volume", prefix + "_volume.raw",
                     "--labels", prefix + "_labels.raw", "--phases", *phases,
                     "--include-unmatched", "--out", str(out)]) == 0
        digests = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest()
                        for p in (prefix + "_dataset.csv", out))
        assert digests == FIXTURE_CSV_DIGESTS[scene]


class TestCliEvaluate:
    def test_evaluate_fast(self, tmp_path, small_dataset, fitted_model_path):
        data_path, _ = small_dataset
        prefix = tmp_path / "eval"
        rc = main(["evaluate", "--model", str(fitted_model_path),
                   "--data", str(data_path), "--out-prefix", str(prefix),
                   "--fast-loo"])
        assert rc == 0
        text = (tmp_path / "eval.txt").read_text()
        assert "MAE" in text
        errors = (tmp_path / "eval_errors.csv").read_text().splitlines()
        assert errors[0] == "id,truth,prediction,error"

    @pytest.mark.parametrize("parallelism", ["0", "-2"])
    def test_parallelism_below_one_exits_2(self, tmp_path, small_dataset,
                                           fitted_model_path, capsys,
                                           parallelism):
        data_path, _ = small_dataset
        rc = main(["evaluate", "--model", str(fitted_model_path),
                   "--data", str(data_path), "--out-prefix",
                   str(tmp_path / "eval"), "--parallelism", parallelism])
        assert rc == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scores_the_given_model(self, tmp_path, small_dataset):
        """A model fitted with non-default settings is the model scored,
        not a refit with the defaults."""
        data_path, _ = small_dataset
        model = tmp_path / "model.json"
        assert main(["fit", "--data", str(data_path), "--out", str(model),
                     "--candidates", "frank", "clayton", "--em-tol", "1e-3",
                     "--report-prefix", str(tmp_path / "fit")]) == 0
        assert main(["evaluate", "--model", str(model), "--data", str(data_path),
                     "--out-prefix", str(tmp_path / "eval"), "--fast-loo"]) == 0
        fitted, evaluated = (
            {(r["engine"], r["subset"]): (r["ll"], r["aic"], r["bic"])
             for r in json.loads((tmp_path / name).read_text())["scores"]}
            for name in ("fit.json", "eval.json"))
        assert evaluated == fitted


class TestOutputPaths:
    """An output that cannot be written exits 2 before any work runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work ran before the output check")

        for name in ("fit_composite", "load_model", "loo_cv", "build_dataset",
                     "compute_weight_map", "generate_scene", "load_scene_spec",
                     "read_volume", "read_labels", "read_phase_slice"):
            monkeypatch.setattr(f"orevine.cli.{name}", fail)

    def argv(self, command, data_path, model_path, out):
        return {"fit": ["fit", "--data", str(data_path), "--out", out],
                "fit_report": ["fit", "--data", str(data_path), "--out",
                               str(Path(out).parent.parent / "m.json"),
                               "--report-prefix", out],
                "predict": ["predict", "--model", str(model_path),
                            "--data", str(data_path), "--out", out],
                "evaluate": ["evaluate", "--model", str(model_path), "--data",
                             str(data_path), "--out-prefix", out, "--fast-loo"],
                "sample": ["sample", "--model", str(model_path), "--n", "10",
                           "--out", out],
                # the readers are patched to fail, so the inputs need not exist
                "descriptors": ["descriptors", "--volume", "v.raw", "--labels", "l.raw",
                                "--phases", "p.json", "--out", out],
                "weights": ["weights", "--labels", "l.raw", "--slices", "0",
                            "--out", out],
                "synth": ["synth", "--spec", "spec.json", "--out-prefix", out]}[command]

    @pytest.mark.parametrize("command", ["fit", "fit_report", "predict",
                                         "evaluate", "sample", "descriptors",
                                         "weights", "synth"])
    def test_missing_directory_exits_2(self, tmp_path, small_dataset, fitted_model_path,
                                       capsys, no_work, command):
        data_path, _ = small_dataset
        out = str(tmp_path / "missing" / "out")
        assert main(self.argv(command, data_path, fitted_model_path, out)) == 2
        assert "does not exist" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "predict", "evaluate", "sample",
                                         "descriptors", "weights", "synth"])
    def test_directory_output_exits_2(self, tmp_path, small_dataset, fitted_model_path,
                                      capsys, no_work, command):
        data_path, _ = small_dataset
        out = tmp_path / "out"
        # the output that is a directory: the main one, or one beside it
        suffix = {"evaluate": ".txt", "weights": ".json", "synth": "_dataset.csv"}
        target = tmp_path / ("out" + suffix.get(command, ""))
        target.mkdir()
        assert main(self.argv(command, data_path, fitted_model_path, str(out))) == 2
        assert "is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [target.name]


class TestDeterminism:
    def run_twice(self, cmd, out_dir):
        assert main(cmd) == 0
        first = read_no_manifest(out_dir)
        assert main(cmd) == 0
        return first, read_no_manifest(out_dir)

    def test_fit_deterministic(self, tmp_path, small_dataset):
        data_path, _ = small_dataset
        out = tmp_path / "fit_out"
        out.mkdir()
        a, b = self.run_twice(
            ["fit", "--data", str(data_path), "--out", str(out / "model.json"),
             "--report-prefix", str(out / "scores")], out)
        assert a == b

    def test_sample_deterministic(self, tmp_path, small_dataset, fitted_model_path):
        out = tmp_path / "sample_out"
        out.mkdir()
        a, b = self.run_twice(
            ["sample", "--model", str(fitted_model_path), "--n", "25",
             "--seed", "42", "--out", str(out / "rows.csv")], out)
        assert a == b
