from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

from orevine import evaluation, model
from orevine.copulas import PairCopula
from orevine.descriptors import COLUMNS, Dataset
from orevine.errors import ArgumentError, FittingError
from orevine.evaluation import (
    ScoreReport,
    count_parameters,
    fit_scores,
    information_criteria,
    loo_cv,
    prediction_errors,
    render_report,
    scores_from_json,
    scores_to_json,
)
from orevine.marginals import BetaParams, MixtureModel
from orevine.model import (
    CompositeModel,
    FitSettings,
    Prediction,
    check_class_sizes,
    fit_composite,
    partition_dataset,
    predict_vfvm,
)
from orevine.synth import benchmark_truth, generate_composite_dataset
from orevine.vine import ArchimedeanModel, RVineModel, dvine_structure


def beta_m(p, q):
    return MixtureModel("beta", BetaParams(p, q), BetaParams(p, q), 0.5)


class TestInformationCriteria:
    def test_example_values(self):
        aic, _ = information_criteria(10.0, 2, 5)
        assert aic == -16.0

    def test_bic_at_n_e_squared(self):
        # with ln(n) = 2 the arithmetic gives k ln n - 2 ll = 4 - 20
        n = int(round(np.e ** 2))
        _, bic = information_criteria(10.0, 2, n)
        assert bic == pytest.approx(2 * np.log(n) - 20.0)
        assert bic == pytest.approx(-16.0, abs=0.15)

    def test_k_zero(self):
        for n in (1, 10, 1000):
            aic, bic = information_criteria(7.5, 0, n)
            assert aic == bic == -15.0

    def test_identity(self):
        aic, bic = information_criteria(3.3, 4, 17)
        assert aic - bic == pytest.approx(2 * 4 - 4 * np.log(17))


class TestCountParameters:
    def test_six_dim_independence_vine(self):
        s = dvine_structure(list(range(6)))
        cops = tuple(PairCopula("independence") for _ in range(15))
        model = RVineModel(s, cops, tuple(beta_m(2, 2) for _ in range(6)))
        total, breakdown = count_parameters(model)
        assert total == 30
        assert breakdown["pair_copulas"] == 0

    def test_two_dim_one_clayton(self):
        s = dvine_structure([0, 1])
        model = RVineModel(s, (PairCopula("clayton", 0, 2.0),),
                           (beta_m(2, 2), beta_m(3, 3)))
        total, _ = count_parameters(model)
        assert total == 11

    def test_archimedean(self):
        model = ArchimedeanModel("gumbel", 2.0, tuple(beta_m(2, 2) for _ in range(4)))
        total, breakdown = count_parameters(model)
        assert total == 21
        assert breakdown["archimedean_copula"] == 1

    def test_composite_sums_plus_two(self):
        ind = PairCopula("independence")
        s2 = dvine_structure([0, 1])
        f_v = RVineModel(s2, (PairCopula("frank", 0, 3.0),),
                         (beta_m(8, 2), beta_m(3, 3)))
        f_nv = RVineModel(s2, (ind,), (beta_m(2, 8), beta_m(3, 3)))
        s3 = dvine_structure([2, 0, 1])
        f_c = RVineModel(s3, (ind, ind, PairCopula("gumbel", 0, 1.5)),
                         (beta_m(4, 4), beta_m(3, 3),
                          beta_m(2, 2, ), ))
        model = CompositeModel(f_v, f_nv, f_c, 100, 100, 100)
        total, breakdown = count_parameters(model)
        k_v, _ = count_parameters(f_v)
        k_nv, _ = count_parameters(f_nv)
        k_c, _ = count_parameters(f_c)
        assert total == k_v + k_nv + k_c + 2
        assert breakdown["class_proportions"] == 2


class TestPredictionErrors:
    def test_exact_predictions(self):
        mae, mse = prediction_errors([0.2, 0.8], [0.2, 0.8])
        assert mae == 0.0 and mse == 0.0

    def test_single_pair(self):
        mae, mse = prediction_errors([0.5], [1.0])
        assert mae == 0.5 and mse == 0.25

    def test_matches_two_pass_summation(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=500)
        t = rng.uniform(size=500)
        mae, mse = prediction_errors(p, t)
        mae_ref = sum(abs(a - b) for a, b in zip(p, t)) / 500
        mse_ref = sum((a - b) ** 2 for a, b in zip(p, t)) / 500
        assert mae == pytest.approx(mae_ref, abs=1e-12)
        assert mse == pytest.approx(mse_ref, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=100)
        t = rng.uniform(size=100)
        mae, mse = prediction_errors(p, t)
        worst = np.max(np.abs(p - t))
        assert mse <= mae * worst + 1e-15
        assert mae <= worst + 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            prediction_errors([0.1], [0.1, 0.2])

    def test_no_values_is_nan(self):
        assert np.isnan(prediction_errors([], [])).all()


def make_labeled_dataset(n=12, seed=0):
    rng = np.random.default_rng(seed)
    rat = np.concatenate([np.ones(n // 3), np.zeros(n // 3),
                          rng.uniform(0.2, 0.8, n - 2 * (n // 3))])
    matrix = np.column_stack([rng.uniform(0.5, 2.0, (n, 6)), rat])
    return Dataset(np.arange(1, n + 1, dtype=np.int64), matrix, COLUMNS)


def _independence_model(part):
    """A stand-in class fit: an independence vine of the part's width."""
    d = part.matrix.shape[1]
    cops = tuple(PairCopula("independence") for _ in range(d * (d - 1) // 2))
    return RVineModel(dvine_structure(list(range(d))), cops,
                      tuple(beta_m(2, 2) for _ in range(d)))


def _independence_composite(dataset, epsilon=0.01):
    """A stand-in scored model: an independence vine per class part, fitted
    with `min_rows` 1 because the stand-in class parts are small."""
    parts = partition_dataset(dataset, epsilon)
    return CompositeModel(*map(_independence_model, parts), n_v=len(parts[0]),
                          n_nv=len(parts[1]), n_c=len(parts[2]),
                          epsilon=epsilon, settings=FitSettings(min_rows=1))


def _predict_half(model, ct):
    return Prediction(0.5, "composite")


def stub_loo(monkeypatch, fit=_independence_model, predict=_predict_half):
    """Replace the class fit and the predictor that `loo_cv` calls; forked
    pool workers inherit the stubs."""
    monkeypatch.setattr(evaluation, "fit_class_part",
                        lambda part, *args, **kwargs: fit(part))
    monkeypatch.setattr(evaluation, "predict_vfvm", predict)


class TestLooCv:
    def test_raising_fold_leaves_no_workers(self, monkeypatch):
        import multiprocessing
        import time

        ds = make_labeled_dataset(9)

        def predict_failing_for_id_4(model, ct):
            if np.array_equal(ct, ds.matrix[3, :-1]):
                raise ValueError("fold without id 4")
            return _predict_half(model, ct)

        stub_loo(monkeypatch, predict=predict_failing_for_id_4)
        # the caller keeps the traceback (and with it loo_cv's frame) alive,
        # so garbage collection cannot stand in for shutting the pool down
        with pytest.raises(ValueError, match="fold without id 4") as excinfo:
            loo_cv(_independence_composite(ds), ds, parallelism=2)
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        assert excinfo.traceback

    def test_refits_once_per_row(self, monkeypatch):
        ds = make_labeled_dataset(9)
        calls = {"fit": 0}

        def counting_fit(part):
            calls["fit"] += 1
            return _independence_model(part)

        stub_loo(monkeypatch, fit=counting_fit)
        result = loo_cv(_independence_composite(ds), ds)
        # one fit per full-data class part plus one per fold
        assert calls["fit"] == 3 + 9
        assert result.folds_performed == 9

    def test_exact_predictor_scores_zero(self, monkeypatch):
        ds = make_labeled_dataset(9)
        truth_by_ct = {row[:-1].tobytes(): float(row[-1]) for row in ds.matrix}

        def oracle_predict(model, ct):
            # the fold model misses exactly the held-out row
            assert model.n == len(ds) - 1
            return Prediction(truth_by_ct[ct.tobytes()], "composite")

        stub_loo(monkeypatch, predict=oracle_predict)
        result = loo_cv(_independence_composite(ds), ds)
        assert result.report_all.mae == 0.0
        assert result.report_all.mse == 0.0

    def test_fast_loo_real_fit_and_parallel_determinism(self):
        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 35, 35, 35, seed=11)
        full = fit_composite(ds, engine="rvine")
        seq = loo_cv(full, ds, fast=True, parallelism=1)
        par = loo_cv(full, ds, fast=True, parallelism=4)
        assert np.array_equal(seq.predictions, par.predictions, equal_nan=True)
        assert seq.report_all.to_dict() == par.report_all.to_dict()
        assert seq.report_composite.to_dict() == par.report_composite.to_dict()
        assert seq.report_all.mae is not None
        # composite-only errors reuse the same per-row errors
        mask = seq.composite_mask & ~np.isnan(seq.predictions)
        mae_c = float(np.mean(np.abs(seq.predictions[mask] - seq.truths[mask])))
        assert seq.report_composite.mae == pytest.approx(mae_c, abs=1e-15)

    def test_excluded_folds_counted(self, monkeypatch):
        ds = make_labeled_dataset(9)

        def flaky_fit(part):
            # the non-valuable part (ids 4-6) of the fold without id 4
            if part.ids.tolist() == [5, 6]:
                raise FittingError("degenerate fold")
            return _independence_model(part)

        stub_loo(monkeypatch, fit=flaky_fit)
        result = loo_cv(_independence_composite(ds), ds)
        assert result.excluded_folds == 1
        assert np.isnan(result.predictions[3])

    def test_every_fold_excluded_scores_nan(self, monkeypatch):
        # classes of exactly min_rows: each fold's class falls one row short
        ds = make_labeled_dataset(9)
        scored = replace(_independence_composite(ds), settings=FitSettings(min_rows=3))
        stub_loo(monkeypatch)
        result = loo_cv(scored, ds)
        assert result.excluded_folds == 9
        assert result.report_composite.excluded_folds == 3
        for report in (result.report_all, result.report_composite):
            assert np.isnan(report.mae) and np.isnan(report.mse)

    def test_errors_csv(self, tmp_path, monkeypatch):
        ds = make_labeled_dataset(9)
        stub_loo(monkeypatch)
        res = loo_cv(_independence_composite(ds), ds)
        path = tmp_path / "errors.csv"
        res.write_errors_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,truth,prediction,error"
        assert len(lines) == 10

    def test_workers_capped_at_row_count(self, monkeypatch):
        started = []

        class RecordingExecutor(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingExecutor)
        stub_loo(monkeypatch)
        ds = make_labeled_dataset(9)
        scored = _independence_composite(ds)
        capped = loo_cv(scored, ds, parallelism=64)
        assert started == [9]
        serial = loo_cv(scored, ds, parallelism=1)
        assert started == [9]
        assert capped.predictions.tobytes() == serial.predictions.tobytes()


def reference_predictions(dataset, scored, fast, predict=predict_vfvm):
    """The LOO loop before class fits were reused: every class of every fold
    refitted with the settings of `scored`, then `predict`.  Exact folds are
    `fit_composite`; fast folds start each class from `scored`'s density."""
    predictions = np.full(len(dataset), np.nan)
    for i in range(len(dataset)):
        rows = dataset.subset(np.arange(len(dataset)) != i)
        try:
            if fast:
                parts = partition_dataset(rows, scored.epsilon)
                check_class_sizes(parts, scored.settings.min_rows)
                fold = CompositeModel(
                    *(model.fit_class_part(part, scored.engine, scored.epsilon,
                                           scored.settings, template=template)
                      for part, template in zip(
                          parts, (scored.f_v, scored.f_nv, scored.f_c))),
                    *map(len, parts), epsilon=scored.epsilon,
                    settings=scored.settings)
            else:
                fold = fit_composite(rows, engine=scored.engine,
                                     epsilon=scored.epsilon,
                                     **asdict(scored.settings))
            pred = predict(fold, dataset.matrix[i, :-1])
        except FittingError:
            continue
        if pred.value is not None:
            predictions[i] = pred.value
    return predictions


class TestClassReuseEquivalence:
    """Reusing the full-data fits of the classes a fold leaves alone gives
    the old loop's predictions and reports bit for bit, at parallelism 1
    and 2."""

    def check(self, dataset, engine, fast, min_rows=30):
        full = fit_composite(dataset, engine=engine, min_rows=min_rows)
        expected = reference_predictions(dataset, full, fast)
        result = loo_cv(full, dataset, fast=fast)
        assert result.predictions.tobytes() == expected.tobytes()
        par = loo_cv(full, dataset, fast=fast, parallelism=2)
        assert par.predictions.tobytes() == expected.tobytes()
        valid = ~np.isnan(expected)
        mae, mse = prediction_errors(expected[valid], result.truths[valid])
        ll_all, ll_c = (r.to_dict() for r in fit_scores(full, dataset))
        got_all, got_c = result.report_all.to_dict(), result.report_composite.to_dict()
        assert (got_all["mae"], got_all["mse"]) == (mae, mse)
        assert {k: got_all[k] for k in ("ll", "k", "n", "aic", "bic")} == \
            {k: ll_all[k] for k in ("ll", "k", "n", "aic", "bic")}
        assert {k: got_c[k] for k in ("ll", "k", "n", "aic", "bic")} == \
            {k: ll_c[k] for k in ("ll", "k", "n", "aic", "bic")}

    @pytest.mark.parametrize("engine", ["rvine", "archimedean"])
    def test_fast(self, engine):
        ds = generate_composite_dataset(benchmark_truth(), 20, 20, 20, seed=11)
        self.check(ds, engine, fast=True, min_rows=15)

    def test_exact(self):
        ds = generate_composite_dataset(benchmark_truth(), 11, 11, 11, seed=11)
        self.check(ds, "rvine", fast=False, min_rows=10)


class TestFoldExclusion:
    """Which exceptions of the class fits exclude a fold (12 rows: ids 1-4
    valuable, 5-8 non-valuable, 9-12 composite), against the old fold path
    that called `fit_composite` on every fold."""

    @staticmethod
    def install(monkeypatch, raise_for=lambda ids, rat: None, templates=None):
        """Replace the class fit by a stub that records the ids it fits
        (and, into `templates`, the template `loo_cv` passes) and raises
        what `raise_for(ids, has_rat)` returns; the predictor returns 0.5."""
        calls = []

        def stub(part, *args, **kwargs):
            ids = frozenset(part.ids.tolist())
            calls.append(ids)
            if templates is not None:
                templates.append(kwargs.get("template"))
            error = raise_for(ids, part.has_rat)
            if error is not None:
                raise error
            return _independence_model(part)

        monkeypatch.setattr(evaluation, "fit_class_part", stub)
        monkeypatch.setattr(model, "fit_class_part", stub)
        monkeypatch.setattr(evaluation, "predict_vfvm", _predict_half)
        return calls

    def run(self, monkeypatch, raise_for, parallelism=1):
        self.install(monkeypatch, raise_for)
        ds = make_labeled_dataset(12)
        result = loo_cv(_independence_composite(ds), ds,
                        parallelism=parallelism)
        old = reference_predictions(ds, _independence_composite(ds), False,
                                    _predict_half)
        assert result.predictions.tobytes() == old.tobytes()
        return result

    def test_refits_one_class_per_fold(self, monkeypatch):
        calls = self.install(monkeypatch)
        ds = make_labeled_dataset(12)
        result = loo_cv(_independence_composite(ds), ds)
        assert result.excluded_folds == 0
        # three full-data class fits, then one class per fold
        assert len(calls) == 3 + 12
        for i, ids in enumerate(calls[3:]):
            assert len(ids) == 3 and i + 1 not in ids

    def test_exact_loo_fits_the_full_data_once(self, monkeypatch):
        # each class part of the full data is fitted once: cold in exact
        # mode, from the scored model's class density in fast mode
        templates = []
        calls = self.install(monkeypatch, templates=templates)
        ds = make_labeled_dataset(12)
        scored = _independence_composite(ds)
        loo_cv(scored, ds)
        assert len(calls) == 3 + 12
        assert templates == [None] * 15
        calls.clear()
        templates.clear()
        loo_cv(scored, ds, fast=True)
        assert len(calls) == 3 + 12
        expected = [scored.f_v, scored.f_nv, scored.f_c] + \
            [scored.f_v] * 4 + [scored.f_nv] * 4 + [scored.f_c] * 4
        assert all(got is want for got, want in zip(templates, expected, strict=True))

    def test_pickled_fold_fit_matches_fit_composite(self, monkeypatch):
        import pickle
        self.install(monkeypatch)
        folds, states = [], []

        def capture(fold, ct):
            folds.append(fold)
            return _predict_half(fold, ct)

        def recording_fold(state, i):
            states.append(state)
            return loo_fold(state, i)

        loo_fold = evaluation._loo_fold
        monkeypatch.setattr(evaluation, "predict_vfvm", capture)
        monkeypatch.setattr(evaluation, "_loo_fold", recording_fold)
        ds = make_labeled_dataset(12)
        loo_cv(_independence_composite(ds), ds)
        # a worker that is not forked receives the fold state pickled
        state = pickle.loads(pickle.dumps(states[0]))
        folds.clear()
        assert loo_fold(state, 9) == (9, 0.5)
        fold_rows = ds.subset(np.arange(12) != 9)
        assert folds == [fit_composite(fold_rows, min_rows=1)]
        assert (folds[0].n_v, folds[0].n_nv, folds[0].n_c) == (4, 4, 3)

    def test_shared_fitting_error_excludes_the_folds_reusing_it(self, monkeypatch):
        # the full composite part fails; only its own folds refit it
        full_c = frozenset(range(9, 13))
        result = self.run(monkeypatch, lambda ids, rat: (
            FittingError("composite") if ids == full_c else None))
        assert np.isnan(result.predictions[:8]).all()
        assert not np.isnan(result.predictions[8:]).any()
        assert result.excluded_folds == 8

    def test_own_class_fitting_error_excludes_that_fold(self, monkeypatch):
        result = self.run(monkeypatch, lambda ids, rat: (
            FittingError("fold") if ids == frozenset({1, 2, 4}) else None))
        assert np.flatnonzero(np.isnan(result.predictions)).tolist() == [2]
        assert result.excluded_folds == 1

    def test_other_exception_in_a_fold_propagates(self, monkeypatch):
        with pytest.raises(ValueError, match="fold"):
            self.run(monkeypatch, lambda ids, rat: (
                ValueError("fold") if ids == frozenset({1, 2, 4}) else None))

    def test_other_exception_in_a_shared_fit_leaves_no_workers(self, monkeypatch):
        import multiprocessing
        with pytest.raises(ValueError, match="shared"):
            self.run(monkeypatch, lambda ids, rat: (
                ValueError("shared") if len(ids) == 4 and rat else None),
                parallelism=2)
        assert multiprocessing.active_children() == []


class TestFoldSettings:
    """Exact-LOO folds refit with the settings the scored model records."""

    @pytest.mark.parametrize("engine", ["rvine", "archimedean"])
    def test_exact_fold_is_fit_composite_with_the_settings(self, monkeypatch,
                                                           engine):
        ds = generate_composite_dataset(benchmark_truth(), 20, 20, 20, seed=11)
        settings = {"candidates": ("frank",), "min_rows": 10, "em_tol": 1e-6}
        scored = fit_composite(ds, engine=engine, **settings)
        states, folds = [], []

        def record_state(state, i):
            # skip every fold; two are run below
            states.append(state)
            return i, 0.5

        def capture(fold, ct):
            folds.append(fold)
            return _predict_half(fold, ct)

        loo_fold = evaluation._loo_fold
        monkeypatch.setattr(evaluation, "_loo_fold", record_state)
        loo_cv(scored, ds)
        monkeypatch.setattr(evaluation, "predict_vfvm", capture)
        v_rows, _, c_rows = (np.flatnonzero(m) for m in
                             model.composition_bands(ds.column("rat"), 0.01))
        for i in (v_rows[0], c_rows[0]):
            loo_fold(states[0], i)
            rows = ds.subset(np.arange(len(ds)) != i)
            assert folds.pop() == fit_composite(rows, engine=engine, **settings)


class TestRenderReport:
    def make_scores(self):
        return [
            ScoreReport("rvine", "all", ll=4963.41, k=100, n=1341,
                        aic=-9526.82, bic=-8486.58, mae=0.0990, mse=0.0622),
            ScoreReport("archimedean", "all", ll=4034.87, k=50, n=1341,
                        aic=-7867.74, bic=-7342.42, mae=0.1304, mse=0.0707),
            ScoreReport("rvine", "composite_only", ll=1315.06, k=80, n=625,
                        aic=-2454.12, bic=-2093.88, mae=0.1378, mse=0.0631),
            ScoreReport("archimedean", "composite_only", ll=725.51, k=40,
                        n=625, aic=-1377.02, bic=-1225.55, mae=0.2153,
                        mse=0.0952),
        ]

    def test_empty(self):
        assert render_report([]) == ""

    def test_two_engine_table_structure(self):
        text = render_report(self.make_scores())
        lines = [ln for ln in text.splitlines() if ln.strip()]
        # two blocks, each: header + rule + 5 score rows
        assert len(lines) == 2 * 7
        assert "rvine" in lines[0] and "archimedean" in lines[0]
        assert lines[2].startswith("log-likelihood")
        body = "\n".join(lines)
        for label in ("MAE", "MSE", "AIC", "BIC", "MAE_c", "MSE_c"):
            assert label in body

    def test_json_round_trip(self):
        scores = self.make_scores()
        back = scores_from_json(scores_to_json(scores))
        assert back == scores
