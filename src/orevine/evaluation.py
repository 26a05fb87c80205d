"""Model scores and leave-one-out cross-validation.

Scores follow the usual definitions: AIC = 2k - 2 LL, BIC = k ln(n) - 2 LL,
MAE/MSE of predicted against observed composition.  The parameter count k
is fixed by convention: 5 per mixture marginal (two 2-parameter components
plus the mixing ratio), 1 per non-independence pair copula, 1 per
d-dimensional Archimedean copula, plus 2 class-proportion degrees of
freedom for a composite model.

Leave-one-out refits the composite model on every n-1 subset and scores
the held-out row from its CT-based descriptors.  Each class density is
fitted on its own rows only, so a fold refits only the class that lost its
row and reuses the full-data fits of the other two; the fold model is the
same as a `fit_composite` of the fold's rows.  Exact mode repeats the full
structure selection for that class; fast mode reuses the full-data vine
structure and copula families and re-estimates parameters only.  Worker
processes receive the shared state once, and fold results are reduced in
row order, so reports are identical for any degree of parallelism.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .descriptors import Dataset
from .errors import ArgumentError, FittingError
from .marginals import MixtureModel
from .model import (
    CompositeModel,
    check_class_sizes,
    class_densities,
    composite_log_density,
    composition_bands,
    fit_class_part,
    fit_composite,
    partition_dataset,
    predict_vfvm,
)
from .vine import ArchimedeanModel, RVineModel

MIXTURE_PARAMS = 5  # 2 + 2 component parameters + mixing ratio


@dataclass(frozen=True)
class ScoreReport:
    """One engine's scores on one subset (all rows or composite-only)."""

    engine: str
    subset: str                  # "all" | "composite_only"
    ll: float
    k: int
    n: int
    aic: float
    bic: float
    mae: float | None = None
    mse: float | None = None
    excluded_folds: int = 0

    def __post_init__(self):
        if self.subset not in ("all", "composite_only"):
            raise ArgumentError(f"unknown subset tag {self.subset!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ScoreReport":
        return cls(**doc)


def information_criteria(ll: float, k: int, n: int) -> tuple[float, float]:
    """(AIC, BIC) for a log-likelihood with k parameters on n samples."""
    if n < 1 or k < 0:
        raise ArgumentError("need n >= 1 and k >= 0")
    return 2.0 * k - 2.0 * ll, k * float(np.log(n)) - 2.0 * ll


def count_parameters(model) -> tuple[int, dict]:
    """Total parameter count plus a per-block breakdown."""
    if isinstance(model, MixtureModel):
        return MIXTURE_PARAMS, {"marginal": MIXTURE_PARAMS}
    if isinstance(model, RVineModel):
        marg = MIXTURE_PARAMS * model.d
        cop = model.n_copula_params
        return marg + cop, {"marginals": marg, "pair_copulas": cop}
    if isinstance(model, ArchimedeanModel):
        marg = MIXTURE_PARAMS * model.d
        return marg + 1, {"marginals": marg, "archimedean_copula": 1}
    if isinstance(model, CompositeModel):
        k_v, _ = count_parameters(model.f_v)
        k_nv, _ = count_parameters(model.f_nv)
        k_c, _ = count_parameters(model.f_c)
        total = k_v + k_nv + k_c + 2
        return total, {"valuable": k_v, "non_valuable": k_nv,
                       "composite": k_c, "class_proportions": 2}
    raise ArgumentError(f"cannot count parameters of {type(model).__name__}")


def prediction_errors(predictions, truth) -> tuple[float, float]:
    """(MAE, MSE) between predicted and observed composition values."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.shape != t.shape or p.size == 0:
        raise ArgumentError("predictions and truth must be equal-length, non-empty")
    err = p - t
    return float(np.mean(np.abs(err))), float(np.mean(err ** 2))


def fit_scores(model: CompositeModel, dataset: Dataset) -> list[ScoreReport]:
    """LL/AIC/BIC of a fitted composite model on every row of `dataset` and,
    through f_c, on its composite rows only, tagged with the model's engine."""
    ll = float(np.sum(composite_log_density(model, dataset.matrix)))
    k, _ = count_parameters(model)
    aic, bic = information_criteria(ll, k, len(dataset))
    _, _, d_c = partition_dataset(dataset, model.epsilon)
    ll_c = float(np.sum(model.f_c.log_density(d_c.matrix)))
    k_c, _ = count_parameters(model.f_c)
    aic_c, bic_c = information_criteria(ll_c, k_c, max(len(d_c), 1))
    return [ScoreReport(model.engine, "all", ll=ll, k=k, n=len(dataset),
                        aic=aic, bic=bic),
            ScoreReport(model.engine, "composite_only", ll=ll_c, k=k_c,
                        n=len(d_c), aic=aic_c, bic=bic_c)]


# ---------------------------------------------------------------------------
# leave-one-out cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LooResult:
    report_all: ScoreReport
    report_composite: ScoreReport
    ids: np.ndarray
    truths: np.ndarray
    predictions: np.ndarray       # NaN where the fold was excluded
    composite_mask: np.ndarray

    @property
    def folds_performed(self) -> int:
        return self.ids.size

    @property
    def excluded_folds(self) -> int:
        return self.report_all.excluded_folds

    def write_errors_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,truth,prediction,error\n")
            for i in range(self.ids.size):
                pred = self.predictions[i]
                if np.isnan(pred):
                    fh.write(f"{int(self.ids[i])},{repr(float(self.truths[i]))},,\n")
                else:
                    fh.write(f"{int(self.ids[i])},{repr(float(self.truths[i]))},"
                             f"{repr(float(pred))},"
                             f"{repr(float(pred - self.truths[i]))}\n")


@dataclass(frozen=True)
class ClassReuseFit:
    """The default fold fit of `loo_cv`, called like `fit_fn`.

    `sizes` and `fits` describe each class part of the full data: its row
    count and its fit, which is a model, the `FittingError` the fit raised,
    or None for a part under `min_rows`.  A fold misses one row, so exactly
    one of its class parts is smaller than the full data's; only that part
    is refitted, and the other two reuse their fits.  Each fold model is
    therefore the `fit_composite` of the fold's rows, bit for bit.
    """

    sizes: tuple[int, int, int]
    fits: tuple

    @classmethod
    def on(cls, dataset: Dataset, engine: str, epsilon: float, candidates,
           min_rows: int, template) -> "ClassReuseFit":
        parts = partition_dataset(dataset, epsilon)
        fits = []
        for part, tmpl in zip(parts, class_densities(template)):
            if len(part) < min_rows:  # every fold fails check_class_sizes
                fits.append(None)
                continue
            try:
                fits.append(fit_class_part(part, engine, epsilon, candidates,
                                           min_rows, template=tmpl))
            except FittingError as exc:
                fits.append(exc)
        return cls(tuple(len(part) for part in parts), tuple(fits))

    def __call__(self, dataset: Dataset, engine: str, epsilon: float,
                 candidates, min_rows: int, template) -> CompositeModel:
        parts = partition_dataset(dataset, epsilon)
        check_class_sizes(parts, min_rows)
        models = []
        for part, tmpl, size, fit in zip(parts, class_densities(template),
                                         self.sizes, self.fits):
            if len(part) != size:
                fit = fit_class_part(part, engine, epsilon, candidates,
                                     min_rows, template=tmpl)
            elif isinstance(fit, FittingError):
                raise fit.with_traceback(None)
            models.append(fit)
        return CompositeModel(*models, n_v=len(parts[0]), n_nv=len(parts[1]),
                              n_c=len(parts[2]), epsilon=epsilon)


def _loo_fold(state, i: int):
    """Refit without row i and predict it; state is (dataset, engine,
    epsilon, candidates, min_rows, template, fit_fn, predict_fn)."""
    (dataset, engine, epsilon, candidates, min_rows, template, fit_fn,
     predict_fn) = state
    mask = np.ones(len(dataset), dtype=bool)
    mask[i] = False
    try:
        model = fit_fn(dataset.subset(mask), engine, epsilon, candidates,
                       min_rows, template)
        pred = predict_fn(model, dataset.matrix[i, :-1])
    except FittingError:
        return i, np.nan
    value = getattr(pred, "value", pred)
    if value is None:
        return i, np.nan
    return i, float(value)


_worker_state = None  # the fold state of a pool worker, set once per process


def _init_worker(state) -> None:
    global _worker_state
    _worker_state = state


def _worker_fold(i: int):
    return _loo_fold(_worker_state, i)


def loo_cv(dataset: Dataset, engine: str = "rvine", epsilon: float = 0.01,
           parallelism: int = 1, fast: bool = False, candidates=None,
           min_rows: int = 30, fit_fn=None, predict_fn=None,
           full=None) -> LooResult:
    """Leave-one-out validation of the composition predictor.

    Returns the `fit_scores` of the full-data model combined with LOO
    MAE/MSE, over all rows and over the composite rows only.  `full` is
    the full-data model, fitted here when not given; with `fast` it is the
    template of every fold's refit.  Without `fit_fn`, each class part of
    the full data is fitted once (`ClassReuseFit`), and a fold refits only
    the class that lost its row.  A fold is excluded and counted when its
    refit or its prediction raises `FittingError`, or when its prediction
    has no support.  A `FittingError` of a reused class fit excludes every
    fold that reuses it; a `FittingError` of the fold's own class excludes
    that fold only.  Any other exception propagates, and no worker process
    outlives the call.  Results do not depend on `parallelism`.
    """
    if not dataset.has_rat or np.isnan(dataset.column("rat")).any():
        raise ArgumentError("leave-one-out needs a fully labeled dataset")
    n = len(dataset)
    predict_fn = predict_fn or predict_vfvm

    if full is None and fit_fn is None:
        full = fit_composite(dataset, engine=engine, epsilon=epsilon,
                             candidates=candidates, min_rows=min_rows)
        if not fast:
            # exact folds refit without a template, so the full fit's class
            # densities are the class parts ClassReuseFit.on would fit again
            fit_fn = ClassReuseFit((full.n_v, full.n_nv, full.n_c),
                                   class_densities(full))
    elif full is None:
        full = fit_fn(dataset, engine, epsilon, candidates, min_rows, None)
    template = full if fast else None
    if fit_fn is None:
        fit_fn = ClassReuseFit.on(dataset, engine, epsilon, candidates,
                                  min_rows, template)

    state = (dataset, engine, epsilon, candidates, min_rows, template, fit_fn,
             predict_fn)
    if parallelism <= 1:
        results = list(map(functools.partial(_loo_fold, state), range(n)))
    else:
        # workers receive the shared state once, and each job only its row;
        # leaving the block joins the workers, also when a fold raises
        with ProcessPoolExecutor(max_workers=parallelism,
                                 initializer=_init_worker,
                                 initargs=(state,)) as executor:
            results = list(executor.map(_worker_fold, range(n),
                                        chunksize=max(1, n // (parallelism * 4))))
    predictions = np.full(n, np.nan)
    for i, value in results:
        predictions[i] = value

    truths = dataset.column("rat").astype(float)
    composite_mask = composition_bands(truths, epsilon)[2]
    valid = ~np.isnan(predictions)
    excluded = int(n - valid.sum())

    mae_all, mse_all = prediction_errors(predictions[valid], truths[valid])
    c_valid = valid & composite_mask
    if c_valid.any():
        mae_c, mse_c = prediction_errors(predictions[c_valid], truths[c_valid])
    else:
        mae_c = mse_c = float("nan")

    if isinstance(full, CompositeModel):
        report_all, report_c = fit_scores(full, dataset)
    else:  # injected fit functions may return arbitrary models
        nan = float("nan")
        n_c = len(partition_dataset(dataset, epsilon)[2])
        report_all, report_c = (
            ScoreReport(engine, subset, ll=nan, k=0, n=rows, aic=nan, bic=nan)
            for subset, rows in (("all", n), ("composite_only", n_c)))
    report_all = replace(report_all, mae=mae_all, mse=mse_all,
                         excluded_folds=excluded)
    report_c = replace(report_c, mae=mae_c, mse=mse_c,
                       excluded_folds=int(composite_mask.sum() - c_valid.sum()))

    return LooResult(report_all=report_all, report_composite=report_c,
                     ids=dataset.ids.copy(), truths=truths,
                     predictions=predictions, composite_mask=composite_mask)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

_ROW_LABELS = {"all": ["log-likelihood", "AIC", "BIC", "MAE", "MSE"],
               "composite_only": ["log-likelihood_c", "AIC_c", "BIC_c",
                                  "MAE_c", "MSE_c"]}


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "-"
    return f"{value:.4f}"


def render_report(scores) -> str:
    """Aligned text table comparing engines, one block per subset tag."""
    scores = list(scores)
    if not scores:
        return ""
    lines = []
    for subset in ("all", "composite_only"):
        cols = [s for s in scores if s.subset == subset]
        if not cols:
            continue
        engines = [s.engine for s in cols]
        header = ["score"] + engines
        rows = []
        for label, attr in zip(_ROW_LABELS[subset],
                               ("ll", "aic", "bic", "mae", "mse")):
            rows.append([label] + [_fmt(getattr(s, attr)) for s in cols])
        widths = [max(len(r[i]) for r in [header] + rows)
                  for i in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def scores_to_json(scores) -> str:
    return json.dumps({"schema_version": 1,
                       "scores": [s.to_dict() for s in scores]},
                      indent=2, sort_keys=True)


def scores_from_json(text: str) -> list[ScoreReport]:
    doc = json.loads(text)
    if doc.get("schema_version") != 1:
        raise ArgumentError("unknown score document schema")
    return [ScoreReport.from_dict(d) for d in doc["scores"]]
