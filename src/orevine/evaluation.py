"""Model scores and leave-one-out cross-validation.

Scores follow the usual definitions: AIC = 2k - 2 LL, BIC = k ln(n) - 2 LL,
MAE/MSE of predicted against observed composition.  The parameter count k
is fixed by convention: 5 per mixture marginal (two 2-parameter components
plus the mixing ratio), 1 per non-independence pair copula, 1 per
d-dimensional Archimedean copula, plus 2 class-proportion degrees of
freedom for a composite model.

Leave-one-out scores a fitted composite model: it refits the model on
every n-1 subset and predicts the held-out row from its CT-based
descriptors.  Each class density is fitted on its own rows only, so each
class part of the full data is fitted once, a fold refits only the class
that lost its row, and the fold model is the same as a `fit_composite` of
the fold's rows with the scored model's settings (`FitSettings`: candidate
families, minimum class rows, EM tolerance).  Exact mode fits cold, with
the full structure selection; fast mode starts each class from the scored
model's class density, reusing its vine structure and copula families and
re-estimating parameters only.
At most one worker process per row runs; each receives the shared state
once, and fold results are reduced in row order, so reports are identical
for any degree of parallelism.
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
    composite_log_density,
    composition_bands,
    fit_class_part,
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
    """(MAE, MSE) between predicted and observed composition values; both
    NaN when there are none (every LOO fold of a subset excluded)."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.shape != t.shape:
        raise ArgumentError("predictions and truth must be equal-length")
    if p.size == 0:
        return float("nan"), float("nan")
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


def _fit_full_part(part: Dataset, model: CompositeModel, template):
    """The fit of one class part of the full data that the folds reuse:
    the model, the `FittingError` its fit raised, or None for a part under
    the model's `min_rows` (every fold then fails `check_class_sizes`)."""
    if len(part) < model.settings.min_rows:
        return None
    try:
        return fit_class_part(part, model.engine, model.epsilon, model.settings,
                              template=template)
    except FittingError as exc:
        return exc


def _loo_fold(state, i: int):
    """Refit without row i and predict it; state is (dataset, model,
    templates, fits).

    Only the class that lost row i is refitted, with the settings of
    `model`; the other two reuse their full-data `fits`, and a reused
    `FittingError` is raised in class order.  The fold model is therefore
    the `fit_composite` of the fold's rows.
    """
    dataset, model, templates, fits = state
    mask = np.ones(len(dataset), dtype=bool)
    mask[i] = False
    parts = partition_dataset(dataset.subset(mask), model.epsilon)
    lost = composition_bands(dataset.column("rat")[i], model.epsilon)
    try:
        check_class_sizes(parts, model.settings.min_rows)
        densities = []
        for part, template, fit, refit in zip(parts, templates, fits, lost):
            if refit:
                fit = fit_class_part(part, model.engine, model.epsilon,
                                     model.settings, template=template)
            elif isinstance(fit, FittingError):
                raise fit.with_traceback(None)
            densities.append(fit)
        fold = CompositeModel(*densities, n_v=len(parts[0]),
                              n_nv=len(parts[1]), n_c=len(parts[2]),
                              epsilon=model.epsilon, settings=model.settings)
        pred = predict_vfvm(fold, dataset.matrix[i, :-1])
    except FittingError:
        return i, np.nan
    return i, np.nan if pred.value is None else float(pred.value)


_worker_state = None  # the fold state of a pool worker, set once per process


def _init_worker(state) -> None:
    global _worker_state
    _worker_state = state


def _worker_fold(i: int):
    return _loo_fold(_worker_state, i)


def loo_cv(model: CompositeModel, dataset: Dataset, fast: bool = False,
           parallelism: int = 1) -> LooResult:
    """Leave-one-out validation of the composition predictor of `model`.

    Returns the `fit_scores` of `model` on `dataset` combined with LOO
    MAE/MSE, over all rows and over the composite rows only.  Each class
    part of `dataset` is fitted once, with the engine, epsilon and settings
    of `model`: in fast mode from the matching class density of `model` as
    template, in exact mode cold.  A fold refits only the class that lost
    its row, the same way.  A fold is excluded and counted when its refit
    or its prediction raises `FittingError`, or when its prediction has no
    support.  A `FittingError` of a reused class fit excludes every fold
    that reuses it; a `FittingError` of the fold's own class excludes that
    fold only.  A subset whose folds are all excluded scores NaN MAE/MSE.
    Any other exception propagates, and no worker process
    outlives the call.  At most one worker per row runs, and results do not
    depend on `parallelism`.
    """
    if parallelism < 1:
        raise ArgumentError(f"parallelism must be >= 1, got {parallelism}")
    if not dataset.has_rat or np.isnan(dataset.column("rat")).any():
        raise ArgumentError("leave-one-out needs a fully labeled dataset")
    n = len(dataset)
    templates = (model.f_v, model.f_nv, model.f_c) if fast else (None,) * 3
    fits = tuple(_fit_full_part(part, model, template) for part, template in
                 zip(partition_dataset(dataset, model.epsilon), templates))

    state = (dataset, model, templates, fits)
    workers = min(parallelism, n)
    if workers <= 1:
        results = list(map(functools.partial(_loo_fold, state), range(n)))
    else:
        # workers receive the shared state once, and each job only its row;
        # leaving the block joins the workers, also when a fold raises
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(state,)) as executor:
            results = list(executor.map(_worker_fold, range(n),
                                        chunksize=max(1, n // (workers * 4))))
    predictions = np.full(n, np.nan)
    for i, value in results:
        predictions[i] = value

    truths = dataset.column("rat").astype(float)
    composite_mask = composition_bands(truths, model.epsilon)[2]
    valid = ~np.isnan(predictions)
    excluded = int(n - valid.sum())

    mae_all, mse_all = prediction_errors(predictions[valid], truths[valid])
    c_valid = valid & composite_mask
    mae_c, mse_c = prediction_errors(predictions[c_valid], truths[c_valid])

    report_all, report_c = fit_scores(model, dataset)
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
