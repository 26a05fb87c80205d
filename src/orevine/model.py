"""Composite seven-variate descriptor density and composition predictors.

Epsilon alone sets the composition bands (`composition_bands`): the
non-valuable band [0, eps], the composite band (eps, 1 - eps) and the
valuable band [1 - eps, 1].  Six-variate densities are fitted to the rows of
the two pure bands and a seven-variate density (with the composition
marginal truncated to the open band) to the composite rows; the full
density places uniform atoms of width eps on the two pure bands:

    f(x) = n_nv/n * (1/eps) * f_nv(x_1..6)   for x7 in [0, eps]
         = n_c/n  *           f_c(x)         for x7 in (eps, 1 - eps)
         = n_v/n  * (1/eps) * f_v(x_1..6)    for x7 in [1 - eps, 1]
         = 0                                 otherwise.

A fitted model records its fit settings (`FitSettings`) for refits.

Prediction from a CT-based six-vector compares the class-weighted
likelihoods; the valuable class wins ties (>=), the non-valuable class
needs a strict majority (>), and otherwise the output is the median of the
conditional composition density, obtained by bisection on the
quadrature-backed conditional CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .copulas import FAMILIES
from .descriptors import Dataset
from .errors import ArgumentError, FittingError
from .marginals import MixtureModel, fit_mixture_em
from .vine import (
    ARCHIMEDEAN_FAMILIES,
    ArchimedeanModel,
    RVineModel,
    fit_archimedean,
    fit_sequential,
)

DEFAULT_EPSILON = 0.01
QUAD_TOL = 1e-8
MEDIAN_TOL = 1e-6
GAMMA_COLUMNS = ("med", "iqr", "vol")

EngineModel = RVineModel | ArchimedeanModel


def composition_bands(rat, epsilon: float):
    """(valuable, non_valuable, composite) masks of compositions `rat`:
    rat >= 1 - eps, rat <= eps and the open band between; a NaN is in no
    band.  The one band rule of partitioning, the density and LOO scoring."""
    rat = np.asarray(rat, dtype=float)
    return (rat >= 1.0 - epsilon, rat <= epsilon,
            (rat > epsilon) & (rat < 1.0 - epsilon))


@dataclass(frozen=True)
class FitSettings:
    """The settings of a fit beyond engine and epsilon: the pair-copula
    candidate families (None: the engine's defaults), the minimum rows per
    class and the marginal EM stop."""

    candidates: tuple[str, ...] | None = None
    min_rows: int = 30
    em_tol: float = 1e-8

    def __post_init__(self):
        if self.candidates is not None:
            object.__setattr__(self, "candidates", tuple(self.candidates))
            if not self.candidates or not set(self.candidates) <= set(FAMILIES):
                raise ArgumentError(f"candidates must be null or a non-empty list "
                                    f"of {FAMILIES}, got {list(self.candidates)}")
        if not (type(self.min_rows) is int and self.min_rows >= 1):
            raise ArgumentError(f"min_rows must be an integer >= 1, got {self.min_rows!r}")
        if not (isinstance(self.em_tol, (int, float)) and 0 < self.em_tol < math.inf):
            raise ArgumentError(f"em_tol must be finite and > 0, got {self.em_tol!r}")

    def check_engine(self, engine: str) -> None:
        """The Archimedean engine searches only `ARCHIMEDEAN_FAMILIES`."""
        if engine == "archimedean" and not set(self.candidates or ()) <= set(ARCHIMEDEAN_FAMILIES):
            raise ArgumentError(f"archimedean candidates must be among "
                                f"{ARCHIMEDEAN_FAMILIES}, got {list(self.candidates)}")


@dataclass(frozen=True)
class CompositeModel:
    """The three fitted class densities with their sample counts and the
    settings they were fitted with."""

    f_v: EngineModel
    f_nv: EngineModel
    f_c: EngineModel
    n_v: int
    n_nv: int
    n_c: int
    epsilon: float = DEFAULT_EPSILON
    settings: FitSettings = FitSettings()

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ArgumentError("epsilon must lie in (0, 0.5)")
        if len({type(m) for m in (self.f_v, self.f_nv, self.f_c)}) != 1:
            raise ArgumentError("class densities come from different engines")
        if self.f_v.d != self.f_nv.d or self.f_c.d != self.f_v.d + 1:
            raise ArgumentError("class densities have inconsistent dimensions")
        self.settings.check_engine(self.engine)

    @property
    def engine(self) -> str:
        return "rvine" if isinstance(self.f_v, RVineModel) else "archimedean"

    @property
    def n(self) -> int:
        return self.n_v + self.n_nv + self.n_c

    @property
    def d_ct(self) -> int:
        return self.f_v.d

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw rows from the composite density itself (uniform atoms of
        width epsilon)."""
        rng = np.random.default_rng(seed)
        props = np.array([self.n_nv, self.n_c, self.n_v], dtype=float) / self.n
        which = rng.choice(3, size=n, p=props)
        rows = np.empty((n, self.d_ct + 1))
        for cls, model in ((0, self.f_nv), (1, self.f_c), (2, self.f_v)):
            idx = np.flatnonzero(which == cls)
            if idx.size == 0:
                continue
            sub_seed = rng.integers(0, 2 ** 63 - 1)
            draw = model.sample(idx.size, seed=sub_seed)
            if cls == 1:
                rows[idx] = draw
            else:
                rows[idx, : self.d_ct] = draw
                u = rng.uniform(0.0, self.epsilon, size=idx.size)
                rows[idx, self.d_ct] = u if cls == 0 else 1.0 - u
        return rows


@dataclass(frozen=True)
class Prediction:
    """Predicted volume fraction of valuable minerals for one particle."""

    value: float | None
    label: str                      # valuable | non_valuable | composite | out_of_support

    def __post_init__(self):
        if self.label not in ("valuable", "non_valuable", "composite",
                              "out_of_support"):
            raise ArgumentError(f"unknown prediction class {self.label!r}")


# ---------------------------------------------------------------------------
# partitioning and fitting
# ---------------------------------------------------------------------------

def partition_dataset(dataset: Dataset, epsilon: float = DEFAULT_EPSILON):
    """Split by composition: (D_v, D_nv, D_c); the pure classes drop rat."""
    if not dataset.has_rat:
        raise ArgumentError("partitioning requires the rat column")
    rat = dataset.column("rat")
    if np.isnan(rat).any():
        raise ArgumentError("every row must carry a composition value")
    v_mask, nv_mask, c_mask = composition_bands(rat, epsilon)
    return (dataset.subset(v_mask).without_rat(),
            dataset.subset(nv_mask).without_rat(),
            dataset.subset(c_mask))


def _marginal_family(column: str) -> str:
    return "gamma" if column in GAMMA_COLUMNS else "beta"


def fit_class_marginals(data: Dataset, epsilon: float, init=None,
                        tol: float = 1e-8) -> tuple[MixtureModel, ...]:
    out = []
    for j, col in enumerate(data.columns):
        truncation = (epsilon, 1.0 - epsilon) if col == "rat" else None
        out.append(fit_mixture_em(data.matrix[:, j], _marginal_family(col),
                                  truncation=truncation, tol=tol,
                                  init=None if init is None else init[j]))
    return tuple(out)


def _fit_engine(data: Dataset, marginals, engine: str, settings: FitSettings,
                template: EngineModel | None = None):
    if template is not None and engine == "archimedean":
        # keep the family, re-estimate theta
        kw = {"candidates": (template.family,)}
    else:
        kw = {} if settings.candidates is None else {"candidates": settings.candidates}
    if engine == "rvine":
        return fit_sequential(data.matrix, marginals, min_rows=settings.min_rows,
                              template=template, **kw)
    if engine == "archimedean":
        return fit_archimedean(data.matrix, marginals, min_rows=settings.min_rows, **kw)
    raise ArgumentError(f"unknown engine {engine!r}")


def check_class_sizes(parts, min_rows: int) -> None:
    """Raise FittingError for the first of (D_v, D_nv, D_c) under min_rows."""
    for name, part in zip(("valuable", "non_valuable", "composite"), parts):
        if len(part) < min_rows:
            raise FittingError(
                f"partition {name} has {len(part)} rows; needs >= {min_rows}")


def fit_class_part(part: Dataset, engine: str, epsilon: float,
                   settings: FitSettings,
                   template: EngineModel | None = None) -> EngineModel:
    """Fit one class density (marginals, then the engine's copula) to the
    rows of one partition.

    With `template` given, the EM starts from its marginals and the copula
    keeps its structure and families, re-estimating parameters only.
    """
    # warm restarts tolerate a looser EM stop; the optimum moves O(1/n)
    marginals = fit_class_marginals(
        part, epsilon, init=None if template is None else template.marginals,
        tol=settings.em_tol if template is None else max(settings.em_tol, 1e-6))
    return _fit_engine(part, marginals, engine, settings, template=template)


def fit_composite(dataset: Dataset, engine: str = "rvine",
                  epsilon: float = DEFAULT_EPSILON, candidates=None,
                  min_rows: int = 30, em_tol: float = 1e-8) -> CompositeModel:
    """Fit the three class densities and record the class counts and the
    settings (`FitSettings(candidates, min_rows, em_tol)`)."""
    settings = FitSettings(candidates, min_rows, em_tol)
    settings.check_engine(engine)
    parts = partition_dataset(dataset, epsilon)
    check_class_sizes(parts, settings.min_rows)
    f_v, f_nv, f_c = (fit_class_part(part, engine, epsilon, settings)
                      for part in parts)
    return CompositeModel(f_v, f_nv, f_c, n_v=len(parts[0]),
                          n_nv=len(parts[1]), n_c=len(parts[2]),
                          epsilon=epsilon, settings=settings)


# ---------------------------------------------------------------------------
# the composite density (Bayes mixture with end atoms)
# ---------------------------------------------------------------------------

def composite_log_density(model: CompositeModel, x) -> np.ndarray | float:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != model.d_ct + 1:
        raise ArgumentError(f"expected {model.d_ct + 1}-dimensional points")
    x7 = arr[:, -1]
    ct = arr[:, :-1]
    n = model.n
    out = np.full(arr.shape[0], -np.inf)

    v_mask, nv_mask, c_mask = composition_bands(x7, model.epsilon)
    v_mask &= x7 <= 1.0
    nv_mask &= x7 >= 0.0
    if nv_mask.any():
        out[nv_mask] = (np.log(model.n_nv / n) - np.log(model.epsilon)
                        + model.f_nv.log_density(ct[nv_mask]))
    if c_mask.any():
        out[c_mask] = (np.log(model.n_c / n)
                       + model.f_c.log_density(arr[c_mask]))
    if v_mask.any():
        out[v_mask] = (np.log(model.n_v / n) - np.log(model.epsilon)
                       + model.f_v.log_density(ct[v_mask]))
    return float(out[0]) if scalar else out


def composite_density(model: CompositeModel, x) -> np.ndarray | float:
    """The piecewise seven-variate density with uniform end atoms."""
    out = np.exp(composite_log_density(model, x))
    return out if isinstance(out, np.ndarray) else float(out)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _panels(f, bounds, n: int = 64) -> list[float]:
    """n-node Gauss-Legendre sums over each (a, b) in `bounds`, from one
    call of `f` on all their nodes."""
    nodes, weights = _gl_nodes(n)
    scales = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in bounds]
    values = f(np.concatenate([mid + half * nodes for mid, half in scales]))
    return [float(half * np.dot(weights, values[i * n:(i + 1) * n]))
            for i, (_, half) in enumerate(scales)]


def adaptive_integral(f, a: float, b: float, tol: float = QUAD_TOL,
                      max_depth: int = 24) -> float:
    """Adaptive 64-node Gauss-Legendre with interval bisection.

    `f` must accept a vector of abscissae and return a vector of values.
    An interval on the stack carries its own panel and its two half panels;
    splitting it evaluates the four quarter panels in one call of `f`, so an
    interval accepted at once costs a single call.
    """
    if b <= a:
        return 0.0
    mid = 0.5 * (a + b)
    stack = [(a, b, 0, *_panels(f, ((a, b), (a, mid), (mid, b))))]
    total = 0.0
    while stack:
        lo, hi, depth, whole, left, right = stack.pop()
        if depth >= max_depth or abs(left + right - whole) <= max(
                tol, tol * abs(left + right)):
            total += left + right
        else:
            mid = 0.5 * (lo + hi)
            q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
            ll, lr, rl, rr = _panels(f, ((lo, q1), (q1, mid), (mid, q3), (q3, hi)))
            stack.append((lo, mid, depth + 1, left, ll, lr))
            stack.append((mid, hi, depth + 1, right, rl, rr))
    return total


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def _conditional_slice_density(model: CompositeModel, ct: np.ndarray):
    """Vectorized s -> f_c(ct, s) for a fixed CT-based descriptor vector."""
    with np.errstate(all="ignore"):
        log_f = model.f_c.slice_log_density(ct)

    def f(s):
        with np.errstate(all="ignore"):
            return np.exp(log_f(np.atleast_1d(np.asarray(s, dtype=float))))
    return f


def marginal_composite_ct(model: CompositeModel, ct, density=None) -> float:
    """f_c marginalized over the composition coordinate by quadrature.

    `density` is `_conditional_slice_density(model, ct)` when the caller has
    already built it.
    """
    ct = np.asarray(ct, dtype=float).ravel()
    f = density or _conditional_slice_density(model, ct)
    return adaptive_integral(f, model.epsilon, 1.0 - model.epsilon, tol=QUAD_TOL)


def conditional_median(model: CompositeModel, ct, z: float | None = None,
                       density=None) -> float:
    """Median of f_c(x7 | ct) via bisection on the quadrature-backed CDF.

    `z` (the normaliser `marginal_composite_ct(model, ct)`) and `density`
    (`_conditional_slice_density(model, ct)`) are computed here unless the
    caller already has them.
    """
    ct = np.asarray(ct, dtype=float).ravel()
    f = density or _conditional_slice_density(model, ct)
    a, b = model.epsilon, 1.0 - model.epsilon
    if z is None:
        z = adaptive_integral(f, a, b, tol=QUAD_TOL)
    if z <= 0.0 or not np.isfinite(z):
        raise FittingError("conditional composition density has no mass")
    lo, hi = a, b
    f_lo = 0.0
    while hi - lo > MEDIAN_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = f_lo + adaptive_integral(f, lo, mid, tol=QUAD_TOL * z)
        if f_mid < 0.5 * z:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def predict_vfvm(model: CompositeModel, ct) -> Prediction:
    """Predict the valuable-mineral volume fraction from CT descriptors.

    Classification compares the class-weighted likelihoods; the valuable
    class wins ties (>=), non-valuable needs strict dominance (>), and the
    composite branch outputs the conditional median.
    """
    ct = np.asarray(ct, dtype=float).ravel()
    if ct.size != model.d_ct:
        raise ArgumentError(f"expected a {model.d_ct}-dimensional CT vector")
    if not np.all(np.isfinite(ct)):
        raise ArgumentError("CT descriptor vector must be finite")

    n = model.n
    with np.errstate(all="ignore"):
        like_v = model.n_v / n * float(np.exp(model.f_v.log_density(ct[None, :]))[0])
        like_nv = model.n_nv / n * float(np.exp(model.f_nv.log_density(ct[None, :]))[0])
    density = _conditional_slice_density(model, ct)
    z = marginal_composite_ct(model, ct, density)
    like_c = model.n_c / n * z

    if like_v <= 0.0 and like_nv <= 0.0 and like_c <= 0.0:
        return Prediction(value=None, label="out_of_support")
    if like_v >= max(like_c, like_nv):
        return Prediction(value=1.0, label="valuable")
    if like_nv > max(like_c, like_v):
        return Prediction(value=0.0, label="non_valuable")
    med = conditional_median(model, ct, z, density)
    return Prediction(value=med, label="composite")

