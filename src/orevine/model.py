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

Prediction from a CT-based six-vector, or from each row of a matrix of
them, compares the class-weighted likelihoods; the valuable class wins ties
(>=), the non-valuable class needs a strict majority (>), and otherwise the
output is the median of the conditional composition density.  Both the
composite likelihood and the median are computed in the copula coordinate
u = F_rat(s) of the composition (`CompositionSlices`): by Sklar's
factorization f_c(ct, s) = exp(const) f_rat(s) g(F_rat(s)), so the
normaliser is exp(const) times the integral of g over [0, 1], taken by
adaptive Gauss-Legendre quadrature with an error bar relative to it, and
the median is the rat quantile of the u where the running integral of g
reaches half of it, found by bracketed Newton steps inside one accepted
quadrature panel.  The rows of one call are integrated, and their medians
found, in lock step: each round evaluates the pending panels or Newton
points of every row together, one `log_g` call per LOCKSTEP_ROWS rows, and
a row's result is bit for bit the one it gets alone.
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
    COND_CLAMP,
    ArchimedeanModel,
    RVineModel,
    fit_archimedean,
    fit_sequential,
)

DEFAULT_EPSILON = 0.01
QUAD_TOL = 1e-8          # panel error bar, relative to the integral's estimate
MAX_DEPTH = 24           # bisection levels of one quadrature interval
GL_NODES = 64            # Gauss-Legendre nodes per panel
NEWTON_TOL = 1e-12       # last step of the median's Newton iteration, in u
MEDIAN_STEPS = 60        # Newton or bisection steps of one median, at most
# Rows per `log_g` call of the lock-step quadrature and median (calls for
# all rows at once ran slower and raised peak memory; 8-32 performed alike).
LOCKSTEP_ROWS = 16
GAMMA_COLUMNS = ("med", "iqr", "vol")

EngineModel = RVineModel | ArchimedeanModel


def engine_fits() -> dict:
    """Engine name -> the fit of one class density's copula, cold or from a
    template.  The table is built from this module's bindings at each call,
    so a fit function rebound here after import (a tracing wrapper) is the
    one called."""
    return {"rvine": fit_sequential, "archimedean": fit_archimedean}


def check_epsilon(epsilon: float) -> None:
    """The one rule for the composition band width: 0 < epsilon < 0.5."""
    if not (0.0 < epsilon < 0.5):
        raise ArgumentError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")


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
        """The engine is one of `engine_fits`; the Archimedean engine
        searches only `ARCHIMEDEAN_FAMILIES`."""
        if engine not in engine_fits():
            raise ArgumentError(f"unknown engine {engine!r}")
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
        check_epsilon(self.epsilon)
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
    check_epsilon(epsilon)
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
    kw = {} if settings.candidates is None else {"candidates": settings.candidates}
    fit = engine_fits()[engine]
    return fit(data.matrix, marginals, min_rows=settings.min_rows, template=template, **kw)


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
    keeps its structure and families, re-estimating parameters only: each
    theta is refitted from a warm bracket around the template's, the one
    template refit of both engines (`copulas._refit_near`).  An unknown
    engine raises ArgumentError before any fitting.
    """
    settings.check_engine(engine)
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
# quadrature in the copula coordinate of the composition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gl_nodes(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _g_rows(log_g, rows: np.ndarray, todo: list[int], u: np.ndarray) -> np.ndarray:
    """g = exp(log_g) at the abscissae u[j] (a (len(todo), m) matrix) of
    head row rows[todo[j]], flattened row by row, from one `log_g` call per
    LOCKSTEP_ROWS rows.  `todo` lists positions in `rows` in order."""
    if len(todo) < rows.size:
        rows = rows[todo]
    with np.errstate(all="ignore"):
        if rows.size == 1:      # a lone row broadcasts, as log_g allows
            return np.exp(log_g(u.ravel(), rows))
        return np.concatenate([
            np.exp(log_g(u[start:start + LOCKSTEP_ROWS].ravel(),
                         rows[start:start + LOCKSTEP_ROWS].repeat(u.shape[1])))
            for start in range(0, rows.size, LOCKSTEP_ROWS)])


def _panel_sums(log_g, rows: np.ndarray, todo: list[int], bounds) -> list[float]:
    """GL_NODES-node Gauss-Legendre sums of g over each (a, b) of
    `bounds[j]` on head row rows[todo[j]], row by row; every row has as
    many intervals."""
    n = GL_NODES
    nodes, weights = _gl_nodes(n)
    scales = [(0.5 * (a + b), 0.5 * (b - a)) for row in bounds for a, b in row]
    mid_half = np.array(scales)
    values = _g_rows(log_g, rows, todo, (mid_half[:, :1] + mid_half[:, 1:] * nodes)
                     .reshape(len(todo), -1))
    # one dot per panel: a batched product sums in another order
    return [float(half * np.dot(weights, values[i * n:(i + 1) * n]))
            for i, (_, half) in enumerate(scales)]


def adaptive_integral(log_g, rows) -> tuple[np.ndarray, tuple[list, ...]]:
    """The integral of g_i(u) = exp(log_g(u, i)) over [0, 1] for each head
    row i of `rows`, by adaptive GL_NODES-node Gauss-Legendre with interval
    bisection; returns (integrals, panels).

    Each row keeps its own stack of intervals.  An interval on the stack
    carries its own panel and its two half panels; splitting it evaluates
    the four quarter panels, so an interval accepted at once costs nothing
    more.  An interval is accepted when its halves' sum differs from its
    panel by at most QUAD_TOL times the row's current estimate of its
    integral (the accepted panels plus the halves of the open intervals),
    so the error bar is relative to the integral however small it is; or at
    MAX_DEPTH.  The rows run in lock step: each pops intervals until it
    meets one that must split, then the pending splits of all rows are
    evaluated together (`_g_rows`), so a round costs one `log_g` call per
    LOCKSTEP_ROWS rows.  A row's panels, their order and its sums are those
    of integrating it alone.  `panels[k]` lists row k's accepted intervals
    (lo, hi, halves' sum) from left to right, and its integral is their sum
    in that order.
    """
    rows = np.asarray(rows)
    if not rows.size:
        return np.array([]), ()
    todo = list(range(rows.size))
    first = _panel_sums(log_g, rows, todo, [((0.0, 1.0), (0.0, 0.5), (0.5, 1.0))] * rows.size)
    stacks, estimate, panels = [], [], []
    for k in range(rows.size):
        whole, left, right = first[3 * k:3 * k + 3]
        stacks.append([(0.0, 1.0, 0, whole, left, right)])
        estimate.append(left + right)
        panels.append([])
    while todo:
        split, bounds = [], []
        for k in todo:
            stack, tol = stacks[k], QUAD_TOL * abs(estimate[k])
            while stack:
                lo, hi, depth, whole, left, right = interval = stack.pop()
                # a NaN error is accepted: splitting could not end before MAX_DEPTH
                if depth >= MAX_DEPTH or not abs(left + right - whole) > tol:
                    panels[k].append((lo, hi, left + right))
                    continue
                mid = 0.5 * (lo + hi)
                q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
                split.append((k, mid, interval))
                bounds.append(((lo, q1), (q1, mid), (mid, q3), (q3, hi)))
                break
        if not split:
            break
        if len(split) < len(todo):
            todo = [k for k, _, _ in split]
        sums = iter(_panel_sums(log_g, rows, todo, bounds))
        quarters = zip(sums, sums, sums, sums)
        for (k, mid, (lo, hi, depth, _, left, right)), (ll, lr, rl, rr) in zip(split, quarters):
            estimate[k] += (ll + lr) + (rl + rr) - (left + right)
            # the left half is popped first, so panels come out left to right
            stacks[k].append((mid, hi, depth + 1, right, rl, rr))
            stacks[k].append((lo, mid, depth + 1, left, ll, lr))
    totals = []
    for row_panels in panels:
        total = 0.0
        for _, _, value in row_panels:
            total += value
        totals.append(total)
    return np.array(totals), tuple(panels)


@dataclass(frozen=True)
class CompositionSlices:
    """f_c's composition slices at n CT rows, integrated in the copula
    coordinate u = F_rat(s) of the composition.

    With (const, log_g) from the engine's `copula_slice`,
    f_c(ct_i, s) = exp(const_i) f_rat(s) g_i(F_rat(s)), so
    Z_i = exp(const_i) z_u[i], z_u[i] the integral of g_i over [0, 1]; the
    integrand carries no marginal of rat.  `panels[i]` are row i's accepted
    panels from `adaptive_integral`, and `index[i]` is its row of the head
    that `log_g` was built on.
    """

    const: np.ndarray
    log_g: object
    index: np.ndarray
    z_u: np.ndarray
    panels: tuple[list, ...]

    @classmethod
    def at(cls, model: CompositeModel, ct: np.ndarray) -> "CompositionSlices":
        """The slices of the (n, d_ct) rows `ct`: one `copula_slice` call,
        then one lock-step adaptive integral of all rows."""
        with np.errstate(all="ignore"):
            const, log_g = model.f_c.copula_slice(ct)
        index = np.arange(ct.shape[0])
        z_u, panels = adaptive_integral(log_g, index)
        return cls(const, log_g, index, z_u, panels)

    @property
    def z(self) -> np.ndarray:
        """f_c marginalised over the composition, per row."""
        with np.errstate(all="ignore"):
            return np.exp(self.const) * self.z_u

    def take(self, idx) -> "CompositionSlices":
        """The slices of the rows `idx` alone."""
        return CompositionSlices(self.const[idx], self.log_g, self.index[idx],
                                 self.z_u[idx], tuple(self.panels[i] for i in idx))

    def median_u(self) -> np.ndarray:
        """Per row i, the u at which the integral of g_i from 0 reaches
        z_u[i] / 2.  A row without positive finite mass raises FittingError.

        The running sum of the row's panels, left to right, finds the panel
        [lo, hi] where it crosses z_u / 2.  There the crossing m solves
        H(m) = (the integral of g_i over [lo, m]) - (what is left of
        z_u / 2) = 0 by Newton steps inside a bracket: each step evaluates
        g_i on the GL_NODES nodes of [lo, m] and at m, narrows the bracket
        by the sign of H(m), and takes the bracket's midpoint where the step
        leaves it.  A row stops once its step or its bracket is NEWTON_TOL
        or less, or after MEDIAN_STEPS steps.  The rows step in lock step,
        one `log_g` call per LOCKSTEP_ROWS rows still stepping, and each
        row's steps are those it would take alone.
        """
        if not np.all((self.z_u > 0.0) & np.isfinite(self.z_u)):
            raise FittingError("conditional composition density has no mass")
        lo, a, b, m, target = [], [], [], [], []
        for z_u, row_panels in zip(self.z_u, self.panels):
            half = 0.5 * z_u
            below = 0.0
            for p_lo, p_hi, value in row_panels:
                if below + value >= half:
                    break
                below += value
            lo.append(p_lo)
            a.append(p_lo)
            b.append(p_hi)
            target.append(half - below)
            # the chord's crossing
            m.append(p_lo + (p_hi - p_lo) * min(max(target[-1] / value, 0.0), 1.0))
        n = GL_NODES
        nodes, weights = _gl_nodes(n)
        todo = list(range(len(m)))
        for _ in range(MEDIAN_STEPS):
            if not todo:
                break
            scales = [(0.5 * (lo[k] + m[k]), 0.5 * (m[k] - lo[k])) for k in todo]
            mid_half = np.array(scales)
            u = np.empty((len(todo), n + 1))
            u[:, :n] = mid_half[:, :1] + mid_half[:, 1:] * nodes
            u[:, n] = [m[k] for k in todo]
            values = _g_rows(self.log_g, self.index, todo, u)
            stepping = []
            for i, (k, (_, scale)) in enumerate(zip(todo, scales)):
                start = i * (n + 1)
                h = scale * float(np.dot(weights, values[start:start + n])) - target[k]
                slope = float(values[start + n])
                if slope > 0.0 and abs(h) <= NEWTON_TOL * slope:
                    m[k] = m[k] - h / slope
                    continue
                if h < 0.0:
                    a[k] = m[k]
                else:
                    b[k] = m[k]
                step = m[k] - h / slope if slope > 0.0 else b[k]
                m[k] = step if a[k] < step < b[k] else 0.5 * (a[k] + b[k])
                if b[k] - a[k] > NEWTON_TOL:
                    stepping.append(k)
            todo = stepping
        return np.array(m)


def _ct_rows(model: CompositeModel, ct) -> tuple[np.ndarray, bool]:
    """(the CT rows as an (n, d_ct) matrix, whether `ct` was one vector)."""
    arr = np.asarray(ct, dtype=float)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.ndim != 2 or rows.shape[1] != model.d_ct:
        raise ArgumentError(f"expected a {model.d_ct}-dimensional CT vector "
                            f"or an (n, {model.d_ct}) matrix")
    if not np.all(np.isfinite(rows)):
        raise ArgumentError("CT descriptor vector must be finite")
    return rows, single


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

def marginal_composite_ct(model: CompositeModel, ct):
    """f_c marginalised over the composition coordinate, by quadrature in
    its copula coordinate: a float for one CT vector, an array for the rows
    of a matrix."""
    rows, single = _ct_rows(model, ct)
    z = CompositionSlices.at(model, rows).z
    return float(z[0]) if single else z


def conditional_median(model: CompositeModel, ct,
                       slices: CompositionSlices | None = None):
    """Median of f_c(x7 | ct): a float for one CT vector, an array for the
    rows of a matrix.

    The rows' medians in the copula coordinate, found in lock step by
    `CompositionSlices.median_u`, map back through one vectorised quantile
    call of the rat marginal for all rows.  `slices` is
    `CompositionSlices.at(model, rows)` when the caller already has it.
    """
    rows, single = _ct_rows(model, ct)
    slices = slices or CompositionSlices.at(model, rows)
    u = slices.median_u()
    med = model.f_c.marginals[-1].quantile(np.clip(u, COND_CLAMP, 1.0 - COND_CLAMP))
    return float(med[0]) if single else med


def predict_vfvm(model: CompositeModel, ct):
    """Predict the valuable-mineral volume fraction from CT descriptors:
    a `Prediction` for one CT vector, a list of them for the rows of an
    (n, d_ct) matrix.

    Classification compares the class-weighted likelihoods; the valuable
    class wins ties (>=), non-valuable needs strict dominance (>), and the
    composite branch outputs the conditional median.  The pure-class
    likelihoods of all rows take one `log_density` call per class; a row's
    prediction does not depend on the other rows.
    """
    rows, single = _ct_rows(model, ct)
    n = model.n
    with np.errstate(all="ignore"):
        like_v = model.n_v / n * np.exp(model.f_v.log_density(rows))
        like_nv = model.n_nv / n * np.exp(model.f_nv.log_density(rows))
    slices = CompositionSlices.at(model, rows)
    like_c = model.n_c / n * slices.z

    out: list[Prediction | None] = []
    for v, nv, c in zip(like_v.tolist(), like_nv.tolist(), like_c.tolist()):
        if v <= 0.0 and nv <= 0.0 and c <= 0.0:
            out.append(Prediction(value=None, label="out_of_support"))
        elif v >= max(c, nv):
            out.append(Prediction(value=1.0, label="valuable"))
        elif nv > max(c, v):
            out.append(Prediction(value=0.0, label="non_valuable"))
        else:
            out.append(None)
    composite = [i for i, p in enumerate(out) if p is None]
    if composite:
        medians = conditional_median(model, rows[composite], slices.take(composite))
        for i, med in zip(composite, medians.tolist()):
            out[i] = Prediction(value=med, label="composite")
    return out[0] if single else out
