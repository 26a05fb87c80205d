"""Two-component gamma/beta mixture marginals.

Each univariate descriptor distribution is modeled as

    f(x) = lambda * f1(x) + (1 - lambda) * f2(x)

with both components from the same family (gamma with shape/scale, or beta
on (0, 1)).  Parameters are estimated by maximum likelihood, with an
observed-data log-likelihood that is non-decreasing by construction.  A
few guarded EM maps (any M-step update that fails to improve the weighted
complete-data objective is rejected in favor of the previous parameters)
lead into a safeguarded Newton iteration on the observed-data
log-likelihood, whose steps are kept only where they raise it inside the
M-step box; a step that cannot falls back to one guarded EM map.

An optional truncation interval renormalizes the density to a sub-interval
of the support (used for the composite-class composition marginal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ArgumentError, FittingError

BETA_CLAMP = 1e-6          # beta-family data clamped to [BETA_CLAMP, 1 - BETA_CLAMP]
COLLAPSE_WEIGHT = 1e-6     # mixing weight below which a component is considered dead
TABLE_POINTS = 65          # cdf table points that seed each quantile's bracket
TABLE_LEVEL = 1.0 - 1e-12  # cdf level the table reaches on an unbounded support
NEWTON_STEPS = 8           # Newton points per quantile before plain bisection
START_MAPS = 2             # guarded EM maps of a cold start before Newton begins
HALVINGS = 10              # Newton step lengths 1, 1/2, ..., 1/512 tried before an EM map
GAMMA_BOX = ((1e-3, 1e6), (1e-12, 1e12))    # shape, scale: the M-step's clamps
BETA_BOX = ((1e-3, 1e7), (1e-3, 1e7))       # p, q


@dataclass(frozen=True)
class GammaParams:
    """Gamma density x^(a-1) exp(-x/b) / (b^a Gamma(a)) with shape a, scale b."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)
                and self.alpha > 0 and self.beta > 0):
            raise ArgumentError(f"gamma parameters must be finite and positive: {self}")

    @property
    def mean(self) -> float:
        return self.alpha * self.beta

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.logpdf_from_logs(x, np.log(x))
        return np.where(x > 0, out, -np.inf)

    def logpdf_from_logs(self, x, lx):
        """The log-density at x > 0 given lx = log(x), without the support
        mask of `logpdf`."""
        return ((self.alpha - 1.0) * lx - x / self.beta
                - self.alpha * np.log(self.beta) - special.gammaln(self.alpha))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.gammainc(self.alpha, np.maximum(x, 0.0) / self.beta)


@dataclass(frozen=True)
class BetaParams:
    """Beta density x^(p-1) (1-x)^(q-1) / B(p, q) on (0, 1)."""

    p: float
    q: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and np.isfinite(self.q) and self.p > 0 and self.q > 0):
            raise ArgumentError(f"beta parameters must be finite and positive: {self}")

    @property
    def mean(self) -> float:
        return self.p / (self.p + self.q)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.logpdf_from_logs(np.log(x), np.log1p(-x))
        return np.where((x > 0) & (x < 1), out, -np.inf)

    def logpdf_from_logs(self, lx, l1mx):
        """The log-density at x in (0, 1) given lx = log(x) and
        l1mx = log1p(-x), without the support mask of `logpdf`."""
        return (self.p - 1.0) * lx + (self.q - 1.0) * l1mx - special.betaln(self.p, self.q)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return special.betainc(self.p, self.q, x.clip(0.0, 1.0))


@dataclass(frozen=True)
class MixtureModel:
    """Two-component mixture with optional truncation to a sub-interval."""

    family: str                      # "gamma" | "beta"
    comp1: GammaParams | BetaParams
    comp2: GammaParams | BetaParams
    lam: float                       # weight of comp1, in [0, 1]
    truncation: tuple[float, float] | None = None
    degenerate: bool = False         # set when EM hit a collapse/zero-variance path

    def __post_init__(self):
        if self.family not in ("gamma", "beta"):
            raise ArgumentError(f"unknown mixture family {self.family!r}")
        if not (0.0 <= self.lam <= 1.0):
            raise ArgumentError(f"mixing ratio must lie in [0, 1], got {self.lam}")
        if self.truncation is not None:
            lo, hi = self.truncation
            if not lo < hi:
                raise ArgumentError(f"empty truncation interval {self.truncation}")
            base_lo, base_hi = self._base_support
            if not base_lo <= lo < hi <= base_hi:
                raise ArgumentError(f"truncation interval {self.truncation} leaves "
                                    f"the {self.family} support {self._base_support}")
            # F(lo) and the truncated mass, evaluated once instead of on every
            # cdf/density call; plain attributes, not fields, so equality and
            # the persisted document never see them
            cdf_lo = self._raw_cdf(lo)
            object.__setattr__(self, "_cdf_lo", cdf_lo)
            object.__setattr__(self, "_mass", float(self._raw_cdf(hi) - cdf_lo))

    @property
    def _base_support(self) -> tuple[float, float]:
        return (0.0, np.inf) if self.family == "gamma" else (0.0, 1.0)

    @property
    def support(self) -> tuple[float, float]:
        return self._base_support if self.truncation is None else self.truncation

    def _raw_density(self, x):
        """The untruncated mixture density.  A beta value on the closed
        [0, 1] is scored as `fit_mixture_em` sees it, clamped into
        [BETA_CLAMP, 1 - BETA_CLAMP]; a value outside [0, 1] is out of
        support.  Both components share one set of logs."""
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.family == "gamma":
                inside, logs = x > 0, (x, np.log(x))
            else:
                inside = (x >= 0.0) & (x <= 1.0)
                at = x.clip(BETA_CLAMP, 1.0 - BETA_CLAMP)
                logs = (np.log(at), np.log1p(-at))
            d1 = np.exp(self.comp1.logpdf_from_logs(*logs))
            d2 = np.exp(self.comp2.logpdf_from_logs(*logs))
        return np.where(inside, self.lam * d1 + (1.0 - self.lam) * d2, 0.0)

    def _raw_cdf(self, x):
        return self.lam * self.comp1.cdf(x) + (1.0 - self.lam) * self.comp2.cdf(x)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if self.truncation is None:
            return self._raw_density(x)
        lo, hi = self.truncation
        inside = (x > lo) & (x < hi)
        return np.where(inside, self._raw_density(x) / self._mass, 0.0)

    def log_density(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.density(x))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.truncation is None:
            return self._raw_cdf(x)
        lo, hi = self.truncation
        scaled = (self._raw_cdf(x.clip(lo, hi)) - self._cdf_lo) / self._mass
        return scaled.clip(0.0, 1.0)

    def quantile(self, p):
        """Inverse CDF by bracketed Newton, each element on its own.

        Each element keeps a bracket lo < root <= hi under bisection's sign
        rule: an evaluated point x becomes lo where cdf(x) < p, else hi.
        The bracket starts at the cell x_{k-1} < root <= x_k of a cdf table
        over [support lo, T], and the first point is the linear interpolate
        in that cell.  T is the support's upper end when that is finite;
        otherwise it is the first t_0 * 2^k, t_0 the larger component mean
        + 1, with cdf(T) >= TABLE_LEVEL, and an element with p above cdf(T)
        doubles its own bracket from T.  The table is TABLE_POINTS evenly
        spaced points plus one at half the stop tolerance inside each end:
        a bracket that starts in such an end cell has already stopped, so
        every root that close to an end returns the cell's midpoint and the
        result stays non-decreasing in p there.

        Each next point is the Newton point x - (cdf(x) - p) / density(x).
        A Newton step shorter than a quarter of the tolerance is taken that
        long instead, past the root, so the next evaluation closes the
        bracket.  The bracket midpoint replaces a Newton point that is not
        finite, falls outside the open bracket or comes after NEWTON_STEPS
        steps, so an element the Newton steps do not serve ends as plain
        bisection.

        An element stops when hi - lo < 1e-14 * max(1, |hi|) and returns
        0.5 * (lo + hi): plain bisection's stop rule and result, applied per
        element.  The table and every step depend only on the model and that
        element's p, so a value's bits do not depend on the other values of
        the call.
        """
        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ArgumentError("quantile probabilities must lie in (0, 1)")
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        if not p.size:
            return np.empty(p.shape)
        bottom, top = self.support
        unbounded = np.isinf(top)
        if unbounded:
            top = max(self.comp1.mean, self.comp2.mean) + 1.0
            while self.cdf(top) < TABLE_LEVEL:
                top *= 2.0
        xs = np.concatenate([[bottom, bottom + 0.5e-14 * max(1.0, abs(bottom))],
                             np.linspace(bottom, top, TABLE_POINTS)[1:-1],
                             [top - 0.5e-14 * max(1.0, abs(top)), top]])
        fs = np.maximum.accumulate(self.cdf(xs))
        k = np.searchsorted(fs, p).clip(1, xs.size - 1)
        lo, hi, f_lo, f_hi = xs[k - 1], xs[k], fs[k - 1], fs[k]
        far = np.flatnonzero(unbounded & (p > fs[-1]))
        while far.size:
            lo[far], f_lo[far] = hi[far], f_hi[far]
            hi[far] *= 2.0
            f_hi[far] = self.cdf(hi[far])
            far = far[f_hi[far] < p[far]]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = lo + (p - f_lo) / (f_hi - f_lo) * (hi - lo)
            todo = np.flatnonzero(hi - lo >= 1e-14 * np.maximum(1.0, np.abs(hi)))
            steps = 0
            while todo.size:
                a, b, q, t = lo[todo], hi[todo], p[todo], x[todo]
                newton = np.isfinite(t) & (t > a) & (t < b) & (steps <= NEWTON_STEPS)
                t = np.where(newton, t, 0.5 * (a + b))
                c = self.cdf(t)
                below = c < q
                lo[todo] = a = np.where(below, t, a)
                hi[todo] = b = np.where(below, b, t)
                tol = 1e-14 * np.maximum(1.0, np.abs(b))
                going = b - a >= tol
                todo, t, c, q = todo[going], t[going], c[going], q[going]
                step = (c - q) / self.density(t)
                nudge = np.where(below[going], -0.25, 0.25) * tol[going]
                x[todo] = t - np.where(np.abs(step) < 0.25 * tol[going], nudge, step)
                steps += 1
        out = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------

def _gamma_mom(x: np.ndarray) -> GammaParams:
    m = np.mean(x)
    v = np.mean((x - m) ** 2)
    v = max(v, 1e-12 * max(m * m, 1e-12))
    alpha = np.clip(m * m / v, 1e-3, 1e6)
    beta = np.clip(m / alpha, 1e-12, 1e12)
    return GammaParams(float(alpha), float(beta))


def _beta_mom(x: np.ndarray) -> BetaParams:
    m = np.mean(x)
    v = np.mean((x - m) ** 2)
    v = min(max(v, 1e-12), m * (1.0 - m) * 0.999)
    s = m * (1.0 - m) / v - 1.0
    p = np.clip(m * s, 1e-3, 1e6)
    q = np.clip((1.0 - m) * s, 1e-3, 1e6)
    return BetaParams(float(p), float(q))


def _weighted_gamma_mle(x: np.ndarray, lx: np.ndarray, w: np.ndarray,
                        start: GammaParams | None = None) -> GammaParams:
    """Maximize the w-weighted gamma log-likelihood (Newton on the shape).

    `lx` is log(x), computed once per EM run by the caller.  Newton starts
    from `start`'s shape, or from the closed-form approximation to the root
    when `start` is None.
    """
    wsum = w.sum()
    mean_x = float((w * x).sum() / wsum)
    mean_lx = float((w * lx).sum() / wsum)
    s = np.log(mean_x) - mean_lx
    if s <= 1e-12:  # zero-variance weighting; push towards a spike
        alpha = 1e6
    else:
        if start is None:
            alpha = (3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        else:
            alpha = start.alpha
        for _ in range(40):
            g = np.log(alpha) - special.digamma(alpha) - s
            # zeta(2, a) is the trigamma function, bit-equal to polygamma(1, a)
            # without that wrapper's array round trip
            gp = 1.0 / alpha - special.zeta(2.0, alpha)
            step = g / gp
            new = alpha - step
            if new <= 0:
                new = alpha / 2.0
            if abs(new - alpha) < 1e-12 * alpha:
                alpha = new
                break
            alpha = new
    (a_lo, a_hi), (b_lo, b_hi) = GAMMA_BOX
    alpha = float(min(max(alpha, a_lo), a_hi))
    beta = float(min(max(mean_x / alpha, b_lo), b_hi))
    return GammaParams(alpha, beta)


def _weighted_beta_mle(lx: np.ndarray, l1mx: np.ndarray, w: np.ndarray,
                       start: BetaParams) -> BetaParams:
    """Maximize the w-weighted beta log-likelihood (2-D Newton with damping).

    `lx` and `l1mx` are log(x) and log1p(-x), computed once per EM run.
    A Newton step evaluates digamma and trigamma once each, on the array
    (p, q, p + q).
    """
    wsum = w.sum()
    c1 = float((w * lx).sum() / wsum)
    c2 = float((w * l1mx).sum() / wsum)
    p, q = start.p, start.q
    for _ in range(60):
        # Python floats from here on: the same IEEE arithmetic, less overhead
        args = np.array([p, q, p + q])
        psi_p, psi_q, common = special.digamma(args).tolist()
        tri_p, tri_q, tri = special.zeta(2.0, args).tolist()
        g1 = psi_p - common - c1
        g2 = psi_q - common - c2
        j11 = tri_p - tri
        j22 = tri_q - tri
        det = j11 * j22 - tri * tri
        if not math.isfinite(det) or abs(det) < 1e-300:
            break
        dp = (g1 * j22 + g2 * tri) / det
        dq = (g2 * j11 + g1 * tri) / det
        # Jacobian off-diagonal is -tri; solve [j11 -tri; -tri j22] [dp dq] = [g1 g2]
        step = 1.0
        while (p - step * dp <= 0 or q - step * dq <= 0) and step > 1e-8:
            step /= 2.0
        p_new, q_new = p - step * dp, q - step * dq
        if abs(p_new - p) < 1e-12 * p and abs(q_new - q) < 1e-12 * q:
            p, q = p_new, q_new
            break
        p, q = p_new, q_new
    (p_lo, p_hi), (q_lo, q_hi) = BETA_BOX
    p = float(min(max(p, p_lo), p_hi))
    q = float(min(max(q, q_lo), q_hi))
    return BetaParams(p, q)


class _EmState(NamedTuple):
    """An EM iterate with the arrays the next iteration reuses."""

    c1: GammaParams | BetaParams
    c2: GammaParams | BetaParams
    lam: float
    d1: np.ndarray              # component log-densities at the data
    d2: np.ndarray
    l1: np.ndarray              # d1 + log(lam)
    norm: np.ndarray            # log mixture density at the data
    ll: float                   # norm.sum()


def _order_components(model: MixtureModel) -> MixtureModel:
    """Resolve label switching: component 1 is the one with the smaller mean."""
    if model.comp1.mean <= model.comp2.mean:
        return model
    return replace(model, comp1=model.comp2, comp2=model.comp1, lam=1.0 - model.lam)


def _coords(s: _EmState) -> list[float]:
    """An iterate's Newton coordinates: the logs of both components'
    parameters, then logit(lam).  Five numbers, so plain floats and `math`
    are cheaper than arrays."""
    params = [*vars(s.c1).values(), *vars(s.c2).values()]
    return [math.log(v) for v in params] + [math.log(s.lam) - math.log1p(-s.lam)]


def _ascent_direction(grad: np.ndarray, hess: np.ndarray):
    """(d, decrement): the Newton step of a function with gradient `grad`
    and Hessian `hess`, with every eigenvalue of `hess` replaced by minus
    its magnitude, floored at 1e-8 of the largest, so d ascends also where
    the function is not concave; decrement = grad . d >= 0."""
    e, v = np.linalg.eigh(hess)
    mag = np.abs(e)
    mag = np.maximum(mag, 1e-8 * mag.max())
    along = v.T @ grad
    return v @ (along / mag), float(along @ (along / mag))


class _Sample:
    """The in-support sample of one EM run, with the logs that every
    component log-density reuses, and the run's two kinds of iteration:
    a guarded EM map and a safeguarded Newton step."""

    def __init__(self, x: np.ndarray, family: str):
        lx = np.log(x)
        self.n = x.size
        self.family = family
        if family == "gamma":
            self.make = GammaParams
            self.logs = (x, lx)
            box = GAMMA_BOX
        else:
            self.make = BetaParams
            self.logs = (lx, np.log1p(-x))
            box = BETA_BOX
        self.lo = [lo for lo, _ in box] * 2
        self.hi = [hi for _, hi in box] * 2

    def logpdf(self, c) -> np.ndarray:
        # the filtered/clamped sample lies in the support: no mask needed
        return c.logpdf_from_logs(*self.logs)

    def state(self, c1, c2, lam, d1=None, d2=None) -> _EmState:
        d1 = self.logpdf(c1) if d1 is None else d1
        d2 = self.logpdf(c2) if d2 is None else d2
        l1 = d1 + np.log(max(lam, 1e-300))
        norm = np.logaddexp(l1, d2 + np.log(max(1.0 - lam, 1e-300)))
        return _EmState(c1, c2, lam, d1, d2, l1, norm, float(norm.sum()))

    def em_map(self, s: _EmState, g1: np.ndarray, lam: float,
               first: bool) -> _EmState:
        """One EM map from the E-step weights g1 (lam = mean(g1)): guarded
        M-steps, then a check that the log-likelihood did not fall."""
        if self.family == "gamma":
            x, lx = self.logs

            def mle(w, old):
                # a map in a run's first iteration starts from a moment
                # fit or a warm start, not an M-step result: Newton on the
                # shape starts from the closed form there
                return _weighted_gamma_mle(x, lx, w, None if first else old)
        else:
            def mle(w, old):
                return _weighted_beta_mle(*self.logs, w, old)

        def improved(old, d_old, resp):
            # an update that lowers the component's weighted objective is
            # dropped, which keeps the map monotone
            new = mle(resp, old)
            d_new = self.logpdf(new)
            q_old = float((resp * d_old).sum())
            q_new = float((resp * d_new).sum())
            return (new, d_new) if q_new >= q_old else (old, d_old)

        c1, d1 = improved(s.c1, s.d1, g1)
        c2, d2 = improved(s.c2, s.d2, 1.0 - g1)
        new = self.state(c1, c2, lam, d1, d2)
        if new.ll < s.ll - 1e-8 * max(1.0, abs(s.ll)):
            raise FittingError("EM log-likelihood decreased; numerical failure")
        return new

    def newton_direction(self, s: _EmState, g1: np.ndarray):
        """(d, decrement) of `_ascent_direction` for the observed-data
        log-likelihood at s in `_coords`, or None where the derivatives
        are not finite.

        The gradient sums the per-row scores weighted by the E-step: a
        component's log-density scores in its log-parameters, and
        g1 - lam for logit(lam).  The Hessian is Louis's observed
        information with its sign flipped: the E-step mean of the
        complete-data Hessian plus the E-step covariance of the
        complete-data score, which per row is g1 g2 w w' with
        w = (scores of comp1, -scores of comp2, 1).
        """
        n, lam = self.n, s.lam
        g2 = 1.0 - g1
        m1 = float(g1.sum())
        m2 = n - m1
        w = np.empty((5, n))
        w[4] = 1.0
        (u1, v1), (u2, v2) = vars(s.c1).values(), vars(s.c2).values()
        if self.family == "gamma":
            x, lx = self.logs
            psi = special.digamma([u1, u2]).tolist()
            tri = special.zeta(2.0, [u1, u2]).tolist()
            for row, a, b, ps in ((0, u1, v1, psi[0]), (2, u2, v2, psi[1])):
                np.multiply(a, lx - (math.log(b) + ps), out=w[row])
                np.subtract(x / b, a, out=w[row + 1])
        else:
            lx, l1mx = self.logs
            args = [u1, v1, u1 + v1, u2, v2, u2 + v2]
            psi = special.digamma(args).tolist()
            tri = special.zeta(2.0, args).tolist()
            for row, p, q, k in ((0, u1, v1, 0), (2, u2, v2, 3)):
                np.multiply(p, lx - (psi[k] - psi[k + 2]), out=w[row])
                np.multiply(q, l1mx - (psi[k + 1] - psi[k + 2]), out=w[row + 1])
        grad = np.empty(5)
        grad[:2] = w[:2] @ g1
        grad[2:4] = w[2:4] @ g2
        grad[4] = m1 - n * lam
        w[2:4] *= -1.0
        hess = (w * (g1 * g2)) @ w.T
        # add the E-step mean of each component's complete-data Hessian,
        # in terms of the component's weighted score sums ga, gb and
        # weight m
        ga1, gb1, ga2, gb2 = grad[:4].tolist()
        for i, a, b, ga, gb, m, k in ((0, u1, v1, ga1, gb1, m1, 0),
                                      (2, u2, v2, ga2, gb2, m2, 1)):
            if self.family == "gamma":       # a, b: shape, scale
                haa = ga - a * a * tri[k] * m
                hab = -a * m
                hbb = -gb - a * m
            else:                            # a, b: p, q
                tp, tq, ts = tri[3 * k:3 * k + 3]
                haa = ga - a * a * (tp - ts) * m
                hab = a * b * ts * m
                hbb = gb - b * b * (tq - ts) * m
            hess[i, i] += haa
            hess[i, i + 1] += hab
            hess[i + 1, i] += hab
            hess[i + 1, i + 1] += hbb
        hess[4, 4] -= n * lam * (1.0 - lam)
        # a NaN or an infinity anywhere makes the sum NaN or infinite
        if not math.isfinite(float(grad.sum() + hess.sum())):
            return None
        return _ascent_direction(grad, hess)

    def line_search(self, s: _EmState, d: np.ndarray) -> _EmState | None:
        """The first of the steps s + d, s + d/2, ... (HALVINGS in all)
        whose parameters lie in the M-step box, whose lam lies in
        (COLLAPSE_WEIGHT, 1 - COLLAPSE_WEIGHT) and whose log-likelihood
        exceeds s's; None if there is none."""
        theta = _coords(s)
        d = d.tolist()
        step = 1.0
        for _ in range(HALVINGS):
            t = [u + step * v for u, v in zip(theta, d)]
            step *= 0.5
            try:
                params = [math.exp(u) for u in t[:4]]
                lam = 1.0 / (1.0 + math.exp(-t[4]))
            except OverflowError:
                continue
            if not (COLLAPSE_WEIGHT < lam < 1.0 - COLLAPSE_WEIGHT
                    and all(lo <= v <= hi
                            for lo, v, hi in zip(self.lo, params, self.hi))):
                continue
            new = self.state(self.make(*params[:2]), self.make(*params[2:]), lam)
            if new.ll > s.ll:               # false for a NaN log-likelihood
                return new
        return None


def fit_mixture_em(data, family: str, max_iter: int = 500, tol: float = 1e-8,
                   truncation: tuple[float, float] | None = None,
                   init: MixtureModel | None = None) -> MixtureModel:
    """Fit a two-component mixture by maximum likelihood: EM, then
    safeguarded Newton on the observed-data log-likelihood ll.

    Initialization is deterministic: the sample is split at its median and
    a method-of-moments fit of each half seeds the components, with
    lambda = 0.5.  From there a cold start takes START_MAPS guarded EM maps
    before Newton begins.  A warm start (`init`, with lambda clipped to
    [0.01, 0.99]) begins Newton at that model, which makes restarts on
    slightly perturbed data cheap.  On multimodal data the start decides
    which mode the fit ends in, and more EM maps before Newton are not
    always closer to the plain EM loop's: the number of start maps is
    pinned.

    One EM map is an E-step and guarded M-steps: a component update that
    would lower its weighted objective is discarded, so a map never lowers
    ll; a map that lowers it by more than rounding raises FittingError.
    A Newton iteration (Redner & Walker 1984, SIAM Rev. 26) works in the
    coordinates theta = (the log of each component parameter, logit
    lambda).  It takes the analytic gradient and the observed information
    of Louis (1982, JRSS B 44), replaces each Hessian eigenvalue by minus
    its magnitude so the step ascends also where ll is not concave, and
    halves the step, up to HALVINGS times, until it stays inside the M-step
    box (GAMMA_BOX, BETA_BOX), keeps lambda in (COLLAPSE_WEIGHT,
    1 - COLLAPSE_WEIGHT) and raises ll strictly.  A step that finds no
    such point falls back to one guarded EM map, so ll never falls.

    The run stops when the Newton decrement grad . d falls below
    tol * max(1, |ll|), or when a fallback map gains less than that.  Every
    iteration starts with an E-step; one whose weight mean(g1) lies below
    COLLAPSE_WEIGHT or above 1 - COLLAPSE_WEIGHT ends the run with a
    degenerate model.  `max_iter` counts iterations: Newton steps plus EM
    maps.

    Parameters
    ----------
    data : array_like
        Raw observations.  Gamma fits use only the x > 0 samples; beta fits
        clamp samples into [1e-6, 1 - 1e-6].
    family : {"gamma", "beta"}
    truncation : tuple, optional
        Attach a truncation interval to the returned model (the fit itself
        runs on the untruncated likelihood; the returned density is
        renormalized over the interval).
    """
    if family not in ("gamma", "beta"):
        raise ArgumentError(f"unknown mixture family {family!r}")
    x = np.asarray(data, dtype=float).ravel()
    if family == "gamma":
        x = x[x > 0]
    else:
        x = np.clip(x[np.isfinite(x)], BETA_CLAMP, 1.0 - BETA_CLAMP)
    if x.size < 10:
        raise FittingError(
            f"need at least 10 in-support samples to fit a {family} mixture, got {x.size}")

    mom = _gamma_mom if family == "gamma" else _beta_mom

    # Zero-variance data cannot support a two-component fit; return a spike.
    if np.var(x) < 1e-20 * max(1.0, np.mean(x) ** 2):
        spike = mom(x + np.array([-1e-6, 1e-6]).repeat(np.ceil(x.size / 2))[: x.size])
        model = MixtureModel(family, spike, spike, 1.0,
                             truncation=truncation, degenerate=True)
        return _order_components(model)

    if init is not None:
        if init.family != family:
            raise ArgumentError("init model family does not match")
        c1, c2, lam = init.comp1, init.comp2, min(max(init.lam, 0.01), 0.99)
        start_maps = 0
    else:
        med = np.median(x)
        lower = x[x <= med]
        upper = x[x > med]
        if upper.size == 0:  # heavy ties at the median
            lower, upper = x[x < med], x[x >= med]
        if lower.size == 0 or upper.size == 0:
            lower = upper = x
        c1, c2 = mom(lower), mom(upper)
        lam = 0.5
        start_maps = START_MAPS

    sample = _Sample(x, family)
    s = sample.state(c1, c2, lam)
    degenerate = False
    for it in range(max_iter):
        g1 = np.exp(s.l1 - s.norm)      # E-step
        lam_new = float(np.mean(g1))
        if lam_new < COLLAPSE_WEIGHT or lam_new > 1.0 - COLLAPSE_WEIGHT:
            degenerate = True
            s = s._replace(lam=float(np.clip(lam_new, 0.0, 1.0)))
            break
        if it < start_maps:
            s = sample.em_map(s, g1, lam_new, it == 0)
            continue
        bar = tol * max(1.0, abs(s.ll))
        step = sample.newton_direction(s, g1)
        if step is not None and step[1] < bar:
            break
        new = None if step is None else sample.line_search(s, step[0])
        if new is None:
            new = sample.em_map(s, g1, lam_new, it == 0)
            if new.ll - s.ll < bar:
                s = new
                break
        s = new

    model = MixtureModel(family, s.c1, s.c2, s.lam, truncation=truncation,
                         degenerate=degenerate)
    return _order_components(model)
