"""Bivariate pair copulas: Frank, Joe, Clayton, Gumbel, independence.

Every family supports CDF, density, the conditional CDF h(u|v) = dC/dv and
its inverse, plus rotations by 90/180/270 degrees.  A rotated copula is its
base family at reflected arguments.  `ROTATION_TABLE` holds one row per
rotation: u is reflected for 90 and 180, v for 180 and 270, and the two
arguments swap for 90 and 270.  The convention is pinned as

    c90(u, v)  = c(v, 1 - u)
    c180(u, v) = c(1 - u, 1 - v)
    c270(u, v) = c(1 - v, u)

which corresponds to (U, V) = (1 - B, A), (1 - A, 1 - B) and (B, 1 - A) for
a base pair (A, B).  The argument order is part of the result: the Gumbel,
Joe and Frank-series densities are symmetric, but not bit for bit.  The
CDF follows from the reflections by inclusion-exclusion.  All four base
families are exchangeable, so the h-functions need no swap:

    C90(u, v)  = v - C(v, 1 - u)          h90(u|v)  = 1 - h(1 - u | v)
    C180(u, v) = u + v - 1 + C(1-u, 1-v)  h180(u|v) = 1 - h(1 - u | 1 - v)
    C270(u, v) = u - C(1 - v, u)          h270(u|v) = h(u | 1 - v)

The conditional CDF of the second argument, h2(v|u) = dC(u, v)/du, is h of
the transposed copula c(v, u).  Transposing swaps the two reflections of a
row, so h2 of rotation 90 is h of rotation 270 and the other way round;
0 and 180 are their own transposes.  The inverses use the same rows.

Frank is radially symmetric: rotation 180 is rotation 0, and 90/270 at
theta are rotation 0 at -theta.  So a fit keeps Frank at rotation 0 only.

A `PairCopula` admits exactly the thetas a fit can store, the ranges of
`_theta_ranges` (Frank: `FRANK_MIN_ABS` <= |theta| <= 50).  Densities are
evaluated in log space.  Kendall's tau follows the plain concordance-count
definition (ties contribute zero through sgn(0) = 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ArgumentError, FittingError

FAMILIES = ("independence", "frank", "clayton", "gumbel", "joe")
DEFAULT_CANDIDATES = ("frank", "clayton", "gumbel", "joe")
# rotation -> (reflect u, reflect v, swap the base family's arguments)
ROTATION_TABLE = {
    0: (False, False, False),
    90: (True, False, True),
    180: (True, True, False),
    270: (False, True, True),
}
ROTATIONS = tuple(ROTATION_TABLE)
# the rotations a fitted document may store: Frank's rotation 0 over both
# signs covers its other three (radial symmetry, see above), and independence
# is the same copula at every rotation
FIT_ROTATIONS = {"independence": (0,), "frank": (0,), "clayton": ROTATIONS,
                 "gumbel": ROTATIONS, "joe": ROTATIONS}
# the rotations a fit searches for an empirical tau of each sign.  Every
# admissible theta of Clayton, Gumbel and Joe has model tau > 0 at rotations
# 0 and 180 and tau < 0 at 90 and 270 (Czado 2019, ch. 3); Frank's tau has
# the sign of theta, so it is searched at rotation 0 on the half of tau's
# sign only.  A skipped candidate could only win near independence, which
# the pre-test has rejected; the equality with the search over every
# `FIT_ROTATIONS` rotation and both Frank halves is measured, not proved.
TAU_SIGN_ROTATIONS = {1: (0, 180), -1: (90, 270)}

# admissible parameter search ranges per family
THETA_RANGE = {
    "clayton": (1e-4, 50.0),
    "gumbel": (1.0 + 1e-4, 50.0),
    "joe": (1.0 + 1e-4, 50.0),
    "frank": (-50.0, 50.0),
}
FRANK_MIN_ABS = 1e-4   # Frank's search halves stop this far from zero
DENSITY_CLAMP = 1e-10   # boundary inputs pulled to this interior margin
THETA_XTOL = 1e-6       # absolute tolerance of the bounded-Brent theta refinement
WARM_BRACKET = 0.5      # a refit brackets theta0 +- this times max(|theta0|, 1)


@dataclass(frozen=True)
class PairCopula:
    """A parametric bivariate copula with an optional rotation.

    theta is None exactly for the independence family; any other family
    takes a theta in one of its `_theta_ranges`, the ranges a fit searches.
    `fallback` marks a copula returned by `fit_pair` after every parametric
    candidate failed numerically.
    """

    family: str
    rotation: int = 0
    theta: float | None = None
    fallback: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArgumentError(f"unknown copula family {self.family!r}")
        if self.rotation not in ROTATIONS:
            raise ArgumentError(f"rotation must be one of {ROTATIONS}")
        if self.family == "independence":
            if self.theta is not None:
                raise ArgumentError("independence copula has no parameter")
            return
        check_theta(self.family, self.theta, _theta_ranges(self.family))

    @property
    def n_params(self) -> int:
        return 0 if self.family == "independence" else 1


def _clamp(u, eps: float = DENSITY_CLAMP):
    # the ndarray method is np.clip's ufunc without its dispatch wrapper
    return np.asarray(u, dtype=float).clip(eps, 1.0 - eps)


# ---------------------------------------------------------------------------
# base-family formulas (rotation 0), vectorized over numpy arrays.  Each
# family's terms shared by its CDF, log-density and h come from one helper.
# ---------------------------------------------------------------------------

def _clayton_terms(theta: float, u, v):
    """log u, log v and log(u^-theta + v^-theta - 1), the last computed
    without overflow."""
    log_u = np.log(u)
    log_v = np.log(v)
    a = -theta * log_u
    b = -theta * log_v
    m = np.maximum(a, b)
    return log_u, log_v, m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))


def _gumbel_terms(theta: float, u, v):
    """x = -log u, y = -log v, log x, log y, log S = log(x^theta + y^theta)
    and S^(1/theta)."""
    x = -np.log(u)
    y = -np.log(v)
    log_x = np.log(x)
    log_y = np.log(y)
    log_s = np.logaddexp(theta * log_x, theta * log_y)
    return x, y, log_x, log_y, log_s, np.exp(log_s / theta)


def _frank_terms(theta: float, u, v):
    """e^(-theta v) and d = e^(-theta u) + e^(-theta v) - e^(-theta)
    - e^(-theta u) e^(-theta v)."""
    au = np.exp(-theta * u)
    av = np.exp(-theta * v)
    return av, au + av - np.exp(-theta) - au * av


def _joe_terms(theta: float, u, v):
    """x = (1 - u)^theta, y = (1 - v)^theta and log t, t = x + y - x y.

    Where t underflows (is not a normal float), log t is computed in logs
    as logaddexp(log x, log y + log1p(-x)); those elements only, since the
    log form costs more than the direct one."""
    lx = theta * np.log1p(-u)
    ly = theta * np.log1p(-v)
    x = np.exp(lx)
    y = np.exp(ly)
    t = x + y - x * y
    low = t < np.finfo(float).tiny
    with np.errstate(divide="ignore"):
        log_t = np.log(t, out=np.empty(low.shape))
    if low.any():
        lx, ly, xl = (np.broadcast_to(a, low.shape)[low] for a in (lx, ly, x))
        log_t[low] = np.logaddexp(lx, ly + np.log1p(-xl))
    return x, y, log_t


def _base_cdf(family: str, theta: float, u, v):
    if family == "independence":
        return u * v
    if family == "clayton":
        return np.exp(-_clayton_terms(theta, u, v)[2] / theta)
    if family == "gumbel":
        return np.exp(-_gumbel_terms(theta, u, v)[5])
    if family == "frank":
        # C = -log(1 - x) / theta with x = gu gv / g1, g_t = 1 - e^(-theta t).
        # Past x = 1/2, 1 - x cancels; it equals d / g1 with d the density's
        # denominator, d = e^(-theta u) gv + e^(-theta v) (1 - e^(-theta (1 - v))),
        # whose two terms share the sign of theta
        gu = -np.expm1(-theta * u)
        gv = -np.expm1(-theta * v)
        g1 = -np.expm1(-theta)
        x = gu * gv / g1
        d = np.exp(-theta * u) * gv + np.exp(-theta * v) * -np.expm1(-theta * (1.0 - v))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x <= 0.5, -np.log1p(-x), -np.log(d / g1)) / theta
    if family == "joe":
        return 1.0 - np.exp(_joe_terms(theta, u, v)[2] / theta)
    raise ArgumentError(family)


def _base_log_density(family: str, theta: float, u, v):
    if family == "independence":
        return np.zeros(np.broadcast(u, v).shape)
    if family == "clayton":
        log_u, log_v, log_s = _clayton_terms(theta, u, v)
        return (np.log1p(theta) - (theta + 1.0) * (log_u + log_v)
                - (1.0 / theta + 2.0) * log_s)
    if family == "gumbel":
        x, y, log_x, log_y, log_s, s_pow = _gumbel_terms(theta, u, v)
        return (-s_pow + x + y + (theta - 1.0) * (log_x + log_y)
                + (2.0 / theta - 2.0) * log_s + np.log1p((theta - 1.0) / s_pow))
    if family == "frank":
        d = _frank_terms(theta, u, v)[1]
        return (np.log(theta * -np.expm1(-theta)) - theta * (u + v)
                - 2.0 * np.log(np.abs(d)))
    if family == "joe":
        x, y, log_t = _joe_terms(theta, u, v)
        return ((1.0 / theta - 2.0) * log_t
                + (theta - 1.0) * (np.log1p(-u) + np.log1p(-v))
                + np.log(theta - 1.0 + x + y - x * y))
    raise ArgumentError(family)


def _base_h(family: str, theta: float, u, v):
    """h(u|v) = dC(u, v)/dv for the unrotated family."""
    if family == "independence":
        return np.broadcast_to(np.asarray(u, dtype=float),
                               np.broadcast(u, v).shape).copy()
    if family == "clayton":
        _, log_v, log_s = _clayton_terms(theta, u, v)
        return np.exp(-(theta + 1.0) * log_v - (1.0 / theta + 1.0) * log_s)
    if family == "gumbel":
        _, y, _, log_y, log_s, s_pow = _gumbel_terms(theta, u, v)
        return np.exp(-s_pow + (1.0 / theta - 1.0) * log_s + (theta - 1.0) * log_y + y)
    if family == "frank":
        av, d = _frank_terms(theta, u, v)
        return av * -np.expm1(-theta * u) / d
    if family == "joe":
        x, _, log_t = _joe_terms(theta, u, v)
        return np.exp((1.0 / theta - 1.0) * log_t + np.log1p(-x)
                      + (theta - 1.0) * np.log1p(-v))
    raise ArgumentError(family)


def _base_h_inverse(family: str, theta: float, p, v):
    """Solve h(u|v) = p for u in the unrotated family."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if family == "independence":
        return np.broadcast_to(p, np.broadcast(p, v).shape).copy()
    if family == "clayton":
        # closed form, evaluated in logs to survive extreme parameters
        t = -theta / (theta + 1.0) * np.log(p) - theta * np.log(v)
        s = -theta * np.log(v)
        m = np.maximum(t, s)
        inner = m + np.log(np.exp(t - m) - np.exp(s - m) + np.exp(-m))
        return np.exp(-inner / theta)
    if family == "frank":
        # p = av (1 - au) / (au + av - a1 - au av), solved for au:
        # au (p (1 - av) + av) = av - p (av - a1)
        av = np.exp(-theta * v)
        a1 = np.exp(-theta)
        au = (av - p * (av - a1)) / (p * (1.0 - av) + av)
        au = au.clip(1e-300, None)
        return (-np.log(au) / theta).clip(0.0, 1.0)
    # gumbel, joe: monotone bisection
    p, v = np.broadcast_arrays(p, v)
    return _bisect_increasing(lambda u: _base_h(family, theta, u, v), p,
                              DENSITY_CLAMP, 1.0 - DENSITY_CLAMP, 90)


def _bisect_increasing(f, target: np.ndarray, lo: float, hi: float,
                       steps: int) -> np.ndarray:
    """Solve f(x) = target elementwise for an increasing vectorized f by
    `steps` fixed halvings of [lo, hi]; returns the last midpoints."""
    lo = np.full(target.shape, lo)
    hi = np.full(target.shape, hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = f(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# public rotation-aware operations
# ---------------------------------------------------------------------------

def _base_args(rotation: int, u, v):
    """The base-family arguments at the point (u, v) of a rotated copula."""
    reflect_u, reflect_v, swap = ROTATION_TABLE[rotation]
    a = 1.0 - u if reflect_u else u
    b = 1.0 - v if reflect_v else v
    return (b, a) if swap else (a, b)


def pair_cdf(cop: PairCopula, u, v):
    """C(u, v) with grounded margins; accepts scalars or arrays in [0, 1]."""
    u = np.asarray(u, dtype=float).clip(0.0, 1.0)
    v = np.asarray(v, dtype=float).clip(0.0, 1.0)
    reflect_u, reflect_v, _ = ROTATION_TABLE[cop.rotation]
    if cop.family == "independence" and not (reflect_u or reflect_v):
        out = u * v      # unclamped, so exact next to the boundary
    else:
        c = _base_cdf(cop.family, cop.theta,
                      *_base_args(cop.rotation, _clamp(u), _clamp(v)))
        if reflect_u and reflect_v:
            out = u + v - 1.0 + c
        elif reflect_u:
            out = v - c
        elif reflect_v:
            out = u - c
        else:
            out = c
    out = out.clip(0.0, 1.0)
    # exact margins on the boundary
    out = np.where(u == 0.0, 0.0, out)
    out = np.where(v == 0.0, 0.0, out)
    out = np.where(u == 1.0, v, out)
    out = np.where(v == 1.0, u, out)
    return out if out.ndim else float(out)


def pair_log_density(cop: PairCopula, u, v):
    """log c(u, v); boundary inputs are clamped to the interior."""
    out = _base_log_density(cop.family, cop.theta,
                            *_base_args(cop.rotation, _clamp(u), _clamp(v)))
    return out if out.ndim else float(out)


def pair_density(cop: PairCopula, u, v):
    """c(u, v) >= 0."""
    out = np.exp(pair_log_density(cop, u, v))
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _h(cop: PairCopula, reflect_u: bool, reflect_v: bool, u, cond):
    """h(u | cond) of the base family reflected as the two flags say."""
    u = np.asarray(u, dtype=float).clip(0.0, 1.0)
    uc = _clamp(u)
    vc = _clamp(cond)
    out = _base_h(cop.family, cop.theta, 1.0 - uc if reflect_u else uc,
                  1.0 - vc if reflect_v else vc)
    if reflect_u:
        out = 1.0 - out
    out = out.clip(0.0, 1.0)
    out = np.where(u == 0.0, 0.0, out)
    out = np.where(u == 1.0, 1.0, out)
    return out if out.ndim else float(out)


def _h_inverse(cop: PairCopula, reflect_u: bool, reflect_v: bool, p, cond):
    """Solve _h(cop, reflect_u, reflect_v, u, cond) = p for u."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ArgumentError("h-inverse probabilities must lie in (0, 1)")
    pc = _clamp(p)
    vc = _clamp(cond)
    out = _base_h_inverse(cop.family, cop.theta, 1.0 - pc if reflect_u else pc,
                          1.0 - vc if reflect_v else vc)
    if reflect_u:
        out = 1.0 - out
    out = _clamp(out)
    return out if out.ndim else float(out)


def pair_h(cop: PairCopula, u, cond):
    """Conditional CDF h(u | cond) = dC(u, v)/dv evaluated at v = cond."""
    reflect_u, reflect_v, _ = ROTATION_TABLE[cop.rotation]
    return _h(cop, reflect_u, reflect_v, u, cond)


def pair_h2(cop: PairCopula, v, cond):
    """Conditional CDF of the second argument: dC(u, v)/du at u = cond.

    This is pair_h of the transposed copula, whose table row swaps the two
    reflections.  Rotations 90 and 270 are not exchangeable, so vine
    bookkeeping must pick the correct direction explicitly.
    """
    reflect_u, reflect_v, _ = ROTATION_TABLE[cop.rotation]
    return _h(cop, reflect_v, reflect_u, v, cond)


def pair_h2_inverse(cop: PairCopula, p, cond):
    """Solve pair_h2(cop, v, cond) = p for v, to the contract of
    `pair_h_inverse`."""
    reflect_u, reflect_v, _ = ROTATION_TABLE[cop.rotation]
    return _h_inverse(cop, reflect_v, reflect_u, p, cond)


def pair_h_inverse(cop: PairCopula, p, cond):
    """Solve h(u | cond) = p for u.

    The result lies in [DENSITY_CLAMP, 1 - DENSITY_CLAMP] and within 1e-11
    of a solution: h(result - 1e-11 | cond) - 1e-13 <= p <=
    h(result + 1e-11 | cond) + 1e-13.  Gumbel and Joe bisect to one float
    step at 1; the closed forms of Clayton and Frank lose accuracy as
    |theta| nears the lower end of its range.  Where p lies beyond h at a
    clamp bound, the result is that bound.  So |h(result | cond) - p| is
    small only where h is flat: at Gumbel theta 50 and u = v = 1 - 1e-7,
    where one float step of u moves h by about 5e-8, it is 1.4e-8.
    """
    reflect_u, reflect_v, _ = ROTATION_TABLE[cop.rotation]
    return _h_inverse(cop, reflect_u, reflect_v, p, cond)


# ---------------------------------------------------------------------------
# Kendall's tau, the independence pre-test, tau -> theta starts
# ---------------------------------------------------------------------------

def _count_inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for non-negative integer ranks r.

    Bottom-up merge sort, one vectorised pass per level: every right-hand
    block element counts the left-hand block elements above it, with
    np.searchsorted over keys that offset each block pair past the one before.
    """
    n = r.size
    span = int(r.max()) + 1
    a = r.astype(np.int64)
    pos = np.arange(n)
    swaps = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        keys = pair * span + a
        left = (pos // width) % 2 == 0
        right_keys = keys[~left]
        # every left block that has a right partner is full, so block pair p's
        # left elements end at index p * width + width of keys[left]
        end = pair[~left] * width + width
        below = np.searchsorted(keys[left], right_keys, side="right")
        swaps += int((end - below).sum())
        a = np.sort(keys) - pair * span
        width *= 2
    return swaps


def _tied_pairs(new_run: np.ndarray) -> int:
    """Equal pairs in a sorted sequence, sum of t (t - 1) / 2 over its runs of
    equal values; new_run[i] is True where element i + 1 differs from i."""
    t = np.diff(np.flatnonzero(np.r_[True, new_run, True]))
    return int((t * (t - 1) // 2).sum())


def kendall_tau(y, y2) -> float:
    """Concordance-based rank correlation.

    tau = 2 / (n (n-1)) * sum_{i<j} sgn(y_i - y_j) sgn(y2_i - y2_j).

    Tied pairs contribute zero; the denominator is always n (n-1) / 2.  The
    sum is counted exactly in O(n log n) (Knight 1966): with n0 = n (n-1) / 2
    pairs, n1/n2 pairs tied in y/y2, n3 tied in both and `swaps` discordant
    pairs (inversions of y2 once the rows are sorted by (y, y2)), the sum is
    n0 - n1 - n2 + n3 - 2 swaps.
    """
    y = np.asarray(y, dtype=float).ravel()
    y2 = np.asarray(y2, dtype=float).ravel()
    if y.shape != y2.shape:
        raise ArgumentError("kendall_tau requires equal-length vectors")
    n = y.size
    if n < 2:
        raise ArgumentError("kendall_tau requires at least two observations")
    if not (np.isfinite(y).all() and np.isfinite(y2).all()):
        raise ArgumentError("kendall_tau requires finite observations")
    order = np.lexsort((y2, y))
    ys, y2s = y[order], y2[order]
    ranks = np.unique(y2, return_inverse=True)[1].reshape(-1)[order]
    new_y = ys[1:] != ys[:-1]
    new_y2 = y2s[1:] != y2s[:-1]
    y2_sorted = np.sort(y2)
    n1 = _tied_pairs(new_y)
    n2 = _tied_pairs(y2_sorted[1:] != y2_sorted[:-1])
    n3 = _tied_pairs(new_y | new_y2)
    total = n * (n - 1) // 2 - n1 - n2 + n3 - 2 * _count_inversions(ranks)
    return 2.0 * total / (n * (n - 1))


def independence_test(tau: float, n: int) -> bool:
    """True (independent) iff |tau| sqrt(9 n (n-1) / (2 (2n+5))) <= 1.96."""
    if n < 2:
        raise ArgumentError("independence test requires n >= 2")
    statistic = abs(tau) * np.sqrt(9.0 * n * (n - 1) / (2.0 * (2.0 * n + 5.0)))
    return bool(statistic <= 1.96)


def _tau_theta_start(family: str, tau: float) -> float | None:
    """Rough tau -> theta inversions used to seed the likelihood search."""
    t = min(abs(tau), 0.95)
    if family == "clayton":
        return max(2.0 * t / (1.0 - t), 2e-4) if t > 1e-3 else 0.1
    if family in ("gumbel", "joe"):
        return max(1.0 / (1.0 - t), 1.0 + 2e-4)
    if family == "frank":
        # crude inversion of tau = 1 - 4/theta (1 - D1(theta))
        guess = 1.0 if t < 0.1 else t * 12.0
        return guess if tau >= 0 else -guess
    return None


def _maximize_theta(f, lo: float, hi: float, seeds=()):
    """Bracket the maximum on a coarse grid plus the seeds, then refine it
    by bounded Brent (parabolic steps, golden-section safeguard) to
    `THETA_XTOL`; the best grid point wins if it scores higher."""
    grid = np.geomspace(max(lo, 1e-4), hi, 12) if lo > 0 else np.linspace(lo, hi, 15)
    grid = sorted(set(np.clip([*grid, *seeds], lo, hi)))
    vals = [f(g) for g in grid]
    best = int(np.argmax(vals))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    if a == b:
        return a, vals[best]
    res = minimize_scalar(lambda t: -f(t), bounds=(a, b), method="bounded",
                          options={"xatol": THETA_XTOL})
    if vals[best] > -res.fun:
        return grid[best], vals[best]
    return res.x, -res.fun


def _theta_ranges(family: str, sign: int = 0) -> list[tuple[float, float]]:
    """The search ranges of a family, from THETA_RANGE.  Frank's range is
    split at zero into its negative and positive halves: both for sign 0,
    else only the half of that sign."""
    if family not in THETA_RANGE:
        raise ArgumentError(f"no theta search for copula family {family!r}")
    lo, hi = THETA_RANGE[family]
    if family != "frank":
        return [(lo, hi)]
    halves = [(lo, -FRANK_MIN_ABS), (FRANK_MIN_ABS, hi)]
    return halves if sign == 0 else [halves[1 if sign > 0 else 0]]


def check_theta(family: str, theta, ranges) -> None:
    """Raise ArgumentError unless theta lies in one of the ranges; None and
    NaN lie in none."""
    if theta is None or not any(lo <= theta <= hi for lo, hi in ranges):
        raise ArgumentError(f"{family} parameter {theta!r} lies outside "
                            f"the fitted range {ranges}")


def _finite_loglik(ll) -> float:
    """A log-likelihood sum in which every non-finite term scores -1e10."""
    return float(np.sum(np.where(np.isfinite(ll), ll, -1e10)))


def _pair_loglik(family: str, rotation: int, u, v):
    """theta -> log-likelihood of the rotated family at (u, v).

    The inputs are clamped and mapped to base-family arguments once, so each
    evaluation is one `_base_log_density` call, bit for bit the sum of
    `pair_log_density` at the same copula.
    """
    a, b = _base_args(rotation, _clamp(u), _clamp(v))
    return lambda theta: _finite_loglik(_base_log_density(family, float(theta), a, b))


def _search_theta(loglik, ranges, seeds=()):
    """The ML theta over the ranges: (loglik, theta), or None when every
    range fails.

    The cold search of `fit_pair` and `vine.fit_archimedean`, and the
    fallback of `_refit_near` (the template refit of both engines) where
    its warm bracket holds no maximum:
    each range by `_maximize_theta`, with the seeds that lie in it.  A range
    whose search raises or ends non-finite is skipped; a later range wins
    only with a strictly larger log-likelihood.
    """
    best = None
    for lo, hi in ranges:
        try:
            theta, ll = _maximize_theta(loglik, lo, hi,
                                        seeds=[s for s in seeds if lo <= s <= hi])
        except (FloatingPointError, ValueError):
            continue
        if np.isfinite(ll) and (best is None or ll > best[0]):
            best = (ll, float(theta))
    return best


def fit_pair(u, v, candidates=DEFAULT_CANDIDATES) -> PairCopula:
    """Select and fit a pair copula by maximum likelihood.

    The independence pre-test runs first; when it does not reject, the
    independence copula is returned without any likelihood search.
    Otherwise only the candidates whose model tau has the sign of the
    empirical tau are searched: Clayton, Gumbel and Joe at the
    `TAU_SIGN_ROTATIONS` of that sign (0/180 or 90/270), and Frank at
    rotation 0 on the half of theta with that sign.  Each gets its ML theta
    from `_search_theta`, scored on a grid seeded with the tau-inverted
    start, then refined by bounded Brent.  On every measured fit this picks
    the same copula, bit for bit, as searching all `FIT_ROTATIONS` and both
    Frank halves; that equality is measured, not proved.  The best fit
    wins; a later candidate needs a strictly larger log-likelihood, so ties
    go to the fixed order (frank, clayton, gumbel, joe; then rotation
    ascending).
    When every search fails numerically, an independence copula marked
    `fallback` is returned.
    """
    u = _clamp(np.asarray(u, dtype=float).ravel())
    v = _clamp(np.asarray(v, dtype=float).ravel())
    if u.shape != v.shape:
        raise ArgumentError("fit_pair requires equal-length samples")
    return _fit_pair_with_tau(u, v, kendall_tau(u, v), candidates)


def _warm_theta(loglik, theta0: float, lo: float, hi: float):
    """The ML theta near theta0: (loglik, theta), or None when the warm
    bracket does not hold a maximum.

    The bracket is a = max(lo, theta0 - h) < theta0 < b = min(hi, theta0 + h),
    h = `WARM_BRACKET` max(|theta0|, 1).  When loglik at theta0 is finite
    and strictly above its value at both ends, Brent's method (parabolic
    steps, golden-section safeguard) refines from that triple to an
    absolute tolerance of at most `THETA_XTOL`.  Brent moves only to a
    point that scores at least as high, so, as in `_maximize_theta`, the
    best evaluated point wins.  `loglik` should be memoised: Brent scores
    the triple again.
    """
    h = WARM_BRACKET * max(abs(theta0), 1.0)
    a, b = max(lo, theta0 - h), min(hi, theta0 + h)
    if not a < theta0 < b:
        return None
    f0 = loglik(theta0)
    if not (np.isfinite(f0) and f0 > loglik(a) and f0 > loglik(b)):
        return None
    # Brent's tolerance is relative to |theta|, which stays below max(|a|, |b|)
    res = minimize_scalar(lambda t: -loglik(t), bracket=(a, theta0, b), method="brent",
                          options={"xtol": THETA_XTOL / max(abs(a), abs(b))})
    return -res.fun, float(res.x)


def _refit_near(loglik, family: str, theta0: float) -> float:
    """The ML theta of a template refit, the one refit of both engines.

    The optimum of a refit on nearly the template's data lies close to the
    template theta, so `_warm_theta` first searches a bracket around it.
    Where the bracket holds no maximum, `_search_theta` runs on the family's
    range, for Frank only the half of theta0's sign, seeded with theta0,
    which lies in that range.  `loglik` is memoised here.  Raises
    FittingError when the search fails.
    """
    loglik = functools.cache(loglik)
    ranges = _theta_ranges(family, 1 if theta0 > 0 else -1)   # one range
    found = (_warm_theta(loglik, theta0, *ranges[0])
             or _search_theta(loglik, ranges, seeds=[theta0]))
    if found is None:
        raise FittingError(f"{family} theta refit failed numerically")
    return found[1]


def refit_theta(cop: PairCopula, u, v) -> PairCopula:
    """Re-estimate theta keeping family and rotation fixed (fast refits),
    by `_refit_near` from the template theta.  Raises ArgumentError for
    samples of unequal length and FittingError when the search fails.
    """
    if cop.family == "independence":
        return cop
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ArgumentError("refit_theta requires equal-length samples")
    loglik = _pair_loglik(cop.family, cop.rotation, u, v)
    return PairCopula(cop.family, cop.rotation, _refit_near(loglik, cop.family, float(cop.theta)))


def _fit_pair_with_tau(u, v, tau: float, candidates) -> PairCopula:
    if independence_test(tau, u.size):
        return PairCopula("independence")

    sign = 1 if tau > 0 else -1
    best: tuple[float, PairCopula] | None = None
    for family in candidates:
        if family == "independence":
            continue
        ranges = _theta_ranges(family, sign)
        seed = _tau_theta_start(family, tau)
        rotations = FIT_ROTATIONS[family] if family == "frank" else TAU_SIGN_ROTATIONS[sign]
        for rotation in rotations:
            found = _search_theta(_pair_loglik(family, rotation, u, v), ranges,
                                  seeds=(seed,))
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], PairCopula(family, rotation, found[1]))

    if best is None:
        return PairCopula("independence", fallback=True)
    return best[1]


def pseudo_observations(data) -> np.ndarray:
    """Column-wise rank transform to (0, 1) with average ranks for ties."""
    from scipy.stats import rankdata

    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        return rankdata(arr, method="average") / (arr.size + 1.0)
    return np.column_stack([rankdata(arr[:, j], method="average") / (arr.shape[0] + 1.0)
                            for j in range(arr.shape[1])])
