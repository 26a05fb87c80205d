import functools
import hashlib
import itertools

import numpy as np
import pytest
from scipy.integrate import quad

import orevine.model
import orevine.vine
from orevine import copulas
from orevine.copulas import (
    DENSITY_CLAMP,
    FIT_ROTATIONS,
    PairCopula,
    ROTATION_TABLE,
    ROTATIONS,
    TAU_SIGN_ROTATIONS,
    THETA_RANGE,
    fit_pair,
    independence_test,
    kendall_tau,
    pair_cdf,
    pair_density,
    pair_h,
    pair_h2,
    pair_h2_inverse,
    pair_h_inverse,
    pair_log_density,
    pseudo_observations,
    refit_theta,
)
from orevine.copulas import (
    _clamp,
    _fit_pair_with_tau,
    _pair_loglik,
    _search_theta,
    _tau_theta_start,
    _theta_ranges,
    _warm_theta,
)
from orevine.descriptors import COLUMNS, Dataset
from orevine.errors import ArgumentError
from orevine.evaluation import loo_cv
from orevine.marginals import BetaParams, MixtureModel
from orevine.model import fit_composite
from orevine.vine import (
    COND_CLAMP,
    ArchimedeanModel,
    _arch_loglik,
    _cl,
    _copula_data,
    fit_archimedean,
)
from orevine.synth import benchmark_truth, generate_composite_dataset

# moderate parameters keep the 200x200 midpoint integral test meaningful;
# heavier tail dependence concentrates mass the grid cannot resolve
GRID_THETAS = {
    "clayton": (0.3, 0.8, 1.5),
    "gumbel": (1.1, 1.3, 1.7),
    "joe": (1.1, 1.3, 1.7),
    "frank": (-8.0, 2.0, 8.0),
}
FD_THETAS = {
    "clayton": (0.5, 2.0, 5.0),
    "gumbel": (1.2, 2.0, 4.0),
    "joe": (1.2, 2.0, 4.0),
    "frank": (-5.0, 2.0, 10.0),
}


def all_copulas(theta_table):
    for family, thetas in theta_table.items():
        for theta, rot in itertools.product(thetas, ROTATIONS):
            yield PairCopula(family, rot, theta)


def sample_pair(cop: PairCopula, n: int, seed: int):
    """Conditional-inversion sampler: v ~ U, u = h^{-1}(p | v)."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(1e-9, 1 - 1e-9, n)
    p = rng.uniform(1e-9, 1 - 1e-9, n)
    u = pair_h_inverse(cop, p, v)
    return u, v


class TestCdf:
    def test_independence_product(self):
        assert pair_cdf(PairCopula("independence"), 0.3, 0.7) == pytest.approx(0.21)

    @pytest.mark.parametrize("family,theta", [("frank", 4.0), ("clayton", 2.0),
                                              ("gumbel", 2.0), ("joe", 2.0)])
    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_uniform_margins(self, family, theta, rotation):
        cop = PairCopula(family, rotation, theta)
        for u in (0.1, 0.5, 0.9):
            assert pair_cdf(cop, u, 1.0) == pytest.approx(u, abs=1e-8)
            assert pair_cdf(cop, 1.0, u) == pytest.approx(u, abs=1e-8)
            assert pair_cdf(cop, u, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert pair_cdf(cop, 0.0, u) == pytest.approx(0.0, abs=1e-12)

    def test_clayton_closed_form(self):
        theta = 2.0
        u = v = 0.5
        expected = (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta)
        assert pair_cdf(PairCopula("clayton", 0, theta), u, v) == \
            pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("theta", [0.5, -0.5, 3.0, -3.0, 12.0, -12.0, 40.0, -40.0,
                                       50.0, -50.0])
    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_frank_within_frechet_bounds(self, theta, rotation):
        # to rounding: near the comonotone limit C is min(u, v) to the last ulp
        u, v = np.random.default_rng(2026).uniform(size=(2, 20000))
        with np.errstate(all="raise"):
            c = pair_cdf(PairCopula("frank", rotation, theta), u, v)
        assert np.all(c <= np.minimum(u, v) + 1e-15)
        assert np.all(c >= np.maximum(u + v - 1.0, 0.0) - 1e-15)

    @pytest.mark.parametrize("u,v,theta,want", [
        (0.99, 0.99, 40.0, 0.98287654307102189),
        (0.9, 0.95, 40.0, 0.89723339733410047),
        (0.99, 0.99, 12.0, 0.98107246036802662),
    ])
    def test_frank_reference_values(self, u, v, theta, want):
        # 50-digit evaluations of -log(1 - gu gv / g1) / theta, g_t = 1 - e^(-theta t)
        assert pair_cdf(PairCopula("frank", 0, theta), u, v) == pytest.approx(want, abs=4e-16)

    def test_theta_out_of_range(self):
        with pytest.raises(ArgumentError):
            PairCopula("clayton", 0, -1.0)
        with pytest.raises(ArgumentError):
            PairCopula("gumbel", 0, 0.5)
        with pytest.raises(ArgumentError):
            PairCopula("frank", 0, 0.0)


class TestDensity:
    def test_independence_is_one(self):
        cop = PairCopula("independence")
        assert pair_density(cop, 0.2, 0.9) == pytest.approx(1.0)

    def test_frank_small_theta_rejected(self):
        # no fit stores |theta| < FRANK_MIN_ABS, so no copula takes one
        for theta in (1e-7, -1e-7, np.nextafter(1e-4, 0.0)):
            with pytest.raises(ArgumentError, match="outside the fitted range"):
                PairCopula("frank", 0, theta)

    def test_gumbel_matches_mixed_finite_difference(self):
        cop = PairCopula("gumbel", 0, 2.0)
        u, v = 0.3, 0.6
        d = 1e-5
        fd = (pair_cdf(cop, u + d, v + d) - pair_cdf(cop, u + d, v - d)
              - pair_cdf(cop, u - d, v + d) + pair_cdf(cop, u - d, v - d)) / (4 * d * d)
        assert pair_density(cop, u, v) == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("cop", list(all_copulas(FD_THETAS)),
                             ids=lambda c: f"{c.family}-{c.rotation}-{c.theta}")
    def test_density_nonnegative_and_matches_fd(self, cop):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.08, 0.92, size=(40, 2))
        d = 1e-4
        for u, v in pts:
            c = pair_density(cop, u, v)
            assert c >= 0.0
            fd = (pair_cdf(cop, u + d, v + d) - pair_cdf(cop, u + d, v - d)
                  - pair_cdf(cop, u - d, v + d)
                  + pair_cdf(cop, u - d, v - d)) / (4 * d * d)
            assert c == pytest.approx(fd, abs=2e-3, rel=2e-3)

    def test_rotation_180_consistency(self):
        base = PairCopula("clayton", 0, 2.0)
        rot = PairCopula("clayton", 180, 2.0)
        rng = np.random.default_rng(1)
        for u, v in rng.uniform(0.05, 0.95, size=(25, 2)):
            assert pair_density(rot, u, v) == \
                pytest.approx(pair_density(base, 1 - u, 1 - v), rel=1e-10)


# 60-digit mpmath values of Joe's log c, h(u|v) and C at u = v, the float
# nearest 1 - eps: with a = (1 - u)^theta and t = 2 a - a^2,
# log c = (1/theta - 2) log t + 2 (theta - 1) log(1 - u) + log(theta - 1 + t),
# h = t^(1/theta - 1) (1 - u)^(theta - 1) (1 - a) and C = 1 - t^(1/theta)
JOE_CORNER = [
    (35.0, 1e-10, 25.185721215855215615, 0.51000080471059955354, 0.99999999989799983062),
    (50.0, 1e-7, 18.637484532086610534, 0.50697973989501456935, 0.99999989860405207437),
]


class TestJoeCorner:
    """Joe next to its upper corner, where (1 - u)^theta underflows;
    rotation 180 mirrors it at the lower corner."""

    @pytest.mark.parametrize("theta,eps,log_c,h,cdf", JOE_CORNER, ids=["theta35", "theta50"])
    def test_reference_values(self, theta, eps, log_c, h, cdf):
        u = 1.0 - eps
        cop = PairCopula("joe", 0, theta)
        assert pair_log_density(cop, u, u) == pytest.approx(log_c, rel=1e-13)
        assert pair_h(cop, u, u) == pytest.approx(h, rel=1e-12)
        assert pair_cdf(cop, u, u) == pytest.approx(cdf, abs=1e-15)
        mirror = PairCopula("joe", 180, theta)
        w = 1.0 - u
        assert pair_log_density(mirror, w, w) == pytest.approx(log_c, rel=1e-13)
        assert pair_h(mirror, w, w) == pytest.approx(1.0 - h, rel=1e-12)
        assert pair_cdf(mirror, w, w) == pytest.approx(2.0 * w - 1.0 + cdf, abs=1e-15)


class TestH:
    def test_independence_h(self):
        cop = PairCopula("independence")
        assert pair_h(cop, 0.42, 0.9) == pytest.approx(0.42)

    @pytest.mark.parametrize("family,theta", [("frank", 4.0), ("clayton", 2.0),
                                              ("gumbel", 2.0), ("joe", 2.0)])
    def test_h_boundaries(self, family, theta):
        cop = PairCopula(family, 0, theta)
        assert pair_h(cop, 1.0, 0.4) == pytest.approx(1.0)
        assert pair_h(cop, 0.0, 0.4) == pytest.approx(0.0)

    def test_clayton_h_finite_difference(self):
        cop = PairCopula("clayton", 0, 2.0)
        d = 1e-6
        fd = (pair_cdf(cop, 0.3, 0.5 + d) - pair_cdf(cop, 0.3, 0.5 - d)) / (2 * d)
        assert pair_h(cop, 0.3, 0.5) == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("cop", list(all_copulas(FD_THETAS)),
                             ids=lambda c: f"{c.family}-{c.rotation}-{c.theta}")
    def test_h_matches_fd_everywhere(self, cop):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.05, 0.95, size=(30, 2))
        d = 1e-5
        for u, v in pts:
            fd = (pair_cdf(cop, u, v + d) - pair_cdf(cop, u, v - d)) / (2 * d)
            assert pair_h(cop, u, v) == pytest.approx(fd, abs=1e-4)

    def test_h_monotone_in_u(self):
        cop = PairCopula("gumbel", 90, 3.0)
        us = np.linspace(0.01, 0.99, 80)
        hs = pair_h(cop, us, 0.37)
        assert np.all(np.diff(hs) >= -1e-12)


class TestHInverse:
    def test_independence_identity(self):
        cop = PairCopula("independence")
        assert pair_h_inverse(cop, 0.77, 0.2) == pytest.approx(0.77)

    @pytest.mark.parametrize("family,theta", [("frank", 4.0), ("frank", -6.0),
                                              ("clayton", 2.0), ("gumbel", 2.0),
                                              ("joe", 2.5)])
    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_round_trip(self, family, theta, rotation):
        cop = PairCopula(family, rotation, theta)
        rng = np.random.default_rng(17)
        u = rng.uniform(0.01, 0.99, 1000)
        v = rng.uniform(0.01, 0.99, 1000)
        h = pair_h(cop, u, v)
        ok = (h > 1e-9) & (h < 1 - 1e-9)
        back = pair_h_inverse(cop, h[ok], v[ok])
        assert np.max(np.abs(back - u[ok])) < 1e-7

    def test_monotone_in_p(self):
        cop = PairCopula("clayton", 0, 3.0)
        ps = np.linspace(0.01, 0.99, 50)
        us = pair_h_inverse(cop, ps, 0.4)
        assert np.all(np.diff(us) > 0)

    def test_f_tolerance_at_parameter_extremes(self):
        rng = np.random.default_rng(3)
        cases = [("clayton", 0.2), ("clayton", 45.0), ("gumbel", 1.05),
                 ("gumbel", 45.0), ("joe", 1.05), ("joe", 45.0),
                 ("frank", -49.0), ("frank", 49.0)]
        for family, theta in cases:
            for rotation in ROTATIONS:
                cop = PairCopula(family, rotation, theta)
                p = rng.uniform(1e-4, 1 - 1e-4, 200)
                v = rng.uniform(1e-4, 1 - 1e-4, 200)
                u = pair_h_inverse(cop, p, v)
                assert np.max(np.abs(pair_h(cop, u, v) - p)) < 1e-9

    def test_rejects_bad_p(self):
        with pytest.raises(ArgumentError):
            pair_h_inverse(PairCopula("independence"), 0.0, 0.5)

    @pytest.mark.parametrize("family,theta", [("independence", None), ("frank", 4.0),
                                              ("clayton", 2.0), ("gumbel", 2.0),
                                              ("joe", 2.5)])
    @pytest.mark.parametrize("inverse", [pair_h_inverse, pair_h2_inverse])
    def test_rejects_nan_p(self, family, theta, inverse):
        cop = PairCopula(family, 90, theta)
        with pytest.raises(ArgumentError):
            inverse(cop, np.nan, 0.5)
        with pytest.raises(ArgumentError):
            inverse(cop, np.array([0.3, np.nan]), np.array([0.5, 0.5]))


# the edge sweep's points: next to both boundaries, down to the
# DENSITY_CLAMP edge, and the centre
EDGE_GRID = np.array([1e-10, 1e-7, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-7, 1.0 - 1e-10])


def assert_inverse_contract(h, cop, p, cond, x):
    """The contract of `pair_h_inverse`: x in the clamp range and within
    1e-11 of a solution, to 1e-13 in p, or at the clamp bound beyond
    which the solution lies."""
    lo, hi = DENSITY_CLAMP, 1.0 - DENSITY_CLAMP
    assert np.all((x >= lo) & (x <= hi))
    near = (h(cop, x - 1e-11, cond) - 1e-13 <= p) & (p <= h(cop, x + 1e-11, cond) + 1e-13)
    ok = np.where(p < h(cop, lo, cond), x <= lo + 1e-11,
                  np.where(p > h(cop, hi, cond), x >= hi - 1e-11, near))
    assert ok.all(), list(zip(p[~ok], cond[~ok], x[~ok]))


class TestEdgeSweep:
    """Every family at every `FIT_ROTATIONS` rotation, at both ends, the
    midpoint and one interior point of each of its `_theta_ranges` (Frank:
    of each half), on every pair of `EDGE_GRID` points."""

    @pytest.mark.parametrize("family,rotation", [
        (family, rotation) for family in THETA_RANGE for rotation in FIT_ROTATIONS[family]])
    def test_edges(self, family, rotation):
        uu, vv = (a.ravel() for a in np.meshgrid(EDGE_GRID, EDGE_GRID))
        for lo, hi in _theta_ranges(family):
            for theta in (lo, hi, 0.5 * (lo + hi), lo + 0.05 * (hi - lo)):
                cop = PairCopula(family, rotation, theta)
                assert np.isfinite(pair_log_density(cop, uu, vv)).all(), theta
                for h, inverse in ((pair_h, pair_h_inverse), (pair_h2, pair_h2_inverse)):
                    hv = h(cop, uu, vv)
                    assert np.all((hv >= 0.0) & (hv <= 1.0)), theta
                    assert_inverse_contract(h, cop, uu, vv, inverse(cop, uu, vv))


class TestKendallTau:
    def test_concordant(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_discordant(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_brute_force_small(self):
        y = [1, 2, 3, 4]
        y2 = [2, 1, 4, 3]
        total = 0
        for i in range(4):
            for j in range(i + 1, 4):
                total += np.sign(y[i] - y[j]) * np.sign(y2[i] - y2[j])
        assert kendall_tau(y, y2) == 2 * total / (4 * 3)

    def test_matches_brute_force_random_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            # integer data forces ties
            y = rng.integers(0, 12, n).astype(float)
            y2 = rng.integers(0, 12, n).astype(float)
            brute = 0
            for i in range(n):
                brute += int(np.sum(np.sign(y[i] - y[i + 1:]) * np.sign(y2[i] - y2[i + 1:])))
            expected = 2.0 * brute / (n * (n - 1))
            assert kendall_tau(y, y2) == expected

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(31)
        y = rng.normal(size=150)
        y2 = 0.5 * y + rng.normal(size=150)
        base = kendall_tau(y, y2)
        assert kendall_tau(y ** 3, y2) == pytest.approx(base, abs=1e-12)
        assert kendall_tau(y, np.exp(y2)) == pytest.approx(base, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ArgumentError):
            kendall_tau([1.0], [2.0])

    @staticmethod
    def enumerate_pairs(y, y2):
        """O(n^2) oracle: the defining sum over all pairs i < j."""
        y, y2 = np.asarray(y, dtype=float), np.asarray(y2, dtype=float)
        n = y.size
        total = 0
        for i in range(n):
            total += int(np.sum(np.sign(y[i] - y[i + 1:]) * np.sign(y2[i] - y2[i + 1:])))
        return 2.0 * total / (n * (n - 1))

    @pytest.mark.parametrize("y, y2", [([1.0, 2.0], [5.0, 3.0]),
                                       ([1.0, 2.0], [3.0, 5.0]),
                                       ([1.0, 1.0], [3.0, 5.0])])
    def test_two_observations(self, y, y2):
        assert kendall_tau(y, y2) == self.enumerate_pairs(y, y2)

    def test_all_ties(self):
        assert kendall_tau(np.full(7, 2.0), np.full(7, -1.0)) == 0.0

    def test_one_constant_column(self):
        rng = np.random.default_rng(5)
        y2 = rng.normal(size=40)
        assert kendall_tau(np.full(40, 0.5), y2) == 0.0
        assert kendall_tau(y2, np.full(40, 0.5)) == 0.0

    def test_large_with_heavy_ties(self):
        rng = np.random.default_rng(3000)
        n = 3000
        y = rng.integers(0, 25, n).astype(float)
        y2 = np.where(rng.random(n) < 0.5, y, rng.integers(0, 6, n)).astype(float)
        y2[::7] = -0.0   # signed zeros tie with 0.0
        assert kendall_tau(y, y2) == self.enumerate_pairs(y, y2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        y = np.arange(5.0)
        with pytest.raises(ArgumentError, match="finite"):
            kendall_tau(np.r_[y[:4], bad], y)
        with pytest.raises(ArgumentError, match="finite"):
            kendall_tau(y, np.r_[bad, y[1:]])


class TestIndependenceTest:
    def test_zero_tau(self):
        assert independence_test(0.0, 1000)

    def test_full_dependence(self):
        # statistic = sqrt(9*100*99 / (2*205)) ~ 14.74 > 1.96
        stat = np.sqrt(9 * 100 * 99 / (2 * 205))
        assert stat > 1.96
        assert not independence_test(1.0, 100)

    def test_weak_dependence(self):
        stat = 0.05 * np.sqrt(9 * 100 * 99 / (2 * 205))
        assert stat == pytest.approx(0.737, abs=5e-3)
        assert independence_test(0.05, 100)


class TestFitPair:
    def test_recovers_gumbel(self):
        cop = PairCopula("gumbel", 0, 2.0)
        u, v = sample_pair(cop, 5000, seed=101)
        fit = fit_pair(u, v)
        assert fit.family == "gumbel"
        assert fit.rotation == 0
        assert 1.8 <= fit.theta <= 2.2

    def test_independent_uniforms(self):
        rng = np.random.default_rng(55)
        fit = fit_pair(rng.uniform(size=5000), rng.uniform(size=5000))
        assert fit.family == "independence"

    def test_recovers_rotated_clayton(self):
        base = PairCopula("clayton", 0, 3.0)
        a, b = sample_pair(base, 5000, seed=1)
        # rotation 90: (u, v) = (1 - b, a)
        u, v = 1.0 - b, a
        fit = fit_pair(u, v)
        assert (fit.family, fit.rotation) == ("clayton", 90)
        assert 2.5 <= fit.theta <= 3.5

    def test_selected_loglik_beats_independence(self):
        cop = PairCopula("frank", 0, 6.0)
        u, v = sample_pair(cop, 2000, seed=3)
        fit = fit_pair(u, v)
        assert fit.family != "independence"
        ll = np.sum(np.log(pair_density(fit, u, v)))
        assert ll >= 0.0

    def test_pseudo_observations_average_ranks(self):
        u = pseudo_observations([1.0, 2.0, 2.0, 5.0])
        assert u == pytest.approx(np.array([1.0, 2.5, 2.5, 4.0]) / 5.0)

    def test_dependent_selection_never_below_independence(self):
        # whenever the pre-test rejects independence, the fitted family's
        # log-likelihood must be at least the independence value of zero
        rng = np.random.default_rng(91)
        for trial in range(12):
            z = rng.standard_normal((400, 2))
            rho = rng.uniform(-0.9, 0.9)
            z[:, 1] = rho * z[:, 0] + np.sqrt(1 - rho ** 2) * z[:, 1]
            u = pseudo_observations(z)
            fit = fit_pair(u[:, 0], u[:, 1])
            if fit.family == "independence":
                continue
            ll = float(np.sum(np.log(pair_density(fit, u[:, 0], u[:, 1]))))
            assert ll >= 0.0, (trial, fit)


class TestRefitTheta:
    @pytest.mark.parametrize("n_u", [1, 49])
    def test_unequal_lengths_rejected(self, n_u):
        u, v = sample_pair(PairCopula("clayton", 0, 2.0), 50, seed=4)
        with pytest.raises(ArgumentError, match="requires equal-length samples"):
            refit_theta(PairCopula("clayton", 0, 2.0), u[:n_u], v)


def exhaustive_fit_pair(u, v, tau: float, candidates) -> PairCopula:
    """The search `fit_pair` ran before it kept to tau's sign: every family
    at every `FIT_ROTATIONS` rotation, Frank over both halves, each seeded
    with the tau-inverted start and its negation.  The test reference of
    the sign-consistent search."""
    if independence_test(tau, u.size):
        return PairCopula("independence")

    best: tuple[float, PairCopula] | None = None
    for family in candidates:
        if family == "independence":
            continue
        ranges = _theta_ranges(family)
        seed = _tau_theta_start(family, tau)
        for rotation in FIT_ROTATIONS[family]:
            found = _search_theta(_pair_loglik(family, rotation, u, v), ranges,
                                  seeds=(seed, -seed))
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], PairCopula(family, rotation, found[1]))

    if best is None:
        return PairCopula("independence", fallback=True)
    return best[1]


def _bits(cop: PairCopula):
    return cop.family, cop.rotation, cop.fallback, repr(cop.theta)


class TestSignConsistentSearch:
    """The search over the sign-consistent candidates against the search over
    all of them, on every edge that rvine fits of the benchmark truth reach.
    The two agree on these fits by measurement, not by proof."""

    @pytest.mark.parametrize("counts,seed", [((227, 489, 625), 7), ((34, 73, 93), 21),
                                             ((34, 73, 93), 22), ((34, 73, 93), 23)])
    def test_rvine_edges_match_exhaustive_search(self, monkeypatch, counts, seed):
        edges = []

        def recording(u, v, tau, candidates):
            cop = _fit_pair_with_tau(u, v, tau, candidates)
            edges.append((u.copy(), v.copy(), tau, tuple(candidates), cop))
            return cop

        monkeypatch.setattr(orevine.vine, "_fit_pair_with_tau", recording)
        fit_composite(generate_composite_dataset(benchmark_truth(), *counts, seed=seed),
                      engine="rvine")
        searched = [e for e in edges if not independence_test(e[2], e[0].size)]
        assert len(edges) == 51 and len(searched) >= 8
        for u, v, tau, candidates, cop in searched:
            assert _bits(cop) == _bits(exhaustive_fit_pair(u, v, tau, candidates)), tau


def model_tau(cop: PairCopula) -> float:
    """Kendall's tau of a copula: closed forms for Clayton, Gumbel and Frank
    (Debye function by quadrature), times -1 for a rotation that reflects
    exactly one argument.  For Joe, the tau of a seeded `pair_h_inverse`
    sample, which has the model's sign but not its size: the sample is the
    product of 60 probabilities and 60 conditioning values, so even near
    independence the equal-p pairs order as h^-1(p | v) does in v, and the
    other pairs cancel."""
    theta = cop.theta
    if cop.family == "joe":
        rng = np.random.default_rng(61)
        p, v = np.meshgrid(rng.uniform(1e-6, 1 - 1e-6, 60), rng.uniform(1e-6, 1 - 1e-6, 60))
        return kendall_tau(pair_h_inverse(cop, p.ravel(), v.ravel()), v.ravel())
    if cop.family == "clayton":
        tau = theta / (theta + 2.0)
    elif cop.family == "gumbel":
        tau = 1.0 - 1.0 / theta
    else:   # frank: 1 + 4 (D1(theta) - 1) / theta
        debye = quad(lambda t: t / np.expm1(t) if t else 1.0, 0.0, theta,
                     epsabs=0.0, epsrel=1e-13)[0] / theta
        tau = 1.0 + 4.0 * (debye - 1.0) / theta
    reflect_u, reflect_v, _ = ROTATION_TABLE[cop.rotation]
    return -tau if reflect_u != reflect_v else tau


class TestTauSignContract:
    """Every admissible theta of a family at a rotation gives a model tau of
    one sign, which is what lets `fit_pair` search only the candidates of
    the empirical tau's sign."""

    def test_sign_rotations_cover_fit_rotations(self):
        assert sorted(TAU_SIGN_ROTATIONS[1] + TAU_SIGN_ROTATIONS[-1]) == list(ROTATIONS)
        assert set(FIT_ROTATIONS) - set(THETA_RANGE) == {"independence"}

    @pytest.mark.parametrize("family,rotation", [
        (family, rotation) for family in THETA_RANGE for rotation in FIT_ROTATIONS[family]])
    def test_model_tau_sign(self, family, rotation):
        # each candidate searched for a tau sign: its range's ends, midpoint
        # and one interior point
        for sign in (1, -1):
            if family != "frank" and rotation not in TAU_SIGN_ROTATIONS[sign]:
                continue
            for lo, hi in _theta_ranges(family, sign):
                for theta in (lo, hi, 0.5 * (lo + hi), lo + 0.05 * (hi - lo)):
                    tau = model_tau(PairCopula(family, rotation, theta))
                    assert sign * tau >= 0.0, (sign, theta, tau)

    def test_closed_forms_match_samples(self):
        # the closed forms and rotation signs above against seeded samples
        for cop in (PairCopula("clayton", 90, 2.0), PairCopula("gumbel", 180, 2.0),
                    PairCopula("frank", 0, -6.0)):
            u, v = sample_pair(cop, 4000, seed=62)
            assert kendall_tau(u, v) == pytest.approx(model_tau(cop), abs=0.03)

    def test_negative_tau_fits_a_negative_candidate(self):
        u, v = sample_pair(PairCopula("gumbel", 270, 1.6), 1500, seed=63)
        assert kendall_tau(u, v) < 0.0
        fit = fit_pair(u, v)
        assert fit.rotation in (90, 270) or (fit.family == "frank" and fit.theta < 0)


class TestFrankRadialSymmetry:
    """Frank is radially symmetric, so a fit keeps it at rotation 0 only."""

    @pytest.mark.parametrize("theta", [0.7, 3.0, -2.0, 12.0, 40.0])
    def test_rotations_reduce_to_rotation_0(self, theta):
        rng = np.random.default_rng(31)
        u, v = rng.uniform(size=(2, 2000))
        # the CDF is left out: its closed form cancels digits at large |theta|
        for op in (pair_log_density, pair_h, pair_h2):
            same = op(PairCopula("frank", 0, theta), u, v)
            flipped = op(PairCopula("frank", 0, -theta), u, v)
            np.testing.assert_allclose(op(PairCopula("frank", 180, theta), u, v),
                                       same, rtol=0, atol=1e-12)
            for rotation in (90, 270):
                np.testing.assert_allclose(op(PairCopula("frank", rotation, theta), u, v),
                                           flipped, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [17, 18, 19, 20])
    def test_rotated_frank_data_fits_rotation_0_negative_theta(self, seed):
        # the search over all four Frank rotations stored these at 270, 0,
        # 90 and 180, whichever scored higher in the last digits
        u, v = sample_pair(PairCopula("frank", 90, 4.0), 1000, seed=seed)
        fit = fit_pair(u, v)
        assert (fit.family, fit.rotation) == ("frank", 0)
        assert -4.6 <= fit.theta <= -3.4


class TestGridIntegral:
    @pytest.mark.parametrize("cop", list(all_copulas(GRID_THETAS)),
                             ids=lambda c: f"{c.family}-{c.rotation}-{c.theta}")
    def test_density_integrates_to_one(self, cop):
        n = 200
        grid = (np.arange(n) + 0.5) / n
        uu, vv = np.meshgrid(grid, grid)
        total = pair_density(cop, uu.ravel(), vv.ravel()).sum() / (n * n)
        assert total == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# golden outputs: the exact bytes of every rotation-aware operation
# ---------------------------------------------------------------------------

# 41 even steps plus points next to the boundary
GOLDEN_GRID = np.unique(np.r_[np.linspace(0.0, 1.0, 41),
                              1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12])
GOLDEN_THETAS = {"independence": (None,), "frank": (4.0, -3.5),
                 "clayton": (2.0, 25.0), "gumbel": (2.5, 15.0),
                 "joe": (1.8, 12.0)}


def golden_digests(cop: PairCopula) -> tuple[str, ...]:
    """SHA-256 prefixes of the float64 bytes of pair_cdf, pair_log_density,
    pair_h and pair_h2 on the grid x grid points, then of pair_h_inverse and
    pair_h2_inverse on (grid interior) x grid."""
    uu, vv = (a.ravel() for a in np.meshgrid(GOLDEN_GRID, GOLDEN_GRID))
    inner = GOLDEN_GRID[(GOLDEN_GRID > 0.0) & (GOLDEN_GRID < 1.0)]
    pp, cc = (a.ravel() for a in np.meshgrid(inner, GOLDEN_GRID))
    with np.errstate(all="ignore"):
        outs = (pair_cdf(cop, uu, vv), pair_log_density(cop, uu, vv),
                pair_h(cop, uu, vv), pair_h2(cop, uu, vv),
                pair_h_inverse(cop, pp, cc), pair_h2_inverse(cop, pp, cc))
    return tuple(hashlib.sha256(np.asarray(o, dtype=np.float64).tobytes())
                 .hexdigest()[:16] for o in outs)


# generated with the switch-per-function implementation that the rotation
# table replaced; any change here is a change of output bits.  The Frank 4.0
# pair_cdf digests were regenerated when its CDF took the cancellation-free
# form past gu gv / g1 = 1/2
GOLDEN_DIGESTS = {
    ('independence', None, 0): ('20cfba38c04abdba', '9dd76d9311e87123', '6fb2d4799cb159b5',
        '6fb2d4799cb159b5', 'bd065b4512b65a5e', 'bd065b4512b65a5e'),
    ('independence', None, 90): ('b42e9797ee81ed5b', '9dd76d9311e87123', '68d47fdd35ec9496',
        '6fb2d4799cb159b5', '876c5ca8732c025c', 'bd065b4512b65a5e'),
    ('independence', None, 180): ('fe7719573fa3f66f', '9dd76d9311e87123', '68d47fdd35ec9496',
        '68d47fdd35ec9496', '876c5ca8732c025c', '876c5ca8732c025c'),
    ('independence', None, 270): ('128cf5b11bd23297', '9dd76d9311e87123', '6fb2d4799cb159b5',
        '68d47fdd35ec9496', 'bd065b4512b65a5e', '876c5ca8732c025c'),
    ('frank', 4.0, 0): ('63d4dea616b373db', '5df1795841fabbde', '43391418d6dd1a1d',
        '43391418d6dd1a1d', '599f3a740ae19f82', '599f3a740ae19f82'),
    ('frank', 4.0, 90): ('998ddd83c3bdd451', '964df7baae331d37', '8e64ffffb5307154',
        'ed3697098252d9fa', '6e991ead94b10dde', '39dadfcddcb3aeab'),
    ('frank', 4.0, 180): ('afb17c30a36db9ba', 'bef87afec2e1c0b3', 'ea416c788d9349bc',
        'ea416c788d9349bc', '71f2f5f52c0b704e', '71f2f5f52c0b704e'),
    ('frank', 4.0, 270): ('623cac3dd1483e86', '10e3908e89acfd9b', 'ed3697098252d9fa',
        '8e64ffffb5307154', '39dadfcddcb3aeab', '6e991ead94b10dde'),
    ('frank', -3.5, 0): ('e48c021873c0a21f', '91fd4bdeb124ef41', '38c685d0a8e9d6ca',
        '38c685d0a8e9d6ca', 'fe1e650da1dc71c7', 'fe1e650da1dc71c7'),
    ('frank', -3.5, 90): ('91493fcdd6e46cce', '9178a5007a056ebc', '6d88135d03b0c797',
        'a28b1bee5b21fda7', '84a7e1bfe5e5e5c4', '59016b416fa76c46'),
    ('frank', -3.5, 180): ('b41c9e29597c7e96', '14f9985eafb58d31', 'bed40f4632d1ea9f',
        'bed40f4632d1ea9f', '2eaf30461266efbd', '2eaf30461266efbd'),
    ('frank', -3.5, 270): ('7c9052ebfb2b2fa8', '90454b1056df2c77', 'a28b1bee5b21fda7',
        '6d88135d03b0c797', '59016b416fa76c46', '84a7e1bfe5e5e5c4'),
    ('clayton', 2.0, 0): ('11d7d260aa7d1292', 'b1c5b752a6ac8101', 'c75be455ae8bcc95',
        'c75be455ae8bcc95', 'cdbdbe2511607231', 'cdbdbe2511607231'),
    ('clayton', 2.0, 90): ('eb5f1075dcf39f3d', 'f0859b2da061831e', '26b8e522d658085a',
        'fcc049e6c8f7056f', '7851d043ea6fbb1b', '6f1626f1b3a8523c'),
    ('clayton', 2.0, 180): ('68d26b743c7e1922', '1d08d40f23cb1b39', '92268fd93be86716',
        '92268fd93be86716', '5030769dc12296e3', '5030769dc12296e3'),
    ('clayton', 2.0, 270): ('62a6c2937bae2a3b', '23f029a293ef3e2b', 'fcc049e6c8f7056f',
        '26b8e522d658085a', '6f1626f1b3a8523c', '7851d043ea6fbb1b'),
    ('clayton', 25.0, 0): ('aeba18fb07af0b8d', 'b90379113342e579', 'ded37486359ab402',
        'ded37486359ab402', 'ba94f3b7897eb6fe', 'ba94f3b7897eb6fe'),
    ('clayton', 25.0, 90): ('6ee5e455259e26a3', '6f87f64bb773c3d3', 'c8fc55cd46196a92',
        'b2fa32dccc83c6af', '229cf34fe468913a', 'c2e1e930bbc9d5ba'),
    ('clayton', 25.0, 180): ('7416d6aa94b346b8', 'd922d60e8828bd2e', 'ccd4b30ad59b6e1b',
        'ccd4b30ad59b6e1b', 'cbc6af2188f0d0f4', 'cbc6af2188f0d0f4'),
    ('clayton', 25.0, 270): ('bae91623b14d70a1', 'b15af1cff4b23c81', 'b2fa32dccc83c6af',
        'c8fc55cd46196a92', 'c2e1e930bbc9d5ba', '229cf34fe468913a'),
    ('gumbel', 2.5, 0): ('2cb5dcc560b2107c', 'bc0c756a002bdde8', '3c8d884946b2fa21',
        '3c8d884946b2fa21', 'f87288916ab5c651', 'f87288916ab5c651'),
    ('gumbel', 2.5, 90): ('3e44ff1d4e7d3988', '3f385b9160589e36', 'cd085a54b46410c4',
        'af4c374003ed6233', '32eef98d236a1ea0', '1e2fce9c976757d7'),
    ('gumbel', 2.5, 180): ('934eb0d2f7d0f573', 'f988d9e5aa50a8a6', '5948cc71046a4d48',
        '5948cc71046a4d48', 'fb4bc339e180869e', 'fb4bc339e180869e'),
    ('gumbel', 2.5, 270): ('4453c5211c45213c', '1f950abb9c283ef7', 'af4c374003ed6233',
        'cd085a54b46410c4', '1e2fce9c976757d7', '32eef98d236a1ea0'),
    ('gumbel', 15.0, 0): ('80c6fe46d80c1787', 'ea4ca159bfe3a90e', 'ca4a2c849480babb',
        'ca4a2c849480babb', '6626d9853789ef46', '6626d9853789ef46'),
    ('gumbel', 15.0, 90): ('a4292470a80642db', '9b95e4403d8d006f', 'ec988b4d34344fef',
        'e9e85523189c0715', 'eae2a28ed61d946b', 'eda16a884c9de3a8'),
    ('gumbel', 15.0, 180): ('1362c406b233b985', '4d04a6c01d824638', '196215acf9f5c7b6',
        '196215acf9f5c7b6', 'b717a1dbc34f3eb8', 'b717a1dbc34f3eb8'),
    ('gumbel', 15.0, 270): ('dec39e9c174ebda7', '0646fe50b15abbe1', 'e9e85523189c0715',
        'ec988b4d34344fef', 'eda16a884c9de3a8', 'eae2a28ed61d946b'),
    ('joe', 1.8, 0): ('e0b78e512f21592e', '791d4452dce623c5', 'a5afbbaabe9111c5',
        'a5afbbaabe9111c5', '0772504868ded1fd', '0772504868ded1fd'),
    ('joe', 1.8, 90): ('d04d76aef4f17689', '594d947d71d08ce0', 'df848395ebeef73f',
        'c18beb28799ca43a', 'db9d890fe776615b', '051e1a67e07748a3'),
    ('joe', 1.8, 180): ('a12da5b006c2fcdf', '030a0c961ee3922e', '7ecd8eda33424384',
        '7ecd8eda33424384', 'a8fbd74f4f0f693c', 'a8fbd74f4f0f693c'),
    ('joe', 1.8, 270): ('9ecfd1a0f098e91b', '63179349db314198', 'c18beb28799ca43a',
        'df848395ebeef73f', '051e1a67e07748a3', 'db9d890fe776615b'),
    ('joe', 12.0, 0): ('0cccdaa4711bf50e', 'ac62324f56761f12', 'bc8ce49e184ef0ac',
        'bc8ce49e184ef0ac', '7c6d02949a7308f8', '7c6d02949a7308f8'),
    ('joe', 12.0, 90): ('f2abccf9375230cc', '7a0d23592fcb7589', '69f8ea19a26298e3',
        '301b7fdd9acb5c4e', 'e9fd1670a6a4293b', 'efc6531b7c3858b5'),
    ('joe', 12.0, 180): ('6a6554aa511f9d0c', '0a18ff292d267d0b', '3a65bb8578f66e16',
        '3a65bb8578f66e16', 'f34cc0a4811c9c32', 'f34cc0a4811c9c32'),
    ('joe', 12.0, 270): ('561ed8e5bce5c9b3', 'f32cab3ae9ca49ab', '301b7fdd9acb5c4e',
        '69f8ea19a26298e3', 'efc6531b7c3858b5', 'e9fd1670a6a4293b'),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("family,theta,rotation", [
        (family, theta, rotation) for family, thetas in GOLDEN_THETAS.items()
        for theta in thetas for rotation in ROTATIONS])
    def test_operations_bit_identical(self, family, theta, rotation):
        names = ("pair_cdf", "pair_log_density", "pair_h", "pair_h2",
                 "pair_h_inverse", "pair_h2_inverse")
        got = golden_digests(PairCopula(family, rotation, theta))
        want = GOLDEN_DIGESTS[(family, theta, rotation)]
        assert [n for n, g, w in zip(names, got, want) if g != w] == []


# template refits, generated before the pair fits shared one theta search and
# regenerated when bounded Brent replaced golden section as its refinement:
# name -> (template, generating copula, fitted (family, rotation, repr(theta))).
# The Clayton template sits at the top of its search range, 50; the Frank
# template's sign picks the negative half.
GOLDEN_REFITS = {
    "clayton_50": (PairCopula("clayton", 0, 50.0), PairCopula("clayton", 0, 8.0),
                   ("clayton", 0, "7.868707571174305")),
    "frank_negative": (PairCopula("frank", 90, -3.0), PairCopula("frank", 90, -4.0),
                       ("frank", 90, "-3.826367386035609")),
    "gumbel_270": (PairCopula("gumbel", 270, 1.2), PairCopula("gumbel", 270, 2.0),
                   ("gumbel", 270, "1.9539391402755604")),
}


class TestGoldenRefit:
    @pytest.mark.parametrize("seed,name", enumerate(GOLDEN_REFITS, start=80))
    def test_bit_identical(self, seed, name):
        template, gen, want = GOLDEN_REFITS[name]
        u, v = sample_pair(gen, 600, seed=seed)
        got = refit_theta(template, u, v)
        assert (got.family, got.rotation, repr(got.theta)) == want


def loo_workload_rows(seed: int) -> Dataset:
    """The rows of the `loo` benchmark workload at a run seed: the pinned
    93-row draw (generator seed 6, 31 rows per class) permuted by the seed."""
    ds = generate_composite_dataset(benchmark_truth(), 31, 31, 31, seed=6)
    perm = np.random.default_rng((seed, 1)).permutation(len(ds))
    return Dataset(np.arange(1, len(ds) + 1, dtype=np.int64), ds.matrix[perm], COLUMNS)


@pytest.fixture(scope="class")
def loo_refits():
    """Every searching refit of a serial fast-LOO pass over the `loo` rows
    at run seed 1, as (template, u, v, refitted copula), and the pass's
    count of refit log-likelihood evaluations and full-search fallbacks."""
    rows = loo_workload_rows(1)
    scored = fit_composite(rows, engine="rvine")
    counts = {"evaluations": 0, "fallbacks": 0}
    refits = []

    def counted_loglik(*args):
        loglik = _pair_loglik(*args)

        def counted(theta):
            counts["evaluations"] += 1
            return loglik(theta)
        return counted

    def counted_search(*args, **kwargs):
        counts["fallbacks"] += 1
        return _search_theta(*args, **kwargs)

    def recorded_refit(cop, u, v):
        new = refit_theta(cop, u, v)
        if cop.family != "independence":
            refits.append((cop, np.array(u), np.array(v), new))
        return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(copulas, "_pair_loglik", counted_loglik)
        mp.setattr(copulas, "_search_theta", counted_search)
        mp.setattr(orevine.vine, "refit_theta", recorded_refit)
        loo_cv(scored, rows, fast=True, parallelism=1)
    return refits, counts


def template_ranges(template: PairCopula):
    return _theta_ranges(template.family, 1 if template.theta > 0 else -1)


# templates whose warm bracket cannot hold a maximum, with the copula their
# data are drawn from: the ends of the search ranges, where theta0 is not
# inside the bracket, and the `GOLDEN_REFITS` templates, whose optimum lies
# beyond the bracket
FALLBACK_REFITS = {
    "clayton_top": (PairCopula("clayton", 0, 50.0), PairCopula("clayton", 0, 8.0)),
    "gumbel_bottom": (PairCopula("gumbel", 0, 1.0 + 1e-4), PairCopula("gumbel", 0, 2.0)),
    "frank_plus": (PairCopula("frank", 0, 1e-4), PairCopula("frank", 0, 4.0)),
    "frank_minus": (PairCopula("frank", 0, -1e-4), PairCopula("frank", 0, -4.0)),
    **{name: (template, gen) for name, (template, gen, _) in GOLDEN_REFITS.items()},
}


class TestWarmRefit:
    """`refit_theta` from a bracket around the template theta against the
    full search it falls back to."""

    def test_agrees_with_full_search(self, loo_refits):
        refits, _ = loo_refits
        assert len(refits) == 288
        off = []
        for template, u, v, warm in refits:
            loglik = _pair_loglik(template.family, template.rotation, u, v)
            ll, theta = _search_theta(loglik, template_ranges(template),
                                      seeds=[template.theta])
            if not (abs(warm.theta - theta) <= 1e-5
                    and loglik(warm.theta) >= ll - 1e-9 * max(1.0, abs(ll))):
                off.append((template, warm.theta, theta))
        assert off == []

    def test_evaluation_count(self, loo_refits):
        """6538 evaluations (22.7 per refit) with the full search on every
        refit; 3290 from the warm bracket, 3 refits falling back."""
        _, counts = loo_refits
        assert counts["evaluations"] <= 3500
        assert counts["fallbacks"] <= 10

    @pytest.mark.parametrize("seed,name", enumerate(FALLBACK_REFITS, start=90))
    def test_fallback_is_the_full_search(self, seed, name):
        template, gen = FALLBACK_REFITS[name]
        u, v = sample_pair(gen, 600, seed=seed)
        loglik = _pair_loglik(template.family, template.rotation, u, v)
        ranges = template_ranges(template)
        assert _warm_theta(functools.cache(loglik), template.theta, *ranges[0]) is None
        _, want = _search_theta(loglik, ranges, seeds=[template.theta])
        assert repr(refit_theta(template, u, v).theta) == repr(want)


@pytest.fixture(scope="class")
def arch_loo_refits():
    """Every template refit of a serial Archimedean fast-LOO pass over the
    `loo` rows at run seed 1, as (template, u, refitted model), and the
    pass's count of `_arch_loglik` evaluations and full-search fallbacks."""
    rows = loo_workload_rows(1)
    scored = fit_composite(rows, engine="archimedean")
    counts = {"evaluations": 0, "fallbacks": 0}
    refits = []

    def counted_loglik(*args):
        counts["evaluations"] += 1
        return _arch_loglik(*args)

    def counted_search(*args, **kwargs):
        counts["fallbacks"] += 1
        return _search_theta(*args, **kwargs)

    def recorded_fit(data, marginals, *args, template=None, **kwargs):
        new = fit_archimedean(data, marginals, *args, template=template, **kwargs)
        if template is not None:
            refits.append((template, _copula_data(data, marginals, 1)[0], new))
        return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orevine.vine, "_arch_loglik", counted_loglik)
        mp.setattr(copulas, "_search_theta", counted_search)
        mp.setattr(orevine.model, "fit_archimedean", recorded_fit)
        loo_cv(scored, rows, fast=True, parallelism=1)
    return refits, counts


def arch_template_search(template: ArchimedeanModel, u):
    """(loglik, full-search (ll, theta)) of a template refit on u: the range
    of the template's sign, seeded with its theta."""
    loglik = functools.partial(_arch_loglik, template.family, u)
    return loglik, _search_theta(loglik, _theta_ranges(template.family,
                                                        1 if template.theta > 0 else -1),
                                 seeds=[template.theta])


class TestWarmArchimedeanRefit:
    """`fit_archimedean(template=...)` refits theta as `refit_theta` does, from
    a bracket around the template theta, against the full search it falls
    back to."""

    def test_agrees_with_full_search(self, arch_loo_refits):
        refits, _ = arch_loo_refits
        assert len(refits) == 96
        off = []
        for template, u, warm in refits:
            assert warm.family == template.family
            loglik, (ll, theta) = arch_template_search(template, u)
            if not (abs(warm.theta - theta) <= 1e-5
                    and loglik(warm.theta) >= ll - 1e-9 * max(1.0, abs(ll))):
                off.append((template.family, template.theta, warm.theta, theta))
        assert off == []

    def test_evaluation_count(self, arch_loo_refits):
        """2142 `_arch_loglik` evaluations with the cold grid search of the
        template's family on every refit; 1089 from the warm bracket, no
        refit falling back."""
        _, counts = arch_loo_refits
        assert counts["evaluations"] <= 1150
        assert counts["fallbacks"] <= 2

    @pytest.mark.parametrize("family,theta0,gen_theta", [
        ("clayton", 50.0, 8.0), ("gumbel", 1.0 + 1e-4, 2.0)],
        ids=["clayton_top", "gumbel_bottom"])
    def test_fallback_is_the_full_search(self, family, theta0, gen_theta):
        margs = (MixtureModel("beta", BetaParams(1.0, 1.0), BetaParams(1.0, 1.0), 0.5),) * 3
        x = ArchimedeanModel(family, gen_theta, margs).sample(300, seed=94)
        template = ArchimedeanModel(family, theta0, margs)
        u = _copula_data(x, margs, 1)[0]
        loglik, (_, want) = arch_template_search(template, u)
        assert _warm_theta(functools.cache(loglik), theta0,
                           *_theta_ranges(family, 1)[0]) is None
        got = fit_archimedean(x, margs, template=template)
        assert (got.family, repr(got.theta)) == (family, repr(want))


CLAMP_INPUTS = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, 0.5, 1.0 - 1e-17, 1.0, 2.0]


class TestClamps:
    """The clamp helpers call the ndarray method; they are np.clip bit for bit."""

    @pytest.mark.parametrize("helper,lo", [(_clamp, DENSITY_CLAMP), (_cl, COND_CLAMP)])
    @pytest.mark.parametrize("shape", ["float", "0-d", "array"])
    def test_equals_np_clip(self, helper, lo, shape):
        if shape == "array":
            inputs = [np.array(CLAMP_INPUTS), np.array(CLAMP_INPUTS).reshape(2, 5)]
        else:
            inputs = [x if shape == "float" else np.array(x) for x in CLAMP_INPUTS]
        for x in inputs:
            got = helper(x)
            want = np.clip(np.asarray(x, dtype=float), lo, 1.0 - lo)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x


class TestPairLoglik:
    """The hoisted search objective against pair_log_density, bit for bit."""

    @pytest.mark.parametrize("family", ["frank", "clayton", "gumbel", "joe"])
    @pytest.mark.parametrize("rotation", ROTATIONS)
    def test_matches_pair_log_density_sum(self, family, rotation):
        rng = np.random.default_rng(23)
        u = rng.uniform(0.0, 1.0, 300)
        v = rng.uniform(0.0, 1.0, 300)
        # boundary and near-boundary inputs, raw and clamped as the vine does
        u[:6] = [0.0, 1.0, 1e-13, 1 - 1e-13, 1e-12, 0.5]
        v[:6] = [0.3, 1.0, 1.0, 1e-12, 0.0, 1 - 1e-12]
        thetas = [th for lo, hi in _theta_ranges(family)
                  for th in (lo, hi, np.nextafter(lo, hi), 0.5 * (lo + hi),
                             lo + 0.37 * (hi - lo), lo + 1e-3 * (hi - lo))]
        for uu, vv in ((u, v), (np.clip(u, 1e-12, 1 - 1e-12), np.clip(v, 1e-12, 1 - 1e-12))):
            loglik = _pair_loglik(family, rotation, uu, vv)
            for theta in thetas:
                with np.errstate(all="ignore"):
                    ll = pair_log_density(PairCopula(family, rotation, float(theta)), uu, vv)
                    got = loglik(theta)
                want = float(np.sum(np.where(np.isfinite(ll), ll, -1e10)))
                assert repr(got) == repr(want), theta

    def test_frank_halves(self):
        assert _theta_ranges("frank") == [(-50.0, -1e-4), (1e-4, 50.0)]
        assert _theta_ranges("frank", 1) == [(1e-4, 50.0)]
        assert _theta_ranges("frank", -1) == [(-50.0, -1e-4)]
        assert _theta_ranges("clayton", -1) == [(1e-4, 50.0)]
        with pytest.raises(ArgumentError):
            _theta_ranges("independence")


class TestSearchTheta:
    def test_tie_goes_to_the_first_range(self):
        ll, theta = _search_theta(lambda t: 0.0, _theta_ranges("frank"))
        assert ll == 0.0 and theta < 0.0

    def test_failed_ranges_are_skipped(self):
        def loglik(theta):
            if theta < 0.0:
                raise ValueError("negative half fails")
            return -(theta - 2.0) ** 2

        ll, theta = _search_theta(loglik, _theta_ranges("frank"))
        assert theta == pytest.approx(2.0, abs=1e-5)
        assert _search_theta(lambda t: float("nan"), _theta_ranges("frank")) is None

    def test_seeds_are_scored(self):
        seen = []
        _search_theta(lambda t: seen.append(t) or 0.0, _theta_ranges("frank"),
                      seeds=(7.0, -7.0))
        assert 7.0 in seen and -7.0 in seen
