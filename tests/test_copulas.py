import itertools

import numpy as np
import pytest

from orevine.copulas import (
    PairCopula,
    ROTATIONS,
    fit_pair,
    independence_test,
    kendall_tau,
    pair_cdf,
    pair_density,
    pair_h,
    pair_h_inverse,
    pseudo_observations,
)
from orevine.errors import ArgumentError

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

    def test_frank_small_theta_limit(self):
        cop = PairCopula("frank", 0, 1e-7)
        assert pair_density(cop, 0.5, 0.5) == pytest.approx(1.0, abs=1e-4)

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


class TestGridIntegral:
    @pytest.mark.parametrize("cop", list(all_copulas(GRID_THETAS)),
                             ids=lambda c: f"{c.family}-{c.rotation}-{c.theta}")
    def test_density_integrates_to_one(self, cop):
        n = 200
        grid = (np.arange(n) + 0.5) / n
        uu, vv = np.meshgrid(grid, grid)
        total = pair_density(cop, uu.ravel(), vv.ravel()).sum() / (n * n)
        assert total == pytest.approx(1.0, abs=1e-3)
