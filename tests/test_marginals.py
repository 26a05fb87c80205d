import numpy as np
import pytest
from scipy import integrate

from orevine.errors import ArgumentError, FittingError
from orevine.marginals import (
    BetaParams,
    GammaParams,
    MixtureModel,
    fit_mixture_em,
)


def gamma_mix(a1, b1, a2, b2, lam, truncation=None):
    return MixtureModel("gamma", GammaParams(a1, b1), GammaParams(a2, b2), lam,
                        truncation=truncation)


def beta_mix(p1, q1, p2, q2, lam, truncation=None):
    return MixtureModel("beta", BetaParams(p1, q1), BetaParams(p2, q2), lam,
                        truncation=truncation)


class TestDensity:
    def test_pure_exponential_at_origin(self):
        # lambda = 1, gamma(1, 1) is Exp(1); density at 0+ is 1
        m = gamma_mix(1.0, 1.0, 5.0, 2.0, 1.0)
        assert m.density(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_beta(self):
        m = beta_mix(1.0, 1.0, 1.0, 1.0, 0.37)
        assert m.density(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_against_direct_formula(self):
        # independent high-precision evaluation of the mixture formula
        from scipy.stats import gamma as sp_gamma

        lam = 0.3
        expected = (lam * sp_gamma(a=2, scale=1).pdf(2.0)
                    + (1 - lam) * sp_gamma(a=5, scale=0.5).pdf(2.0))
        m = gamma_mix(2.0, 1.0, 5.0, 0.5, lam)
        assert m.density(2.0) == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one(self):
        # midpoint quadrature with 1e4 panels over the effective support
        m = gamma_mix(2.0, 1.5, 7.0, 0.8, 0.4)
        hi = m.quantile(1 - 1e-9)
        xs = (np.arange(10_000) + 0.5) * (hi / 10_000)
        total = m.density(xs).sum() * hi / 10_000
        assert total == pytest.approx(1.0, abs=1e-3)

        b = beta_mix(2.0, 8.0, 8.0, 2.0, 0.5)
        xs = (np.arange(10_000) + 0.5) / 10_000
        assert b.density(xs).sum() / 10_000 == pytest.approx(1.0, abs=1e-3)

    def test_truncated_density_renormalizes(self):
        m = beta_mix(2.0, 5.0, 5.0, 2.0, 0.5, truncation=(0.01, 0.99))
        assert m.density(0.001) == 0.0
        assert m.density(0.999) == 0.0
        xs = (np.arange(10_000) + 0.5) * 0.98 / 10_000 + 0.01
        total = m.density(xs).sum() * 0.98 / 10_000
        assert total == pytest.approx(1.0, abs=1e-3)


class TestCdfQuantile:
    def test_uniform_cdf(self):
        m = beta_mix(1.0, 1.0, 1.0, 1.0, 0.5)
        assert m.cdf(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_exponential_cdf(self):
        m = gamma_mix(1.0, 1.0, 1.0, 1.0, 0.5)
        assert m.cdf(np.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_cdf_matches_quadrature(self):
        m = gamma_mix(2.0, 1.0, 6.0, 0.7, 0.35)
        for x in (0.5, 2.0, 5.0):
            ref, _ = integrate.quad(lambda t: m.density(t), 0, x,
                                    epsabs=1e-12, epsrel=1e-12)
            assert m.cdf(x) == pytest.approx(ref, abs=1e-6)

    def test_cdf_monotone_and_limits(self):
        m = beta_mix(2.0, 3.0, 6.0, 2.0, 0.6)
        xs = np.linspace(0, 1, 501)
        cdf = m.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_quantile(self):
        m = beta_mix(1.0, 1.0, 1.0, 1.0, 0.5)
        assert m.quantile(0.3) == pytest.approx(0.3, abs=1e-9)

    def test_exponential_quantile(self):
        m = gamma_mix(1.0, 1.0, 1.0, 1.0, 0.5)
        assert m.quantile(0.5) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_quantile_rejects_bad_p(self):
        m = beta_mix(1.0, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ArgumentError):
            m.quantile(0.0)
        with pytest.raises(ArgumentError):
            m.quantile(1.0)

    def test_quantile_rejects_nan(self):
        from orevine.synth import benchmark_truth
        # a plain beta, the truncated `rat` beta and the `vol` gamma
        for m in (beta_mix(1.0, 1.0, 1.0, 1.0, 0.5),
                  benchmark_truth().f_c.marginals[-1],
                  benchmark_truth().f_c.marginals[2]):
            with pytest.raises(ArgumentError):
                m.quantile(np.nan)
            with pytest.raises(ArgumentError):
                m.quantile([np.nan, 0.5])

    def test_quantile_cdf_round_trip(self):
        rng = np.random.default_rng(42)
        m = gamma_mix(2.0, 1.0, 9.0, 0.4, 0.45)
        x = rng.uniform(0.05, 8.0, size=1000)
        back = m.quantile(m.cdf(x))
        assert np.max(np.abs(back - x)) < 1e-6

        b = beta_mix(2.0, 6.0, 7.0, 2.0, 0.5)
        x = rng.uniform(0.01, 0.99, size=1000)
        assert np.max(np.abs(b.quantile(b.cdf(x)) - x)) < 1e-6

    def test_truncated_quantile_stays_inside(self):
        m = beta_mix(2.0, 5.0, 5.0, 2.0, 0.5, truncation=(0.01, 0.99))
        q = m.quantile(np.array([1e-6, 0.5, 1 - 1e-6]))
        assert np.all(q >= 0.01) and np.all(q <= 0.99)


class TestTruncationCache:
    """The truncated mass and F(lo) are computed once, at construction."""

    @staticmethod
    def assert_fresh(m):
        lo, hi = m.truncation
        assert m._cdf_lo == m._raw_cdf(lo)
        assert m._mass == float(m._raw_cdf(hi) - m._raw_cdf(lo))

    def test_cached_at_construction(self):
        m = beta_mix(2.0, 5.0, 5.0, 2.0, 0.3, truncation=(0.01, 0.99))
        self.assert_fresh(m)
        assert m.cdf(0.99) == 1.0
        assert not hasattr(beta_mix(2.0, 5.0, 5.0, 2.0, 0.3), "_mass")

    def test_pickle_round_trip(self):
        import pickle
        m = gamma_mix(2.0, 1.0, 6.0, 0.7, 0.35, truncation=(0.5, 4.0))
        back = pickle.loads(pickle.dumps(m))
        assert back == m
        self.assert_fresh(back)
        xs = np.linspace(0.0, 5.0, 41)
        assert np.array_equal(back.cdf(xs), m.cdf(xs))
        assert np.array_equal(back.density(xs), m.density(xs))


class TestEm:
    def test_single_gamma_mean_recovery(self):
        rng = np.random.default_rng(7)
        data = rng.gamma(shape=3.0, scale=2.0, size=10_000)
        m = fit_mixture_em(data, "gamma")
        mean = m.lam * m.comp1.mean + (1 - m.lam) * m.comp2.mean
        # moment oracle on the sample itself
        assert mean == pytest.approx(np.mean(data), rel=0.03)
        assert mean == pytest.approx(6.0, rel=0.03)

    def test_beta_mixture_recovery(self):
        rng = np.random.default_rng(11)
        n = 10_000
        pick = rng.random(n) < 0.5
        data = np.where(pick, rng.beta(2, 8, size=n), rng.beta(8, 2, size=n))
        m = fit_mixture_em(data, "beta")
        assert 0.45 <= m.lam <= 0.55
        # components are mean-ordered: comp1 ~ Beta(2,8) (mean .2), comp2 ~ Beta(8,2)
        assert m.comp1.mean == pytest.approx(0.2, rel=0.10)
        assert m.comp2.mean == pytest.approx(0.8, rel=0.10)

    def test_constant_data_degenerate_flag(self):
        m = fit_mixture_em(np.full(100, 0.5), "beta")
        assert m.degenerate

    def test_component_ordering(self):
        rng = np.random.default_rng(3)
        n = 4000
        pick = rng.random(n) < 0.3
        data = np.where(pick, rng.beta(9, 2, size=n), rng.beta(2, 9, size=n))
        m = fit_mixture_em(data, "beta")
        assert m.comp1.mean <= m.comp2.mean

    def test_insufficient_data(self):
        with pytest.raises(FittingError):
            fit_mixture_em([1.0, 2.0, 3.0], "gamma")

    def test_gamma_rejects_out_of_support(self):
        with pytest.raises(FittingError):
            fit_mixture_em(np.full(100, -1.0), "gamma")

    def test_loglik_monotone(self):
        # run EM on several seeds; fit_mixture_em raises if LL ever decreases
        for seed in range(5):
            rng = np.random.default_rng(seed)
            data = np.concatenate([rng.gamma(2.0, 1.0, 500), rng.gamma(9.0, 0.5, 500)])
            fit_mixture_em(data, "gamma")
            u = np.concatenate([rng.beta(2, 6, 500), rng.beta(6, 2, 500)])
            fit_mixture_em(u, "beta")


def _two_gammas():
    rng = np.random.default_rng(101)
    return np.concatenate([rng.gamma(2.0, 1.5, 300), rng.gamma(9.0, 0.7, 200)])


def _golden_fit(case):
    if case == "gamma":
        return fit_mixture_em(_two_gammas(), "gamma")
    if case == "warm":
        data = _two_gammas()
        rng = np.random.default_rng(104)
        moved = data * (1 + 0.01 * rng.standard_normal(data.size))
        return fit_mixture_em(moved, "gamma", init=fit_mixture_em(data, "gamma"),
                              tol=1e-6)
    if case == "beta":
        rng = np.random.default_rng(102)
        return fit_mixture_em(
            np.concatenate([rng.beta(2, 7, 250), rng.beta(6, 3, 350)]), "beta")
    if case == "truncated":
        rng = np.random.default_rng(103)
        data = np.concatenate([rng.beta(1.5, 5, 200), rng.beta(5, 1.5, 200)])
        return fit_mixture_em(data, "beta", truncation=(0.01, 0.99))
    if case == "spike":
        return fit_mixture_em(np.full(50, 0.3), "beta")
    # collapse: a warm start whose first component sits far from the data
    init = beta_mix(200.0, 2.0, 2.0, 5.0, 0.01)
    rng = np.random.default_rng(105)
    return fit_mixture_em(rng.beta(2, 5, 400), "beta", init=init)


class TestEmGolden:
    """Exact EM results, recorded from a reference run that evaluated every
    component log-density through GammaParams/BetaParams.logpdf and used
    polygamma(1, .) in the Newton steps; a faster EM must reproduce them bit
    for bit (recorded with numpy 2.4 and scipy 1.17)."""

    GOLDEN = {
        "gamma": (("3.3164152511267737", "0.3548392322769839",
                   "4.48887426607888", "1.1338215329677117"),
                  "0.22553728652317245", False),
        "beta": (("1.8999250573121822", "5.7722907481489285",
                  "7.009660436827209", "3.267879602156605"),
                 "0.4716098642084419", False),
        "truncated": (("1.646626927091168", "5.649035965035747",
                       "6.167772972119535", "1.6259802043067848"),
                      "0.5173797318572084", False),
        "warm": (("3.3153813849159453", "0.35541309323097736",
                  "4.47566087800706", "1.137773136254299"),
                 "0.22560572842143148", False),
        "spike": (("1000000.0", "1000000.0", "1000000.0", "1000000.0"),
                  "1.0", True),
        "collapse": (("2.0", "5.0", "200.0", "2.0"), "1.0", True),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_bit_identical(self, case):
        m = _golden_fit(case)
        params, lam, degenerate = self.GOLDEN[case]
        got = tuple(repr(float(v)) for c in (m.comp1, m.comp2)
                    for v in vars(c).values())
        assert got == params
        assert repr(m.lam) == lam
        assert m.degenerate is degenerate
        assert m.truncation == ((0.01, 0.99) if case == "truncated" else None)


def bisection_quantile(model, p):
    """`MixtureModel.quantile` as plain bisection, with a full-length `cdf`
    call at every level: the reference whose bits the windowed bisection
    must reproduce."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    lo_s, hi_s = model.support
    lo = np.full(p.shape, lo_s)
    if np.isinf(hi_s):
        hi = np.full(p.shape, max(model.comp1.mean, model.comp2.mean) + 1.0)
        while True:
            short = model.cdf(hi) < p
            if not np.any(short):
                break
            hi[short] *= 2.0
    else:
        hi = np.full(p.shape, hi_s)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = model.cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < 1e-14 * max(1.0, np.max(np.abs(hi))):
            break
    return 0.5 * (lo + hi)


def quantile_case(case):
    from orevine.synth import benchmark_truth

    truth = benchmark_truth()
    if case == "rat":                      # f_c's composition marginal
        return truth.f_c.marginals[6]
    if case == "spike":                    # degenerate EM result
        return fit_mixture_em(np.full(50, 40.0), "gamma")
    cls = {"vol_v": truth.f_v, "vol_nv": truth.f_nv, "vol_c": truth.f_c}[case]
    return cls.marginals[2]


def draws(seed, n=100_000):
    """n uniform probabilities, a block within 1e-12 of 0 and of 1, and
    fixed tail points."""
    rng = np.random.default_rng(seed)
    edge = 1e-12 * rng.uniform(0.0, 1.0, 1000)
    fixed = np.array([1e-15, 1e-12, 1e-10, 1e-6, 0.5])
    p = np.concatenate([rng.uniform(0.0, 1.0, n), edge, 1.0 - edge, fixed, 1.0 - fixed])
    return p[(p > 0.0) & (p < 1.0)]


def bit_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestQuantileEquivalence:
    """`quantile` skips the cdf calls whose outcome a checked window around
    the root already fixes; its draws must be the bits of plain bisection."""

    @pytest.mark.parametrize("case,seed", [("rat", 1), ("vol_v", 2), ("vol_nv", 3),
                                           ("vol_c", 4), ("spike", 5)])
    def test_bit_identical_to_bisection(self, case, seed):
        m = quantile_case(case)
        p = draws(seed)
        assert bit_equal(m.quantile(p), bisection_quantile(m, p))

    def test_scalar(self):
        m = quantile_case("rat")
        for p in (1e-12, 0.3, 1.0 - 1e-12):
            got = m.quantile(p)
            assert isinstance(got, float)
            assert bit_equal(np.array([got]), bisection_quantile(m, p))

    @pytest.mark.parametrize("n", [2, 31, 450])
    def test_small_inputs(self, n):
        """Fewer values build a coarser table (one point per value), so
        more elements fail the check; the bits stay those of bisection."""
        rng = np.random.default_rng(n)
        for case in ("rat", "vol_v", "spike"):
            m = quantile_case(case)
            for _ in range(20):
                p = rng.uniform(1e-12, 1.0 - 1e-12, n)
                assert bit_equal(m.quantile(p), bisection_quantile(m, p))

    def test_windows_bracket_p(self):
        m = quantile_case("rat")
        p = draws(6, n=10_000)
        a, b = m._root_window(p, *m.support)
        checked = np.isfinite(a)
        assert checked.mean() > 0.99
        assert np.all(b[checked] > a[checked])
        assert np.all(m.cdf(a[checked]) < p[checked])
        assert np.all(p[checked] <= m.cdf(b[checked]))
        assert np.all(np.isinf(b[~checked]))

    def test_failed_check_falls_back(self, monkeypatch):
        """A wrong root estimate fails the check for the elements it hits,
        which then bisect with a cdf call at every level: same bits."""
        m = quantile_case("rat")
        p = draws(7)
        true_density = MixtureModel.density

        def wrong_density(self, x):
            # every third element's Newton steps go nowhere near the root
            d = true_density(self, x)
            d[::3] *= 1e-9
            return d

        monkeypatch.setattr(MixtureModel, "density", wrong_density)
        a, _ = m._root_window(p, *m.support)
        assert 0.2 < np.isinf(a).mean() < 0.5
        assert bit_equal(m.quantile(p), bisection_quantile(m, p))
