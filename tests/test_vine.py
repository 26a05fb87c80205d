import hashlib
import itertools

import numpy as np
import pytest
from scipy import stats

from orevine.copulas import PairCopula, kendall_tau, pair_h2, pair_log_density
from orevine.copulas import _pair_loglik, _search_theta, _theta_ranges
from orevine.errors import ArgumentError, FittingError, StructuralError
from orevine.marginals import BetaParams, GammaParams, MixtureModel, fit_mixture_em
from orevine.synth import benchmark_truth
from orevine.vine import (
    ARCHIMEDEAN_FAMILIES,
    ArchimedeanModel,
    RVineModel,
    RVineStructure,
    VineEdge,
    _ConditionalCache,
    _arch_log_density,
    _cl,
    dvine_structure,
    fit_archimedean,
    fit_sequential,
    validate_structure,
    vine_log_density,
    vine_sample,
)


def uniform_marginal():
    return MixtureModel("beta", BetaParams(1.0, 1.0), BetaParams(1.0, 1.0), 0.5)


def beta_marginal(p, q):
    return MixtureModel("beta", BetaParams(p, q), BetaParams(p, q), 0.5)


def path_vine_3(cop01: PairCopula, cop12: PairCopula, cop02: PairCopula,
                marginals=None) -> RVineModel:
    structure = RVineStructure.from_tree_edges(3, [[(0, 1), (1, 2)], [(0, 1)]])
    if marginals is None:
        marginals = tuple(uniform_marginal() for _ in range(3))
    return RVineModel(structure, (cop01, cop12, cop02), tuple(marginals))


def cvine_star_4() -> RVineModel:
    """A 4-dim C-vine rooted at variable 0 on uniform marginals."""
    s = RVineStructure.from_tree_edges(4, [
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2)],
        [(0, 1)],
    ])
    cops = (PairCopula("clayton", 0, 2.0), PairCopula("gumbel", 0, 2.5),
            PairCopula("frank", 0, -5.0), PairCopula("clayton", 0, 1.0),
            PairCopula("independence"), PairCopula("independence"))
    return RVineModel(s, cops, tuple(uniform_marginal() for _ in range(4)))


def prufer_trees(d):
    """All labeled spanning trees on d nodes via Prufer sequences."""
    for seq in itertools.product(range(d), repeat=d - 2):
        degree = [1] * d
        for s in seq:
            degree[s] += 1
        edges = []
        seq_list = list(seq)
        leaves = sorted(i for i in range(d) if degree[i] == 1)
        for s in seq_list:
            leaf = leaves.pop(0)
            edges.append(tuple(sorted((leaf, s))))
            degree[s] -= 1
            if degree[s] == 1:
                # insert keeping sorted order
                import bisect
                bisect.insort(leaves, s)
        edges.append(tuple(sorted(leaves)))
        yield edges


# independent scalar implementations used as oracles -------------------------

def clayton_cdf_scalar(u, v, th):
    return (u ** -th + v ** -th - 1.0) ** (-1.0 / th)


def clayton_density_scalar(u, v, th):
    return (1 + th) * (u * v) ** (-th - 1) * (u ** -th + v ** -th - 1) ** (-1 / th - 2)


def clayton_h_scalar(u, v, th):
    return v ** (-th - 1) * (u ** -th + v ** -th - 1.0) ** (-1.0 / th - 1.0)


class TestStructure:
    def test_three_dim_path_sets(self):
        s = RVineStructure.from_tree_edges(3, [[(0, 1), (1, 2)], [(0, 1)]])
        assert validate_structure(s) is None
        top = s.levels[1][0]
        assert top.conditioned == (0, 2)
        assert top.conditioning == frozenset({1})

    def test_proximity_violation_reported(self):
        # star at level 1; level-2 edge joining two prev edges sharing a node is
        # fine, but a 4-star allows a T2 pair sharing only the center: build a
        # path instead and join the two end edges of a 4-path (share nothing)
        s = RVineStructure.from_tree_edges(4, [[(0, 1), (1, 2), (2, 3)],
                                               [(0, 2), (0, 1)],
                                               [(0, 1)]])
        report = validate_structure(s)
        assert report is not None and "proximity" in report

    def test_sets_must_follow_from_nodes(self):
        s = dvine_structure(range(4))
        top = s.levels[2][0]
        wrong = RVineStructure(4, s.levels[:2] + ((VineEdge(
            3, top.nodes, top.conditioned, frozenset({0, 1})),),))
        assert validate_structure(s) is None
        assert "do not follow from its nodes" in validate_structure(wrong)

    def test_fitted_structures_always_valid(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            d = int(rng.integers(3, 6))
            n = 120
            z = rng.standard_normal((n, d)) @ rng.uniform(-1, 1, (d, d))
            u = np.column_stack([stats.rankdata(z[:, i]) / (n + 1) for i in range(d)])
            model = fit_sequential(u, [uniform_marginal()] * d, min_rows=30)
            assert validate_structure(model.structure) is None

    def test_wrong_level_count(self):
        s = RVineStructure.from_tree_edges(3, [[(0, 1), (1, 2)]])
        assert validate_structure(s) is not None


class TestFitSequential:
    def test_d2_single_edge(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(size=(200, 2))
        model = fit_sequential(u, [uniform_marginal()] * 2)
        assert len(model.structure.edges) == 1
        assert model.structure.edges[0].conditioned == (0, 1)

    @pytest.mark.parametrize("d,seed", [(4, 5), (5, 6)])
    def test_t1_is_brute_force_mst(self, d, seed):
        rng = np.random.default_rng(seed)
        cov = rng.uniform(-1, 1, (d, d))
        z = rng.standard_normal((500, d)) @ cov
        model = fit_sequential(z, [fit_mixture_em(z[:, i] - z[:, i].min() + 0.1, "gamma")
                                   for i in range(d)])
        fitted_t1 = {e.conditioned for e in model.structure.levels[0]}

        # oracle: exhaustive enumeration over all d^(d-2) labeled trees
        u = np.column_stack([model.marginals[i].cdf(z[:, i]) for i in range(d)])
        taus = {}
        for i, j in itertools.combinations(range(d), 2):
            taus[(i, j)] = abs(kendall_tau(u[:, i], u[:, j]))
        best_score, best_tree = -1.0, None
        count = 0
        for tree in prufer_trees(d):
            count += 1
            score = sum(taus[e] for e in tree)
            if score > best_score:
                best_score, best_tree = score, set(tree)
        assert count == d ** (d - 2)
        assert fitted_t1 == best_tree

    def test_independent_columns_all_independence(self):
        rng = np.random.default_rng(123)
        u = rng.uniform(size=(800, 4))
        model = fit_sequential(u, [uniform_marginal()] * 4)
        assert all(c.family == "independence" for c in model.pair_copulas)

    def test_too_few_rows(self):
        with pytest.raises(FittingError):
            fit_sequential(np.random.default_rng(1).uniform(size=(10, 3)),
                           [uniform_marginal()] * 3)


class TestLogDensity:
    def test_all_independence_equals_marginal_sum(self):
        structure = RVineStructure.from_tree_edges(3, [[(0, 1), (1, 2)], [(0, 1)]])
        marginals = (beta_marginal(2, 3), beta_marginal(3, 2), beta_marginal(4, 4))
        model = RVineModel(structure, tuple(PairCopula("independence") for _ in range(3)),
                           marginals)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.05, 0.95, size=(50, 3))
        ld = vine_log_density(model, x)
        ref = sum(marginals[i].log_density(x[:, i]) for i in range(3))
        assert np.max(np.abs(ld - ref)) < 1e-12

    def test_matches_hand_rolled_three_factor_product(self):
        th01, th12, th02 = 2.0, 3.0, 1.5
        model = path_vine_3(PairCopula("clayton", 0, th01),
                            PairCopula("clayton", 0, th12),
                            PairCopula("clayton", 0, th02))
        rng = np.random.default_rng(8)
        for x in rng.uniform(0.1, 0.9, size=(25, 3)):
            x0, x1, x2 = x
            # independent scalar evaluation of the three-factor product
            f01 = clayton_density_scalar(x0, x1, th01)
            f12 = clayton_density_scalar(x1, x2, th12)
            h_0g1 = clayton_h_scalar(x0, x1, th01)
            h_2g1 = clayton_h_scalar(x2, x1, th12)
            expected = np.log(f01 * f12 * clayton_density_scalar(h_0g1, h_2g1, th02))
            assert vine_log_density(model, x) == pytest.approx(expected, rel=1e-9)

    def test_integral_on_unit_cube(self):
        model = path_vine_3(PairCopula("clayton", 0, 1.0),
                            PairCopula("frank", 0, 4.0),
                            PairCopula("gumbel", 0, 1.3))
        n = 60
        g = (np.arange(n) + 0.5) / n
        pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        total = np.exp(vine_log_density(model, pts)).sum() / n ** 3
        assert total == pytest.approx(1.0, abs=7e-3)

    def test_permutation_consistency(self):
        # swap variables 0 and 2 in data and in the structure
        model = path_vine_3(PairCopula("clayton", 0, 2.0),
                            PairCopula("gumbel", 0, 1.6),
                            PairCopula("frank", 0, 3.0),
                            marginals=(beta_marginal(2, 4), beta_marginal(3, 3),
                                       beta_marginal(5, 2)))
        structure_p = RVineStructure.from_tree_edges(3, [[(2, 1), (1, 0)], [(0, 1)]])
        model_p = RVineModel(structure_p, model.pair_copulas,
                             (model.marginals[2], model.marginals[1], model.marginals[0]))
        rng = np.random.default_rng(10)
        x = rng.uniform(0.1, 0.9, size=(40, 3))
        ld = vine_log_density(model, x)
        ld_p = vine_log_density(model_p, x[:, ::-1])
        assert np.max(np.abs(ld - ld_p)) < 1e-10

    def test_out_of_support_is_minus_inf(self):
        model = path_vine_3(PairCopula("independence"), PairCopula("independence"),
                            PairCopula("independence"))
        assert vine_log_density(model, np.array([-0.5, 0.5, 0.5])) == -np.inf


class TestSampling:
    def test_independence_uniform_columns(self):
        model = path_vine_3(PairCopula("independence"), PairCopula("independence"),
                            PairCopula("independence"))
        x = vine_sample(model, 10_000, seed=77)
        for i in range(3):
            p = stats.kstest(x[:, i], "uniform").pvalue
            assert p > 0.01

    def test_gumbel_edge_tau(self):
        model = path_vine_3(PairCopula("gumbel", 0, 2.0), PairCopula("independence"),
                            PairCopula("independence"))
        x = vine_sample(model, 10_000, seed=13)
        tau = kendall_tau(x[:, 0], x[:, 1])
        assert tau == pytest.approx(0.5, abs=0.03)

    def test_deterministic(self):
        model = path_vine_3(PairCopula("clayton", 0, 2.0),
                            PairCopula("gumbel", 90, 1.5),
                            PairCopula("frank", 0, -3.0))
        a = vine_sample(model, 500, seed=3)
        b = vine_sample(model, 500, seed=3)
        assert np.array_equal(a, b)

    def test_sample_then_refit_recovers_taus(self):
        gen = path_vine_3(PairCopula("clayton", 0, 2.0),
                          PairCopula("gumbel", 0, 2.0),
                          PairCopula("independence"))
        x = vine_sample(gen, 10_000, seed=21)
        refit = fit_sequential(x, gen.marginals)
        gen_taus = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.0}
        for edge, cop in refit.edge_items():
            # empirical tau of the edge's own pseudo-observations
            u = np.column_stack([gen.marginals[i].cdf(x[:, i]) for i in range(3)])
            if not edge.conditioning:
                emp = kendall_tau(u[:, edge.conditioned[0]], u[:, edge.conditioned[1]])
            else:
                continue
            assert emp == pytest.approx(gen_taus[edge.conditioned], abs=0.05)

    def test_bad_n(self):
        model = path_vine_3(PairCopula("independence"), PairCopula("independence"),
                            PairCopula("independence"))
        with pytest.raises(ArgumentError):
            vine_sample(model, 0, seed=1)

    @pytest.mark.parametrize("d,tree_edges", [
        (3, [[(0, 1), (1, 2)]]),
        (4, [[(0, 1), (1, 2), (2, 3)], [(0, 2), (0, 1)], [(0, 1)]]),
        (4, [[(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2)], [(0, 1)]]),
    ], ids=["missing_level", "proximity_violated", "tree1_cycle"])
    def test_irregular_structure_is_structural_error(self, d, tree_edges):
        structure = RVineStructure.from_tree_edges(d, tree_edges)
        model = RVineModel(structure, all_rotation_copulas(len(structure.edges)),
                           tuple(uniform_marginal() for _ in range(d)))
        with pytest.raises(StructuralError, match="irregular vine"):
            vine_sample(model, 5, seed=1)

    def test_cvine_star_sampling_taus(self):
        # a star samples its variables in another order than a path
        model = cvine_star_4()
        assert validate_structure(model.structure) is None
        x = vine_sample(model, 20_000, seed=5)
        assert kendall_tau(x[:, 0], x[:, 1]) == pytest.approx(0.5, abs=0.02)
        assert kendall_tau(x[:, 0], x[:, 2]) == pytest.approx(0.6, abs=0.02)
        from scipy import integrate
        th = -5.0
        debye1 = integrate.quad(lambda t: t / np.expm1(t), 0, th)[0] / th
        frank_tau = 1.0 - 4.0 / th * (1.0 - debye1)
        assert kendall_tau(x[:, 0], x[:, 3]) == pytest.approx(frank_tau, abs=0.02)

    def test_general_rvine_sampling_edge_consistency(self):
        # fit an arbitrary 5-dim vine (forked tree), sample from it, and
        # require every edge's conditional pseudo-observation tau to agree
        # between the training data and the vine's own samples
        from orevine.vine import _ConditionalCache

        rng = np.random.default_rng(101)
        z = rng.standard_normal((4000, 5))
        mix = np.array([[1, .8, 0, 0, 0], [0, 1, -.7, 0, 0], [0, 0, 1, .5, .4],
                        [0, 0, 0, 1, 0], [.3, 0, 0, 0, 1]], dtype=float)
        data = z @ mix
        u = np.column_stack([stats.rankdata(data[:, i]) / (4000 + 1)
                             for i in range(5)])
        gen = fit_sequential(u, [uniform_marginal()] * 5)
        assert validate_structure(gen.structure) is None

        x = vine_sample(gen, 8000, seed=3)
        cache_fit = _ConditionalCache(gen, np.clip(u, 1e-12, 1 - 1e-12))
        cache_smp = _ConditionalCache(gen, np.clip(x, 1e-12, 1 - 1e-12))
        for edge, _ in gen.edge_items():
            tf = kendall_tau(cache_fit.value(edge.conditioned[0], edge.conditioning),
                             cache_fit.value(edge.conditioned[1], edge.conditioning))
            ts = kendall_tau(cache_smp.value(edge.conditioned[0], edge.conditioning),
                             cache_smp.value(edge.conditioned[1], edge.conditioning))
            assert ts == pytest.approx(tf, abs=0.04), edge.conditioned


    def test_conditional_cache_needs_every_column(self):
        # sampling adds the columns one at a time; a conditional that needs a
        # column not added yet is a structural error, not a wrong value
        from orevine.vine import _ConditionalCache

        cop12 = PairCopula("frank", 0, 3.0)
        model = path_vine_3(PairCopula("clayton", 0, 2.0), cop12,
                            PairCopula("gumbel", 90, 1.5))
        u1, u2 = np.array([0.3, 0.6]), np.array([0.8, 0.1])
        cache = _ConditionalCache(model)
        cache.add_column(1, u1)
        cache.add_column(2, u2)
        assert np.array_equal(cache.value(2, frozenset({1})),
                              np.clip(pair_h2(cop12, u2, u1), 1e-12, 1 - 1e-12))
        with pytest.raises(StructuralError, match="variable 0 has no column"):
            cache.value(0, frozenset({1}))
        cache.add_column(0, np.array([0.5, 0.9]))
        assert np.all(np.isfinite(cache.value(0, frozenset({1}))))


class TestArchimedean:
    @pytest.mark.parametrize("n_marginals", [2, 4])
    @pytest.mark.parametrize("fit", [fit_archimedean, fit_sequential])
    def test_marginal_count_must_match_columns(self, fit, n_marginals):
        x = np.random.default_rng(5).uniform(size=(40, 3))
        with pytest.raises(ArgumentError, match="expected 3 marginals"):
            fit(x, [uniform_marginal()] * n_marginals)

    @pytest.mark.parametrize("family,theta,d", [
        ("clayton", -5.0, 3), ("clayton", 0.0, 2), ("clayton", 50.5, 3),
        ("gumbel", 1.0, 2), ("joe", 0.5, 4), ("frank", 0.0, 2),
        ("frank", -2.0, 3), ("frank", 60.0, 2),
        ("clayton", np.nan, 3), ("frank", np.nan, 2), ("gumbel", np.inf, 3),
    ])
    def test_theta_outside_fitted_range_raises(self, family, theta, d):
        with pytest.raises(ArgumentError, match="outside the fitted range"):
            ArchimedeanModel(family, theta, (uniform_marginal(),) * d)

    def test_range_ends_and_bivariate_negative_frank_are_admitted(self):
        for family, theta, d in [("clayton", 1e-4, 3), ("clayton", 50.0, 3),
                                 ("gumbel", 1.0 + 1e-4, 2), ("frank", -2.0, 2),
                                 ("frank", -50.0, 2), ("frank", 1e-4, 5)]:
            assert ArchimedeanModel(family, theta, (uniform_marginal(),) * d).theta == theta
    def test_d2_coincides_with_unrotated_fit_pair(self):
        rng = np.random.default_rng(42)
        from orevine.copulas import pair_h_inverse
        base = PairCopula("clayton", 0, 2.5)
        v = rng.uniform(1e-6, 1 - 1e-6, 3000)
        p = rng.uniform(1e-6, 1 - 1e-6, 3000)
        u = pair_h_inverse(base, p, v)
        data = np.column_stack([u, v])
        # fit_pair searches every rotation (Joe 180 wins on this sample), so
        # the unrotated pair fit is the shared search at rotation 0
        ll, theta, family = max(
            (*_search_theta(_pair_loglik(f, 0, u, v), _theta_ranges(f)), f)
            for f in ARCHIMEDEAN_FAMILIES)
        arch = fit_archimedean(data, [uniform_marginal()] * 2)
        assert arch.family == family == "clayton"
        assert arch.theta == pytest.approx(theta, abs=1e-3)

    def test_independent_data_theta_at_independence_end(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(size=(2000, 3))
        arch = fit_archimedean(data, [uniform_marginal()] * 3)
        ll = float(np.sum(arch.log_density(data)
                          - sum(arch.marginals[i].log_density(data[:, i])
                                for i in range(3))))
        assert abs(ll) < 10.0
        if arch.family == "clayton":
            assert arch.theta < 0.05
        elif arch.family == "frank":
            assert abs(arch.theta) < 0.5
        else:
            assert arch.theta < 1.05

    def test_vine_ll_at_least_archimedean_on_vine_data(self):
        gen = path_vine_3(PairCopula("clayton", 0, 3.0), PairCopula("frank", 0, -4.0),
                          PairCopula("independence"))
        x = vine_sample(gen, 2000, seed=31)
        marginals = [uniform_marginal()] * 3
        vine = fit_sequential(x, marginals)
        arch = fit_archimedean(x, marginals)
        assert np.sum(vine_log_density(vine, x)) >= np.sum(arch.log_density(x))

    def test_gamma_marginal_archimedean_density_integrates(self):
        # 2-dim check that the generic psi-derivative machinery yields a density
        m = (beta_marginal(2, 2), beta_marginal(3, 2))
        for family, theta in [("clayton", 1.2), ("gumbel", 1.6), ("joe", 1.4),
                              ("frank", 4.0)]:
            model = ArchimedeanModel(family, theta, m)
            n = 150
            g = (np.arange(n) + 0.5) / n
            uu, vv = np.meshgrid(g, g)
            pts = np.column_stack([uu.ravel(), vv.ravel()])
            total = np.exp(model.log_density(pts)).sum() / n ** 2
            assert total == pytest.approx(1.0, abs=5e-3), family

    def test_archimedean_d3_density_integrates(self):
        m = tuple(uniform_marginal() for _ in range(3))
        for family, theta in [("clayton", 1.0), ("gumbel", 1.5), ("joe", 1.5),
                              ("frank", 5.0)]:
            model = ArchimedeanModel(family, theta, m)
            n = 50
            g = (np.arange(n) + 0.5) / n
            pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
            total = np.exp(model.log_density(pts)).sum() / n ** 3
            assert total == pytest.approx(1.0, abs=2e-2), family

    def test_archimedean_sampling_tau(self):
        # clayton theta=2 -> tau = 0.5 for every pair
        m = tuple(uniform_marginal() for _ in range(3))
        model = ArchimedeanModel("clayton", 2.0, m)
        x = model.sample(5000, seed=9)
        for i, j in itertools.combinations(range(3), 2):
            assert kendall_tau(x[:, i], x[:, j]) == pytest.approx(0.5, abs=0.04)

    def test_six_dim_density_matches_cdf_inclusion_exclusion(self):
        # box probability from 2^6 CDF corner evaluations (order-0 generator
        # algebra only) against a Monte Carlo integral of the density, which
        # exercises the full 6th-derivative machinery
        from orevine.vine import _arch_log_density, _arch_phi

        def arch_cdf(family, theta, u):
            t = np.sum(_arch_phi(family, theta, np.asarray(u)[None, :]))
            if family == "clayton":
                return (1.0 + t) ** (-1.0 / theta)
            if family == "gumbel":
                return np.exp(-t ** (1.0 / theta))
            if family == "frank":
                return -np.log1p(np.expm1(-theta) * np.exp(-t)) / theta
            return 1.0 - (1.0 - np.exp(-t)) ** (1.0 / theta)

        d, a, b = 6, 0.25, 0.75
        rng = np.random.default_rng(7)
        pts = rng.uniform(a, b, size=(400_000, d))
        for family, theta in [("clayton", 1.5), ("gumbel", 1.8),
                              ("joe", 1.8), ("frank", 5.0)]:
            mass = 0.0
            for corner in itertools.product((a, b), repeat=d):
                sign = (-1) ** sum(1 for c in corner if c == a)
                mass += sign * arch_cdf(family, theta, np.array(corner))
            mc = float(np.mean(np.exp(
                _arch_log_density(family, theta, pts)))) * (b - a) ** d
            assert mc == pytest.approx(mass, rel=0.02), family

    @pytest.mark.parametrize("theta", [-5.0, -0.5, 0.5, 5.0])
    def test_two_dim_frank_matches_pair_copula(self, theta):
        # both signs: for theta < 0 the generator term g is negative
        from orevine.copulas import pair_log_density
        from orevine.vine import _arch_log_density
        u = np.random.default_rng(17).uniform(1e-3, 1 - 1e-3, size=(500, 2))
        expected = pair_log_density(PairCopula("frank", 0, theta), u[:, 0], u[:, 1])
        got = _arch_log_density("frank", theta, u)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_eulerian_poly_is_cached_and_read_only(self):
        from orevine.vine import _eulerian_poly
        first = _eulerian_poly(4)
        # Li_{-4}(g) = g (1 + 11 g + 11 g^2 + g^3) / (1 - g)^5
        assert first.tolist() == [0.0, 1.0, 11.0, 11.0, 1.0, 0.0]
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        again = _eulerian_poly(4)
        assert again is first
        assert again.tolist() == [0.0, 1.0, 11.0, 11.0, 1.0, 0.0]


SLICE_EPS = 0.01
# s at and beside the truncation ends, outside it and outside [0, 1], plus
# an interior sweep
SLICE_S = np.concatenate([
    [SLICE_EPS, 1 - SLICE_EPS, 0.005, 0.995, 0.0, 1.0, -0.25, 1.25],
    np.linspace(SLICE_EPS, 1 - SLICE_EPS, 57)[1:-1]])
SLICE_CTS = (
    np.array([1.3, 0.8, 2.1, 0.35, 0.6, 0.72]),
    np.array([0.02, 4.5, 0.3, 0.97, 0.05, 0.5]),
    # out of support: a negative gamma coordinate and a beta one above 1
    np.array([-1.0, 0.8, 2.1, 1.5, 0.6, 0.72]),
)


def slice_marginals():
    """Six CT marginals (gamma, then beta) and a truncated composition one."""
    gamma = [MixtureModel("gamma", GammaParams(a, 0.6), GammaParams(a + 3.0, 0.4), 0.4)
             for a in (2.0, 3.0, 4.0)]
    beta = [MixtureModel("beta", BetaParams(p, 3.0), BetaParams(3.0, p), 0.55)
            for p in (2.0, 4.0, 6.0)]
    rat = MixtureModel("beta", BetaParams(2.0, 5.0), BetaParams(5.0, 2.0), 0.3,
                       truncation=(SLICE_EPS, 1 - SLICE_EPS))
    return tuple(gamma + beta + [rat])


def all_rotation_copulas(n):
    """Four families cycling over all four rotations, every fifth edge
    independent."""
    theta = {"clayton": 1.2, "gumbel": 1.5, "joe": 1.4, "frank": 3.0}
    fams = tuple(theta)
    out = []
    for i in range(n):
        if i % 5 == 4:
            out.append(PairCopula("independence"))
        else:
            fam = fams[i % 4]
            out.append(PairCopula(fam, (0, 90, 180, 270)[(i // 4) % 4], theta[fam]))
    return tuple(out)


def assert_slice_matches(model, cts, s=SLICE_S):
    """The slice rebuilt from `copula_slice` at the rows `cts`,
    const + log f_last(s) + log_g(F_last(s), rows), against `log_density`
    at each (ct, s): within 1e-12 max(1, |ref|), with the same -inf (and
    NaN) entries."""
    cts = np.atleast_2d(cts)
    rows = np.repeat(np.arange(len(cts)), s.size)
    s = np.tile(s, len(cts))
    const, log_g = model.copula_slice(cts)
    tail = model.marginals[-1]
    with np.errstate(all="ignore"):
        got = const[rows] + tail.log_density(s) + log_g(_cl(tail.cdf(s)), rows)
        ref = model.log_density(np.column_stack([cts[rows], s]))
    finite = np.isfinite(ref)
    assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
    assert np.all(np.abs(got[finite] - ref[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))


class TestSliceLogDensity:
    """The slice s -> log f(ct, s) that the predictor integrates, rebuilt
    from the engine's `copula_slice`, against the full density."""

    @pytest.mark.parametrize("order", [range(7), [0, 1, 2, 6, 3, 4, 5],
                                       [6, 5, 4, 3, 2, 1, 0]])
    def test_rvine_matches_log_density(self, order):
        structure = dvine_structure(list(order))
        copulas = all_rotation_copulas(len(structure.edges))
        assert {c.rotation for c in copulas if c.family != "independence"} == {
            0, 90, 180, 270}
        model = RVineModel(structure, copulas, slice_marginals())
        assert_slice_matches(model, np.vstack(SLICE_CTS))

    def test_rvine_out_of_support_ct_is_minus_inf(self):
        model = RVineModel(dvine_structure(list(range(7))),
                           all_rotation_copulas(21), slice_marginals())
        with np.errstate(all="ignore"):
            const, _ = model.copula_slice(SLICE_CTS[2])
            out = model.log_density(np.column_stack(
                [np.tile(SLICE_CTS[2], (SLICE_S.size, 1)), SLICE_S]))
        assert const.tolist() == [-np.inf]
        assert np.all(out == -np.inf)

    @pytest.mark.parametrize("family", ARCHIMEDEAN_FAMILIES)
    def test_archimedean_matches_log_density(self, family):
        theta = 3.0 if family == "frank" else 1.4
        model = ArchimedeanModel(family, theta, slice_marginals())
        assert_slice_matches(model, np.vstack(SLICE_CTS))

    def test_benchmark_truth_composite_class(self):
        f_c = benchmark_truth().f_c
        rng = np.random.default_rng(5)
        assert_slice_matches(f_c, f_c.sample(20, seed=3)[:, :6],
                             np.sort(rng.uniform(0.0, 1.0, 64)))

    def test_wrong_length_rejected(self):
        model = ArchimedeanModel("frank", 3.0, slice_marginals())
        with pytest.raises(ArgumentError):
            model.copula_slice(np.ones(7))
        rvine = RVineModel(dvine_structure(list(range(7))),
                           all_rotation_copulas(21), slice_marginals())
        with pytest.raises(ArgumentError):
            rvine.copula_slice(np.ones(5))


def reference_log_density(model, x):
    """log f(x) by the whole factorization on all rows at once: the
    marginal log-densities summed in column order, then the pair densities
    in edge order (R-vine) or added to the d-dimensional Archimedean copula
    log-density."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    margs = model.marginals
    if isinstance(model, ArchimedeanModel):
        with np.errstate(all="ignore"):
            u = np.column_stack([_cl(m.cdf(x[:, i])) for i, m in enumerate(margs)])
            logc = _arch_log_density(model.family, model.theta, u)
            logm = sum(m.log_density(x[:, i]) for i, m in enumerate(margs))
        return logc + logm
    u = np.column_stack([_cl(m.cdf(x[:, i])) for i, m in enumerate(margs)])
    with np.errstate(divide="ignore"):
        total = sum(m.log_density(x[:, i]) for i, m in enumerate(margs))
    cache = _ConditionalCache(model, u)
    for edge, cop in model.edge_items():
        if cop.family == "independence":
            continue
        j, k = edge.conditioned
        total = total + pair_log_density(cop, cache.value(j, edge.conditioning),
                                         cache.value(k, edge.conditioning))
    return total


def slice_models():
    """The slice tests' models: R-vines with every family and rotation
    under three orders, and each Archimedean family."""
    for order in ([*range(7)], [0, 1, 2, 6, 3, 4, 5], [6, 5, 4, 3, 2, 1, 0]):
        structure = dvine_structure(order)
        yield RVineModel(structure, all_rotation_copulas(len(structure.edges)),
                         slice_marginals())
    for family in ARCHIMEDEAN_FAMILIES:
        yield ArchimedeanModel(family, 3.0 if family == "frank" else 1.4,
                               slice_marginals())


class TestReferenceLogDensity:
    """`log_density` against the whole factorization, bit for bit."""

    @pytest.mark.parametrize("model", list(slice_models()),
                             ids=lambda m: getattr(m, "family", "rvine"))
    def test_slice_cases(self, model):
        pts = np.vstack([np.column_stack([np.tile(ct, (SLICE_S.size, 1)), SLICE_S])
                         for ct in SLICE_CTS])
        with np.errstate(all="ignore"):
            got = model.log_density(pts)
        assert np.array_equal(got, reference_log_density(model, pts), equal_nan=True)
        # the rows of the out-of-support CT point
        assert np.all(got[2 * SLICE_S.size:] == -np.inf)

    @pytest.mark.parametrize("part", ["f_v", "f_nv", "f_c"])
    def test_benchmark_truth_classes(self, part):
        model = getattr(benchmark_truth(), part)
        pts = model.sample(1000, seed=11)
        assert np.array_equal(model.log_density(pts), reference_log_density(model, pts))


@pytest.mark.parametrize("engine", ["rvine", "archimedean"])
def test_log_density_input_contract(engine):
    margs = slice_marginals()[:6]
    if engine == "rvine":
        model = RVineModel(dvine_structure(list(range(6))), all_rotation_copulas(15), margs)
    else:
        model = ArchimedeanModel("frank", 3.0, margs)
    for cols in (5, 7):
        with pytest.raises(ArgumentError):
            model.log_density(np.full((3, cols), 0.5))
    point = SLICE_CTS[0]
    out = model.log_density(point)
    assert isinstance(out, float)
    assert out == model.log_density(point[None, :])[0]


@pytest.mark.parametrize("engine", ["rvine", "archimedean"])
def test_one_dim_model_is_its_marginal(engine):
    marginal = slice_marginals()[-1]
    if engine == "rvine":
        model = RVineModel(RVineStructure(1, ()), (), (marginal,))
    else:
        model = ArchimedeanModel("clayton", 1.4, (marginal,))
    x = np.linspace(-0.25, 1.25, 61)
    with np.errstate(all="ignore"):
        got = model.log_density(x[:, None])
    # a one-variable Archimedean copula density is 1 up to rounding
    np.testing.assert_allclose(got, marginal.log_density(x), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# golden outputs: fit, template refit and draws of a forked vine
# ---------------------------------------------------------------------------

def forked_vine_runs() -> dict:
    """Sample 1200 rows from a forked 5-dim vine (variable 1 has three
    neighbours in tree 1) whose copulas use all four rotations, fit a vine to
    them, refit its parameters on the first 800 rows, and draw from the fit.

    Returns every fitted (family, rotation, repr(theta)), the fitted level-1
    edges and SHA-256 digests of the float64 bytes of the training sample,
    the fit's log-density on it and the draw.
    """
    structure = RVineStructure.from_tree_edges(5, [
        [(0, 1), (1, 2), (1, 3), (3, 4)], [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2)], [(0, 1)]])
    cops = (PairCopula("clayton", 0, 3.0), PairCopula("gumbel", 90, 2.0),
            PairCopula("clayton", 180, 4.0), PairCopula("clayton", 270, 2.5),
            PairCopula("frank", 0, 5.0), PairCopula("gumbel", 0, 1.6),
            PairCopula("independence"), PairCopula("clayton", 90, 1.0),
            PairCopula("independence"), PairCopula("independence"))
    gen = RVineModel(structure, cops, tuple(uniform_marginal() for _ in range(5)))

    def digest(a):
        return hashlib.sha256(np.asarray(a, dtype=np.float64).tobytes()).hexdigest()

    def copulas(model):
        return [(c.family, c.rotation, repr(c.theta)) for c in model.pair_copulas]

    x = vine_sample(gen, 1200, seed=11)
    fit = fit_sequential(x, gen.marginals)
    refit = fit_sequential(x[:800], gen.marginals, template=fit)
    return {"data": digest(x),
            "tree1": [e.conditioned for e in fit.structure.levels[0]],
            "fit": copulas(fit),
            "log_density": digest(vine_log_density(fit, x)),
            "refit": copulas(refit),
            "draw": digest(vine_sample(fit, 400, seed=4))}


# generated with the implementation before the conditional-CDF recursion was
# merged into one cache, and regenerated when the theta search moved to
# bounded Brent with Frank at rotation 0 only (edge 5 was Frank 90 at
# -4.876692157992335); the refit thetas again when refits moved to Brent
# from a bracket around the template (each by less than 3e-7); and all but
# tree1 when the mixture quantile moved from array-wide bisection to per-
# element bracketed Newton (the uniform marginals' draws moved at rounding
# level); any change here is a change of output bits
GOLDEN_FORKED_VINE = {
    'data': '2307f79e51475791a8e8221b756cf0a3c3daa1cf83dcef65b880aaf40e60afe8',
    'tree1': [
        (0, 1),
        (1, 2),
        (1, 3),
        (3, 4),
    ],
    'fit': [
        ('clayton', 0, '3.114546326123363'),
        ('gumbel', 90, '2.046043535772219'),
        ('clayton', 180, '4.147490122223069'),
        ('clayton', 270, '2.5884293045657616'),
        ('frank', 0, '4.876692228396397'),
        ('independence', 0, 'None'),
        ('gumbel', 0, '1.6233391331873208'),
        ('clayton', 90, '1.0159379831076976'),
        ('independence', 0, 'None'),
        ('independence', 0, 'None'),
    ],
    'log_density': '81d4700c8b37e06081e4df423ce24c7ff4d5545b4983809ffec10c7bf2045fe1',
    'refit': [
        ('clayton', 0, '3.135446663606398'),
        ('gumbel', 90, '1.9720580676333244'),
        ('clayton', 180, '4.144354008041838'),
        ('clayton', 270, '2.71657007862217'),
        ('frank', 0, '4.864597907962879'),
        ('independence', 0, 'None'),
        ('gumbel', 0, '1.6583088065984337'),
        ('clayton', 90, '0.9995857612228014'),
        ('independence', 0, 'None'),
        ('independence', 0, 'None'),
    ],
    'draw': 'ed8c175fad7e991bfaf508267093692ce41112c58afb4016049877d7eb7b2176',
}


class TestGoldenForkedVine:
    @pytest.fixture(scope="class")
    def runs(self):
        return forked_vine_runs()

    def test_fit_uses_every_rotation(self, runs):
        assert {rot for _, rot, _ in runs["fit"]} == {0, 90, 180, 270}
        assert runs["tree1"] == [(0, 1), (1, 2), (1, 3), (3, 4)]

    @pytest.mark.parametrize("key", ["data", "tree1", "fit", "log_density",
                                     "refit", "draw"])
    def test_bit_identical(self, runs, key):
        assert runs[key] == GOLDEN_FORKED_VINE[key]


def sampling_shape_models() -> dict:
    """Vines of three shapes: the C-vine star, a 5-dim D-vine in a
    non-identity order with copulas at every rotation, and the vines
    `fit_sequential` selects for d = 3..8 on seeded mixed-sign Gaussian
    ranks, which hold rotated copulas."""
    models = {"cvine_star": cvine_star_4(),
              "dvine_5": RVineModel(dvine_structure([3, 0, 4, 1, 2]),
                                    all_rotation_copulas(10),
                                    tuple(uniform_marginal() for _ in range(5)))}
    for d in range(3, 9):
        rng = np.random.default_rng(300 + d)
        z = rng.standard_normal((300, d)) @ rng.uniform(-1, 1, (d, d))
        u = np.column_stack([stats.rankdata(z[:, i]) / 301 for i in range(d)])
        models[f"fitted_d{d}"] = fit_sequential(u, [uniform_marginal()] * d)
    return models


# generated with the sampler that searched an elimination order level by
# level, and regenerated when the mixture quantile moved from array-wide
# bisection to per-element bracketed Newton; any change here is a change of
# output bits
GOLDEN_SAMPLING_SHAPES = {
    "cvine_star": "89e243f49d0cb1c05b78255bf69c2a117e2691fee78b71dfcc571fe80b9677e8",
    "dvine_5": "7391a72fe953d93a7cc422c70e66600fad035071aafe3c227348888010652a0e",
    "fitted_d3": "9ae6c1c079bcbbd25a7b054e5e79865ba298263a6a99c1d929a0b420f581c412",
    "fitted_d4": "fddbaf4cba9226b8edbc32c34d556a3636b6099c27a6c2b92950a8724962166f",
    "fitted_d5": "a490849de4162a1c88658dfc124c33f3bc53e10b7e8bad92a99db460afa9b109",
    "fitted_d6": "9ff2d0505a9b3d117d86b2e3eb0a16bf35c3e8489bfaa4d640868331286a9141",
    "fitted_d7": "88e5d4ac29f0a40b8e95a02f233a6cb6276c4d130542ce47ccbe837769d86ec1",
    "fitted_d8": "e35d2316d04fc1f8f37364de9302738b201ae243f0da6f5d4f6944aa156787e9",
}


class TestGoldenSamplingShapes:
    """SHA-256 of the float64 bytes of `vine_sample(model, 2000, seed=9)`."""

    @pytest.fixture(scope="class")
    def models(self):
        return sampling_shape_models()

    def test_fitted_vines_hold_rotated_copulas(self, models):
        fitted = [m for name, m in models.items() if name.startswith("fitted")]
        assert {c.rotation for m in fitted for c in m.pair_copulas} == {0, 90, 180, 270}

    @pytest.mark.parametrize("name", ["cvine_star", "dvine_5"]
                             + [f"fitted_d{d}" for d in range(3, 9)])
    def test_bit_identical(self, models, name):
        draw = vine_sample(models[name], 2000, seed=9)
        got = hashlib.sha256(np.ascontiguousarray(draw).tobytes()).hexdigest()
        assert got == GOLDEN_SAMPLING_SHAPES[name]


class TestGoldenCompositeSample:
    """SHA-256 of a seeded 10^4-row `CompositeModel.sample` of the benchmark
    truth, generated once `MixtureModel.quantile` took bracketed Newton
    steps with a per-element stop; every sampled golden and acceptance
    dataset goes through this path, so any change here is a change of
    output bits."""

    GOLDEN = "cdfd344a963652d5058f5cec3adf232796ad9461fd94aa0af52ba0460254a2b5"

    def test_bit_identical(self):
        rows = benchmark_truth().sample(10_000, seed=20261018)
        assert rows.shape == (10_000, 7) and rows.dtype == np.float64
        assert hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest() == self.GOLDEN


# ---------------------------------------------------------------------------
# golden outputs: the Archimedean theta search
# ---------------------------------------------------------------------------

def archimedean_golden_samples() -> dict:
    """A negatively dependent 2-dim sample (Frank -5), a 3-dim Gumbel 1.7
    sample and an independent 2-dim sample, all on uniform marginals."""
    from orevine.copulas import pair_h_inverse
    rng = np.random.default_rng(71)
    v = rng.uniform(1e-9, 1 - 1e-9, 500)
    p = rng.uniform(1e-9, 1 - 1e-9, 500)
    u = pair_h_inverse(PairCopula("frank", 0, -5.0), p, v)
    m3 = tuple(uniform_marginal() for _ in range(3))
    return {"frank_negative_d2": np.column_stack([u, v]),
            "gumbel_d3": ArchimedeanModel("gumbel", 1.7, m3).sample(400, seed=72),
            "independent_d2": np.random.default_rng(73).uniform(size=(500, 2))}


# generated before the pair and Archimedean fits shared one theta search;
# the Frank -5 case regenerated when the 2-dim fit's negative Frank half
# got finite log-densities (it had fitted the positive half's end, 1e-4),
# all three when bounded Brent replaced golden section, and the Gumbel case
# when the mixture quantile moved to per-element bracketed Newton, which
# moved its sample at rounding level.
GOLDEN_ARCHIMEDEAN = {
    "frank_negative_d2": ("frank", "-4.9895074619810655"),
    "gumbel_d3": ("gumbel", "1.686388538757864"),
    "independent_d2": ("frank", "0.26712175854221837"),
}


class TestGoldenArchimedean:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARCHIMEDEAN))
    def test_bit_identical(self, name):
        x = archimedean_golden_samples()[name]
        fit = fit_archimedean(x, [uniform_marginal()] * x.shape[1])
        assert (fit.family, repr(fit.theta)) == GOLDEN_ARCHIMEDEAN[name]
