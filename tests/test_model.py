import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from orevine.copulas import PairCopula
from orevine.descriptors import COLUMNS, Dataset
from orevine.errors import ArgumentError, FittingError
from orevine.marginals import BetaParams, MixtureModel
from orevine.model import (
    GL_NODES,
    LOCKSTEP_ROWS,
    MAX_DEPTH,
    MEDIAN_STEPS,
    NEWTON_TOL,
    QUAD_TOL,
    CompositeModel,
    CompositionSlices,
    adaptive_integral,
    composite_density,
    composite_log_density,
    conditional_median,
    fit_composite,
    marginal_composite_ct,
    partition_dataset,
    predict_vfvm,
)
from orevine.synth import benchmark_truth, generate_composite_dataset
from orevine.vine import ArchimedeanModel, RVineModel, dvine_structure


def beta_m(p, q, truncation=None):
    return MixtureModel("beta", BetaParams(p, q), BetaParams(p, q), 0.5,
                        truncation=truncation)


def tiny_composite(eps=0.01, rat_dependent=False):
    """2 CT descriptors; classes separated along the first coordinate."""
    ind = PairCopula("independence")
    s2 = dvine_structure([0, 1])
    f_v = RVineModel(s2, (ind,), (beta_m(8, 2), beta_m(3, 3)))
    f_nv = RVineModel(s2, (ind,), (beta_m(2, 8), beta_m(3, 3)))
    s3 = dvine_structure([2, 0, 1])
    rat_cop = PairCopula("gumbel", 0, 3.0) if rat_dependent else ind
    f_c = RVineModel(s3, (rat_cop, ind, ind),
                     (beta_m(4, 4), beta_m(3, 3),
                      beta_m(2, 2, truncation=(eps, 1 - eps))))
    return CompositeModel(f_v, f_nv, f_c, n_v=227, n_nv=489, n_c=625,
                          epsilon=eps)


def archimedean_parts(eps=0.01):
    """(f_v, f_nv, f_c) Frank densities shaped like `tiny_composite`'s."""
    f_v = ArchimedeanModel("frank", 2.0, (beta_m(8, 2), beta_m(3, 3)))
    f_nv = ArchimedeanModel("frank", 2.0, (beta_m(2, 8), beta_m(3, 3)))
    f_c = ArchimedeanModel("frank", 2.0, (beta_m(4, 4), beta_m(3, 3),
                                          beta_m(2, 2, truncation=(eps, 1 - eps))))
    return f_v, f_nv, f_c


def archimedean_composite(eps=0.01):
    return CompositeModel(*archimedean_parts(eps), n_v=227, n_nv=489, n_c=625,
                          epsilon=eps)


def make_dataset(rats):
    n = len(rats)
    rng = np.random.default_rng(0)
    matrix = np.column_stack([rng.uniform(0.5, 2.0, (n, 6)), np.asarray(rats)])
    return Dataset(np.arange(1, n + 1, dtype=np.int64), matrix, COLUMNS)


class TestPartition:
    def test_threshold_routing(self):
        ds = make_dataset([1.0, 0.005, 0.5, 0.99, 0.01, 0.2])
        d_v, d_nv, d_c = partition_dataset(ds, epsilon=0.01)
        assert list(d_v.ids) == [1, 4]     # rat >= 0.99
        assert list(d_nv.ids) == [2, 5]    # rat <= 0.01
        assert list(d_c.ids) == [3, 6]

    def test_is_partition(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.uniform(0, 1, 200))
        d_v, d_nv, d_c = partition_dataset(ds)
        assert len(d_v) + len(d_nv) + len(d_c) == 200
        all_ids = np.concatenate([d_v.ids, d_nv.ids, d_c.ids])
        assert np.unique(all_ids).size == 200

    def test_pure_classes_drop_rat(self):
        ds = make_dataset([1.0, 0.0, 0.5])
        d_v, d_nv, d_c = partition_dataset(ds)
        assert not d_v.has_rat and not d_nv.has_rat and d_c.has_rat

    def test_missing_rat_rejected(self):
        ds = make_dataset([0.5, np.nan, 0.2])
        with pytest.raises(ArgumentError):
            partition_dataset(ds)


class TestFitComposite:
    def test_counts_stored_exactly(self):
        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 227, 489, 625, seed=7)
        model = fit_composite(ds, engine="rvine")
        assert (model.n_v, model.n_nv, model.n_c) == (227, 489, 625)
        assert model.n == 1341

    def test_all_composite_fails_with_partition_name(self):
        ds = make_dataset(np.linspace(0.2, 0.8, 120))
        with pytest.raises(FittingError, match="valuable"):
            fit_composite(ds)

    def test_rvine_training_ll_at_least_archimedean(self):
        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 150, 150, 200, seed=3)
        rv = fit_composite(ds, engine="rvine")
        ar = fit_composite(ds, engine="archimedean")
        ll_rv = float(np.sum(composite_log_density(rv, ds.matrix)))
        ll_ar = float(np.sum(composite_log_density(ar, ds.matrix)))
        assert ll_rv >= ll_ar


class TestCompositeModel:
    def test_engine_follows_the_submodels(self):
        assert tiny_composite().engine == "rvine"
        ar = archimedean_parts()
        assert CompositeModel(*ar, n_v=1, n_nv=1, n_c=1).engine == "archimedean"

    def test_mixed_engines_rejected(self):
        a = tiny_composite()
        f_v, _, _ = archimedean_parts()
        with pytest.raises(ArgumentError, match="different engines"):
            CompositeModel(f_v, a.f_nv, a.f_c, n_v=1, n_nv=1, n_c=1)


class TestCompositeDensity:
    def test_nv_branch_coefficient(self):
        model = tiny_composite()
        x = np.array([0.6, 0.4, 0.005])
        expected = (489 / 1341) * 100.0 * float(
            np.exp(model.f_nv.log_density(x[None, :2]))[0])
        assert composite_density(model, x) == pytest.approx(expected, rel=1e-10)

    def test_v_branch_coefficient(self):
        model = tiny_composite()
        x = np.array([0.6, 0.4, 0.995])
        expected = (227 / 1341) * 100.0 * float(
            np.exp(model.f_v.log_density(x[None, :2]))[0])
        assert composite_density(model, x) == pytest.approx(expected, rel=1e-10)

    def test_composite_branch(self):
        model = tiny_composite()
        x = np.array([0.6, 0.4, 0.5])
        expected = (625 / 1341) * float(np.exp(model.f_c.log_density(x[None, :]))[0])
        assert composite_density(model, x) == pytest.approx(expected, rel=1e-10)

    def test_outside_unit_interval_zero(self):
        model = tiny_composite()
        assert composite_density(model, np.array([0.5, 0.5, -0.1])) == 0.0
        assert composite_density(model, np.array([0.5, 0.5, 1.1])) == 0.0

    def test_epsilon_boundary_goes_to_atom(self):
        model = tiny_composite()
        # exactly epsilon -> nv branch; exactly 1 - epsilon -> v branch, the
        # band partition_dataset puts such a row in
        for x7, f, count in ((0.01, model.f_nv, 489),
                             (1.0 - model.epsilon, model.f_v, 227)):
            x = np.array([0.6, 0.4, x7])
            expected = (count / 1341) * 100.0 * float(
                np.exp(f.log_density(x[None, :2]))[0])
            assert composite_density(model, x) == pytest.approx(expected, rel=1e-10)

    def test_monte_carlo_integral(self):
        model = tiny_composite(rat_dependent=True)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, size=(200_000, 3))
        est = float(np.mean(composite_density(model, pts)))
        assert est == pytest.approx(1.0, abs=0.05)


class TestPredict:
    def test_valuable_dominates(self):
        model = tiny_composite()
        # first coordinate large -> valuable class (Beta(8,2) mean 0.8)
        p = predict_vfvm(model, np.array([0.93, 0.5]))
        assert p.label == "valuable" and p.value == 1.0

    def test_non_valuable_dominates(self):
        model = tiny_composite()
        p = predict_vfvm(model, np.array([0.07, 0.5]))
        assert p.label == "non_valuable" and p.value == 0.0

    def test_symmetric_conditional_median_half(self):
        model = tiny_composite(rat_dependent=False)
        p = predict_vfvm(model, np.array([0.5, 0.5]))
        assert p.label == "composite"
        assert p.value == pytest.approx(0.5, abs=1e-3)

    def test_median_matches_grid_cdf_oracle(self):
        for model in (tiny_composite(rat_dependent=True), archimedean_composite()):
            rng = np.random.default_rng(5)
            for _ in range(5):
                ct = rng.uniform(0.3, 0.7, 2)
                med = conditional_median(model, ct)
                # 1e4-point grid CDF oracle
                s = np.linspace(model.epsilon, 1 - model.epsilon, 10_001)
                pts = np.column_stack([np.tile(ct, (s.size, 1)), s])
                dens = np.exp(model.f_c.log_density(pts))
                cdf = np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(s))
                cdf /= cdf[-1]
                oracle = s[1 + int(np.searchsorted(cdf, 0.5))]
                assert med == pytest.approx(oracle, abs=1e-3)

    def test_composite_value_strictly_inside(self):
        model = tiny_composite(rat_dependent=True)
        rng = np.random.default_rng(9)
        for _ in range(10):
            ct = rng.uniform(0.25, 0.75, 2)
            p = predict_vfvm(model, ct)
            if p.label == "composite":
                assert model.epsilon < p.value < 1 - model.epsilon
                # predict hands its slice and normaliser on; same median
                assert p.value == conditional_median(model, ct)
            else:
                assert p.value in (0.0, 1.0)

    def test_count_scaling_leaves_class_unchanged(self):
        a = tiny_composite()
        b = CompositeModel(a.f_v, a.f_nv, a.f_c, n_v=454, n_nv=978, n_c=1250,
                           epsilon=a.epsilon)
        rng = np.random.default_rng(17)
        for _ in range(10):
            ct = rng.uniform(0.05, 0.95, 2)
            assert predict_vfvm(a, ct).label == predict_vfvm(b, ct).label

    def test_out_of_support(self):
        # gamma-marginal model evaluated at a negative descriptor
        truth = benchmark_truth()
        p = predict_vfvm(truth, np.array([-5.0, 1.0, 100.0, 0.5, 0.5, 0.5]))
        assert p.label == "out_of_support"
        assert p.value is None

    def test_marginalization_matches_direct_quadrature(self):
        model = tiny_composite(rat_dependent=True)
        ct = np.array([0.4, 0.6])
        val = marginal_composite_ct(model, ct)
        ref, _ = integrate.quad(
            lambda s: float(np.exp(model.f_c.log_density(
                np.array([[ct[0], ct[1], s]])))[0]),
            model.epsilon, 1 - model.epsilon, epsabs=1e-10, epsrel=1e-10,
            limit=200)
        assert val == pytest.approx(ref, rel=1e-6)


class TestBatchedPredict:
    """`predict_vfvm` on a matrix against one call per row, bit for bit."""

    @pytest.mark.parametrize("model", [tiny_composite(), tiny_composite(rat_dependent=True),
                                       archimedean_composite()],
                             ids=["independent_rat", "gumbel_rat", "archimedean"])
    def test_matrix_equals_rows(self, model):
        grid = np.linspace(0.05, 0.95, 7)
        ct = np.vstack([np.array(np.meshgrid(grid, grid)).reshape(2, -1).T,
                        [[1.5, 0.5]]])                  # out of support
        batch = predict_vfvm(model, ct)
        rows = [predict_vfvm(model, row) for row in ct]
        assert batch == rows
        labels = {p.label for p in rows}
        assert labels == {"valuable", "non_valuable", "composite", "out_of_support"}
        composite = [i for i, p in enumerate(rows) if p.label == "composite"]
        medians = conditional_median(model, ct[composite])
        assert medians.tolist() == [rows[i].value for i in composite]
        z = marginal_composite_ct(model, ct)
        assert z.tolist() == [marginal_composite_ct(model, row) for row in ct]

    def test_rejects_wrong_width_and_non_finite(self):
        model = tiny_composite()
        with pytest.raises(ArgumentError):
            predict_vfvm(model, np.full((4, 3), 0.5))
        with pytest.raises(ArgumentError):
            predict_vfvm(model, np.array([[0.5, 0.5], [np.nan, 0.5]]))


@pytest.fixture(scope="module")
def heldout_fits():
    """Both engines fitted to the 1341-row benchmark draw of the predict
    benchmark (generator seed 7), with its 200 held-out rows (seed 11)."""
    truth = benchmark_truth()
    train = generate_composite_dataset(truth, 227, 489, 625, seed=7)
    heldout = generate_composite_dataset(truth, 34, 73, 93, seed=11).matrix[:, :6]
    return {engine: fit_composite(train, engine=engine)
            for engine in ("rvine", "archimedean")}, heldout


@pytest.mark.parametrize("engine", ["rvine", "archimedean"])
class TestHeldoutRows:
    def test_batched_pure_class_log_density_is_per_row(self, heldout_fits, engine):
        models, ct = heldout_fits
        for part in (models[engine].f_v, models[engine].f_nv):
            rows = [part.log_density(row[None, :])[0] for row in ct]
            assert part.log_density(ct).tolist() == rows

    def test_small_normaliser_is_relatively_accurate(self, heldout_fits, engine):
        """Z within 1e-6 relative on the 12 rows of smallest Z in 1e-12 to
        1e-7, against scipy's quad in s on 8 pieces of the composition band
        at epsrel 1e-12.  An error bar absolute in Z was off by up to 99%
        there."""
        models, ct = heldout_fits
        model = models[engine]
        z = marginal_composite_ct(model, ct)
        small = np.flatnonzero((z >= 1e-12) & (z <= 1e-7))
        assert small.size >= 12
        edges = np.linspace(model.epsilon, 1 - model.epsilon, 9)
        for i in small[np.argsort(z[small])][:12]:
            def f(s):
                return float(np.exp(model.f_c.log_density(np.append(ct[i], s))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                ref = sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                          for a, b in zip(edges[:-1], edges[1:]))
            assert abs(z[i] - ref) <= 1e-6 * ref


# ---------------------------------------------------------------------------
# the lock-step quadrature and median against their one-row reference
# ---------------------------------------------------------------------------

def plain_integral(g):
    """(integral, panels) of g over [0, 1], one row alone: the adaptive
    Gauss-Legendre bisection that `adaptive_integral` runs in lock step,
    kept as its reference.  Returns the number of g calls as well."""
    n = GL_NODES
    nodes, weights = np.polynomial.legendre.leggauss(n)
    calls = 0

    def sums(bounds):
        nonlocal calls
        calls += 1
        scales = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in bounds]
        values = g(np.concatenate([mid + half * nodes for mid, half in scales]))
        return [float(half * np.dot(weights, values[i * n:(i + 1) * n]))
                for i, (_, half) in enumerate(scales)]

    whole, left, right = sums(((0.0, 1.0), (0.0, 0.5), (0.5, 1.0)))
    estimate = left + right
    stack = [(0.0, 1.0, 0, whole, left, right)]
    panels = []
    while stack:
        lo, hi, depth, whole, left, right = stack.pop()
        if depth >= MAX_DEPTH or not abs(left + right - whole) > QUAD_TOL * abs(estimate):
            panels.append((lo, hi, left + right))
            continue
        mid = 0.5 * (lo + hi)
        q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        ll, lr, rl, rr = sums(((lo, q1), (q1, mid), (mid, q3), (q3, hi)))
        estimate += (ll + lr) + (rl + rr) - (left + right)
        stack.append((mid, hi, depth + 1, right, rl, rr))
        stack.append((lo, mid, depth + 1, left, ll, lr))
    total = 0.0
    for _, _, value in panels:
        total += value
    return total, panels, calls


def plain_median_u(g, z_u, panels):
    """(median u, g calls) of one row alone: the bracketed Newton search
    that `CompositionSlices.median_u` runs in lock step, kept as its
    reference."""
    if not (z_u > 0.0 and math.isfinite(z_u)):
        raise FittingError("conditional composition density has no mass")
    half = 0.5 * z_u
    below = 0.0
    for lo, hi, value in panels:
        if below + value >= half:
            break
        below += value
    target = half - below
    nodes, weights = np.polynomial.legendre.leggauss(GL_NODES)
    a, b = lo, hi
    m = lo + (hi - lo) * min(max(target / value, 0.0), 1.0)
    for calls in range(1, MEDIAN_STEPS + 1):
        scale = 0.5 * (m - lo)
        values = g(np.append(0.5 * (lo + m) + scale * nodes, m))
        h = scale * float(np.dot(weights, values[:-1])) - target
        slope = float(values[-1])
        if slope > 0.0 and abs(h) <= NEWTON_TOL * slope:
            return m - h / slope, calls
        if h < 0.0:
            a = m
        else:
            b = m
        m = m - h / slope if slope > 0.0 else b
        if not a < m < b:
            m = 0.5 * (a + b)
        if b - a <= NEWTON_TOL:
            break
    return m, calls


def row_g(log_g, row):
    """u -> g at one head row, alone."""
    def g(u):
        with np.errstate(all="ignore"):
            return np.exp(log_g(u, np.array([row])))
    return g


def reference(slices):
    """Per row of `slices`: the one-row (z_u, panels, integral calls) and,
    for rows with mass, the one-row (median u, median calls)."""
    rows = []
    for i in slices.index:
        z_u, panels, calls = plain_integral(row_g(slices.log_g, i))
        median = (plain_median_u(row_g(slices.log_g, i), z_u, panels)
                  if z_u > 0.0 and math.isfinite(z_u) else None)
        rows.append((z_u, panels, calls, median))
    return rows


def assert_matches_reference(slices, ref):
    assert slices.z_u.tolist() == [z for z, _, _, _ in ref]
    assert list(slices.panels) == [p for _, p, _, _ in ref]
    with_mass = [k for k, r in enumerate(ref) if r[3] is not None]
    medians = slices.take(with_mass).median_u()
    assert medians.tolist() == [ref[k][3][0] for k in with_mass]


@pytest.mark.parametrize("engine", ["rvine", "archimedean"])
class TestLockstepReference:
    """The lock-step quadrature and median give every row bit for bit what
    the one-row reference gives it."""

    def test_many_rows(self, heldout_fits, engine):
        models, ct = heldout_fits
        slices = CompositionSlices.at(models[engine], ct)
        ref = reference(slices)
        assert len(ref) > 4 * LOCKSTEP_ROWS
        # rows stop after different numbers of rounds
        assert len({calls for _, _, calls, _ in ref}) > 3
        assert_matches_reference(slices, ref)

    def test_single_row(self, heldout_fits, engine):
        models, ct = heldout_fits
        for i in (0, 17, 199):
            slices = CompositionSlices.at(models[engine], ct[i:i + 1])
            assert_matches_reference(slices, reference(slices))


def uneven_log_g(u, rows):
    """Rows of unequal difficulty: Gaussian peaks of widths 0.3 down to
    1e-3, a cusp sqrt|u - 0.3| (row 3), one row of zero mass (row 5) and
    a flat row (row 6)."""
    centre = np.array([0.5, 0.1, 0.77, 0.3, 0.9999, 0.5, 0.5])[rows]
    width = np.array([0.3, 1e-2, 1e-3, 1.0, 1e-2, 1.0, np.inf])[rows]
    with np.errstate(divide="ignore"):
        out = np.where(rows == 3, 0.5 * np.log(np.abs(u - centre)),
                       -((u - centre) / width) ** 2)
    return np.where(rows == 5, -np.inf, out)


class TestLockstepRows:
    def test_uneven_rows(self):
        rows = np.array([3, 0, 6, 2, 5, 1, 4, 3])
        z_u, panels = adaptive_integral(uneven_log_g, rows)
        for k, row in enumerate(rows):
            z, p, _ = plain_integral(row_g(uneven_log_g, row))
            assert (z_u[k], panels[k]) == (z, p)
        assert z_u[4] == 0.0 and len(panels[2]) == 1 and len(panels[0]) > 10

    def test_zero_mass_row_raises(self):
        rows = np.arange(7)
        z_u, panels = adaptive_integral(uneven_log_g, rows)
        slices = CompositionSlices(np.zeros(7), uneven_log_g, rows, z_u, panels)
        with pytest.raises(FittingError, match="has no mass"):
            slices.median_u()
        with pytest.raises(FittingError, match="has no mass"):
            plain_median_u(row_g(uneven_log_g, 5), z_u[5], panels[5])
        with_mass = [0, 1, 2, 3, 4, 6]
        assert slices.take(with_mass).median_u().tolist() == [
            plain_median_u(row_g(uneven_log_g, k), z_u[k], panels[k])[0] for k in with_mass]

    def test_no_rows(self):
        z_u, panels = adaptive_integral(uneven_log_g, np.arange(0))
        assert z_u.shape == (0,) and panels == ()


@pytest.mark.parametrize("engine", ["rvine", "archimedean"])
def test_log_g_calls_per_round(heldout_fits, engine, monkeypatch):
    """A 200-row `predict_vfvm` calls log_g at most once per LOCKSTEP_ROWS
    rows per round: integral rounds (the most calls one row's integral
    makes alone) times ceil(200 / LOCKSTEP_ROWS), plus median rounds (the
    most Newton steps of a composite row) times
    ceil(composite rows / LOCKSTEP_ROWS)."""
    models, ct = heldout_fits
    model = models[engine]
    calls = []
    slice_of = type(model.f_c).copula_slice

    def counted(self, head):
        const, log_g = slice_of(self, head)

        def log_g_counted(u, rows):
            calls.append(np.unique(rows).size)
            return log_g(u, rows)
        return const, log_g_counted

    monkeypatch.setattr(type(model.f_c), "copula_slice", counted)
    preds = predict_vfvm(model, ct)
    monkeypatch.undo()
    composite = [i for i, p in enumerate(preds) if p.label == "composite"]
    ref = reference(CompositionSlices.at(model, ct))
    integral_rounds = max(calls_alone for _, _, calls_alone, _ in ref)
    median_rounds = max(ref[i][3][1] for i in composite)
    bound = (integral_rounds * math.ceil(len(ct) / LOCKSTEP_ROWS)
             + median_rounds * math.ceil(len(composite) / LOCKSTEP_ROWS))
    assert max(calls) <= LOCKSTEP_ROWS
    assert len(calls) <= bound
    # the integrals' calls row by row alone break the bound many times over
    assert sum(calls_alone for _, _, calls_alone, _ in ref) > 3 * bound
