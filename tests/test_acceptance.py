"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from orevine.cli import main
from orevine.copulas import (
    PairCopula,
    kendall_tau,
    pair_cdf,
    pair_density,
    pair_h,
)
from orevine.descriptors import (
    compute_descriptors,
    min_volume_bbox,
    surface_area,
)
from orevine.evaluation import loo_cv
from orevine.marginals import BetaParams, MixtureModel, fit_mixture_em
from orevine.model import (
    CompositeModel,
    composite_density,
    conditional_median,
    fit_composite,
)
from orevine.synth import (
    Primitive,
    SceneSpec,
    benchmark_truth,
    generate_composite_dataset,
    generate_scene,
)
from orevine.vine import (
    RVineModel,
    dvine_structure,
    fit_sequential,
    vine_log_density,
    vine_sample,
)
from orevine.voxel import (
    LabelVolume,
    VoxelVolume,
    compute_weight_map,
    register_phase_slices,
)

GRID_THETAS = {
    "clayton": (0.3, 0.8, 1.2),
    "gumbel": (1.1, 1.3, 1.6),
    "joe": (1.1, 1.3, 1.6),
    "frank": (-8.0, 2.0, 8.0),
}


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: PASS - {detail}")


def uniform_marginal():
    return MixtureModel("beta", BetaParams(1.0, 1.0), BetaParams(1.0, 1.0), 0.5)


def beta_marginal(p, q, truncation=None):
    return MixtureModel("beta", BetaParams(p, q), BetaParams(p, q), 0.5,
                        truncation=truncation)


def test_criterion_01_copula_correctness():
    start = time.monotonic()
    m = 200
    grid = (np.arange(m) + 0.5) / m
    uu, vv = np.meshgrid(grid, grid)
    uu, vv = uu.ravel(), vv.ravel()
    rng = np.random.default_rng(20)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    worst_int, worst_fd = 0.0, 0.0
    for family, thetas in GRID_THETAS.items():
        for theta, rot in itertools.product(thetas, (0, 90, 180, 270)):
            cop = PairCopula(family, rot, theta)
            total = pair_density(cop, uu, vv).sum() / (m * m)
            worst_int = max(worst_int, abs(total - 1.0))
            assert total == pytest.approx(1.0, abs=1e-3), (family, rot, theta)
            d = 1e-5
            fd = (pair_cdf(cop, pts[:, 0], pts[:, 1] + d)
                  - pair_cdf(cop, pts[:, 0], pts[:, 1] - d)) / (2 * d)
            dev = np.max(np.abs(pair_h(cop, pts[:, 0], pts[:, 1]) - fd))
            worst_fd = max(worst_fd, dev)
            assert dev < 1e-4, (family, rot, theta)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"48 copulas: max |integral-1| {worst_int:.1e} (<=1e-3), "
              f"max h-vs-FD {worst_fd:.1e} (<=1e-4), {elapsed:.1f}s (<60s)")


def test_criterion_02_kendall_tau_exact():
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(2, 201))
        if trial % 2 == 0:
            y = rng.integers(0, 10, n).astype(float)   # forces ties
            y2 = rng.integers(0, 10, n).astype(float)
        else:
            y = rng.normal(size=n)
            y2 = rng.normal(size=n)
        brute = 0
        for i in range(n):
            brute += int(np.sum(np.sign(y[i] - y[i + 1:])
                                * np.sign(y2[i] - y2[i + 1:])))
        expected = 2.0 * brute / (n * (n - 1))
        assert kendall_tau(y, y2) == expected
    report(2, "50 random vectors (ties included): exact match with O(n^2) "
              "enumeration")


def _prufer_trees(d):
    import bisect
    for seq in itertools.product(range(d), repeat=d - 2):
        degree = [1] * d
        for s in seq:
            degree[s] += 1
        edges = []
        leaves = sorted(i for i in range(d) if degree[i] == 1)
        for s in seq:
            leaf = leaves.pop(0)
            edges.append(tuple(sorted((leaf, s))))
            degree[s] -= 1
            if degree[s] == 1:
                bisect.insort(leaves, s)
        edges.append(tuple(sorted(leaves)))
        yield edges


def test_criterion_03_structure_selection_vs_exhaustive():
    start = time.monotonic()
    for d, seed, n_trees in ((4, 5, 16), (5, 6, 125)):
        rng = np.random.default_rng(seed)
        cov = rng.uniform(-1, 1, (d, d))
        z = rng.standard_normal((500, d)) @ cov
        marginals = [fit_mixture_em(z[:, i] - z[:, i].min() + 0.1, "gamma")
                     for i in range(d)]
        model = fit_sequential(z - z.min(axis=0) + 0.1, marginals)
        fitted = {e.conditioned for e in model.structure.levels[0]}

        u = np.column_stack([marginals[i].cdf(z[:, i] - z[:, i].min() + 0.1)
                             for i in range(d)])
        taus = {p: abs(kendall_tau(u[:, p[0]], u[:, p[1]]))
                for p in itertools.combinations(range(d), 2)}
        best, best_tree, count = -1.0, None, 0
        for tree in _prufer_trees(d):
            count += 1
            score = sum(taus[e] for e in tree)
            if score > best:
                best, best_tree = score, set(tree)
        assert count == n_trees
        assert fitted == best_tree, f"d={d}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"T_1 equals the exhaustive max-sum-|tau| tree for d=4 (16) and "
              f"d=5 (125); {elapsed:.1f}s (<30s)")


def test_criterion_04_vine_density_integral_and_independence():
    model = RVineModel(dvine_structure([0, 1, 2]),
                       (PairCopula("clayton", 0, 1.0),
                        PairCopula("frank", 0, 4.0),
                        PairCopula("gumbel", 0, 1.3)),
                       tuple(uniform_marginal() for _ in range(3)))
    n = 100
    g = (np.arange(n) + 0.5) / n
    pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
    total = np.exp(vine_log_density(model, pts)).sum() / n ** 3
    assert total == pytest.approx(1.0, abs=5e-3)

    marginals = (beta_marginal(2, 3), beta_marginal(3, 2), beta_marginal(4, 4))
    indep = RVineModel(dvine_structure([0, 1, 2]),
                       tuple(PairCopula("independence") for _ in range(3)),
                       marginals)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.05, 0.95, size=(200, 3))
    dev = np.max(np.abs(vine_log_density(indep, x)
                        - sum(marginals[i].log_density(x[:, i]) for i in range(3))))
    assert dev < 1e-12
    report(4, f"100^3 grid integral {total:.5f} (1 +- 5e-3); independence "
              f"factorization deviation {dev:.1e} (<1e-12)")


def test_criterion_05_round_trip_recovery():
    start = time.monotonic()
    gen = RVineModel(dvine_structure([0, 1, 2]),
                     (PairCopula("clayton", 0, 2.0), PairCopula("gumbel", 0, 2.0),
                      PairCopula("independence")),
                     tuple(uniform_marginal() for _ in range(3)))
    x = vine_sample(gen, 10_000, seed=21)
    refit = fit_sequential(x, gen.marginals)

    gen_taus = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.0}
    gen_families = {(0, 1): "clayton", (1, 2): "gumbel", (0, 2): "independence"}
    assert {e.conditioned for e in refit.structure.levels[0]} == {(0, 1), (1, 2)}

    u = np.column_stack([gen.marginals[i].cdf(x[:, i]) for i in range(3)])
    from orevine.vine import _ConditionalCache
    cache = _ConditionalCache(refit, np.clip(u, 1e-12, 1 - 1e-12))
    matches = 0
    for edge, cop in refit.edge_items():
        uj = cache.value(edge.conditioned[0], edge.conditioning)
        uk = cache.value(edge.conditioned[1], edge.conditioning)
        emp = kendall_tau(uj, uk)
        assert emp == pytest.approx(gen_taus[edge.conditioned], abs=0.05)
        if cop.family == gen_families[edge.conditioned]:
            matches += 1
    assert matches >= 2
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(5, f"n=1e4 round trip: all edge taus within 0.05, families matched "
              f"{matches}/3; {elapsed:.1f}s (<2min)")


def test_criterion_06_em_recovery():
    rng = np.random.default_rng(11)
    n = 10_000
    pick = rng.random(n) < 0.5
    data = np.where(pick, rng.beta(2, 8, size=n), rng.beta(8, 2, size=n))
    model = fit_mixture_em(data, "beta")  # raises if LL ever decreases
    assert 0.45 <= model.lam <= 0.55
    m1, m2 = model.comp1.mean, model.comp2.mean
    assert m1 == pytest.approx(0.2, rel=0.10)
    assert m2 == pytest.approx(0.8, rel=0.10)
    report(6, f"beta-mixture EM: lambda {model.lam:.3f} in [0.45, 0.55], "
              f"means {m1:.3f}/{m2:.3f} within 10%; LL monotone (asserted "
              f"every iteration)")


def test_criterion_07_synthetic_prediction_benchmark():
    start = time.monotonic()
    truth = benchmark_truth()
    ds = generate_composite_dataset(truth, 227, 489, 625, seed=42)
    assert len(ds) == 1341

    rv = loo_cv(fit_composite(ds, engine="rvine"), ds, fast=True, parallelism=2)
    ar = loo_cv(fit_composite(ds, engine="archimedean"), ds, fast=True,
                parallelism=2)

    mae_rv = rv.report_all.mae
    mae_rv_c = rv.report_composite.mae
    mae_ar = ar.report_all.mae
    assert mae_rv <= 0.15, f"rvine MAE_all {mae_rv}"
    assert mae_rv_c <= 0.20, f"rvine MAE_composite {mae_rv_c}"
    assert mae_rv <= mae_ar, f"rvine {mae_rv} vs archimedean {mae_ar}"
    elapsed = time.monotonic() - start
    assert elapsed < 1200.0
    report(7, f"LOO on 1341 rows (227/489/625): rvine MAE {mae_rv:.4f} "
              f"(<=0.15), MAE_c {mae_rv_c:.4f} (<=0.20), archimedean MAE "
              f"{mae_ar:.4f} (ordering holds); {elapsed/60:.1f}min (<20min)")


def _digital_ball(r, center=(0, 0, 0)):
    g = np.arange(-r - 2, r + 3)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    keep = xx ** 2 + yy ** 2 + zz ** 2 <= r * r
    return (np.column_stack([xx[keep], yy[keep], zz[keep]])
            + np.asarray(center)).astype(np.int64)


def test_criterion_08_descriptor_suite():
    # surface area and sphericity of the digital ball
    ball = _digital_ball(20, center=(22, 22, 22))
    area = surface_area(ball)
    assert area == pytest.approx(4 * np.pi * 400.0, rel=0.05)
    vol = VoxelVolume(np.ones((45, 45, 45)))
    desc = compute_descriptors(ball, vol)
    assert desc.sphe == pytest.approx(1.0, abs=0.05)

    # exact block elongation/flatness
    box = min_volume_bbox(np.argwhere(np.ones((4, 2, 1), dtype=bool)))
    assert (box.a2 / box.a1, box.a3 / box.a2) == (0.5, 0.5)

    # weight-map balancing
    labels = np.zeros((20, 20, 3), dtype=np.uint32)
    labels[4:9, 4:9, 1] = 1
    labels[12:17, 12:17, 1] = 2
    wm = compute_weight_map(LabelVolume(labels), [1])
    sl = wm.weights[:, :, 1]
    fg = labels[:, :, 1] > 0
    assert sl[fg].sum() == pytest.approx(sl[~fg].sum(), rel=1e-6)

    # mineral ratio vs brute-force counting on 20 random scenes
    rng = np.random.default_rng(13)
    for _ in range(20):
        dims = (24, 24, 16)
        centers = [(7, 7, 8), (17, 17, 8)]
        particles = tuple(
            Primitive("ball", center=c, radius=int(rng.integers(3, 6)),
                      vfvm=float(rng.uniform()), gray_mean=2.0)
            for c in centers)
        spec = SceneSpec(dims=dims, particles=particles,
                         phase_planes=((2, 8),), seed=int(rng.integers(1e6)))
        volume, lab, slices = generate_scene(spec)
        registration = register_phase_slices(lab, slices)
        for pid in range(1, lab.n_particles + 1):
            coords = lab.particle_voxels(pid)
            got = registration.mineral_ratio(pid)
            # brute force: walk the slice voxels and count phases
            coord_set = {tuple(c) for c in coords}
            n_v = n_nv = 0
            for sl_ in slices:
                for c, ph in zip(sl_.coords, sl_.phases):
                    if tuple(c) in coord_set:
                        if ph == 1:
                            n_v += 1
                        elif ph == 2:
                            n_nv += 1
            expected = None if n_v + n_nv == 0 else n_v / (n_v + n_nv)
            assert got == expected
    report(8, f"ball area {area:.0f} (4*pi*400 +- 5%), sphericity "
              f"{desc.sphe:.3f} (1 +- 0.05), block ratios exact, weight sums "
              f"balanced to 1e-6, mineral ratio equals brute force on 20 scenes")


def _all_beta_composite():
    ind = PairCopula("independence")
    s6 = dvine_structure(list(range(6)))
    f_v = RVineModel(s6, (PairCopula("frank", 0, 3.0), ind, ind,
                          PairCopula("clayton", 0, 0.8), ind) + (ind,) * 10,
                     (beta_marginal(6, 2), beta_marginal(3, 3), beta_marginal(2, 4),
                      beta_marginal(4, 2), beta_marginal(3, 4), beta_marginal(5, 3)))
    f_nv = RVineModel(s6, (PairCopula("gumbel", 0, 1.4), ind, ind, ind,
                           PairCopula("frank", 0, -2.0)) + (ind,) * 10,
                      (beta_marginal(2, 6), beta_marginal(3, 2), beta_marginal(4, 3),
                       beta_marginal(2, 3), beta_marginal(4, 4), beta_marginal(3, 5)))
    s7 = dvine_structure([6, 0, 1, 2, 3, 4, 5])
    f_c = RVineModel(s7, (PairCopula("gumbel", 0, 2.0),
                          PairCopula("frank", 0, 2.5), ind, ind, ind, ind)
                     + (ind,) * 15,
                     (beta_marginal(4, 4), beta_marginal(3, 3), beta_marginal(3, 4),
                      beta_marginal(4, 3), beta_marginal(3, 3), beta_marginal(4, 4),
                      beta_marginal(2, 2, truncation=(0.01, 0.99))))
    return CompositeModel(f_v, f_nv, f_c, n_v=227, n_nv=489, n_c=625)


def test_criterion_09_composite_density_and_median_oracle():
    model = _all_beta_composite()
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 1.0, size=(1_000_000, 7))
    estimate = float(np.mean(composite_density(model, pts)))
    assert estimate == pytest.approx(1.0, abs=0.05)

    worst = 0.0
    for _ in range(50):
        ct = rng.uniform(0.25, 0.75, 6)
        med = conditional_median(model, ct)
        s = np.linspace(model.epsilon, 1 - model.epsilon, 10_001)
        grid_pts = np.column_stack([np.tile(ct, (s.size, 1)), s])
        dens = np.exp(model.f_c.log_density(grid_pts))
        cdf = np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(s))
        cdf /= cdf[-1]
        oracle = s[1 + int(np.searchsorted(cdf, 0.5))]
        worst = max(worst, abs(med - oracle))
        assert med == pytest.approx(oracle, abs=1e-3)
    report(9, f"Monte Carlo integral {estimate:.4f} (1 +- 0.05 at 1e6 points); "
              f"conditional median vs 1e4-grid oracle worst dev {worst:.2e} "
              f"(<=1e-3) on 50 queries")


def _snapshot(directory: Path) -> dict:
    out = {}
    for p in sorted(directory.rglob("*")):
        if not p.is_file():
            continue
        if p.name.endswith(".manifest.json"):
            doc = json.loads(p.read_text())
            doc.pop("timestamp", None)
            out[str(p)] = json.dumps(doc, sort_keys=True)
        else:
            out[str(p)] = p.read_bytes()
    return out


def test_criterion_10_cli_determinism(tmp_path):
    truth = benchmark_truth()
    ds = generate_composite_dataset(truth, 45, 45, 50, seed=5)
    train_csv = tmp_path / "train.csv"
    ds.to_csv(train_csv)

    spec = SceneSpec(
        dims=(36, 36, 24),
        particles=(Primitive("ball", center=(10, 10, 12), radius=6,
                             gray_mean=2.5, vfvm=1.0),
                   Primitive("ball", center=(26, 26, 12), radius=7,
                             gray_mean=1.2, vfvm=0.0)),
        phase_planes=((2, 12),), seed=11)
    spec_path = tmp_path / "scene.json"
    spec_path.write_text(spec.to_json())

    work = tmp_path / "work"
    work.mkdir()
    commands = [
        ["synth", "--spec", str(spec_path), "--out-prefix", str(work / "sc")],
        ["weights", "--labels", str(work / "sc_labels.raw"), "--slices", "12",
         "--out", str(work / "weights.raw")],
        ["descriptors", "--volume", str(work / "sc_volume.raw"),
         "--labels", str(work / "sc_labels.raw"),
         "--phases", str(work / "sc_phase_0.json"),
         "--out", str(work / "desc.csv")],
        ["fit", "--data", str(train_csv), "--out", str(work / "model.json"),
         "--report-prefix", str(work / "scores"), "--seed", "1"],
        ["predict", "--model", str(work / "model.json"), "--data",
         str(train_csv), "--out", str(work / "pred.csv")],
        ["sample", "--model", str(work / "model.json"), "--n", "30",
         "--seed", "9", "--out", str(work / "sampled.csv")],
        ["evaluate", "--model", str(work / "model.json"), "--data",
         str(train_csv), "--out-prefix", str(work / "eval"), "--fast-loo"],
    ]
    for cmd in commands:
        assert main(cmd) == 0, cmd
    first = _snapshot(work)
    for cmd in commands:
        assert main(cmd) == 0, cmd
    assert _snapshot(work) == first

    # leave-one-out report independent of parallelism (1 vs 8 workers)
    full = fit_composite(ds, engine="rvine")
    seq = loo_cv(full, ds, fast=True, parallelism=1)
    par = loo_cv(full, ds, fast=True, parallelism=8)
    assert np.array_equal(seq.predictions, par.predictions, equal_nan=True)
    assert seq.report_all.to_dict() == par.report_all.to_dict()
    assert seq.report_composite.to_dict() == par.report_composite.to_dict()
    report(10, "all seven CLI subcommands byte-identical across reruns "
               "(manifest timestamps excluded); LOO reports identical for "
               "parallelism 1 vs 8")
