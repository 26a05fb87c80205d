"""The four benchmark workloads: scan, fit, predict and loo.

Each workload builds its inputs from the run seed in `setup`, drives the
real CLI in-process through `orevine.cli.main(argv)` in `run_pass` (the
timed phase), and checks the outputs against independently known truth in
`check`.  Operations are counted for failure accounting: particles (scan),
stages (fit), rows (predict) and folds (loo).  A non-zero CLI exit fails
every operation of its stage.

Rows that are fitted (fit, the predict training set and loo) come from a
pinned generator draw that the seed permutes.  The cost of fitting a random
draw is set by how long its mixture EMs run, which varies more between
draws than the benchmark's bounds allow on top of machine noise: over ten
draws of 1341 rows the EM time had an interquartile spread of 16% of its
median, and fast-LOO fold cost on eleven 93-row draws ranged from 0.14 to
0.74 s.  Neither pinned draw is the cheap acceptance-07 seed 42:
  - fit/predict use generator seed 7, the 1341-row draw whose warm-started
    LOO refits ran longest of those measured (0.74 s per fold against
    0.07 s at seed 42);
  - loo uses generator seed 6, a median-cost 93-row draw (about 0.2 s per
    fold, single warm EM runs up to 0.4 s).  The traced run makes three
    evaluate passes; with a 0.42 s-per-fold draw it took 130 s of the
    180 s a run may take.
predict's 200 held-out rows are a pinned draw permuted by the seed as well
(generator seed 11), because predict cost is set by the rows too: over ten
held-out draws from the seed, the normalised predict time followed each
draw's `vine_log_density` call count (6537-7375) and spread by 0.10 of its
median, half the phase_s bound.  Seed 11 is the median-cost draw of
generator seeds 1-11 (6826 calls; 6313-7302).
Rows that are only read elsewhere (scan scenes, the held-out log-likelihood
rows and the sample stream) are drawn from the seed itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from orevine import cli, synth
from orevine.descriptors import COLUMNS, Dataset
from orevine.model import composite_log_density
from orevine.persist import load_model
from orevine.synth import Primitive, SceneSpec, benchmark_truth
from orevine.voxel import write_labels, write_phase_slice, write_volume

# acceptance-07 and acceptance-09 bounds
MAE_BOUND = 0.15
MAE_C_BOUND = 0.20
MEDIAN_ORACLE_BOUND = 1e-3

FULL_COUNTS = (227, 489, 625)        # valuable, non-valuable, composite
HELDOUT_COUNTS = (34, 73, 93)        # the same proportions, 200 rows
LOO_COUNTS = (31, 31, 31)            # every class survives losing one row
FIT_ROWS_SEED = 7                    # pinned draws (see the module docstring)
LOO_ROWS_SEED = 6
HELDOUT_ROWS_SEED = 11
ORACLE_ROWS = 16                     # first composite-branch rows checked


def sub_rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng((seed, purpose))


def sub_seed(seed: int, purpose: int) -> int:
    return int(sub_rng(seed, purpose).integers(0, 2 ** 62))


def run_cli(argv) -> int:
    """Run one CLI command in-process, its stdout discarded; returns the
    exit code.

    Like every package call the benchmark wants traced, this goes through
    the module attribute at call time, so an installed wrapper sees it.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def permuted(dataset: Dataset, seed: int) -> Dataset:
    perm = sub_rng(seed, 1).permutation(len(dataset))
    return Dataset(np.arange(1, len(dataset) + 1, dtype=np.int64),
                   dataset.matrix[perm], COLUMNS)


def without_rat(dataset: Dataset) -> Dataset:
    matrix = dataset.matrix.copy()
    matrix[:, -1] = np.nan
    return Dataset(dataset.ids, matrix, COLUMNS)


@dataclass
class PassResult:
    """One pass of the timed phase."""

    wall_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def stage(self, name: str, argv, ops: int) -> bool:
        start = time.perf_counter()
        code = run_cli(argv)
        self.stage_s[name] = time.perf_counter() - start
        self.attempted += ops
        if code != 0:
            self.failed += ops
            self.errors.append(f"{name}: CLI exit {code}")
        return code == 0


@dataclass
class CheckResult:
    figures: dict = field(default_factory=dict)
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.errors.append(message)


class Workload:
    """`setup` writes the inputs under `work` and returns the state the
    passes read; `run_pass` is one timed phase (`parallelism` overrides the
    LOO pool size); `check` validates that pass's outputs."""

    name = ""

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc

    def setup(self, work: Path):
        raise NotImplementedError

    def run_pass(self, state, out: Path, parallelism=None) -> PassResult:
        raise NotImplementedError

    def check(self, state, out: Path, result: PassResult) -> CheckResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan: voxels -> descriptors
# ---------------------------------------------------------------------------

CELL = 16
GRID = (4, 3, 2)
PHASE_PLANES = ((2, 8), (0, 24), (1, 24))   # (axis, index)
WEIGHT_SLICES = (8, 24)
KINDS = (["ball"] * 6 + ["box_rot"] * 6 + ["box_axis"] * 3
         + ["plate_rot"] * 4 + ["plate_thin"] * 5)
EXACT_REL = 1e-12   # elo/flat of axis-aligned blocks, up to rounding


def scan_scene(seed: int) -> tuple[SceneSpec, list[str]]:
    """24 particles, one per 16-voxel cell, so none can overlap.

    Axis-aligned boxes and one-voxel-thick plates have integer centres and
    odd sizes, so their rasterized extents (and hence elo/flat) are exact.
    The z = 8 plane crosses the lower layer only; the x = 24 and y = 24
    planes cross one column and one row, so upper-layer particles outside
    them meet no plane.
    """
    rng = sub_rng(seed, 2)
    kinds = [KINDS[i] for i in rng.permutation(len(KINDS))]
    particles = []
    cells = [(i, j, k) for k in range(GRID[2]) for j in range(GRID[1])
             for i in range(GRID[0])]
    for (i, j, k), kind in zip(cells, kinds):
        center = tuple(float(CELL * c + CELL // 2 + rng.integers(-1, 2))
                       for c in (i, j, k))
        common = dict(center=center, gray_mean=float(rng.uniform(1.0, 3.0)),
                      gray_sigma=float(rng.uniform(0.04, 0.1)),
                      vfvm=float(rng.uniform(0.0, 1.0)))
        angles = tuple(float(a) for a in rng.uniform((0, 0, 0), (360, 180, 360)))
        if kind == "ball":
            prim = Primitive("ball", radius=float(rng.uniform(3.5, 5.5)), **common)
        elif kind == "box_rot":
            prim = Primitive("box", size=tuple(float(s) for s in rng.uniform(4.0, 7.5, 3)),
                             angles=angles, **common)
        elif kind == "box_axis":
            size = tuple(float(2 * rng.integers(1, 5) + 1) for _ in range(3))
            prim = Primitive("box", size=size, **common)
        elif kind == "plate_rot":
            size = (float(rng.uniform(7.0, 10.0)), float(rng.uniform(5.0, 8.0)),
                    float(rng.uniform(2.0, 3.0)))
            prim = Primitive("plate", size=size, angles=angles, **common)
        else:  # plate_thin: odd in-plane sides, one voxel along a random axis
            size = [float(2 * rng.integers(2, 6) + 1) for _ in range(3)]
            size[int(rng.integers(0, 3))] = 1.0
            prim = Primitive("plate", size=tuple(size), **common)
        particles.append(prim)
    dims = tuple(CELL * g for g in GRID)
    spec = SceneSpec(dims=dims, particles=tuple(particles),
                     phase_planes=PHASE_PLANES, seed=sub_seed(seed, 3))
    return spec, kinds


def expected_rat(labels: np.ndarray, pid: int, vfvm: float, planes) -> float:
    """The spec's composition quantized by the particle's slice voxels.

    Returns NaN for a particle that meets no plane.
    """
    on_plane = np.zeros(labels.shape, dtype=bool)
    for axis, index in planes:
        sel = [slice(None)] * 3
        sel[axis] = index
        on_plane[tuple(sel)] = True
    k = int(np.count_nonzero(on_plane & (labels == pid)))
    return math.nan if k == 0 else round(vfvm * k) / k


class ScanWorkload(Workload):
    name = "scan"

    def setup(self, work: Path):
        spec, kinds = scan_scene(self.seed)
        volume, labels, slices = synth.generate_scene(spec)
        write_volume(work / "volume.raw", volume)
        write_labels(work / "labels.raw", labels)
        phases = []
        for i, sl in enumerate(slices):
            phases.append(work / f"phase_{i}.json")
            write_phase_slice(phases[-1], sl)
        return {"work": work, "spec": spec, "kinds": kinds,
                "labels": labels.labels, "phases": phases}

    def run_pass(self, state, out: Path, parallelism=None) -> PassResult:
        work = state["work"]
        n = len(state["spec"].particles)
        res = PassResult()
        start = time.perf_counter()
        res.stage("descriptors", ["descriptors", "--volume", work / "volume.raw",
                                  "--labels", work / "labels.raw",
                                  "--phases", *state["phases"],
                                  "--include-unmatched", "--out", out / "scan.csv"], n)
        if not res.stage("weights", ["weights", "--labels", work / "labels.raw",
                                     "--slices", ",".join(map(str, WEIGHT_SLICES)),
                                     "--out", out / "weights.raw"], 0):
            res.failed = res.attempted
        res.wall_s = time.perf_counter() - start
        return res

    def check(self, state, out: Path, result: PassResult) -> CheckResult:
        chk = CheckResult()
        spec, kinds, labels = state["spec"], state["kinds"], state["labels"]
        n = len(spec.particles)
        chk.figures["scan_particles_per_s"] = n / result.wall_s
        if result.failed:
            return chk
        ds = Dataset.from_csv(out / "scan.csv")
        if len(ds) != n or not np.array_equal(ds.ids, np.arange(1, n + 1)):
            chk.fail(n, f"scan: {len(ds)} rows for {n} particles")
            return chk
        col = {c: i for i, c in enumerate(COLUMNS)}
        for pid, (prim, kind) in enumerate(zip(spec.particles, kinds), start=1):
            row = ds.matrix[pid - 1]
            want = expected_rat(labels, pid, prim.vfvm, spec.phase_planes)
            got = row[col["rat"]]
            if not (got == want or (math.isnan(got) and math.isnan(want))):
                chk.fail(1, f"scan: particle {pid} rat {got} != {want}")
                continue
            if kind in ("box_axis", "plate_thin"):
                coords = np.argwhere(labels == pid)
                axes = sorted((coords.max(axis=0) - coords.min(axis=0) + 1.0).tolist(),
                              reverse=True)
                want = np.array([axes[1] / axes[0], axes[2] / axes[1]])
                got = row[[col["elo"], col["flat"]]]
                if not np.allclose(got, want, rtol=EXACT_REL, atol=0.0):
                    chk.fail(1, f"scan: particle {pid} elo/flat "
                                f"{row[col['elo']]}/{row[col['flat']]} "
                                f"not exact for axes {axes}")
        sidecar = json.loads((out / "weights.raw.json").read_text())
        if not (math.isfinite(sidecar.get("c_f", math.nan)) and sidecar["c_f"] > 0):
            chk.fail(n, "scan: weight map c_f is not a positive number")
        return chk


# ---------------------------------------------------------------------------
# fit: cold-start modelling and sampling
# ---------------------------------------------------------------------------

SAMPLE_ROWS = 10_000


def training_rows(seed: int) -> Dataset:
    return permuted(synth.generate_composite_dataset(benchmark_truth(), *FULL_COUNTS,
                                               seed=FIT_ROWS_SEED), seed)


class FitWorkload(Workload):
    name = "fit"

    def setup(self, work: Path):
        training_rows(self.seed).to_csv(work / "train.csv")
        heldout = synth.generate_composite_dataset(benchmark_truth(), *HELDOUT_COUNTS,
                                             seed=sub_seed(self.seed, 4))
        return {"work": work, "heldout": heldout}

    def run_pass(self, state, out: Path, parallelism=None) -> PassResult:
        data = state["work"] / "train.csv"
        res = PassResult()
        start = time.perf_counter()
        rvine_ok = res.stage("fit_rvine", ["fit", "--data", data, "--engine", "rvine",
                                           "--out", out / "rvine.json"], 1)
        res.stage("fit_archimedean", ["fit", "--data", data, "--engine", "archimedean",
                                      "--out", out / "archimedean.json"], 1)
        if rvine_ok:
            res.stage("sample", ["sample", "--model", out / "rvine.json",
                                 "--n", SAMPLE_ROWS, "--seed", sub_seed(self.seed, 5),
                                 "--out", out / "sample.csv"], 1)
        else:
            res.attempted += 1
            res.failed += 1
            res.errors.append("sample: skipped, the rvine fit failed")
        res.wall_s = time.perf_counter() - start
        return res

    def check(self, state, out: Path, result: PassResult) -> CheckResult:
        chk = CheckResult()
        st = result.stage_s
        chk.figures["fit_s"] = st.get("fit_rvine", 0.0) + st.get("fit_archimedean", 0.0)
        if "sample" in st:
            chk.figures["sample_rows_per_s"] = SAMPLE_ROWS / st["sample"]
        if result.failed:
            return chk
        rvine = load_model(out / "rvine.json")
        archimedean = load_model(out / "archimedean.json")
        if (rvine.engine, archimedean.engine) != ("rvine", "archimedean"):
            chk.fail(2, "fit: model documents carry the wrong engines")
        ll = float(np.mean(composite_log_density(rvine, state["heldout"].matrix)))
        chk.figures["heldout_loglik"] = ll
        if not math.isfinite(ll):
            chk.fail(1, f"fit: held-out log-likelihood {ll} is not finite")
        sample = Dataset.from_csv(out / "sample.csv")
        rat = sample.column("rat")
        if (len(sample) != SAMPLE_ROWS or not np.all(np.isfinite(sample.matrix))
                or rat.min() < 0.0 or rat.max() > 1.0):
            chk.fail(1, f"fit: sample of {len(sample)} rows is not {SAMPLE_ROWS} "
                        "finite rows with rat in [0, 1]")
        return chk


# ---------------------------------------------------------------------------
# predict: the read path
# ---------------------------------------------------------------------------

def grid_median(model, ct: np.ndarray) -> float:
    """The acceptance-09 oracle: median on a 10^4-interval trapezoid grid."""
    s = np.linspace(model.epsilon, 1.0 - model.epsilon, 10_001)
    pts = np.column_stack([np.tile(ct, (s.size, 1)), s])
    dens = np.exp(model.f_c.log_density(pts))
    cdf = np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(s))
    cdf /= cdf[-1]
    return float(s[1 + int(np.searchsorted(cdf, 0.5))])


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    ids, values, labels = [], [], []
    for line in path.read_text().splitlines()[1:]:
        pid, value, label = line.split(",")
        ids.append(int(pid))
        values.append(float(value) if value else math.nan)
        labels.append(label)
    return np.array(ids), np.array(values), labels


class PredictWorkload(Workload):
    name = "predict"

    def setup(self, work: Path):
        training_rows(self.seed).to_csv(work / "train.csv")
        code = run_cli(["fit", "--data", work / "train.csv", "--engine", "rvine",
                           "--out", work / "model.json"])
        if code != 0:
            raise RuntimeError(f"predict set-up: fit exited with {code}")
        heldout = permuted(synth.generate_composite_dataset(
            benchmark_truth(), *HELDOUT_COUNTS, seed=HELDOUT_ROWS_SEED), self.seed)
        without_rat(heldout).to_csv(work / "heldout.csv")
        return {"work": work, "heldout": heldout}

    def run_pass(self, state, out: Path, parallelism=None) -> PassResult:
        work = state["work"]
        res = PassResult()
        start = time.perf_counter()
        res.stage("predict", ["predict", "--model", work / "model.json",
                              "--data", work / "heldout.csv",
                              "--out", out / "pred.csv"], len(state["heldout"]))
        res.wall_s = time.perf_counter() - start
        return res

    def check(self, state, out: Path, result: PassResult) -> CheckResult:
        chk = CheckResult()
        heldout = state["heldout"]
        n = len(heldout)
        chk.figures["predict_rows_per_s"] = n / result.wall_s
        if result.failed:
            return chk
        ids, values, labels = read_predictions(out / "pred.csv")
        if not np.array_equal(ids, heldout.ids):
            chk.fail(n, "predict: prediction ids do not match the held-out rows")
            return chk
        bad = int(np.count_nonzero(np.isnan(values)))
        if bad:
            chk.fail(bad, f"predict: {bad} rows out of support or missing")
        ok = ~np.isnan(values)
        mae = float(np.mean(np.abs(values[ok] - heldout.column("rat")[ok])))
        chk.figures["predict_mae"] = mae
        if not mae <= MAE_BOUND:
            chk.fail(n, f"predict: MAE {mae} above {MAE_BOUND}")
        model = load_model(state["work"] / "model.json")
        composite = [i for i, lab in enumerate(labels) if lab == "composite"]
        worst = 0.0
        for i in composite[:ORACLE_ROWS]:
            worst = max(worst, abs(float(values[i]) - grid_median(model, heldout.matrix[i, :6])))
        chk.figures["median_oracle_dev"] = worst
        if not composite or not worst <= MEDIAN_ORACLE_BOUND:
            chk.fail(len(composite) or n, f"predict: median oracle deviation {worst} "
                                          f"on {len(composite[:ORACLE_ROWS])} rows "
                                          f"(bound {MEDIAN_ORACLE_BOUND})")
        return chk


# ---------------------------------------------------------------------------
# loo: fast leave-one-out
# ---------------------------------------------------------------------------

class LooWorkload(Workload):
    name = "loo"

    def setup(self, work: Path):
        rows = permuted(synth.generate_composite_dataset(benchmark_truth(), *LOO_COUNTS,
                                                   seed=LOO_ROWS_SEED), self.seed)
        rows.to_csv(work / "loo.csv")
        code = run_cli(["fit", "--data", work / "loo.csv", "--engine", "rvine",
                           "--out", work / "model.json"])
        if code != 0:
            raise RuntimeError(f"loo set-up: fit exited with {code}")
        return {"work": work, "rows": len(rows)}

    def run_pass(self, state, out: Path, parallelism=None) -> PassResult:
        work = state["work"]
        res = PassResult()
        start = time.perf_counter()
        res.stage("evaluate", ["evaluate", "--model", work / "model.json",
                               "--data", work / "loo.csv",
                               "--out-prefix", out / "eval", "--fast-loo",
                               "--parallelism", parallelism or self.nproc],
                  state["rows"])
        res.wall_s = time.perf_counter() - start
        return res

    def check(self, state, out: Path, result: PassResult) -> CheckResult:
        chk = CheckResult()
        n = state["rows"]
        chk.figures["loo_folds_per_s"] = n / result.wall_s
        if result.failed:
            return chk
        doc = json.loads((out / "eval.json").read_text())
        reports = {r["subset"]: r for r in doc["scores"]}
        overall, composite = reports["all"], reports["composite_only"]
        if overall["excluded_folds"]:
            chk.fail(overall["excluded_folds"],
                     f"loo: {overall['excluded_folds']} folds excluded")
        chk.figures["loo_mae"] = overall["mae"]
        if not (overall["mae"] <= MAE_BOUND and composite["mae"] <= MAE_C_BOUND):
            chk.fail(n, f"loo: MAE {overall['mae']} / MAE_c {composite['mae']} "
                        f"above {MAE_BOUND} / {MAE_C_BOUND}")
        return chk


WORKLOADS = {w.name: w for w in (ScanWorkload, FitWorkload, PredictWorkload,
                                 LooWorkload)}
