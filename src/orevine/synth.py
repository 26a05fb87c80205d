"""Synthetic ground truth: voxel scenes and descriptor datasets.

Scenes render non-overlapping primitives (balls, boxes, plates) into a
grayscale volume with additive Gaussian noise, an exact label volume, and
phase slices whose per-particle valuable fraction matches the requested
composition: the particle's slice voxels are swept by a planar cut (sorted
by x, then y, z) and the leading fraction is marked valuable.

Composite datasets are drawn from a known CompositeModel with exact class
counts; pure rows carry composition 1 or 0, composite rows sample the
seven-variate density.  The deterministic benchmark model mirrors the
moderately separated three-class setting used by the acceptance suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .copulas import PairCopula
from .descriptors import COLUMNS, Dataset
from .errors import ArgumentError, file_faults, json_value
from .marginals import BetaParams, GammaParams, MixtureModel
from .model import CompositeModel
from .vine import RVineModel, dvine_structure
from .voxel import LabelVolume, PhaseSlice, VoxelVolume


@dataclass(frozen=True)
class Primitive:
    """One particle primitive: ball, box or plate (a thin box)."""

    shape: str
    center: tuple[float, float, float]
    radius: float = 0.0
    size: tuple[float, float, float] = (0.0, 0.0, 0.0)
    angles: tuple[float, float, float] = (0.0, 0.0, 0.0)  # z-y-z Euler, degrees
    gray_mean: float = 1.0
    gray_sigma: float = 0.05
    vfvm: float = 0.5

    def __post_init__(self):
        if self.shape not in ("ball", "box", "plate"):
            raise ArgumentError(f"unknown primitive shape {self.shape!r}")
        for name, value in (("center", self.center), ("angles", self.angles)):
            if not all(map(_finite, value)):
                raise ArgumentError(f"{name} must be finite, got {list(value)}")
        if not (_finite(self.radius) and self.radius >= 0):
            raise ArgumentError(f"radius must be finite and >= 0, got {self.radius}")
        if not all(_finite(x) and x >= 0 for x in self.size):
            raise ArgumentError(f"size must be finite and >= 0, got {list(self.size)}")
        if not 0.0 <= self.vfvm <= 1.0:
            raise ArgumentError("vfvm must lie in [0, 1]")
        if self.gray_sigma < 0.0:
            raise ArgumentError("gray_sigma must be >= 0")


@dataclass(frozen=True)
class SceneSpec:
    dims: tuple[int, int, int]
    particles: tuple[Primitive, ...] = ()
    phase_planes: tuple[tuple[int, int], ...] = ()   # (axis, index)
    spacing: float = 1.0
    background_mean: float = 0.2
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ArgumentError("scene dims must be positive")
        # the float64 value grid is the largest array a scene builds
        if math.prod(self.dims) * 8 > np.iinfo(np.intp).max:
            raise ArgumentError(f"scene dims {list(self.dims)} hold more voxels "
                                f"than an array can index")
        if self.noise_sigma < 0.0:
            raise ArgumentError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ArgumentError("seed must be >= 0")

    def to_json(self) -> str:
        doc = {
            "dims": list(self.dims), "spacing": self.spacing,
            "background_mean": self.background_mean,
            "noise_sigma": self.noise_sigma, "seed": self.seed,
            "phase_planes": [list(p) for p in self.phase_planes],
            "particles": [
                {"shape": p.shape, "center": list(p.center), "radius": p.radius,
                 "size": list(p.size), "angles": list(p.angles),
                 "gray_mean": p.gray_mean, "gray_sigma": p.gray_sigma,
                 "vfvm": p.vfvm}
                for p in self.particles],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        """Parse a spec; a fault in its JSON, keys, field types or field
        values is a ParseError (the input rule of `errors`)."""
        with file_faults("malformed scene spec"):
            doc = json_value(json.loads(text), "the root", dict)
            particles = tuple(
                Primitive(shape=p["shape"], center=json_value(p["center"], "center", count=3),
                          radius=json_value(p.get("radius", 0.0), "radius"),
                          size=json_value(p.get("size", [0, 0, 0]), "size", count=3),
                          angles=json_value(p.get("angles", [0, 0, 0]), "angles", count=3),
                          gray_mean=json_value(p.get("gray_mean", 1.0), "gray_mean"),
                          gray_sigma=json_value(p.get("gray_sigma", 0.05), "gray_sigma"),
                          vfvm=json_value(p.get("vfvm", 0.5), "vfvm"))
                for p in doc.get("particles", []))
            return cls(dims=json_value(doc["dims"], "dims", int, 3),
                       particles=particles,
                       phase_planes=tuple(json_value(p, "phase plane (axis, index)", int, 2)
                                          for p in doc.get("phase_planes", [])),
                       spacing=json_value(doc.get("spacing", 1.0), "spacing"),
                       background_mean=json_value(doc.get("background_mean", 0.2),
                                                  "background_mean"),
                       noise_sigma=json_value(doc.get("noise_sigma", 0.05), "noise_sigma"),
                       seed=json_value(doc.get("seed", 0), "seed", int))


def _finite(x) -> bool:
    """Whether the number x is finite as a float; an int too large for one is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _rotation_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rz(alpha) Ry(beta) Rz(gamma), the z-y-z Euler rotation of a primitive."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz1 = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz2 = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    return rz1 @ ry @ rz2


def _primitive_cube(prim: Primitive, dims):
    """The primitive's bounding cube in the volume and its inside-test there.

    The cube spans the centre +- the radius of a ball, or +- |size / 2|_2 of
    a box or plate, widened to whole voxels and clipped to the volume; no
    voxel outside it can pass the test.  Returns (cube, mask): `cube` a tuple
    of slices into the volume, `mask` the test on the cube's voxels.  All of
    it is float64, so a huge radius or size saturates to inf and never
    raises.
    """
    center = np.asarray(prim.center, dtype=np.float64)
    radius = np.float64(prim.radius)
    half = np.asarray(prim.size, dtype=np.float64) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        reach = radius if prim.shape == "ball" else np.sqrt(half @ half)
        lo = np.clip(np.floor(center - reach), 0, dims)
        hi = np.clip(np.ceil(center + reach) + 1, 0, dims)
        cube = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
        dx, dy, dz = np.meshgrid(*(np.arange(s.start, s.stop) - c
                                   for s, c in zip(cube, center)),
                                 indexing="ij", sparse=True)
        if prim.shape == "ball":
            return cube, dx ** 2 + dy ** 2 + dz ** 2 <= radius ** 2
        # box / plate: rotated half-extent test
        shape = tuple(s.stop - s.start for s in cube)
        rot = _rotation_zyz(*np.deg2rad(prim.angles))
        local = np.column_stack([np.broadcast_to(d, shape).ravel()
                                 for d in (dx, dy, dz)]) @ rot.T
        return cube, np.all(np.abs(local) <= half, axis=1).reshape(shape)


def generate_scene(spec: SceneSpec):
    """Render the scene: (grayscale volume, ground-truth labels, phase slices).

    One slice per distinct phase plane, in spec order.  A voxel on several
    planes is phased on the first and left 0 on the others, which is what
    registration's first-slice rule reads back.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.zeros(spec.dims, dtype=np.uint32)
    cubes = []
    for pid, prim in enumerate(spec.particles, start=1):
        cube, mask = _primitive_cube(prim, spec.dims)
        if not mask.any():
            raise ArgumentError(f"particle {pid} rasterizes to no voxels")
        view = labels[cube]
        if (view[mask] != 0).any():
            raise ArgumentError(f"particle {pid} overlaps an earlier particle")
        view[mask] = pid
        cubes.append((cube, mask))

    # a cube's C order is the volume's restricted to it, so each particle's
    # draws land on its voxels in volume order
    values = rng.normal(spec.background_mean, spec.noise_sigma, spec.dims)
    for prim, (cube, mask) in zip(spec.particles, cubes):
        values[cube][mask] = rng.normal(prim.gray_mean, prim.gray_sigma,
                                        int(mask.sum()))

    label_volume = LabelVolume(labels, spec.spacing)
    volume = VoxelVolume(values, spec.spacing)

    # phase assignment: a planar cut along x through each particle's plane
    # voxels; a voxel on several planes is phased on the first of them only
    planes = {}
    unclaimed = np.zeros(spec.dims, dtype=bool)
    for axis, index in spec.phase_planes:
        if not (0 <= axis <= 2) or not (0 <= index < spec.dims[axis]):
            raise ArgumentError(f"phase plane ({axis}, {index}) outside volume")
        planes[(axis, index)] = sel = (slice(None),) * axis + (index,)
        unclaimed[sel] = True
    on_plane = np.flatnonzero(unclaimed & (labels > 0))      # x, y, z order
    pids = labels.flat[on_plane]
    phases = np.zeros(spec.dims, dtype=np.int64)
    for pid, prim in enumerate(spec.particles, start=1):
        cut = on_plane[pids == pid]
        phases.flat[cut] = 2
        phases.flat[cut[:round(prim.vfvm * cut.size)]] = 1
    slices = []
    for (axis, index), sel in planes.items():
        slices.append(PhaseSlice.from_plane(axis, index, phases[sel] * unclaimed[sel]))
        unclaimed[sel] = False
    return volume, label_volume, slices


# ---------------------------------------------------------------------------
# composite-model dataset generation
# ---------------------------------------------------------------------------

def generate_composite_dataset(truth: CompositeModel, n_v: int, n_nv: int,
                               n_c: int, seed: int) -> Dataset:
    """Sample a descriptor dataset with exact class counts.

    Pure rows carry composition exactly 1 (valuable) or 0 (non-valuable);
    composite rows sample the seven-variate class density.  Rows are
    shuffled deterministically and ids run 1..n.
    """
    if min(n_v, n_nv, n_c) < 0:
        raise ArgumentError("class counts must be non-negative")
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2 ** 63 - 1, size=3)
    blocks = []
    if n_v:
        rows = truth.f_v.sample(n_v, seed=seeds[0])
        blocks.append(np.column_stack([rows, np.ones(n_v)]))
    if n_nv:
        rows = truth.f_nv.sample(n_nv, seed=seeds[1])
        blocks.append(np.column_stack([rows, np.zeros(n_nv)]))
    if n_c:
        rows = truth.f_c.sample(n_c, seed=seeds[2])
        eps = truth.epsilon
        rows[:, -1] = np.clip(rows[:, -1], eps + 1e-9, 1.0 - eps - 1e-9)
        blocks.append(rows)
    if not blocks:
        return Dataset(np.zeros(0, dtype=np.int64), np.zeros((0, 7)), COLUMNS)
    matrix = np.vstack(blocks)
    perm = rng.permutation(matrix.shape[0])
    matrix = matrix[perm]
    ids = np.arange(1, matrix.shape[0] + 1, dtype=np.int64)
    return Dataset(ids, matrix, COLUMNS)


# ---------------------------------------------------------------------------
# the pinned synthetic benchmark truth
# ---------------------------------------------------------------------------

def _gamma_mix(a1, b1, a2, b2, lam):
    return MixtureModel("gamma", GammaParams(a1, b1), GammaParams(a2, b2), lam)


def _beta_mix(p1, q1, p2, q2, lam, truncation=None):
    return MixtureModel("beta", BetaParams(p1, q1), BetaParams(p2, q2), lam,
                        truncation=truncation)


def benchmark_truth(epsilon: float = 0.01) -> CompositeModel:
    """Three moderately separated classes with heterogeneous dependence.

    The median-gray column separates the classes; the composite class
    couples median gray tightly to the composition fraction, which is what
    a structured (vine) fit can exploit and an exchangeable one cannot.
    """
    ind = PairCopula("independence")

    # 6-dim D-vine structures along the natural order
    s6 = dvine_structure(list(range(6)))
    marg_v = (
        _gamma_mix(60.0, 0.15, 80.0, 0.125, 0.5),     # med ~ 9.5
        _gamma_mix(4.0, 0.25, 6.0, 0.3, 0.5),         # iqr
        _gamma_mix(3.0, 120.0, 6.0, 90.0, 0.5),       # vol
        _beta_mix(6.0, 3.0, 4.0, 2.0, 0.5),           # elo
        _beta_mix(5.0, 4.0, 4.0, 3.0, 0.5),           # flat
        _beta_mix(8.0, 3.0, 9.0, 4.0, 0.5),           # sphe
    )
    cops_v = [PairCopula("frank", 0, 4.0), PairCopula("clayton", 0, 1.0), ind,
              PairCopula("gumbel", 0, 1.5), ind] + [ind] * 10
    f_v = RVineModel(s6, tuple(cops_v), marg_v)

    marg_nv = (
        _gamma_mix(25.0, 0.16, 35.0, 0.12, 0.5),      # med ~ 4.1
        _gamma_mix(3.0, 0.3, 5.0, 0.35, 0.5),
        _gamma_mix(2.5, 200.0, 5.0, 160.0, 0.5),
        _beta_mix(3.0, 5.0, 2.0, 4.0, 0.5),
        _beta_mix(4.0, 5.0, 3.0, 4.0, 0.5),
        _beta_mix(6.0, 4.0, 7.0, 5.0, 0.5),
    )
    cops_nv = [PairCopula("clayton", 0, 1.5), ind, PairCopula("frank", 0, -3.0),
               ind, PairCopula("frank", 0, 2.5)] + [ind] * 10
    f_nv = RVineModel(s6, tuple(cops_nv), marg_nv)

    # 7-dim: composition adjacent to median gray in the path
    s7 = dvine_structure([6, 0, 1, 2, 3, 4, 5])
    marg_c = (
        _gamma_mix(40.0, 0.15, 50.0, 0.14, 0.5),      # med ~ 6.5
        _gamma_mix(6.0, 0.3, 9.0, 0.25, 0.5),         # iqr larger for composites
        _gamma_mix(3.0, 140.0, 5.5, 120.0, 0.5),
        _beta_mix(4.0, 3.0, 3.0, 3.0, 0.5),
        _beta_mix(4.0, 4.0, 5.0, 5.0, 0.5),
        _beta_mix(7.0, 4.0, 8.0, 5.0, 0.5),
        _beta_mix(2.2, 2.0, 2.0, 2.2, 0.5, truncation=(epsilon, 1.0 - epsilon)),
    )
    cops_c = ([PairCopula("gumbel", 0, 2.5),          # (rat, med)
               PairCopula("frank", 0, 3.0),           # (med, iqr)
               PairCopula("clayton", 0, 0.8), ind, ind,
               PairCopula("frank", 0, 2.0)]
              + [ind] * 15)
    f_c = RVineModel(s7, tuple(cops_c), marg_c)

    return CompositeModel(f_v, f_nv, f_c, n_v=227, n_nv=489, n_c=625,
                          epsilon=epsilon)


def load_scene_spec(path) -> SceneSpec:
    with file_faults("malformed scene spec"):
        return SceneSpec.from_json(Path(path).read_text(encoding="utf-8"))
