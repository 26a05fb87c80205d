"""Per-particle descriptors and the descriptor dataset.

Seven descriptors per particle: grayscale median and inter-quartile range
(texture), voxel count (size), elongation a2/a1 and flatness a3/a2 of the
minimum-volume oriented bounding box plus sphericity (shape), and the
slice-based valuable-mineral area fraction (composition, when available).

Box axes use the voxel-center extents inflated by one voxel per axis, so a
single voxel yields a 1 x 1 x 1 box and an axis-aligned block its exact
shape.  Percentiles follow the linear-interpolation convention.

The box search is exact for degenerate (rank <= 2) voxel sets via rotating
calipers and otherwise scans a coarse Euler-angle grid over the convex-hull
vertices with deterministic local refinement.  The grid's rotations are
built once per process and scored in batches of bounded size.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import optimize
from scipy.spatial import ConvexHull, QhullError

from .errors import ArgumentError, ParseError, StructuralError
from .voxel import LabelVolume, VoxelVolume, register_phase_slices

CSV_HEADER = ["id", "med", "iqr", "vol", "elo", "flat", "sphe", "rat"]
COLUMNS = ("med", "iqr", "vol", "elo", "flat", "sphe", "rat")
CSV_CHUNK_ROWS = 512       # rows formatted per write of `Dataset.to_csv`
BBOX_COARSE_STEP_DEG = 6.0
# Cap on the elements of one coarse-scan projection batch (512 KiB of
# float64; larger batches ran no faster and raised peak memory); a batch
# holds at least one rotation whatever the number of points.
_BBOX_BATCH_ELEMENTS = 2 ** 16

# 13 direction families for the Crofton-style surface estimate
_DIRECTIONS = [
    ((1, 0, 0), 1.0), ((0, 1, 0), 1.0), ((0, 0, 1), 1.0),
    ((1, 1, 0), math.sqrt(2)), ((1, -1, 0), math.sqrt(2)),
    ((1, 0, 1), math.sqrt(2)), ((1, 0, -1), math.sqrt(2)),
    ((0, 1, 1), math.sqrt(2)), ((0, 1, -1), math.sqrt(2)),
    ((1, 1, 1), math.sqrt(3)), ((1, 1, -1), math.sqrt(3)),
    ((1, -1, 1), math.sqrt(3)), ((1, -1, -1), math.sqrt(3)),
]


@dataclass(frozen=True)
class BoundingBox:
    """Minimum-volume oriented box; axes sorted a1 >= a2 >= a3."""

    a1: float
    a2: float
    a3: float
    rotation: np.ndarray  # rows are the box axes in the voxel frame

    def __post_init__(self):
        if not (self.a1 >= self.a2 >= self.a3 > 0):
            raise ArgumentError("box axes must satisfy a1 >= a2 >= a3 > 0")

    @property
    def axes(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    @property
    def volume(self) -> float:
        return self.a1 * self.a2 * self.a3


@dataclass(frozen=True)
class DescriptorVector:
    """One particle's descriptor row; rat is None when no phase data exists."""

    med: float
    iqr: float
    vol: float
    area: float
    elo: float
    flat: float
    sphe: float
    rat: float | None = None

    def values(self, with_rat: bool = True) -> np.ndarray:
        base = [self.med, self.iqr, self.vol, self.elo, self.flat, self.sphe]
        if with_rat:
            base.append(np.nan if self.rat is None else self.rat)
        return np.array(base, dtype=float)


@dataclass(frozen=True)
class Dataset:
    """Rows of descriptor vectors; matrix columns follow `columns`, and
    `ids` are the rows' particle ids."""

    ids: np.ndarray
    matrix: np.ndarray
    columns: tuple[str, ...] = COLUMNS

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.columns):
            raise ArgumentError("dataset matrix does not match its columns")
        if self.ids.shape != (self.matrix.shape[0],):
            raise ArgumentError("dataset ids must align with rows")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def has_rat(self) -> bool:
        return "rat" in self.columns

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.columns.index(name)]

    def without_rat(self) -> "Dataset":
        if not self.has_rat:
            return self
        keep = [i for i, c in enumerate(self.columns) if c != "rat"]
        return Dataset(self.ids, self.matrix[:, keep],
                       tuple(c for c in self.columns if c != "rat"))

    def subset(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.ids[mask], self.matrix[mask], self.columns)

    def to_csv(self, path) -> None:
        """Write the CSV_HEADER columns, "\r\n"-terminated: the integer id,
        each value as the `repr` of its float, and an empty `rat` cell where
        the dataset has no `rat` column or the value is NaN.  These are the
        bytes `csv.writer` would write: no cell holds a comma, quote or line
        break, so none is quoted.  Rows are formatted CSV_CHUNK_ROWS at a
        time, so the text is never all in memory."""
        matrix = np.asarray(self.matrix, dtype=float)
        ct = matrix[:, [self.columns.index(c) for c in CSV_HEADER[1:-1]]]
        rat = (matrix[:, self.columns.index("rat")] if self.has_rat
               else np.full(len(self), np.nan))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            for start in range(0, len(self), CSV_CHUNK_ROWS):
                part = slice(start, start + CSV_CHUNK_ROWS)
                fh.write("".join(
                    f"{i},{','.join(map(repr, row))},{'' if math.isnan(r) else repr(r)}\r\n"
                    for i, row, r in zip(self.ids[part].tolist(), ct[part].tolist(),
                                         rat[part].tolist())))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        path = Path(path)
        ids, rows = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            if header != CSV_HEADER:
                raise ParseError(
                    f"{path}: line 1: expected header {','.join(CSV_HEADER)}")
            for ln, row in enumerate(reader, start=2):
                if len(row) != len(CSV_HEADER):
                    raise ParseError(f"{path}: line {ln}: expected "
                                     f"{len(CSV_HEADER)} fields, got {len(row)}")
                try:
                    ids.append(int(row[0]))
                    vals = [float(v) for v in row[1:7]]
                    vals.append(float(row[7]) if row[7] != "" else np.nan)
                except ValueError as exc:
                    raise ParseError(f"{path}: line {ln}: non-numeric cell "
                                     f"({exc})") from None
                rows.append(vals)
        matrix = np.array(rows, dtype=float).reshape(len(rows), 7)
        return cls(np.array(ids, dtype=np.int64), matrix, COLUMNS)


# ---------------------------------------------------------------------------
# minimum-volume oriented bounding box
# ---------------------------------------------------------------------------

def _rotation_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz1 = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz2 = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    return rz1 @ ry @ rz2


def _rz_stack(t: np.ndarray) -> np.ndarray:
    c, s, z, o = np.cos(t), np.sin(t), np.zeros_like(t), np.ones_like(t)
    return np.array([[c, -s, z], [s, c, z], [z, z, o]]).transpose(2, 0, 1)


def _ry_stack(t: np.ndarray) -> np.ndarray:
    c, s, z, o = np.cos(t), np.sin(t), np.zeros_like(t), np.ones_like(t)
    return np.array([[c, z, s], [z, o, z], [-s, z, c]]).transpose(2, 0, 1)


@functools.cache
def _euler_grid():
    """The coarse search's rotations and the angle axes they are built from.

    Rotations are stacked in (alpha, beta, gamma) order, shape (n, 3, 3),
    each bit-equal to `_rotation_zyz` of its angles; built once per process
    and read-only, since every caller shares them.
    """
    step = np.deg2rad(BBOX_COARSE_STEP_DEG)
    alphas = np.arange(0.0, np.pi, step)
    betas = np.arange(0.0, np.pi / 2 + 1e-9, step)
    gammas = np.arange(0.0, np.pi, step)
    rots = (_rz_stack(alphas)[:, None, None] @ _ry_stack(betas)[None, :, None]
            @ _rz_stack(gammas)[None, None, :]).reshape(-1, 3, 3)
    for shared in (rots, alphas, betas, gammas):
        shared.flags.writeable = False
    return rots, (alphas, betas, gammas)


def _coarse_scan(hull_pts: np.ndarray):
    """Grid volume minimum: (volume, start angles), first minimum in grid order.

    Projects the hull on a batch of grid rotation rows at a time, the batch
    sized to `_BBOX_BATCH_ELEMENTS`; the `kin` einsum layout keeps each
    projected coordinate bit-equal to a per-rotation projection.  Row 2 of
    Rz(alpha) Ry(beta) Rz(gamma) does not depend on alpha (in the grid it is
    bit-equal across the alphas), so the z-extent is projected once per
    (beta, gamma) pair and multiplied in last, as `prod` over the three
    extents would.
    """
    rots, angle_axes = _euler_grid()
    per_batch = max(1, _BBOX_BATCH_ELEMENTS // (2 * hull_pts.shape[0]))

    def extents(rows):
        out = np.empty(rows.shape[:2])
        for start in range(0, rows.shape[0], per_batch):
            proj = np.einsum("kij,nj->kin", rows[start:start + per_batch], hull_pts)
            out[start:start + per_batch] = proj.max(axis=2) - proj.min(axis=2) + 1.0
        return out

    n_alpha = len(angle_axes[0])
    ext_z = extents(rots[:rots.shape[0] // n_alpha, 2:])[:, 0]
    ext_xy = extents(rots[:, :2])
    vols = ext_xy[:, 0] * ext_xy[:, 1] * np.tile(ext_z, n_alpha)
    k = int(np.argmin(vols))
    idx = np.unravel_index(k, tuple(len(a) for a in angle_axes))
    return vols[k], np.array([a[i] for a, i in zip(angle_axes, idx)])


def _extents(points: np.ndarray, rot: np.ndarray) -> np.ndarray:
    proj = points @ rot.T
    return proj.max(axis=0) - proj.min(axis=0)


def _min_rect_2d(pts: np.ndarray):
    """Exact minimum-area rectangle of 2-D points (rotating calipers)."""
    if pts.shape[0] >= 3:
        try:
            hull = pts[ConvexHull(pts).vertices]
        except QhullError:
            hull = pts
    else:
        hull = pts
    best = None
    n = hull.shape[0]
    for i in range(n):
        edge = hull[(i + 1) % n] - hull[i]
        norm = np.hypot(*edge)
        if norm < 1e-12:
            continue
        d = edge / norm
        normal = np.array([-d[1], d[0]])
        w = hull @ d
        h = hull @ normal
        area = (w.max() - w.min() + 1.0) * (h.max() - h.min() + 1.0)
        if best is None or area < best[0]:
            best = (area, w.max() - w.min(), h.max() - h.min(), d, normal)
    if best is None:  # collinear points
        centered = hull - hull.mean(axis=0)
        direction = centered[np.argmax(np.abs(centered).sum(axis=1))]
        norm = np.hypot(*direction)
        d = direction / norm if norm > 0 else np.array([1.0, 0.0])
        w = hull @ d
        return (w.max() - w.min(), 0.0, d, np.array([-d[1], d[0]]))
    return best[1], best[2], best[3], best[4]


def min_volume_bbox(particle: np.ndarray, spacing: float = 1.0) -> BoundingBox:
    """Minimum-volume oriented box of a voxel set.

    Extents are measured on voxel centers and inflated by one voxel edge
    per axis.  Rank-deficient sets (planar/collinear/single voxel) are
    solved exactly; full-rank sets scan a 6-degree Euler grid on the
    convex hull followed by Nelder-Mead refinement.
    """
    pts = np.asarray(particle, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise StructuralError("cannot compute a bounding box of an empty voxel set")

    center = pts.mean(axis=0)
    centered = pts - center
    # rank via singular values (tolerance in voxel units)
    svals = np.linalg.svd(centered, compute_uv=False) if pts.shape[0] > 1 else np.zeros(3)
    rank = int(np.sum(svals > 1e-9))

    if rank == 0:
        axes = np.array([1.0, 1.0, 1.0])
        rot = np.eye(3)
    elif rank == 1:
        _, _, vt = np.linalg.svd(centered)
        proj = centered @ vt[0]
        axes = np.array([proj.max() - proj.min() + 1.0, 1.0, 1.0])
        rot = vt
    elif rank == 2:
        _, _, vt = np.linalg.svd(centered)
        plane = centered @ vt[:2].T
        w, h, d2, n2 = _min_rect_2d(plane)
        axes = np.array([w + 1.0, h + 1.0, 1.0])
        rot = np.vstack([d2 @ vt[:2], n2 @ vt[:2], vt[2]])
    else:
        try:
            hull_pts = centered[ConvexHull(centered).vertices]
        except QhullError:
            hull_pts = centered

        best_vol, start = _coarse_scan(hull_pts)

        def objective(angles):
            ext = _extents(hull_pts, _rotation_zyz(*angles)) + 1.0
            return float(ext.prod())

        res = optimize.minimize(objective, start, method="Nelder-Mead",
                                options={"xatol": 1e-6, "fatol": 1e-10,
                                         "maxiter": 400})
        angles = res.x if res.fun <= best_vol else start
        rot = _rotation_zyz(*angles)
        proj = hull_pts @ rot.T
        axes = proj.max(axis=0) - proj.min(axis=0) + 1.0

    order = np.argsort(-axes)
    axes = axes[order] * spacing
    rot = np.asarray(rot)[order]
    return BoundingBox(float(axes[0]), float(axes[1]), float(axes[2]), rot)


# ---------------------------------------------------------------------------
# surface area
# ---------------------------------------------------------------------------

def _particle_mask(particle: np.ndarray):
    pts = np.asarray(particle, dtype=np.int64).reshape(-1, 3)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    shape = hi - lo + 3  # one-voxel pad on both sides
    mask = np.zeros(shape, dtype=bool)
    idx = pts - lo + 1
    mask[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return mask


def surface_area(particle: np.ndarray, spacing: float = 1.0) -> float:
    """Surface-area estimate of a voxel set: boundary transitions along 13
    lattice direction families (axes, face diagonals, body diagonals)
    integrated with Crofton line weights."""
    pts = np.asarray(particle, dtype=np.int64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise StructuralError("cannot compute surface area of an empty voxel set")
    mask = _particle_mask(pts)

    total = 0.0
    for (dx, dy, dz), delta in _DIRECTIONS:
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        for axis, d in enumerate((dx, dy, dz)):
            if d == 1:
                sl_a[axis] = slice(0, -1)
                sl_b[axis] = slice(1, None)
            elif d == -1:
                sl_a[axis] = slice(1, None)
                sl_b[axis] = slice(0, -1)
        transitions = int(np.count_nonzero(mask[tuple(sl_a)] != mask[tuple(sl_b)]))
        total += transitions / delta
    return 2.0 / 13.0 * total * spacing * spacing


# ---------------------------------------------------------------------------
# descriptor assembly
# ---------------------------------------------------------------------------

def compute_descriptors(particle: np.ndarray, volume: VoxelVolume) -> DescriptorVector:
    """Size, shape and texture descriptors of one particle (rat left absent)."""
    pts = np.asarray(particle, dtype=np.int64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise StructuralError("empty particle")
    dims = np.asarray(volume.dims)
    if pts.min() < 0 or np.any(pts.max(axis=0) >= dims):
        raise StructuralError("particle voxels outside the volume")

    box = min_volume_bbox(pts, spacing=1.0)  # ratios are unit-free
    if box.a2 <= 0 or box.a1 <= 0:
        raise StructuralError("degenerate bounding box")
    vol_voxels = float(pts.shape[0])
    area = surface_area(pts, spacing=volume.spacing)
    vol_phys = vol_voxels * volume.spacing ** 3
    sphericity = (36.0 * math.pi * vol_phys ** 2) ** (1.0 / 3.0) / area

    grays = volume.values[pts[:, 0], pts[:, 1], pts[:, 2]]
    q1, med, q3 = np.percentile(grays, [25.0, 50.0, 75.0])  # linear interpolation
    return DescriptorVector(
        med=float(med), iqr=float(q3 - q1), vol=vol_voxels, area=float(area),
        elo=float(box.a2 / box.a1), flat=float(box.a3 / box.a2),
        sphe=float(sphericity), rat=None)


def build_dataset(labels: LabelVolume, volume: VoxelVolume, slices,
                  include_unmatched: bool = False) -> Dataset:
    """One descriptor row per particle, ordered by particle id.

    By default only particles whose slice intersection carries a defined
    mineral ratio are kept (rows carry rat); include_unmatched=True keeps
    every particle with rat absent where undefined, for prediction-only
    datasets.
    """
    if labels.dims != volume.dims:
        raise StructuralError("labels and volume dims differ")
    registration = register_phase_slices(labels, slices)

    ids, rows = [], []
    flat = labels.labels.ravel()
    order = np.argsort(flat, kind="stable")
    sorted_labels = flat[order]
    boundaries = np.searchsorted(sorted_labels, np.arange(1, labels.n_particles + 2))
    all_coords = np.column_stack(np.unravel_index(order, labels.dims))
    for pid in range(1, labels.n_particles + 1):
        coords = all_coords[boundaries[pid - 1]:boundaries[pid]]
        if coords.shape[0] == 0:
            continue
        rat = registration.mineral_ratio(pid)
        if rat is None and not include_unmatched:
            continue
        desc = replace(compute_descriptors(coords, volume), rat=rat)
        ids.append(pid)
        rows.append(desc.values(with_rat=True))
    if not rows:
        return Dataset(np.zeros(0, dtype=np.int64), np.zeros((0, 7)), COLUMNS)
    return Dataset(np.array(ids, dtype=np.int64), np.vstack(rows), COLUMNS)
