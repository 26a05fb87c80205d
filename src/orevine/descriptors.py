"""Per-particle descriptors and the descriptor dataset.

Seven descriptors per particle: grayscale median and inter-quartile range
(texture), voxel count (size), elongation a2/a1 and flatness a3/a2 of the
minimum-volume oriented bounding box plus sphericity (shape), and the
slice-based valuable-mineral area fraction (composition, when available).

Box axes use the voxel-center extents inflated by one voxel per axis, so a
single voxel yields a 1 x 1 x 1 box and an axis-aligned block its exact
shape.  Percentiles follow the linear-interpolation convention.

The box search is exact for degenerate (rank <= 2) voxel sets via rotating
calipers.  A full-rank set scores every flush-face frame of its convex
hull exactly: one box axis along a voxel-grid axis or a hull face normal,
the other two by rotating calipers on the hull's shadow along it, measured
on that shadow's silhouette vertices.  The smallest box need not have a
face flush with the hull (O'Rourke 1985), so this is not always the
minimum; no local optimizer runs after it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .errors import ArgumentError, StructuralError, file_faults
from .voxel import LabelVolume, VoxelVolume, register_phase_slices

CSV_HEADER = ["id", "med", "iqr", "vol", "elo", "flat", "sphe", "rat"]
COLUMNS = ("med", "iqr", "vol", "elo", "flat", "sphe", "rat")
CSV_CHUNK_ROWS = 512       # rows formatted per write of `Dataset.to_csv`
# Cap on the elements of one batch of the box search's silhouette masks and
# projections (512 KiB of float64; larger batches ran no faster and raised
# peak memory); a batch holds at least one hull normal whatever its size.
_BBOX_BATCH_ELEMENTS = 2 ** 16
# A hull face within this cosine of edge-on to a normal counts on both sides
# of it, so its edges join the silhouette; extra edges only add candidates.
_SILHOUETTE_TOL = 1e-9
_NORMAL_DECIMALS = 12      # normals equal to this many decimals, up to sign, are one

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
        """Read a CSV written by `to_csv`; a fault of the file is a
        ParseError naming it and the line."""
        ids, rows = [], []
        # a byte that is not UTF-8 reads as a lone surrogate, which no
        # header or number holds, so it fails on its own line
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            with file_faults(path, lambda: f"line {max(reader.line_num, 1)}"):
                if next(reader, None) != CSV_HEADER:
                    raise ValueError(f"expected header {','.join(CSV_HEADER)}")
                for row in reader:
                    if len(row) != len(CSV_HEADER):
                        raise ValueError(f"expected {len(CSV_HEADER)} fields, "
                                         f"got {len(row)}")
                    ids.append(np.int64(row[0]))
                    rows.append([float(v) for v in row[1:7]]
                                + [float(row[7]) if row[7] != "" else np.nan])
        matrix = np.array(rows, dtype=float).reshape(len(rows), 7)
        return cls(np.array(ids, dtype=np.int64), matrix, COLUMNS)


# ---------------------------------------------------------------------------
# minimum-volume oriented bounding box
# ---------------------------------------------------------------------------

def _extents_along(axes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Extent (max - min) of the points `pts` (..., L, D) along each row of
    `axes` (..., A, D), shape (..., A): the one projection that both
    calipers searches score their frames with."""
    proj = axes @ np.swapaxes(pts, -1, -2)
    return proj.max(axis=-1) - proj.min(axis=-1)


def _min_rect_2d(pts: np.ndarray):
    """Exact minimum-area rectangle of 2-D points (rotating calipers).

    The smallest rectangle has a side flush with an edge of the points'
    convex hull (Freeman & Shapira 1975), so each hull edge direction d and
    its left normal are scored; the first smallest wins.  Returns the
    extents along d and the normal, d and the normal.
    """
    hull = pts
    if pts.shape[0] >= 3:
        try:
            hull = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    d = edges[lengths > 0] / lengths[lengths > 0, None]
    normal = np.column_stack([-d[:, 1], d[:, 0]])
    ext = _extents_along(np.stack([d, normal], axis=1), hull)
    k = int(np.argmin((ext[:, 0] + 1.0) * (ext[:, 1] + 1.0)))
    return ext[k, 0], ext[k, 1], d[k], normal[k]


def _distinct_directions(normals: np.ndarray) -> np.ndarray:
    """The rows of `normals` that differ up to sign when rounded to
    _NORMAL_DECIMALS decimals, each first one kept, in input order, with its
    sign flipped so that its first non-zero rounded component is positive."""
    key = np.round(normals, _NORMAL_DECIMALS) + 0.0    # + 0.0 makes -0.0 0.0
    lead = key[np.arange(len(key)), np.argmax(key != 0.0, axis=1)]
    sign = np.where(lead < 0.0, -1.0, 1.0)[:, None]
    _, first = np.unique(key * sign + 0.0, axis=0, return_index=True)
    first = np.sort(first)
    return normals[first] * sign[first]


def _hull_edges(hull) -> tuple[np.ndarray, np.ndarray]:
    """Each edge of a triangulated 3-D hull once: its two vertices (indices
    into `hull.vertices`) and its two faces (indices into `hull.simplices`)."""
    local = np.full(hull.points.shape[0], -1)
    local[hull.vertices] = np.arange(hull.vertices.size)
    tri = local[hull.simplices]
    face = np.arange(tri.shape[0])
    verts, faces = [], []
    for j in range(3):
        other = hull.neighbors[:, j]          # the face across from vertex j
        once = face < other
        verts.append(tri[once][:, [(j + 1) % 3, (j + 2) % 3]])
        faces.append(np.column_stack([face[once], other[once]]))
    return np.concatenate(verts), np.concatenate(faces)


def _flush_face_frame(pts: np.ndarray, hull) -> np.ndarray:
    """Rotation (rows n, d, n x d) of the smallest box, by volume
    prod(extent + 1), among the flush-face frames of a 3-D convex hull.

    `pts` are the hull's vertices.  The normals n are the voxel-grid axes
    followed by the hull's face normals, each direction once
    (`_distinct_directions`); the grid axes come first, so a tie goes to
    them.  For each n, the in-plane axes d follow the hull's silhouette
    edges along n, those whose two faces face n from opposite sides (a face
    within _SILHOUETTE_TOL of edge-on counts as either side): these project
    onto the edges of the hull's shadow along n, so each n runs rotating
    calipers on its shadow.  The depth along n is measured on all hull
    vertices, the in-plane extents on the silhouette's vertices only, which
    include every vertex of the shadow.  Normals are taken in batches whose
    silhouette masks and projections hold at most _BBOX_BATCH_ELEMENTS
    elements, or one normal.
    """
    edge_verts, edge_faces = _hull_edges(hull)
    edge_vecs = pts[edge_verts[:, 1]] - pts[edge_verts[:, 0]]
    face_normals = hull.equations[:, :3]
    normals = _distinct_directions(np.vstack([np.eye(3), face_normals]))
    best_vol = np.full(normals.shape[0], np.inf)
    best_dir = np.zeros(normals.shape)
    per_batch = max(1, _BBOX_BATCH_ELEMENTS // edge_faces.shape[0])
    for start in range(0, normals.shape[0], per_batch):
        n = normals[start:start + per_batch]
        facing = n @ face_normals.T
        front, back = facing > _SILHOUETTE_TOL, facing < -_SILHOUETTE_TOL
        one_side = ((front[:, edge_faces[:, 0]] & front[:, edge_faces[:, 1]])
                    | (back[:, edge_faces[:, 0]] & back[:, edge_faces[:, 1]]))
        rows, cols = np.nonzero(~one_side)
        on_rim = np.zeros((n.shape[0], pts.shape[0]), dtype=bool)
        on_rim[rows[:, None], edge_verts[cols]] = True
        rim = pts[_padded_rows(*np.nonzero(on_rim), n.shape[0])]
        vecs = edge_vecs[cols]
        vecs = vecs - np.einsum("ij,ij->i", vecs, n[rows])[:, None] * n[rows]
        length = np.linalg.norm(vecs, axis=1)
        turn = length > 1e-9
        rows, dirs = rows[turn], vecs[turn] / length[turn, None]
        dirs = dirs[_padded_rows(rows, np.arange(rows.size), n.shape[0])]
        depth = _extents_along(n, pts)
        per_sub = max(1, _BBOX_BATCH_ELEMENTS // (2 * dirs.shape[1] * rim.shape[1]))
        for s in range(0, n.shape[0], per_sub):
            part = slice(s, s + per_sub)
            d = dirs[part]
            axes = np.stack([d, np.cross(n[part, None, :], d)], axis=2)
            ext = _extents_along(axes.reshape(d.shape[0], -1, 3), rim[part])
            ext = ext.reshape(d.shape[0], -1, 2)
            vol = (depth[part, None] + 1.0) * (ext[:, :, 0] + 1.0) * (ext[:, :, 1] + 1.0)
            pick = np.arange(d.shape[0]), np.argmin(vol, axis=1)
            best_vol[start + s:start + s + d.shape[0]] = vol[pick]
            best_dir[start + s:start + s + d.shape[0]] = d[pick]
    k = int(np.argmin(best_vol))
    n, d = normals[k], best_dir[k]
    return np.vstack([n, d, np.cross(n, d)])


def _padded_rows(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """The `values` of each row (`rows` sorted, every row present) as an
    (n_rows, longest) matrix, each row padded with its first value."""
    count = np.bincount(rows, minlength=n_rows)
    first = np.cumsum(count) - count
    out = np.repeat(values[first][:, None], count.max(), axis=1)
    out[rows, np.arange(rows.size) - first[rows]] = values
    return out


def min_volume_bbox(particle: np.ndarray, spacing: float = 1.0) -> BoundingBox:
    """Minimum-volume oriented box of a voxel set.

    Extents are measured on voxel centers and inflated by one voxel edge
    per axis, and the box minimises the product of the inflated extents.
    Rank-deficient sets (planar/collinear/single voxel) are solved exactly,
    a planar set by rotating calipers in its plane.  A full-rank set takes
    the best flush-face frame of its convex hull (`_flush_face_frame`):
    one axis along the voxel grid or a hull face normal, the other two by
    rotating calipers on the hull's shadow along it (O'Rourke 1985; Chang,
    Gorissen & Melchior 2011).  That frame is exact for any box with a face
    flush with the hull, but O'Rourke showed the smallest box need not have
    one (it may only touch hull edges), so the result can exceed the true
    minimum; on the pinned shapes of the tests it is within 0.5% of the best
    box that multi-start local searches find.  A hull that Qhull rejects is
    retried joggled (option QJ); if that fails too, the box takes the
    principal axes of the voxel set.
    """
    pts = np.asarray(particle, dtype=float).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise StructuralError("cannot compute a bounding box of an empty voxel set")

    center = pts.mean(axis=0)
    centered = pts - center
    svals, vt = np.zeros(3), np.eye(3)
    if pts.shape[0] > 1:
        # V is 3 x 3 also for two points; U stays (n, 3) for large sets
        _, svals, vt = np.linalg.svd(centered, full_matrices=pts.shape[0] < 3)
    # rank via singular values (tolerance in voxel units)
    rank = int(np.sum(svals > 1e-9))

    if rank == 0:
        axes = np.array([1.0, 1.0, 1.0])
        rot = np.eye(3)
    elif rank == 1:
        proj = centered @ vt[0]
        axes = np.array([proj.max() - proj.min() + 1.0, 1.0, 1.0])
        rot = vt
    elif rank == 2:
        plane = centered @ vt[:2].T
        w, h, d2, n2 = _min_rect_2d(plane)
        axes = np.array([w + 1.0, h + 1.0, 1.0])
        rot = np.vstack([d2 @ vt[:2], n2 @ vt[:2], vt[2]])
    else:
        hull = None
        for options in (None, "QJ"):
            try:
                hull = ConvexHull(centered, qhull_options=options)
                break
            except QhullError:
                continue
        if hull is None:
            rot, hull_pts = vt, centered
        else:
            hull_pts = centered[hull.vertices]
            rot = _flush_face_frame(hull_pts, hull)
        axes = _extents_along(rot, hull_pts) + 1.0

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
    area_voxels = surface_area(pts)
    # unit-free, so taken in voxel units, where no spacing can overflow it;
    # capped at the isoperimetric bound 1, which the area estimate of a
    # digital ball can undershoot
    sphericity = min((36.0 * math.pi * vol_voxels ** 2) ** (1.0 / 3.0) / area_voxels, 1.0)

    grays = volume.values[pts[:, 0], pts[:, 1], pts[:, 2]]
    q1, med, q3 = np.percentile(grays, [25.0, 50.0, 75.0])  # linear interpolation
    return DescriptorVector(
        med=float(med), iqr=float(q3 - q1), vol=vol_voxels,
        area=float(area_voxels * volume.spacing * volume.spacing),
        elo=float(box.a2 / box.a1), flat=float(box.a3 / box.a2),
        sphe=float(sphericity), rat=None)


def build_dataset(labels: LabelVolume, volume: VoxelVolume, slices,
                  include_unmatched: bool = False) -> Dataset:
    """One descriptor row per particle, ordered by particle id.

    By default only particles whose slice intersection carries a defined
    mineral ratio are kept (rows carry rat); include_unmatched=True keeps
    every particle with rat absent where undefined, for prediction-only
    datasets.  Each particle's voxels are read from its bounding box, in
    the volume's C order, so scratch memory is one box, not the volume.
    """
    if labels.dims != volume.dims:
        raise StructuralError("labels and volume dims differ")
    registration = register_phase_slices(labels, slices)

    ids, rows = [], []
    # ids are contiguous, so no box is None; a box's C order is the
    # volume's restricted to it
    for pid, box in enumerate(ndimage.find_objects(labels.labels), start=1):
        rat = registration.mineral_ratio(pid)
        if rat is None and not include_unmatched:
            continue
        coords = np.argwhere(labels.labels[box] == pid) + [s.start for s in box]
        desc = replace(compute_descriptors(coords, volume), rat=rat)
        ids.append(pid)
        rows.append(desc.values(with_rat=True))
    if not rows:
        return Dataset(np.zeros(0, dtype=np.int64), np.zeros((0, 7)), COLUMNS)
    return Dataset(np.array(ids, dtype=np.int64), np.vstack(rows), COLUMNS)
