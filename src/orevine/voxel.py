"""3D voxel volumes: loading, labeling, training weight maps, phase slices.

Volumes are dense numpy grids indexed (x, y, z).  A labeled volume stores
one non-negative integer per voxel, 0 marking background; particle ids form
a contiguous range 1..K ordered by decreasing size.  Annotated 2D slices
(fixed z planes) drive the weight map used by the segmentation training
loss: background voxels are weighted by proximity to the two nearest
particles within their own slice, foreground voxels receive the constant
that balances the two weight sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import (GRID, ArgumentError, ParseError, StructuralError, file_faults,
                     json_value)

BCE_EPS = 1e-7
DEFAULT_D_HAT = 5.0
DEFAULT_DECAY = 36.0
DEFAULT_FLOOR = 0.04


def _check_grid(values: np.ndarray, name: str) -> None:
    if values.ndim != 3:
        raise ArgumentError(f"{name} must be a 3-D grid, got shape {values.shape}")
    if min(values.shape) < 1:
        raise ArgumentError(f"{name} dims must all be >= 1")


@dataclass(frozen=True)
class VoxelVolume:
    """Grayscale scalar grid with a physical voxel edge length."""

    values: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        _check_grid(self.values, "volume")
        if not np.all(np.isfinite(self.values)):
            raise ArgumentError("volume contains non-finite values")
        if self.spacing <= 0:
            raise ArgumentError("spacing must be positive")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class LabelVolume:
    """Per-voxel particle labels; 0 is background, ids are contiguous 1..K."""

    labels: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        _check_grid(self.labels, "label volume")
        if self.labels.min() < 0:
            raise ArgumentError("labels must be non-negative")
        # K contiguous ids need K voxels, so a larger id fails before a flag
        # is allocated for every id up to it
        top = int(self.labels.max())
        contiguous = top <= self.labels.size
        if contiguous:
            seen = np.zeros(top + 1, dtype=bool)
            seen[self.labels] = True
            contiguous = bool(seen[1:].all())
        if not contiguous:
            raise ArgumentError("label ids must form a contiguous range 1..K")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape

    @property
    def n_particles(self) -> int:
        return int(self.labels.max())

    def particle_voxels(self, label: int) -> np.ndarray:
        return np.argwhere(self.labels == label)


@dataclass(frozen=True)
class PhaseSlice:
    """Mineral phases on a set of voxels: 0 none, 1 valuable, 2 non-valuable."""

    coords: np.ndarray          # (m, 3) integer voxel coordinates
    phases: np.ndarray          # (m,) values in {0, 1, 2}
    plane: tuple[int, int] | None = None   # (axis, index) for planar slices

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ArgumentError("phase-slice coords must have shape (m, 3)")
        if self.phases.shape != (self.coords.shape[0],):
            raise ArgumentError("phases must align with coords")
        if self.phases.size and not np.isin(self.phases, (0, 1, 2)).all():
            raise ArgumentError("phase values must lie in {0, 1, 2}")

    @classmethod
    def from_plane(cls, axis: int, index: int, grid: np.ndarray) -> "PhaseSlice":
        grid = np.asarray(grid)
        if grid.ndim != 2:
            raise ArgumentError("plane grid must be 2-D")
        if axis not in (0, 1, 2):
            raise ArgumentError("axis must be 0, 1 or 2")
        # every grid cell in row-major order, the plane index put at `axis`
        coords = np.insert(np.argwhere(np.ones(grid.shape, dtype=bool)), axis, index, axis=1)
        return cls(coords, grid.ravel().astype(np.int64), plane=(axis, index))


@dataclass(frozen=True)
class WeightMap:
    """Per-voxel training weights plus the balancing constant."""

    weights: np.ndarray
    c_f: float
    d_hat: float = DEFAULT_D_HAT

    def __post_init__(self):
        _check_grid(self.weights, "weight map")
        if not np.all(np.isfinite(self.weights)) or self.weights.min() < 0:
            raise ArgumentError("weights must be finite and non-negative")

    @property
    def dims(self):
        return self.weights.shape


# ---------------------------------------------------------------------------
# labeling
# ---------------------------------------------------------------------------

def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 6:
        return ndimage.generate_binary_structure(3, 1)
    if connectivity == 26:
        return ndimage.generate_binary_structure(3, 3)
    raise ArgumentError("connectivity must be 6 or 26")


def binarize_and_label(volume: VoxelVolume, threshold: float,
                       connectivity: int = 26, min_size: int = 50) -> LabelVolume:
    """Threshold, extract connected components, keep the large ones.

    Components with at least min_size voxels receive labels 1..K in
    decreasing-size order, ties broken by the smallest linear voxel index;
    everything else becomes background.
    """
    if not np.isfinite(threshold):
        raise ArgumentError("threshold must be finite")
    if min_size < 0:
        raise ArgumentError("min_size must be >= 0")
    fg = volume.values >= threshold
    raw, n_raw = ndimage.label(fg, structure=_structure(connectivity))
    if n_raw == 0:
        return LabelVolume(np.zeros(volume.dims, dtype=np.uint32), volume.spacing)

    flat = raw.ravel()
    sizes = np.bincount(flat, minlength=n_raw + 1)
    uniq, first = np.unique(flat, return_index=True)
    first_index = np.full(n_raw + 1, flat.size, dtype=np.int64)
    first_index[uniq] = first

    keep = [k for k in range(1, n_raw + 1) if sizes[k] >= min_size]
    keep.sort(key=lambda k: (-sizes[k], first_index[k]))
    mapping = np.zeros(n_raw + 1, dtype=np.uint32)
    mapping[keep] = np.arange(1, len(keep) + 1)
    return LabelVolume(mapping[raw], volume.spacing)


# ---------------------------------------------------------------------------
# weight map (training loss weights)
# ---------------------------------------------------------------------------

def weight_from_distances(d1, d2, decay: float = DEFAULT_DECAY,
                          floor: float = DEFAULT_FLOOR):
    """Background weight floor + exp(-(d1^2 + d2^2) / decay); inf distances
    kill the exponential term."""
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    expo = np.where(np.isinf(d1) | np.isinf(d2), -np.inf,
                    -(d1 * d1 + d2 * d2) / decay)
    return floor + np.exp(expo)


def _slice_two_distances(slice_labels: np.ndarray, d_hat: float):
    """Exact Euclidean distances to the nearest and second-nearest particle
    within one 2-D slice, truncated to inf beyond d_hat."""
    present = np.unique(slice_labels)
    present = present[present > 0]
    shape = slice_labels.shape
    if present.size == 0:
        return (np.full(shape, np.inf), np.full(shape, np.inf))
    stacks = np.empty((present.size,) + shape)
    for i, k in enumerate(present):
        stacks[i] = ndimage.distance_transform_edt(slice_labels != k)
    if present.size == 1:
        d1 = stacks[0]
        d2 = np.full(shape, np.inf)
    else:
        part = np.partition(stacks, 1, axis=0)
        d1, d2 = part[0], part[1]
    d1 = np.where(d1 > d_hat, np.inf, d1)
    d2 = np.where(d2 > d_hat, np.inf, d2)
    return d1, d2


def compute_weight_map(labels: LabelVolume, annotated_slices,
                       d_hat: float = DEFAULT_D_HAT, decay: float = DEFAULT_DECAY,
                       floor: float = DEFAULT_FLOOR) -> WeightMap:
    """Training weights over the annotated slices (zero elsewhere).

    Background weights follow floor + exp(-(d1^2 + d2^2)/decay) with the
    truncated in-slice distances to the closest and second-closest
    particle; foreground voxels all receive the constant c_f that balances
    the foreground and background sums.  The decay must be finite and > 0,
    d_hat > 0 (inf: no cutoff).
    """
    if not (0.0 < decay < math.inf):
        raise ArgumentError(f"decay must be finite and > 0, got {decay!r}")
    if not d_hat > 0.0:
        raise ArgumentError(f"d_hat must be > 0, got {d_hat!r}")
    slices = list(annotated_slices)
    if not slices:
        raise ArgumentError("need at least one annotated slice")
    nz = labels.dims[2]
    for z in slices:
        if not (0 <= z < nz):
            raise ArgumentError(f"slice index {z} outside volume (nz={nz})")

    weights = np.zeros(labels.dims, dtype=float)
    bg_total = 0.0
    n_fg = 0
    for z in slices:
        sl = labels.labels[:, :, z]
        d1, d2 = _slice_two_distances(sl, d_hat)
        bg = sl == 0
        w = weight_from_distances(d1, d2, decay, floor)
        weights[:, :, z][bg] = w[bg]
        bg_total += float(w[bg].sum())
        n_fg += int(np.count_nonzero(~bg))

    if n_fg == 0:
        raise ArgumentError(
            "annotated region has no foreground voxels; c_f is undefined")
    c_f = bg_total / n_fg
    for z in slices:
        sl = labels.labels[:, :, z]
        weights[:, :, z][sl > 0] = c_f
    return WeightMap(weights, c_f=c_f, d_hat=d_hat)


def weighted_bce(labels: LabelVolume, predictions: np.ndarray,
                 weights: WeightMap) -> float:
    """Weighted binary cross-entropy between the 0/1 labeling and a
    per-voxel prediction in (0, 1); predictions are clamped to
    [1e-7, 1 - 1e-7] before the logs."""
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != labels.dims or weights.dims != labels.dims:
        raise StructuralError("labels, predictions and weights must share dims")
    p = np.clip(predictions, BCE_EPS, 1.0 - BCE_EPS)
    target = (labels.labels > 0).astype(float)
    ll = target * np.log(p) + (1.0 - target) * np.log1p(-p)
    return float(-(weights.weights * ll).sum())


# ---------------------------------------------------------------------------
# phase registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseRegistration:
    """Per-particle phase counts over the union of slice voxels.

    counts[label] = (n_phase0, n_valuable, n_non_valuable); particles with
    no slice intersection are flagged instead of counted.
    """

    counts: dict
    flagged: frozenset

    def mineral_ratio(self, label: int) -> float | None:
        _, n_v, n_nv = self.counts.get(label, (0, 0, 0))
        return n_v / (n_v + n_nv) if n_v + n_nv else None


def register_phase_slices(labels: LabelVolume, slices) -> PhaseRegistration:
    """Intersect every particle with the union of slice voxels, in one pass.

    A voxel outside the volume is a structural error.  Each voxel counts
    once, with the phase of the first slice holding it, in one (K+1) x 3
    table indexed by label and phase.
    """
    slices = [sl for sl in slices if sl.coords.size]
    coords = np.vstack([np.empty((0, 3), np.int64), *(sl.coords for sl in slices)])
    phases = np.concatenate([np.empty(0, np.int64), *(sl.phases for sl in slices)])
    if coords.size and (coords.min() < 0
                        or np.any(coords.max(axis=0) >= np.asarray(labels.dims))):
        raise StructuralError("phase slice extends outside the volume")
    linear = np.ravel_multi_index(coords.T, labels.dims)
    _, first = np.unique(linear, return_index=True)
    table = np.zeros((labels.n_particles + 1, 3), dtype=np.int64)
    np.add.at(table, (labels.labels.ravel()[linear[first]], phases[first]), 1)
    counts = {k: tuple(row) for k, row in enumerate(table.tolist()) if k and any(row)}
    flagged = frozenset(range(1, labels.n_particles + 1)).difference(counts)
    return PhaseRegistration(counts=counts, flagged=flagged)


# ---------------------------------------------------------------------------
# volume I/O: raw little-endian grid + JSON sidecar, or single-file container
# ---------------------------------------------------------------------------

_CONTAINER_MAGIC = b"OVOL"
_DTYPES = {"float32": "<f4", "float64": "<f8", "uint32": "<u4"}


def _header(values: np.ndarray, spacing: float, dtype: str) -> dict:
    return {"dims": list(values.shape), "spacing": spacing, "dtype": dtype}


def _write_grid(path: Path, values: np.ndarray, spacing: float, dtype: str,
                container: bool) -> None:
    # a finite value beyond the dtype's range would be stored as inf, which
    # `read_volume` refuses
    with np.errstate(over="ignore"):
        cast = values.astype(_DTYPES[dtype])
    if not np.all(np.isfinite(cast)):
        raise ArgumentError(f"values beyond the range of {dtype}")
    raw = np.ascontiguousarray(cast).tobytes()
    header = json.dumps(_header(values, spacing, dtype), sort_keys=True).encode()
    if container:
        with open(path, "wb") as fh:
            fh.write(_CONTAINER_MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            fh.write(raw)
    else:
        Path(str(path) + ".json").write_bytes(header)
        Path(path).write_bytes(raw)


def _read_grid(path: Path):
    """Voxel values and spacing of a container or raw-plus-sidecar file.

    A fault of the header is a ParseError naming the file that holds it, a
    wrong byte count one naming the voxel file.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:4] == _CONTAINER_MAGIC:
        source = path
        hlen = int.from_bytes(data[4:12], "little")
        text, raw = data[12:12 + hlen], data[12 + hlen:]
    else:
        source = Path(str(path) + ".json")
        if not source.exists():
            raise ParseError(f"missing sidecar header {source}")
        text, raw = source.read_bytes(), data
    with file_faults(source):
        header = json.loads(text)
        dims = json_value(header["dims"], "dims", int, 3)
        dtype = header["dtype"]
        spacing = float(json_value(header.get("spacing", 1.0), "spacing"))
        if min(dims) < 0:
            raise ValueError(f"dims must be non-negative, got {list(dims)}")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
    need = np.dtype(_DTYPES[dtype]).itemsize * math.prod(dims)
    if len(raw) != need:
        raise ParseError(f"{path}: {len(raw)} bytes of voxel data, but dims "
                         f"{list(dims)} of {dtype} need {need}")
    values = np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(dims).copy()
    return values, spacing


def write_volume(path, volume: VoxelVolume, container: bool = False,
                 dtype: str = "float32") -> None:
    _write_grid(Path(path), volume.values, volume.spacing, dtype, container)


def read_volume(path) -> VoxelVolume:
    values, spacing = _read_grid(path)
    with file_faults(path):
        return VoxelVolume(values.astype(float), spacing)


def write_labels(path, labels: LabelVolume, container: bool = False) -> None:
    _write_grid(Path(path), labels.labels, labels.spacing, "uint32", container)


def read_labels(path) -> LabelVolume:
    values, spacing = _read_grid(path)
    with file_faults(path):
        if values.dtype.kind == "f":
            # a float grid must hold the ids exactly: casting would read 1.7
            # as id 1 and wrap a negative value
            bad = ~((values >= 0) & (values <= np.iinfo(np.uint32).max)
                    & (values == np.floor(values)))
            if bad.any():
                first = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ValueError(f"label ids must be non-negative integers, "
                                 f"got {float(values[first]):g} at voxel {first}")
        return LabelVolume(values.astype(np.uint32), spacing)


def write_phase_slice(path, sl: PhaseSlice) -> None:
    """Planar slices persist as a 2-D grid plus plane descriptor; free-form
    voxel sets fall back to explicit coordinate/phase lists."""
    if sl.plane is not None:
        axis, index = sl.plane
        other = [a for a in range(3) if a != axis]
        ext = sl.coords[:, other].max(axis=0) + 1 if sl.coords.size else (0, 0)
        grid = np.zeros(tuple(int(e) for e in ext), dtype=np.int64)
        grid[sl.coords[:, other[0]], sl.coords[:, other[1]]] = sl.phases
        doc = {"plane": {"axis": axis, "index": index}, "grid": grid.tolist()}
    else:
        doc = {"coords": sl.coords.tolist(), "phases": sl.phases.tolist()}
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def read_phase_slice(path) -> PhaseSlice:
    """Read a slice written by `write_phase_slice`; a fault of the file is a
    ParseError naming it (the input rule of `errors`)."""
    with file_faults(path):
        text = Path(path).read_text(encoding="utf-8")
        doc = json_value(json.loads(text), "the root", dict)
        if "plane" in doc:
            plane = doc["plane"]
            return PhaseSlice.from_plane(json_value(plane["axis"], "plane axis", int),
                                         json_value(plane["index"], "plane index", int),
                                         json_value(doc["grid"], "grid", int, GRID))
        coords = json_value(doc["coords"], "coords", int, GRID).reshape(-1, 3)
        return PhaseSlice(coords, json_value(doc["phases"], "phases", int, GRID))
