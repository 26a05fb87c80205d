import csv
import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize
from scipy.spatial import ConvexHull, QhullError

from orevine import descriptors
from orevine.descriptors import (
    COLUMNS,
    CSV_HEADER,
    Dataset,
    build_dataset,
    compute_descriptors,
    min_volume_bbox,
    surface_area,
)
from orevine.errors import ParseError, StructuralError
from orevine.model import predict_vfvm
from orevine.synth import (
    Primitive,
    SceneSpec,
    _rotation_zyz,
    benchmark_truth,
    generate_composite_dataset,
    generate_scene,
)
from orevine.voxel import LabelVolume, PhaseSlice, VoxelVolume, register_phase_slices


def digital_ball(r, center=(0, 0, 0)):
    g = np.arange(-r - 2, r + 3)
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    keep = xx ** 2 + yy ** 2 + zz ** 2 <= r * r
    return (np.column_stack([xx[keep], yy[keep], zz[keep]])
            + np.asarray(center)).astype(np.int64)


def block(nx, ny, nz):
    return np.argwhere(np.ones((nx, ny, nz), dtype=bool))


def synth_particle(prim, dims=(30, 30, 30)):
    """One primitive rasterised by `generate_scene`, as voxel coordinates."""
    _, labels, _ = generate_scene(SceneSpec(dims=dims, particles=(prim,)))
    return labels.particle_voxels(1)


def ellipsoid(semi, angles_deg):
    rot = _rotation_zyz(*np.deg2rad(angles_deg))
    lim = int(np.ceil(max(semi))) + 1
    g = np.arange(-lim, lim + 1)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    keep = (((pts @ rot) / np.asarray(semi)) ** 2).sum(axis=1) <= 1.0
    return pts[keep]


def shell(n, seed):
    """n points on an ellipsoid surface, so nearly all are hull vertices."""
    d = np.random.default_rng(seed).normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True) * (9.0, 6.0, 4.0)


# repr of a1, a2, a3 and the SHA-256 prefix of the rotation's float64 bytes,
# generated with the flush-face calipers search
BBOX_GOLDEN = {
    "ball": (lambda: digital_ball(4),
             "8.348469228349533 8.071067811865476 7.9282032302755105 27b8ace9edac7184"),
    "ball_synth": (lambda: synth_particle(Primitive("ball", (10.0, 10.5, 10.0),
                                                    radius=5.16), (20, 20, 20)),
                   "11.0 10.192388155425117 10.192388155425117 18904090d0b30608"),
    "box_a": (lambda: synth_particle(Primitive("box", (15.0, 15.0, 15.0),
                                               size=(11.0, 6.5, 4.0),
                                               angles=(30.0, 40.0, 75.0))),
              "11.94604256352207 7.4005168576098175 4.931550054157178 2c45396ab4b89ff1"),
    "box_b": (lambda: synth_particle(Primitive("box", (15.0, 15.0, 15.0),
                                               size=(7.0, 7.0, 5.5),
                                               angles=(200.0, 100.0, 330.0))),
              "7.977514907595274 7.879922480183431 6.408987230262507 a9fe75cc9c93b969"),
    "plate": (lambda: synth_particle(Primitive("plate", (15.0, 15.0, 15.0),
                                               size=(14.0, 9.0, 2.5),
                                               angles=(120.0, 65.0, 10.0))),
              "14.971311859202666 9.896591644628769 3.417706323647129 b4c716cd77112eb9"),
    "ellipsoid": (lambda: ellipsoid((8.0, 5.0, 3.0), (25.0, 50.0, 160.0)),
                  "16.556349186104043 9.0 6.65685424949238 3207a7344d1dddc0"),
    "cloud60": (lambda: np.random.default_rng(12).integers(0, 15, size=(60, 3)),
                "15.0 15.0 15.0 927902d503be3565"),
    "shell": (lambda: shell(400, 5),
              "18.932797036173138 12.850543663712244 8.990300799644517 d33095e800a06920"),
}
# digital_ball(5) when Qhull rejects every hull: the principal-axes frame
QHULL_FALLBACK_GOLDEN = "11.0 11.0 11.0 d1829325091a616f"
# digital_ball(5) when Qhull takes only a joggled (QJ) hull
QHULL_JOGGLED_GOLDEN = ("10.33333333335931 10.333333333350412 10.333333333338626 "
                        "a28e6be22387c4c5")


def bbox_fingerprint(box):
    digest = hashlib.sha256(np.ascontiguousarray(box.rotation).tobytes())
    return f"{box.a1!r} {box.a2!r} {box.a3!r} {digest.hexdigest()[:16]}"


def hull_batches(pts):
    """How many batches of hull normals the flush-face search takes."""
    centered = pts - pts.mean(axis=0)
    hull = ConvexHull(centered)
    _, edge_faces = descriptors._hull_edges(hull)
    normals = descriptors._distinct_directions(
        np.vstack([np.eye(3), hull.equations[:, :3]]))
    per_batch = max(1, descriptors._BBOX_BATCH_ELEMENTS // len(edge_faces))
    return -(-len(normals) // per_batch)


def load_workloads():
    """`perfbench/workloads.py`, loaded from its file without writing its
    bytecode, so `perfbench/` is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # its dataclasses look it up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


@functools.cache
def pinned_shapes():
    """The 238 full-rank shapes the box search is held to: the 190
    full-rank particles of the `scan` benchmark scenes at seeds 1-10, the
    BBOX_GOLDEN shapes, 20 rasterized rotated boxes and 20 rotated
    ellipsoids."""
    workloads = load_workloads()
    shapes = {}
    for seed in range(1, 11):
        spec, kinds = workloads.scan_scene(seed)
        _, labels, _ = generate_scene(spec)
        for pid, kind in enumerate(kinds, start=1):
            pts = labels.particle_voxels(pid)
            if np.linalg.matrix_rank(pts - pts.mean(axis=0)) == 3:
                shapes[f"scan{seed}_{pid}_{kind}"] = pts
    for name, (build, _) in BBOX_GOLDEN.items():
        shapes[name] = build()
    rng = np.random.default_rng(2024)
    for i in range(20):
        size = tuple(float(s) for s in rng.uniform(3.0, 12.0, 3))
        angles = tuple(float(a) for a in rng.uniform((0, 0, 0), (360, 180, 360)))
        shapes[f"box{i}"] = synth_particle(Primitive("box", (15.0, 15.0, 15.0),
                                                     size=size, angles=angles))
    for i in range(20):
        semi = sorted(rng.uniform(2.0, 9.0, 3), reverse=True)
        angles = tuple(float(a) for a in rng.uniform((0, 0, 0), (360, 180, 360)))
        shapes[f"ellipsoid{i}"] = ellipsoid(semi, angles)
    return shapes


def small_rotation(w):
    """Rz(w2) Ry(w1) Rx(w0): a chart of the rotations near the identity."""
    (ca, cb, cc), (sa, sb, sc) = np.cos(w), np.sin(w)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def oracle_volume(pts, starts):
    """Smallest box volume prod(extent + 1) that Nelder-Mead finds from
    each start rotation: the slow local search the flush-face frames must
    come within 0.5% of."""
    centered = pts - pts.mean(axis=0)
    hull = centered[ConvexHull(centered).vertices]

    def volume(rot):
        proj = hull @ rot.T
        return float(np.prod(proj.max(axis=0) - proj.min(axis=0) + 1.0))

    best = np.inf
    for start in starts:
        res = optimize.minimize(lambda w: volume(small_rotation(w) @ start), np.zeros(3),
                                method="Nelder-Mead",
                                options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 600,
                                         "initial_simplex": np.vstack([np.zeros(3),
                                                                       0.05 * np.eye(3)])})
        best = min(best, res.fun, volume(start))
    return best


class TestBoundingBox:
    def test_axis_aligned_block_exact(self):
        box = min_volume_bbox(block(4, 2, 1))
        assert box.axes == pytest.approx((4.0, 2.0, 1.0), abs=1e-9)

    def test_single_voxel(self):
        box = min_volume_bbox(np.array([[3, 5, 7]]), spacing=2.0)
        assert box.axes == pytest.approx((2.0, 2.0, 2.0))

    def test_rotated_plate_matches_fine_scan_oracle(self):
        # 10x10x1 plate rotated 45 degrees about z, rasterized
        ang = np.deg2rad(45.0)
        rot = np.array([[np.cos(ang), -np.sin(ang), 0],
                        [np.sin(ang), np.cos(ang), 0], [0, 0, 1]])
        pts = []
        for x in range(-12, 13):
            for y in range(-12, 13):
                q = rot.T @ np.array([x, y, 0.0])
                if abs(q[0]) <= 5 and abs(q[1]) <= 5:
                    pts.append([x, y, 0])
        plate = np.array(pts)
        box = min_volume_bbox(plate)
        assert box.a3 == pytest.approx(1.0, abs=1e-12)

        # brute-force 1-degree scan over in-plane rotations
        best = np.inf
        best_axes = None
        for deg in range(0, 90):
            a = np.deg2rad(deg)
            d = np.array([np.cos(a), np.sin(a)])
            n = np.array([-np.sin(a), np.cos(a)])
            w = plate[:, :2] @ d
            h = plate[:, :2] @ n
            ext = (w.max() - w.min() + 1.0, h.max() - h.min() + 1.0)
            if ext[0] * ext[1] < best:
                best = ext[0] * ext[1]
                best_axes = tuple(sorted(ext, reverse=True))
        assert box.a1 == pytest.approx(best_axes[0], rel=0.02)
        assert box.a2 == pytest.approx(best_axes[1], rel=0.02)

    def test_contains_all_voxel_centers(self):
        rng = np.random.default_rng(12)
        pts = rng.integers(0, 15, size=(60, 3))
        box = min_volume_bbox(pts)
        centered = pts - pts.mean(axis=0)
        proj = centered @ box.rotation.T
        span = proj.max(axis=0) - proj.min(axis=0)
        assert np.all(span <= np.array(box.axes) + 1e-9)

    def test_empty_set(self):
        with pytest.raises(StructuralError):
            min_volume_bbox(np.zeros((0, 3)))

    def test_elo_flat_rotation_invariance(self):
        def rasterize(half, rot):
            lim = int(np.ceil(np.linalg.norm(half))) + 3
            g = np.arange(-lim, lim + 1)
            xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]).astype(float)
            inside = np.all(np.abs(pts @ rot) <= np.asarray(half), axis=1)
            return pts[inside].astype(np.int64)

        half = (20, 10, 5)
        base = min_volume_bbox(rasterize(half, np.eye(3)))
        elo0, flat0 = base.a2 / base.a1, base.a3 / base.a2
        rot = _rotation_zyz(np.deg2rad(35), np.deg2rad(25), np.deg2rad(10))
        turned = min_volume_bbox(rasterize(half, rot))
        assert turned.a2 / turned.a1 == pytest.approx(elo0, rel=0.02)
        assert turned.a3 / turned.a2 == pytest.approx(flat0, rel=0.02)


class TestBoundingBoxGolden:
    @pytest.mark.parametrize("n_points", [4, 60, 400, 1500])
    def test_batched_frames_equal_one_batch(self, n_points, monkeypatch):
        """Normals split over many batches give the bits of a single batch."""
        pts = np.random.default_rng(n_points).normal(size=(n_points, 3)) * (9, 4, 2)
        want = bbox_fingerprint(min_volume_bbox(pts))
        assert hull_batches(pts) == 1 or n_points >= 400
        monkeypatch.setattr(descriptors, "_BBOX_BATCH_ELEMENTS", 2 ** 4)
        assert hull_batches(pts) > 1
        assert bbox_fingerprint(min_volume_bbox(pts)) == want
        monkeypatch.setattr(descriptors, "_BBOX_BATCH_ELEMENTS", 2 ** 30)
        assert hull_batches(pts) == 1
        assert bbox_fingerprint(min_volume_bbox(pts)) == want

    @pytest.mark.parametrize("name", sorted(BBOX_GOLDEN))
    def test_golden_box(self, name):
        build, golden = BBOX_GOLDEN[name]
        assert bbox_fingerprint(min_volume_bbox(build())) == golden

    def test_large_hull_splits_normals(self):
        assert hull_batches(shell(400, 5)) > 1

    def test_qhull_fallback_golden(self, monkeypatch):
        def no_hull(points, qhull_options=None):
            raise QhullError("forced")
        monkeypatch.setattr(descriptors, "ConvexHull", no_hull)
        assert bbox_fingerprint(min_volume_bbox(digital_ball(5))) == QHULL_FALLBACK_GOLDEN

    def test_joggled_hull_golden(self, monkeypatch):
        def joggled_only(points, qhull_options=None):
            if qhull_options != "QJ":
                raise QhullError("forced")
            return ConvexHull(points, qhull_options=qhull_options)
        monkeypatch.setattr(descriptors, "ConvexHull", joggled_only)
        box = min_volume_bbox(digital_ball(5))
        assert bbox_fingerprint(box) == QHULL_JOGGLED_GOLDEN
        assert box.volume == pytest.approx(min_volume_bbox(digital_ball(5)).volume,
                                           rel=1e-9)


class TestBoundingBoxProperties:
    """The flush-face search on the pinned full-rank shapes."""

    def test_contains_every_voxel_centre(self):
        for name, pts in pinned_shapes().items():
            box = min_volume_bbox(pts)
            proj = (pts - pts.mean(axis=0)) @ box.rotation.T
            span = proj.max(axis=0) - proj.min(axis=0) + 1.0
            assert np.all(span <= np.array(box.axes) * (1 + 1e-12)), name

    def test_rotation_orthonormal(self):
        for name, pts in pinned_shapes().items():
            rot = min_volume_bbox(pts).rotation
            assert np.allclose(rot @ rot.T, np.eye(3), rtol=0.0, atol=1e-12), name

    def test_axis_aligned_odd_blocks_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            size = 2 * rng.integers(1, 7, 3) + 1
            box = min_volume_bbox(block(*size) + rng.integers(0, 50, 3))
            assert box.axes == tuple(float(s) for s in sorted(size, reverse=True))
            assert np.array_equal(np.abs(box.rotation).sum(axis=0), np.ones(3))

    def test_within_half_percent_of_local_search(self):
        assert len(pinned_shapes()) == 238
        worst = 0.0
        for pts in pinned_shapes().values():
            box = min_volume_bbox(pts)
            _, _, vt = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
            worst = max(worst, box.volume / oracle_volume(pts, [box.rotation, vt]) - 1.0)
        assert worst <= 0.005


class TestSurfaceArea:
    def test_ball_within_five_percent(self):
        area = surface_area(digital_ball(20))
        assert area == pytest.approx(4 * np.pi * 400.0, rel=0.05)

    def test_single_voxel_golden(self):
        # frozen from direct evaluation of the 13-direction weights:
        # 2/13 * (3*2/1 + 6*2/sqrt(2) + 4*2/sqrt(3))
        golden = 2.0 / 13.0 * (6.0 + 12.0 / np.sqrt(2.0) + 8.0 / np.sqrt(3.0))
        assert surface_area(np.array([[0, 0, 0]])) == pytest.approx(golden, rel=1e-12)
        assert surface_area(np.array([[0, 0, 0]]), spacing=3.0) == \
            pytest.approx(golden * 9.0, rel=1e-12)

    def test_scaling_ratio(self):
        a20 = surface_area(digital_ball(20))
        a40 = surface_area(digital_ball(40))
        assert a40 / a20 == pytest.approx(4.0, rel=0.02)

    def test_empty(self):
        with pytest.raises(StructuralError):
            surface_area(np.zeros((0, 3)))


class TestComputeDescriptors:
    def test_block_elongation_flatness(self):
        vol = VoxelVolume(np.ones((6, 6, 6)))
        coords = block(4, 2, 1)
        d = compute_descriptors(coords, vol)
        assert d.elo == pytest.approx(0.5)
        assert d.flat == pytest.approx(0.5)
        assert d.vol == 8.0

    def test_median_iqr_convention(self):
        vals = np.zeros((5, 1, 1))
        vals[:, 0, 0] = [1, 2, 3, 4, 5]
        vol = VoxelVolume(vals)
        coords = np.argwhere(np.ones((5, 1, 1), dtype=bool))
        d = compute_descriptors(coords, vol)
        assert d.med == 3.0
        assert d.iqr == pytest.approx(2.0)  # Q3=4, Q1=2 under linear interpolation

    def test_ball_sphericity(self):
        r = 20
        ball = digital_ball(r, center=(r + 2, r + 2, r + 2))
        vol = VoxelVolume(np.ones((2 * r + 5, 2 * r + 5, 2 * r + 5)))
        d = compute_descriptors(ball, vol)
        assert d.sphe == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("r", [2, 4, 8, 20])
    def test_ball_sphericity_capped_at_one(self, r):
        # the 13-direction area of these digital balls reads below the
        # sphere's, so their uncapped sphericity is 1.0014 to 1.0432
        ball = digital_ball(r, center=(r + 2, r + 2, r + 2))
        d = compute_descriptors(ball, VoxelVolume(np.ones((2 * r + 5,) * 3)))
        assert d.sphe == 1.0

    def test_edge_rows_get_a_class(self):
        """Rows with elo = 1, flat = 1 and a digital ball's sphe, which voxel
        descriptors reach, are predicted, not left out of support."""
        ball = digital_ball(4, center=(6, 6, 6))
        sphe = compute_descriptors(ball, VoxelVolume(np.ones((13, 13, 13)))).sphe
        truth = benchmark_truth()
        rows = generate_composite_dataset(truth, 5, 5, 5, seed=3).matrix[:, :6].copy()
        rows[:, 3:] = [1.0, 1.0, sphe]
        labels = {p.label for p in predict_vfvm(truth, rows)}
        assert labels and "out_of_support" not in labels

    def test_sphericity_unit_free(self):
        # identical voxel sets at different spacing give identical sphericity
        ball = digital_ball(8, center=(11, 11, 11))
        a = compute_descriptors(ball, VoxelVolume(np.ones((23, 23, 23)), spacing=1.0))
        b = compute_descriptors(ball, VoxelVolume(np.ones((23, 23, 23)), spacing=3.5))
        assert a.sphe == pytest.approx(b.sphe, rel=1e-12)

    @pytest.mark.parametrize("spacing", [1e-300, 1e300])
    def test_sphericity_finite_at_extreme_spacing(self, spacing):
        ball = digital_ball(4, center=(6, 6, 6))
        a = compute_descriptors(ball, VoxelVolume(np.ones((13, 13, 13))))
        b = compute_descriptors(ball, VoxelVolume(np.ones((13, 13, 13)), spacing=spacing))
        assert b.sphe == a.sphe

    def test_translation_invariance_of_texture(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(1, 5, (12, 12, 12))
        vol = VoxelVolume(vals)
        coords = block(3, 3, 3)
        d0 = compute_descriptors(coords, vol)
        shifted = coords + 4
        vals2 = np.zeros_like(vals)
        vals2[4:, 4:, 4:] = vals[:8, :8, :8]
        d1 = compute_descriptors(shifted, VoxelVolume(vals2))
        assert d1.med == pytest.approx(d0.med)
        assert d1.iqr == pytest.approx(d0.iqr)

    def test_gray_shift_moves_median_not_iqr(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(1, 5, (6, 6, 6))
        coords = block(4, 4, 4)
        d0 = compute_descriptors(coords, VoxelVolume(vals))
        d1 = compute_descriptors(coords, VoxelVolume(vals + 2.5))
        assert d1.med == pytest.approx(d0.med + 2.5)
        assert d1.iqr == pytest.approx(d0.iqr)

    def test_volume_additive(self):
        a = block(2, 2, 2)
        b = block(2, 2, 2) + np.array([5, 5, 5])
        vol = VoxelVolume(np.ones((10, 10, 10)))
        da = compute_descriptors(a, vol)
        db = compute_descriptors(b, vol)
        dab = compute_descriptors(np.vstack([a, b]), vol)
        assert dab.vol == da.vol + db.vol

    def test_sphericity_bound_at_particle_scale(self):
        # the 0.05 estimator slack holds for particles at or above the
        # default labeling size (50 voxels); compact shapes are worst-case
        vol = VoxelVolume(np.ones((40, 40, 40)))
        shapes = [block(4, 4, 4) + 2, block(5, 5, 2) + 2, block(13, 2, 2) + 2,
                  digital_ball(3, center=(20, 20, 20)),
                  digital_ball(5, center=(20, 20, 20)),
                  digital_ball(8, center=(20, 20, 20))]
        for coords in shapes:
            d = compute_descriptors(coords, vol)
            assert coords.shape[0] >= 50
            assert 0.0 < d.sphe <= 1.05


def particle_ratio(particle, slices, dims):
    """Mineral ratio of one particle through the registration build_dataset runs."""
    labels = np.zeros(dims, dtype=np.uint32)
    labels[tuple(np.asarray(particle).T)] = 1
    return register_phase_slices(LabelVolume(labels), slices).mineral_ratio(1)


class TestMineralRatio:
    def test_three_quarters(self):
        dims = (4, 4, 2)
        particle = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]])
        coords = particle.copy()
        phases = np.array([1, 1, 1, 2])
        sl = PhaseSlice(coords, phases)
        assert particle_ratio(particle, [sl], dims) == pytest.approx(0.75)

    def test_absent_when_no_intersection(self):
        dims = (4, 4, 2)
        particle = np.array([[0, 0, 0]])
        sl = PhaseSlice(np.array([[3, 3, 1]]), np.array([1]))
        assert particle_ratio(particle, [sl], dims) is None

    def test_union_across_two_slices(self):
        dims = (6, 6, 3)
        particle = np.argwhere(np.ones((6, 6, 3), dtype=bool))
        a_coords = np.array([[i, j, 0] for i in range(6) for j in range(6)])
        b_coords = np.array([[i, j, 1] for i in range(6) for j in range(6)])
        # 5 valuable on slice a, 15 non-valuable on slice b
        a_ph = np.zeros(36, dtype=int)
        a_ph[:5] = 1
        b_ph = np.zeros(36, dtype=int)
        b_ph[:15] = 2
        ratio = particle_ratio(particle, [PhaseSlice(a_coords, a_ph),
                                          PhaseSlice(b_coords, b_ph)], dims)
        assert ratio == pytest.approx(5.0 / 20.0)

    def test_in_unit_interval_randomized(self):
        rng = np.random.default_rng(3)
        dims = (8, 8, 4)
        for _ in range(20):
            particle = np.unique(rng.integers(0, 8, size=(30, 3)) % [8, 8, 4], axis=0)
            coords = np.array([[i, j, 1] for i in range(8) for j in range(8)])
            phases = rng.integers(0, 3, size=64)
            r = particle_ratio(particle, [PhaseSlice(coords, phases)], dims)
            if r is not None:
                assert 0.0 <= r <= 1.0


class TestBuildDataset:
    def scene(self):
        labels = np.zeros((12, 12, 6), dtype=np.uint32)
        labels[1:4, 1:4, :] = 1       # touches z=2 plane
        labels[6:10, 6:10, :] = 2     # touches z=2 plane
        labels[1:3, 8:10, 4:6] = 3    # away from the slice plane
        vol = VoxelVolume(np.abs(np.random.default_rng(0).normal(2.0, 0.3,
                                                                 (12, 12, 6))))
        grid = np.zeros((12, 12), dtype=int)
        grid[1:4, 1:4] = 1
        grid[6:10, 6:10] = 2
        sl = PhaseSlice.from_plane(2, 2, grid)
        return LabelVolume(labels), vol, [sl]

    def test_intersection_filter(self):
        labels, vol, slices = self.scene()
        ds = build_dataset(labels, vol, slices)
        assert list(ds.ids) == [1, 2]
        assert ds.has_rat
        assert not np.isnan(ds.column("rat")).any()

    def test_include_unmatched(self):
        labels, vol, slices = self.scene()
        ds = build_dataset(labels, vol, slices, include_unmatched=True)
        assert list(ds.ids) == [1, 2, 3]
        assert np.isnan(ds.column("rat")[2])

    def test_empty_labels(self):
        vol = VoxelVolume(np.ones((4, 4, 4)))
        labels = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint32))
        ds = build_dataset(labels, vol, [])
        assert len(ds) == 0

    def test_rat_matches_hand_counts(self):
        labels, vol, slices = self.scene()
        ds = build_dataset(labels, vol, slices)
        # particle 1 covers phases all = 1 -> ratio 1; particle 2 all = 2 -> 0
        assert ds.column("rat")[0] == pytest.approx(1.0)
        assert ds.column("rat")[1] == pytest.approx(0.0)


def csv_writer_reference(dataset, path):
    """`Dataset.to_csv` as a `csv.writer` row by row, one `repr(float(...))`
    per cell: the reference whose bytes the one-pass writer must reproduce."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        rat_idx = dataset.columns.index("rat") if dataset.has_rat else None
        for i in range(len(dataset)):
            row = [int(dataset.ids[i])]
            for name in CSV_HEADER[1:]:
                if name == "rat":
                    if rat_idx is None or np.isnan(dataset.matrix[i, rat_idx]):
                        row.append("")
                    else:
                        row.append(repr(float(dataset.matrix[i, rat_idx])))
                else:
                    row.append(repr(float(dataset.matrix[i, dataset.columns.index(name)])))
            writer.writerow(row)


def odd_cells_dataset():
    """Rows with a NaN rat, nan and +-inf CT cells, -0.0, subnormal and
    extreme magnitudes."""
    rng = np.random.default_rng(8)
    matrix = rng.uniform(-1e3, 1e3, size=(12, 7))
    matrix[1, 6] = np.nan
    matrix[2, 0] = np.nan
    matrix[3, 1], matrix[3, 2] = np.inf, -np.inf
    matrix[4, 3], matrix[4, 6] = -0.0, 0.0
    matrix[5, 4], matrix[5, 5] = 5e-324, 1.7976931348623157e308
    matrix[6, 6] = np.inf
    matrix[7, :] = np.nan
    return Dataset(np.arange(1, 13, dtype=np.int64), matrix)


class TestCsvBytes:
    """`to_csv` writes in one pass what the `csv.writer` reference writes."""

    @staticmethod
    def assert_same_bytes(ds, tmp_path):
        ds.to_csv(tmp_path / "got.csv")
        csv_writer_reference(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_sample_rows(self, tmp_path):
        rows = benchmark_truth().sample(10_000, seed=3)
        self.assert_same_bytes(Dataset(np.arange(1, 10_001, dtype=np.int64), rows), tmp_path)

    def test_nan_rat_and_odd_ct_cells(self, tmp_path):
        self.assert_same_bytes(odd_cells_dataset(), tmp_path)

    def test_without_rat_column(self, tmp_path):
        ds = odd_cells_dataset().without_rat()
        assert not ds.has_rat
        self.assert_same_bytes(ds, tmp_path)

    def test_zero_rows(self, tmp_path):
        ds = Dataset(np.zeros(0, dtype=np.int64), np.zeros((0, 7)), COLUMNS)
        self.assert_same_bytes(ds, tmp_path)
        assert (tmp_path / "got.csv").read_bytes() == b"id,med,iqr,vol,elo,flat,sphe,rat\r\n"

    def test_round_trip_is_bit_equal(self, tmp_path):
        rows = benchmark_truth().sample(2_000, seed=4)
        rows[::7, 6] = np.nan
        ds = Dataset(np.arange(1, 2_001, dtype=np.int64), rows)
        ds.to_csv(tmp_path / "rows.csv")
        back = Dataset.from_csv(tmp_path / "rows.csv")
        assert np.array_equal(back.ids, ds.ids)
        assert np.array_equal(back.matrix.view(np.int64), ds.matrix.view(np.int64))


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0.1, 3.0, size=(6, 7))
        matrix[2, 6] = np.nan
        ds = Dataset(np.arange(1, 7, dtype=np.int64), matrix)
        p = tmp_path / "data.csv"
        ds.to_csv(p)
        text = p.read_text().splitlines()
        assert text[0] == "id,med,iqr,vol,elo,flat,sphe,rat"
        back = Dataset.from_csv(p)
        assert np.array_equal(back.ids, ds.ids)
        assert np.allclose(back.matrix, ds.matrix, equal_nan=True)

    def test_parse_error_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,med,iqr,vol,elo,flat,sphe,rat\n1,1,1,1,1,1,1,\n2,oops,1,1,1,1,1,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            Dataset.from_csv(p)

    def test_header_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n")
        with pytest.raises(ParseError, match="line 1"):
            Dataset.from_csv(p)
