import numpy as np
import pytest

from orevine.descriptors import build_dataset
from orevine.errors import ArgumentError
from orevine.model import partition_dataset
from orevine.synth import (
    Primitive,
    SceneSpec,
    _primitive_cube,
    _rotation_zyz,
    benchmark_truth,
    generate_composite_dataset,
    generate_scene,
)
from orevine.voxel import register_phase_slices


def ball_spec(vfvm=0.75, seed=3):
    return SceneSpec(
        dims=(50, 50, 50),
        particles=(Primitive("ball", center=(24.0, 24.0, 24.0), radius=20.0,
                             gray_mean=2.0, gray_sigma=0.05, vfvm=vfvm),),
        phase_planes=((2, 24),),
        seed=seed)


def reference_phase_grids(spec, labels):
    """The phase cut voxel by voxel: pool each particle's plane voxels by
    full coordinate (the first plane keeps a shared voxel), sort them by x,
    y, z and mark the leading round(vfvm * count) valuable."""
    grids = {}
    for axis, index in spec.phase_planes:
        grids[(axis, index)] = np.zeros(np.delete(spec.dims, axis), dtype=np.int64)
    for pid, prim in enumerate(spec.particles, start=1):
        pool = {}
        for (axis, index), grid in grids.items():
            for c2 in np.argwhere(np.take(labels, index, axis=axis) == pid):
                pool.setdefault(tuple(np.insert(c2, axis, index)), (grid, tuple(c2)))
        n_val = round(prim.vfvm * len(pool))
        for rank, key in enumerate(sorted(pool)):
            grid, c2 = pool[key]
            grid[c2] = 1 if rank < n_val else 2
    return grids


def reference_mask(prim, dims):
    """The inside-test on every voxel of the volume."""
    xs = np.arange(dims[0])[:, None, None]
    ys = np.arange(dims[1])[None, :, None]
    zs = np.arange(dims[2])[None, None, :]
    cx, cy, cz = prim.center
    if prim.shape == "ball":
        return ((xs - cx) ** 2 + (ys - cy) ** 2 + (zs - cz) ** 2
                <= prim.radius ** 2)
    rot = _rotation_zyz(*np.deg2rad(prim.angles))
    dx = np.broadcast_to(xs - cx, dims).ravel()
    dy = np.broadcast_to(ys - cy, dims).ravel()
    dz = np.broadcast_to(zs - cz, dims).ravel()
    local = np.column_stack([dx, dy, dz]) @ rot.T
    half = np.asarray(prim.size, dtype=float) / 2.0
    return np.all(np.abs(local) <= half, axis=1).reshape(dims)


def cube_primitives(dims, seed):
    """Balls, boxes and plates at random angles and sub-voxel centres: inside
    the volume, cut by each of its faces, wholly outside it, and of radius or
    size 0."""
    rng = np.random.default_rng(seed)
    dims = np.asarray(dims, dtype=float)

    def shape_at(center):
        angles = tuple(rng.uniform(0.0, 360.0, 3))
        kind = ("ball", "box", "plate")[int(rng.integers(3))]
        if kind == "ball":
            return Primitive("ball", center, radius=float(rng.uniform(0.3, 7.0)))
        size = rng.uniform(0.5, 12.0, 3)
        if kind == "plate":
            size[int(rng.integers(3))] = rng.uniform(0.5, 2.0)
        return Primitive(kind, center, size=tuple(size), angles=angles)

    prims = [shape_at(tuple(rng.uniform(0.0, dims - 1.0))) for _ in range(30)]
    for axis in range(3):
        for face in (0.0, dims[axis] - 1.0):
            for shift in (-3.0, -0.5, 0.0, 0.5, 3.0):
                center = rng.uniform(0.0, dims - 1.0)
                center[axis] = face + shift + rng.uniform(-0.5, 0.5)
                prims.append(shape_at(tuple(center)))
            center = rng.uniform(0.0, dims - 1.0)
            center[axis] = face + (30.0 if face else -30.0)
            prims.append(shape_at(tuple(center)))        # wholly outside
    # a cube whose diagonal lies along y reaches |size / 2|_2 from its centre
    prims.append(Primitive("box", tuple(dims / 2.0 + 0.3), size=(10.0, 10.0, 10.0),
                           angles=(45.0, np.degrees(np.arctan(np.sqrt(0.5))), 0.0)))
    center = (3.0, 4.0, 5.0)
    prims += [Primitive("ball", center), Primitive("ball", (3.2, 4.0, 5.0)),
              Primitive("box", center, angles=(10.0, 20.0, 30.0)),
              Primitive("plate", (3.5, 4.5, 5.5), size=(4.0, 3.0, 0.0))]
    return prims


class TestPrimitiveCube:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_whole_volume_mask(self, seed):
        dims = (23, 19, 17)
        for prim in cube_primitives(dims, seed):
            cube, mask = _primitive_cube(prim, dims)
            placed = np.zeros(dims, dtype=bool)
            placed[cube] = mask
            reference = reference_mask(prim, dims)
            assert np.array_equal(placed, reference), prim
            if not reference.any():
                with pytest.raises(ArgumentError, match="rasterizes to no voxels"):
                    generate_scene(SceneSpec(dims=dims, particles=(prim,)))

    @pytest.mark.parametrize("field, value", [
        ("radius", -2.0), ("radius", np.nan), ("radius", np.inf),
        ("size", (4.0, -1.0, 4.0)), ("size", (4.0, np.nan, 4.0)),
        ("size", (4.0, np.inf, 4.0)), ("center", (5.0, np.nan, 5.0)),
        ("center", (np.inf, 5.0, 5.0)), ("angles", (0.0, np.nan, 0.0)),
        ("angles", (0.0, 0.0, -np.inf))])
    def test_bad_geometry_rejected(self, field, value):
        for shape in ("ball", "box"):
            with pytest.raises(ArgumentError, match=f"{field} must be finite"):
                Primitive(shape, **{"center": (5.0, 5.0, 5.0), field: value})


class TestGenerateScene:
    def test_phase_cut_matches_voxel_loop(self):
        # crossing planes, one listed twice, and particles they share voxels of
        spec = SceneSpec(
            dims=(30, 26, 22),
            particles=(Primitive("ball", center=(9, 9, 10), radius=6, vfvm=0.4),
                       Primitive("box", center=(21, 16, 11), size=(7, 9, 5),
                                 angles=(20, 30, 40), vfvm=0.7),
                       Primitive("ball", center=(8, 20, 16), radius=3, vfvm=0.5)),
            phase_planes=((2, 10), (0, 9), (1, 16), (0, 21), (2, 10)),
            seed=4)
        _, labels, slices = generate_scene(spec)
        grids = reference_phase_grids(spec, labels.labels)
        assert [sl.plane for sl in slices] == list(grids)
        for sl, grid in zip(slices, grids.values()):
            assert np.array_equal(sl.phases, grid.ravel())

    def test_ball_vfvm_by_construction(self):
        spec = ball_spec(vfvm=0.75)
        volume, labels, slices = generate_scene(spec)
        assert labels.n_particles == 1
        ratio = register_phase_slices(labels, slices).mineral_ratio(1)
        assert ratio == pytest.approx(0.75, abs=0.05)

    def test_empty_spec(self):
        volume, labels, slices = generate_scene(SceneSpec(dims=(8, 8, 8)))
        assert labels.n_particles == 0
        assert volume.dims == (8, 8, 8)

    def test_seeded_twice_identical(self):
        a_vol, a_lab, a_slices = generate_scene(ball_spec(seed=9))
        b_vol, b_lab, b_slices = generate_scene(ball_spec(seed=9))
        assert np.array_equal(a_vol.values, b_vol.values)
        assert np.array_equal(a_lab.labels, b_lab.labels)
        for sa, sb in zip(a_slices, b_slices):
            assert np.array_equal(sa.phases, sb.phases)

    def test_overlap_rejected(self):
        spec = SceneSpec(
            dims=(30, 30, 30),
            particles=(
                Primitive("ball", center=(14, 14, 14), radius=6),
                Primitive("ball", center=(16, 14, 14), radius=6),
            ))
        with pytest.raises(ArgumentError, match="overlap"):
            generate_scene(spec)

    def test_box_particle_and_dataset(self):
        spec = SceneSpec(
            dims=(40, 40, 20),
            particles=(
                Primitive("box", center=(10, 10, 10), size=(12, 6, 4),
                          gray_mean=3.0, vfvm=1.0),
                Primitive("ball", center=(28, 28, 10), radius=6,
                          gray_mean=1.0, vfvm=0.0),
            ),
            phase_planes=((2, 10),),
            seed=5)
        volume, labels, slices = generate_scene(spec)
        ds = build_dataset(labels, volume, slices)
        assert len(ds) == 2
        assert ds.column("rat")[0] == pytest.approx(1.0)
        assert ds.column("rat")[1] == pytest.approx(0.0)
        # box median gray well above ball median gray
        assert ds.column("med")[0] > ds.column("med")[1]

    def test_spec_json_round_trip(self):
        spec = ball_spec()
        back = SceneSpec.from_json(spec.to_json())
        assert back == spec


class TestGenerateCompositeDataset:
    def test_exact_counts(self):
        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 227, 489, 625, seed=1)
        assert len(ds) == 1341
        rat = ds.column("rat")
        assert int((rat >= 0.99).sum()) == 227
        assert int((rat <= 0.01).sum()) == 489

    def test_all_composite(self):
        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 0, 0, 10, seed=2)
        assert len(ds) == 10
        rat = ds.column("rat")
        assert np.all((rat > 0.01) & (rat < 0.99))

    def test_partition_round_trip(self):
        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 30, 40, 50, seed=3)
        d_v, d_nv, d_c = partition_dataset(ds, epsilon=0.01)
        assert (len(d_v), len(d_nv), len(d_c)) == (30, 40, 50)

    def test_deterministic(self):
        truth = benchmark_truth()
        a = generate_composite_dataset(truth, 20, 20, 20, seed=7)
        b = generate_composite_dataset(truth, 20, 20, 20, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_sample_then_fit_recovers_edge_taus(self):
        # generate -> partition -> fit -> compare each fitted edge's
        # empirical tau against the generator's corresponding edge tau
        from orevine.copulas import kendall_tau
        from orevine.model import fit_composite

        truth = benchmark_truth()
        ds = generate_composite_dataset(truth, 3000, 3000, 4000, seed=13)
        fitted = fit_composite(ds, engine="rvine")

        gen_tau = {"clayton": lambda t: t / (t + 2.0),
                   "gumbel": lambda t: 1.0 - 1.0 / t}
        for gen_model, fit_model, part in (
                (truth.f_v, fitted.f_v, "v"), (truth.f_c, fitted.f_c, "c")):
            gen_edges = {e.conditioned: c for e, c in gen_model.edge_items()
                         if not e.conditioning}
            # data columns for the partition
            d_v, d_nv, d_c = partition_dataset(ds)
            data = {"v": d_v, "c": d_c}[part].matrix
            u = np.column_stack([gen_model.marginals[i].cdf(data[:, i])
                                 for i in range(gen_model.d)])
            for cond, cop in gen_edges.items():
                emp = kendall_tau(u[:, cond[0]], u[:, cond[1]])
                if cop.family == "independence":
                    assert abs(emp) < 0.05
                elif cop.family in gen_tau:
                    assert emp == pytest.approx(gen_tau[cop.family](cop.theta),
                                                abs=0.05)
