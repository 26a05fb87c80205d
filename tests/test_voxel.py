import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from orevine import voxel
from orevine.descriptors import build_dataset
from orevine.errors import ArgumentError, StructuralError
from orevine.synth import Primitive, SceneSpec, generate_scene
from orevine.voxel import (
    LabelVolume,
    PhaseSlice,
    VoxelVolume,
    WeightMap,
    binarize_and_label,
    compute_weight_map,
    read_labels,
    read_volume,
    register_phase_slices,
    weight_from_distances,
    weighted_bce,
    write_labels,
    write_volume,
)


def volume_from(values):
    return VoxelVolume(np.asarray(values, dtype=float))


def reference_two_distances(slice_labels, d_hat):
    """The stacked form: one whole-slice distance map per particle on the
    slice, partitioned for the two smallest, then truncated."""
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


def blob_slice(rng, shape, ids):
    """Rectangles of the given ids at random places, the border included;
    a later one may cover an earlier one, in part or in whole."""
    grid = np.zeros(shape, dtype=np.uint32)
    for k in ids:
        x, y = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        wx, wy = rng.integers(1, 6, 2)
        grid[max(x - wx, 0):x + wx, max(y - wy, 0):y + wy] = k
    return grid


D_HATS = (0.5, 1.0, 2.5, 5.0, 7.3, 1e300, np.inf)


class TestBinarizeAndLabel:
    def test_small_component_dropped(self):
        vals = np.zeros((10, 10, 10))
        vals[2:4, 2:4, 2:4] = 1.0  # 8 voxels, grow to 10
        vals[4, 2, 2] = 1.0
        vals[4, 3, 2] = 1.0
        lab = binarize_and_label(volume_from(vals), 0.5, min_size=50)
        assert lab.n_particles == 0

    def test_all_background(self):
        lab = binarize_and_label(volume_from(np.zeros((5, 5, 5))), 0.5)
        assert lab.n_particles == 0

    def test_corner_touching_cubes_connectivity(self):
        vals = np.zeros((8, 8, 8))
        vals[0:3, 0:3, 0:3] = 1.0
        vals[3:6, 3:6, 3:6] = 1.0  # touches only at corner (2,2,2)-(3,3,3)
        six = binarize_and_label(volume_from(vals), 0.5, connectivity=6, min_size=0)
        assert six.n_particles == 2
        tw = binarize_and_label(volume_from(vals), 0.5, connectivity=26, min_size=0)
        assert tw.n_particles == 1

    def test_labels_ordered_by_size_then_index(self):
        vals = np.zeros((12, 12, 4))
        vals[8:11, 8:11, 0:2] = 1.0   # 18 voxels, later linear index
        vals[0:2, 0:2, 0:2] = 1.0     # 8 voxels, smallest index
        vals[4:6, 4:6, 0:3] = 1.0     # 12 voxels
        lab = binarize_and_label(volume_from(vals), 0.5, min_size=0)
        sizes = np.bincount(lab.labels.ravel())[1:]
        assert list(sizes) == sorted(sizes, reverse=True)
        assert lab.labels[8, 8, 0] == 1
        assert lab.labels[4, 4, 0] == 2
        assert lab.labels[0, 0, 0] == 3

    def test_equal_size_tie_broken_by_index(self):
        vals = np.zeros((10, 10, 3))
        vals[6:8, 6:8, 0] = 1.0
        vals[0:2, 0:2, 0] = 1.0
        lab = binarize_and_label(volume_from(vals), 0.5, min_size=0)
        assert lab.labels[0, 0, 0] == 1
        assert lab.labels[6, 6, 0] == 2

    def test_permutation_stability(self):
        rng = np.random.default_rng(5)
        vals = (rng.random((15, 15, 15)) > 0.7).astype(float)
        lab1 = binarize_and_label(volume_from(vals), 0.5, min_size=0)
        # change foreground magnitudes without changing the mask
        vals2 = vals * rng.uniform(1.0, 7.0, vals.shape)
        lab2 = binarize_and_label(volume_from(vals2), 0.5, min_size=0)
        assert np.array_equal(lab1.labels, lab2.labels)

    def test_bad_threshold(self):
        with pytest.raises(ArgumentError):
            binarize_and_label(volume_from(np.zeros((3, 3, 3))), np.nan)


class TestWeightMap:
    def test_direct_formula_at_zero_distance(self):
        assert weight_from_distances(0.0, 0.0) == pytest.approx(1.04)

    def test_truncated_distances_vanish(self):
        assert weight_from_distances(np.inf, np.inf) == pytest.approx(0.04)
        assert weight_from_distances(2.0, np.inf) == pytest.approx(0.04)

    def test_balancing_constant_synthetic(self):
        # 20x20 slice: one 10x10 particle = 100 fg, 300 bg voxels
        labels = np.zeros((20, 20, 3), dtype=np.uint32)
        labels[5:15, 5:15, 1] = 1
        lab = LabelVolume(labels)
        wm = compute_weight_map(lab, [1])
        w = wm.weights[:, :, 1]
        fg = labels[:, :, 1] > 0
        assert np.count_nonzero(fg) == 100
        # direct-summation oracle
        assert wm.c_f == pytest.approx(w[~fg].sum() / 100.0, rel=1e-12)
        assert w[fg].sum() == pytest.approx(w[~fg].sum(), rel=1e-6)

    def test_zero_outside_annotated(self):
        labels = np.zeros((8, 8, 5), dtype=np.uint32)
        labels[2:5, 2:5, 2] = 1
        labels[2:5, 2:5, 3] = 1
        wm = compute_weight_map(LabelVolume(labels), [2])
        assert np.all(wm.weights[:, :, 3] == 0.0)
        assert np.all(wm.weights[:, :, 0] == 0.0)
        assert wm.weights[:, :, 2].sum() > 0

    def test_background_weight_range(self):
        rng = np.random.default_rng(31)
        labels = np.zeros((16, 16, 2), dtype=np.uint32)
        blob = rng.random((16, 16)) > 0.8
        from scipy import ndimage
        raw, n = ndimage.label(blob)
        labels[:, :, 0] = raw
        try:
            lab = LabelVolume(labels)
        except ArgumentError:
            pytest.skip("random labeling not contiguous")
        wm = compute_weight_map(lab, [0])
        bg = labels[:, :, 0] == 0
        w = wm.weights[:, :, 0][bg]
        assert np.all(w >= 0.04 - 1e-12)
        assert np.all(w <= 1.04 + 1e-12)

    def test_single_particle_second_distance_infinite(self):
        labels = np.zeros((10, 10, 1), dtype=np.uint32)
        labels[4:6, 4:6, 0] = 1
        wm = compute_weight_map(LabelVolume(labels), [0])
        bg = labels[:, :, 0] == 0
        # with only one particle, every background weight is the floor
        assert np.allclose(wm.weights[:, :, 0][bg], 0.04)

    def test_two_distances_match_stacked_reference(self):
        rng = np.random.default_rng(41)
        one = np.zeros((12, 10), dtype=np.uint32)
        one[9:, 7:] = 4                           # one particle in a corner
        grids = [np.zeros((7, 9), dtype=np.uint32), one]
        for _ in range(40):
            shape = tuple(int(n) for n in rng.integers(2, 33, 2))
            # ids up to 9, some never drawn and some covered by later ones
            ids = rng.choice(np.arange(1, 10), size=rng.integers(2, 8), replace=False)
            grids.append(blob_slice(rng, shape, ids))
        for grid in grids:
            for d_hat in D_HATS:
                got = voxel._slice_two_distances(grid, d_hat)
                want = reference_two_distances(grid, d_hat)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), d_hat

    def test_weight_map_matches_stacked_reference(self, monkeypatch):
        rng = np.random.default_rng(43)
        for _ in range(4):
            shape = tuple(int(n) for n in rng.integers(8, 30, 2))
            labels = np.zeros(shape + (5,), dtype=np.uint32)
            for z in range(3):
                ids = rng.choice(np.arange(1, 16), size=rng.integers(2, 9), replace=False)
                labels[:, :, z] = blob_slice(rng, shape, ids)
            labels[:, :, 3] = blob_slice(rng, shape, [16])   # one particle; z = 4 none
            # contiguous ids over the volume, most absent from any one slice
            labels = np.unique(labels, return_inverse=True)[1].reshape(labels.shape)
            lab = LabelVolume(labels.astype(np.uint32))
            for d_hat in D_HATS:
                got = compute_weight_map(lab, range(5), d_hat=d_hat)
                with monkeypatch.context() as m:
                    m.setattr(voxel, "_slice_two_distances", reference_two_distances)
                    want = compute_weight_map(lab, range(5), d_hat=d_hat)
                assert got.weights.tobytes() == want.weights.tobytes(), d_hat
                assert repr(got.c_f) == repr(want.c_f), d_hat

    def test_no_foreground_error(self):
        labels = np.zeros((6, 6, 2), dtype=np.uint32)
        with pytest.raises(ArgumentError):
            compute_weight_map(LabelVolume(labels), [0])

    def test_needs_slices(self):
        labels = np.zeros((4, 4, 2), dtype=np.uint32)
        with pytest.raises(ArgumentError):
            compute_weight_map(LabelVolume(labels), [])


def ball_grid_scene():
    """96 x 96 x 32 voxels, 128 balls of radius 2.5-4.5, one per 12-voxel
    cell, phased on the planes z = 6 (64 balls) and x = 30."""
    rng = np.random.default_rng(5)
    balls = tuple(Primitive("ball", center=(x, y, z), radius=float(rng.uniform(2.5, 4.5)))
                  for x in range(6, 96, 12) for y in range(6, 96, 12) for z in (6, 18))
    return generate_scene(SceneSpec(dims=(96, 96, 32), particles=balls,
                                    phase_planes=((2, 6), (0, 30)), seed=5))


def traced_peak(fn):
    """Peak bytes that Python and numpy allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratchMemory:
    """Per-particle work stays inside each particle's box: scratch memory
    does not grow with the volume or with particles x slice area."""

    def test_build_dataset_below_one_volume_grid(self):
        volume, labels, slices = ball_grid_scene()
        peak = traced_peak(lambda: build_dataset(labels, volume, slices))
        assert peak < volume.values.nbytes

    def test_weight_map_below_output_plus_slices(self):
        _, labels, _ = ball_grid_scene()
        assert np.count_nonzero(np.unique(labels.labels[:, :, 6])) == 64
        peak = traced_peak(lambda: compute_weight_map(labels, [6]))
        assert peak < labels.labels.size * 8 + 16 * 96 * 96 * 8


class TestWeightedBce:
    def make(self, dims=(4, 4, 2)):
        labels = np.zeros(dims, dtype=np.uint32)
        labels[0, 0, 0] = 1
        return LabelVolume(labels)

    def test_zero_weights_zero_loss(self):
        lab = self.make()
        wm = WeightMap(np.zeros(lab.dims), c_f=0.0)
        preds = np.full(lab.dims, 0.3)
        assert weighted_bce(lab, preds, wm) == 0.0

    def test_single_voxel_log2(self):
        lab = self.make()
        w = np.zeros(lab.dims)
        w[0, 0, 0] = 1.0
        wm = WeightMap(w, c_f=1.0)
        preds = np.full(lab.dims, 0.5)
        assert weighted_bce(lab, preds, wm) == pytest.approx(np.log(2.0))

    def test_perfect_prediction_near_zero(self):
        lab = self.make()
        wm = WeightMap(np.ones(lab.dims), c_f=1.0)
        preds = (lab.labels > 0).astype(float)
        loss = weighted_bce(lab, preds, wm)
        bound = np.prod(lab.dims) * 1.0 * -np.log(1 - 1e-7)
        assert 0.0 <= loss <= bound + 1e-12

    def test_monotone_in_prediction_quality(self):
        lab = self.make()
        wm = WeightMap(np.ones(lab.dims), c_f=1.0)
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.1, 0.9, lab.dims)
        base = weighted_bce(lab, preds, wm)
        target = (lab.labels > 0).astype(float)
        better = preds + 0.5 * (target - preds)  # move every voxel closer
        assert weighted_bce(lab, better, wm) <= base

    def test_dims_mismatch(self):
        lab = self.make()
        wm = WeightMap(np.ones(lab.dims), c_f=1.0)
        with pytest.raises(StructuralError):
            weighted_bce(lab, np.full((2, 2, 2), 0.5), wm)


class TestPhaseRegistration:
    def build_labels(self):
        labels = np.zeros((6, 6, 4), dtype=np.uint32)
        labels[0:2, 0:2, :] = 1      # crosses all z
        labels[4:6, 4:6, 3] = 2      # only at z=3
        return LabelVolume(labels)

    def test_particle_without_intersection_is_flagged(self):
        lab = self.build_labels()
        grid = np.zeros((6, 6), dtype=int)
        sl = PhaseSlice.from_plane(2, 0, grid)
        reg = register_phase_slices(lab, [sl])
        assert 2 in reg.flagged
        assert reg.mineral_ratio(2) is None

    def test_counts(self):
        lab = self.build_labels()
        grid = np.zeros((6, 6), dtype=int)
        grid[0, 0] = 1
        grid[0, 1] = 1
        grid[1, 0] = 2
        grid[1, 1] = 0
        sl = PhaseSlice.from_plane(2, 1, grid)
        reg = register_phase_slices(lab, [sl])
        # phases {1, 1, 2, 0} -> none=1, valuable=2, non-valuable=1
        assert reg.counts[1] == (1, 2, 1)
        assert reg.mineral_ratio(1) == pytest.approx(2.0 / 3.0)

    def test_union_counts_each_voxel_once(self):
        lab = self.build_labels()
        grid = np.zeros((6, 6), dtype=int)
        grid[0:2, 0:2] = 1
        a = PhaseSlice.from_plane(2, 2, grid)
        # the same plane again, non-valuable on two of the shared voxels,
        # plus one voxel of particle 1 that only this slice holds
        b = PhaseSlice(np.array([[0, 0, 2], [1, 1, 2], [0, 0, 3]]), np.array([2, 2, 2]))
        # brute-force union oracle: 4 distinct voxels from a, the first slice
        # holding them, and one more from b
        assert register_phase_slices(lab, [a, b]).counts[1] == (0, 4, 1)
        assert register_phase_slices(lab, [b, a]).counts[1] == (0, 2, 3)

    def test_matches_voxel_loop(self):
        rng = np.random.default_rng(7)
        labels = np.zeros((7, 6, 5), dtype=np.uint32)
        labels[0:3, 0:3, :] = 1
        labels[4:7, 2:6, 1:4] = 2
        labels[0:2, 4:6, 4] = 3
        lab = LabelVolume(labels)
        slices = [PhaseSlice.from_plane(2, 2, rng.integers(0, 3, (7, 6))),
                  PhaseSlice.from_plane(0, 1, rng.integers(0, 3, (6, 5))),
                  PhaseSlice(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64))]
        for m in (40, 60):
            coords = np.column_stack([rng.integers(0, d, m) for d in lab.dims])
            slices.append(PhaseSlice(coords, rng.integers(0, 3, m)))
        for order in (slices, slices[::-1]):
            # reference: first phase per voxel in slice order, then a count per label
            phase_of = {}
            for sl in order:
                for c, ph in zip(map(tuple, sl.coords.tolist()), sl.phases.tolist()):
                    phase_of.setdefault(c, ph)
            counts = {}
            for c, ph in phase_of.items():
                if labels[c]:
                    counts.setdefault(int(labels[c]), [0, 0, 0])[ph] += 1
            reg = register_phase_slices(lab, order)
            assert reg.counts == {k: tuple(v) for k, v in counts.items()}
            assert reg.flagged == frozenset({1, 2, 3} - set(counts))

    def test_slice_outside_volume(self):
        lab = self.build_labels()
        coords = np.array([[0, 0, 99]])
        sl = PhaseSlice(coords, np.array([1]))
        with pytest.raises(StructuralError):
            register_phase_slices(lab, [sl])


class TestIo:
    def test_volume_round_trip_sidecar(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = VoxelVolume(rng.random((4, 5, 6)), spacing=2.5)
        p = tmp_path / "vol.raw"
        write_volume(p, vol, dtype="float64")
        back = read_volume(p)
        assert back.spacing == 2.5
        assert np.array_equal(back.values, vol.values)

    def test_volume_round_trip_container(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = VoxelVolume(rng.random((3, 3, 3)))
        p = tmp_path / "vol.ovol"
        write_volume(p, vol, container=True, dtype="float32")
        back = read_volume(p)
        assert np.allclose(back.values, vol.values, atol=1e-7)

    def test_labels_round_trip(self, tmp_path):
        labels = np.zeros((4, 4, 2), dtype=np.uint32)
        labels[1:3, 1:3, :] = 1
        lab = LabelVolume(labels)
        p = tmp_path / "lab.raw"
        write_labels(p, lab)
        back = read_labels(p)
        assert back.labels.dtype == np.uint32
        assert np.array_equal(back.labels, labels)

    @pytest.mark.parametrize("container", [False, True])
    def test_readers_return_writeable_arrays(self, tmp_path, container):
        # the file bytes are read-only, and each grid is stored in the dtype
        # its reader casts to, so only the cast's copy makes it writeable
        labels = np.zeros((4, 4, 2), dtype=np.uint32)
        labels[1:3, 1:3, :] = 1
        write_volume(tmp_path / "vol", volume_from(labels), container=container,
                     dtype="float64")
        write_labels(tmp_path / "lab", LabelVolume(labels), container=container)
        assert read_volume(tmp_path / "vol").values.flags.writeable
        assert read_labels(tmp_path / "lab").labels.flags.writeable
