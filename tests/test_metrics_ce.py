import logging

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dcemetrics.metrics import (
    CEMask,
    detect_ce,
    dice,
    distance_map,
    distance_transform,
    invert_map,
)
from dcemetrics.tensor import VolumeSequence
from oracles import brute_force_edt, voxelwise_ce_mask, voxelwise_dice


# masks up to 3D; sides start at 1 so 1-voxel axes are drawn often
_masks = arrays(bool, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7))


def _ellipse_mask(shape, center, radii):
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    acc = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    return acc <= 1.0


class TestDetectCE:
    def test_constant_sequence_all_false(self):
        seq = VolumeSequence(np.full((4, 8, 8), 100.0))
        ce = detect_ce(seq, baseline_index=0, threshold=20.0)
        assert not ce.mask.any()
        assert ce.threshold_used == 20.0
        assert ce.baseline_index == 0

    def test_recovers_known_ellipse(self):
        truth = _ellipse_mask((16, 16), (8, 8), (4, 5))
        frames = np.full((5, 16, 16), 50.0)
        frames[1:] += 100.0 * truth  # enhancement from frame 1 onward
        ce = detect_ce(VolumeSequence(frames), baseline_index=0, threshold=20.0)
        npt.assert_array_equal(ce.mask, truth)

    def test_noisy_mask_matches_voxelwise_recomputation(self):
        rng = np.random.default_rng(42)
        truth = _ellipse_mask((16, 16), (7, 9), (5, 4))
        frames = np.full((6, 16, 16), 50.0)
        frames[1:] += 100.0 * truth
        frames += rng.normal(0.0, 5.0, size=frames.shape)
        ce = detect_ce(VolumeSequence(frames), baseline_index=0, threshold=20.0)
        expected = voxelwise_ce_mask(frames, 0, 20.0)
        npt.assert_array_equal(ce.mask, expected)
        assert dice(ce.mask, truth) > 0.9

    def test_signed_reverse_flips_detection(self):
        truth = _ellipse_mask((12, 12), (6, 6), (3, 3))
        frames = np.full((4, 12, 12), 200.0)
        frames[1:] -= 100.0 * truth  # signal drop instead of rise
        seq = VolumeSequence(frames)
        assert not detect_ce(seq, 0, 20.0).mask.any()
        npt.assert_array_equal(detect_ce(seq, 0, 20.0, signed_reverse=True).mask, truth)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="two frames"):
            detect_ce(VolumeSequence(np.zeros((1, 4, 4))))

    def test_baseline_out_of_range(self):
        with pytest.raises(ValueError, match="baseline_index"):
            detect_ce(VolumeSequence(np.zeros((3, 4, 4))), baseline_index=3)

    def test_nonzero_baseline_index(self):
        frames = np.zeros((3, 4, 4))
        frames[0] = 130.0
        frames[2] = 130.0
        ce = detect_ce(VolumeSequence(frames), baseline_index=1, threshold=20.0)
        assert ce.mask.all()

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_matches_voxelwise_oracle_bit_for_bit(self, data):
        n_frames = data.draw(st.integers(2, 6))
        spatial = data.draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
        # full-mantissa values, so sums in another order round differently
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        frames = rng.normal(data.draw(st.floats(-1e6, 1e6)), scale, (n_frames, *spatial))
        baseline = data.draw(st.integers(0, n_frames - 1))
        reverse = data.draw(st.booleans())
        signed = -frames if reverse else frames
        # the exact mean rise of one voxel, summed in time order as the oracle
        # does: a mean one ulp off flips that voxel at this threshold
        pos = tuple(data.draw(st.integers(0, n - 1)) for n in spatial)
        rise = 0.0
        for t in range(n_frames):
            if t != baseline:
                rise += signed[(t, *pos)] - signed[(baseline, *pos)]
        rise /= n_frames - 1
        threshold = data.draw(st.sampled_from([rise, np.nextafter(rise, -np.inf)]))
        ce = detect_ce(VolumeSequence(frames), baseline, threshold, signed_reverse=reverse)
        npt.assert_array_equal(ce.mask, voxelwise_ce_mask(signed, baseline, threshold))
        assert ce.mask[pos] == (threshold != rise)

    def test_overflow_named_instead_of_a_wrong_mask(self):
        # the true mean rise is -2, but a running sum reaches inf before the
        # negative frames, which flagged every voxel
        frames = np.zeros((6, 2, 2))
        frames[1:] = np.array([1e308, 1e308, -1e308, -1e308, -10.0])[:, None, None]
        for state in ({}, {"over": "raise"}):  # numpy's default, and a caller's error state
            with np.errstate(**state), pytest.raises(
                    ValueError, match="^sequence is too large to score"):
                detect_ce(VolumeSequence(frames))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="^threshold must be finite"):
            detect_ce(VolumeSequence(np.zeros((3, 4, 4))), threshold=threshold)


class TestDistanceTransform:
    def test_matches_brute_force_1d(self):
        mask = np.array([True, False, False])
        npt.assert_array_equal(distance_transform(mask), [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_2d_exactly(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((9, 9)) < 0.15
        expected = brute_force_edt(mask)
        got = distance_transform(mask)
        if mask.any():
            npt.assert_array_equal(got, expected)
        else:
            assert np.all(np.isinf(got))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_3d_exactly(self, seed):
        rng = np.random.default_rng(100 + seed)
        mask = rng.random((7, 6, 5)) < 0.1
        expected = brute_force_edt(mask)
        got = distance_transform(mask)
        finite = np.isfinite(expected)
        npt.assert_array_equal(got[finite], expected[finite])

    def test_anisotropic_spacing(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        got = distance_transform(mask, spacing=(1.12, 3.5))
        expected = brute_force_edt(mask, spacing=(1.12, 3.5))
        npt.assert_allclose(got, expected, rtol=1e-12)

    def test_spacing_rank_check(self):
        with pytest.raises(ValueError, match="spacing"):
            distance_transform(np.ones((3, 3), dtype=bool), spacing=(1.0,))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_spacing_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            distance_transform(np.eye(3, dtype=bool), (bad, 1.0))

    def test_rank_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            distance_transform(np.array(True))

    @settings(derandomize=True, deadline=None)
    @given(mask=_masks)
    def test_property_matches_brute_force(self, mask):
        npt.assert_array_equal(distance_transform(mask), brute_force_edt(mask))

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_anisotropic_spacing(self, data):
        mask = data.draw(_masks)
        spacing = data.draw(
            st.tuples(*[st.floats(0.25, 4.0) for _ in range(mask.ndim)])
        )
        npt.assert_allclose(
            distance_transform(mask, spacing=spacing),
            brute_force_edt(mask, spacing=spacing),
            rtol=1e-12,
        )

    @settings(derandomize=True, deadline=None)
    @given(shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7))
    def test_property_degenerate_masks(self, shape):
        assert np.all(np.isposinf(distance_transform(np.zeros(shape, dtype=bool))))
        npt.assert_array_equal(distance_transform(np.ones(shape, dtype=bool)), 0.0)


class TestDistanceMap:
    def test_all_true_gives_uniform_min_weight(self):
        dm = distance_map(np.ones((4, 4), dtype=bool))
        npt.assert_array_equal(dm.weights, np.full((4, 4), 0.1))

    def test_all_false_gives_uniform_unit_weight(self, caplog):
        with caplog.at_level(logging.INFO, logger="dcemetrics.metrics"):
            dm = distance_map(np.zeros((4, 4), dtype=bool))
        npt.assert_array_equal(dm.weights, np.ones((4, 4)))
        assert any("uniform" in r.message for r in caplog.records)

    def test_1d_normalization_endpoints(self):
        dm = distance_map(np.array([True, False, False]))
        npt.assert_allclose(dm.weights, [0.1, 0.55, 1.0], atol=1e-15)

    def test_weights_bounded_and_anchored(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mask = rng.random((8, 8)) < 0.2
            if not mask.any():
                continue
            dm = distance_map(mask)
            assert dm.weights.min() >= 0.1 - 1e-15
            assert dm.weights.max() <= 1.0 + 1e-15
            npt.assert_allclose(dm.weights[mask], 0.1, atol=1e-15)

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_weights_in_range_and_sum_with_inverse(self, data):
        mask = data.draw(_masks)
        if data.draw(st.booleans(), label="physical"):
            spacing = data.draw(st.tuples(*[st.floats(0.25, 4.0) for _ in range(mask.ndim)]))
            dm = distance_map(mask, spacing, "physical")
        else:
            dm = distance_map(mask)
        assert dm.weights.min() >= 0.1
        assert dm.weights.max() <= 1.0
        npt.assert_allclose(dm.weights + invert_map(dm).weights, 1.1, rtol=0, atol=1e-15)

    def test_accepts_ce_mask_wrapper(self):
        ce = CEMask(np.array([[True, False]]), 20.0, 0)
        dm = distance_map(ce)
        assert dm.weights.shape == (1, 2)

    def test_physical_mode_requires_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            distance_map(np.ones((3, 3), dtype=bool), mode="physical")

    def test_physical_mode_scales_distances(self):
        mask = np.zeros((1, 3), dtype=bool)
        mask[0, 0] = True
        dm_vox = distance_map(mask, mode="voxel")
        dm_phys = distance_map(mask, spacing=(1.0, 2.0), mode="physical")
        # normalization hides the absolute scale; raw distances must not
        npt.assert_allclose(dm_phys.distances[0], [0.0, 2.0, 4.0])
        npt.assert_allclose(dm_vox.distances[0], [0.0, 1.0, 2.0])


class TestInvertMap:
    def test_endpoint_reflection(self):
        dm = distance_map(np.array([True, False, False]))
        inv = invert_map(dm)
        npt.assert_allclose(inv.weights, [1.0, 0.55, 0.1], atol=1e-15)
        assert inv.inverted

    def test_double_inversion_forbidden(self):
        dm = invert_map(distance_map(np.array([True, False])))
        with pytest.raises(ValueError, match="already inverted"):
            invert_map(dm)

    def test_affine_reflection_is_involution(self):
        rng = np.random.default_rng(23)
        mask = rng.random((6, 6)) < 0.3
        dm = distance_map(mask)
        twice = 1.1 - invert_map(dm).weights
        npt.assert_allclose(twice, dm.weights, atol=1e-15)

    def test_sum_with_original_is_constant(self):
        rng = np.random.default_rng(29)
        mask = rng.random((7, 5)) < 0.25
        dm = distance_map(mask)
        inv = invert_map(dm)
        npt.assert_allclose(dm.weights + inv.weights, 1.1, atol=1e-15)


class TestDice:
    def test_matches_voxelwise_scan(self):
        rng = np.random.default_rng(31)
        a = rng.random((10, 10)) < 0.4
        b = rng.random((10, 10)) < 0.4
        assert dice(a, b) == pytest.approx(voxelwise_dice(a, b))

    def test_empty_masks(self):
        z = np.zeros((3, 3), dtype=bool)
        assert dice(z, z) == 1.0

    def test_disjoint(self):
        a = np.array([True, False])
        b = np.array([False, True])
        assert dice(a, b) == 0.0
