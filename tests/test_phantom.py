import numpy as np
import numpy.testing as npt
import pytest

from dcemetrics.metrics import detect_ce, dice
from dcemetrics.phantom import (
    PhantomSpec,
    Region,
    gamma_variate,
    generate,
    make_triple,
)


def _basic_spec(**overrides):
    defaults = dict(
        grid=(32, 32),
        regions=(
            Region(center=(10, 10), radii=(5, 6), baseline=80.0),
            Region(
                center=(22, 20),
                radii=(6, 5),
                baseline=60.0,
                amplitude=100.0,
                onset=0.5,
                alpha=3.0,
                beta=1.5,
            ),
        ),
        n_frames=6,
        background=20.0,
        seed=7,
    )
    defaults.update(overrides)
    return PhantomSpec(**defaults)


class TestValidation:
    def test_region_outside_grid(self):
        with pytest.raises(ValueError, match="outside"):
            PhantomSpec(
                grid=(16, 16),
                regions=(Region(center=(14, 8), radii=(5, 3), baseline=1.0),),
            )

    def test_nonpositive_radii(self):
        with pytest.raises(ValueError, match="radii"):
            Region(center=(4, 4), radii=(0, 2), baseline=1.0)

    def test_single_frame(self):
        with pytest.raises(ValueError, match="two frames"):
            _basic_spec(n_frames=1)

    def test_negative_sigma(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            _basic_spec(noise_sigma=-1.0)

    def test_grid_rank(self):
        with pytest.raises(ValueError, match="2D or 3D"):
            PhantomSpec(grid=(8,), regions=())

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_spacing(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            _basic_spec(spacing_mm=(bad, 1.0))

    def test_spec_round_trips_through_dict(self):
        spec = _basic_spec(noise_sigma=3.0, spacing_mm=(1.12, 1.12))
        assert PhantomSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", [
        "center", "radii", "baseline", "amplitude", "onset", "alpha", "beta",
    ])
    def test_non_finite_region_field_rejected(self, field, bad):
        fields = dict(center=(10.0, 10.0), radii=(5.0, 6.0), baseline=80.0, amplitude=100.0)
        fields[field] = (bad, 5.0) if field in ("center", "radii") else bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Region(**fields)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["noise_sigma", "motion", "background"])
    def test_non_finite_spec_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            _basic_spec(**{field: bad})

    def test_from_dict_stores_plain_types(self):
        d = _basic_spec().to_dict()
        spec = PhantomSpec.from_dict({**d, "noise_sigma": 2, "n_frames": np.int64(6),
                                      "rician": np.True_, "grid": np.array([32, 32])})
        got = (spec.noise_sigma, spec.n_frames, spec.rician, spec.grid)
        assert got == (2.0, 6, True, (32, 32))
        assert [type(v) for v in got[:3]] + [type(n) for n in spec.grid] == [
            float, int, bool, int, int]

    @pytest.mark.parametrize("key, value, message", [
        ("grid", [8.9, 8], "grid must be a list of integers"),
        ("grid", [True, 8], "grid must be a list of integers"),
        ("n_frames", 2.7, "n_frames must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("rician", "no", "rician must be a boolean"),
        ("rician", 1, "rician must be a boolean"),
        ("noise_sigma", True, "noise_sigma must be a number"),
        ("background", "20", "background must be a number"),
        ("spacing_mm", "12", "spacing_mm must be a list of numbers"),
        ("spacing_mm", [True, 2.0], "spacing_mm must be a list of numbers"),
    ], ids=["grid-float", "grid-bool", "n_frames-float", "seed-float", "seed-bool",
            "rician-string", "rician-int", "noise_sigma-bool", "background-string",
            "spacing-string", "spacing-bool"])
    def test_from_dict_rejects_wrongly_typed_value(self, key, value, message):
        # unchecked, int(), bool() and float() gave grid (8, 8), 2 frames, seed 1,
        # rician True and spacing (1.0, 2.0) from "12"
        d = {**_basic_spec().to_dict(), "grid": [32, 32], key: value}
        with pytest.raises(ValueError, match=f"^{message}, got "):
            PhantomSpec.from_dict(d)

    @pytest.mark.parametrize("key, value", [("center", "12"), ("radii", [5, False])])
    def test_region_vector_rejects_strings_and_bools(self, key, value):
        fields = dict(center=(10.0, 10.0), radii=(5.0, 6.0), baseline=80.0)
        with pytest.raises(ValueError, match=f"^{key} must be a list of numbers"):
            Region.from_dict({**fields, key: value})

    @pytest.mark.parametrize("d", ["spec", [1, 2], None])
    def test_from_dict_needs_an_object(self, d):
        with pytest.raises(ValueError, match="must be a JSON object"):
            PhantomSpec.from_dict(d)


class TestGammaVariate:
    def test_zero_before_onset(self):
        t = np.array([0.0, 0.5, 1.0])
        npt.assert_array_equal(gamma_variate(t, onset=1.0, alpha=3, beta=1.5), 0.0)

    def test_unit_peak_at_onset_plus_tp(self):
        alpha, beta = 3.0, 1.5
        peak_t = 2.0 + alpha / beta
        assert gamma_variate(np.array([peak_t]), 2.0, alpha, beta)[0] == pytest.approx(1.0)
        # sampled on a fine lattice the maximum sits at the closed-form time
        t = np.linspace(0, 20, 4001)
        g = gamma_variate(t, 2.0, alpha, beta)
        assert abs(t[np.argmax(g)] - peak_t) < 0.01

    def test_nonnegative_everywhere(self):
        t = np.linspace(-5, 30, 500)
        assert gamma_variate(t, 1.0, 2.5, 0.8).min() >= 0.0


class TestGenerate:
    def test_static_when_nothing_enhances(self):
        spec = _basic_spec(
            regions=(Region(center=(10, 10), radii=(4, 4), baseline=50.0),)
        )
        out = generate(spec)
        for t in range(spec.n_frames):
            npt.assert_array_equal(out.sequence.frame(t), out.sequence.frame(0))
        assert not out.truth_mask.mask.any()

    def test_noise_free_values_exact(self):
        spec = _basic_spec()
        out = generate(spec)
        enh = spec.regions[1]
        inside = tuple(int(c) for c in enh.center)
        for t in range(spec.n_frames):
            expected = out.truth_curves[1, t]
            assert out.sequence.frame(t)[inside] == expected
        # background voxel never moves
        assert np.ptp(out.sequence.frames[:, 0, 0]) == 0.0

    def test_truth_mask_is_enhancing_union(self):
        out = generate(_basic_spec())
        grids = np.ogrid[0:32, 0:32]
        expected = sum(
            ((g - c) / r) ** 2 for g, c, r in zip(grids, (22, 20), (6, 5))
        ) <= 1.0
        npt.assert_array_equal(out.truth_mask.mask, expected)

    def test_bit_identical_reruns(self):
        spec = _basic_spec(noise_sigma=4.0, motion=0.5)
        a, b = generate(spec), generate(spec)
        npt.assert_array_equal(a.sequence.frames, b.sequence.frames)

    def test_different_seeds_differ(self):
        a = generate(_basic_spec(noise_sigma=4.0, seed=1))
        b = generate(_basic_spec(noise_sigma=4.0, seed=2))
        assert not np.array_equal(a.sequence.frames, b.sequence.frames)

    def test_noise_sigma_recovered_on_static_background(self):
        spec = PhantomSpec(
            grid=(64, 64), regions=(), n_frames=4, noise_sigma=5.0, seed=3
        )
        out = generate(spec)
        diff = out.sequence.frame(1) - out.sequence.frame(0)
        # difference of two independent draws has std sigma * sqrt(2)
        assert diff.std() == pytest.approx(5.0 * np.sqrt(2.0), rel=0.1)

    def test_rician_noise_is_nonnegative_on_dark_background(self):
        spec = PhantomSpec(
            grid=(32, 32), regions=(), n_frames=3, noise_sigma=10.0, rician=True
        )
        assert generate(spec).sequence.frames.min() >= 0.0

    def test_motion_moves_structures(self):
        spec = _basic_spec(motion=1.5)
        out = generate(spec)
        still = generate(_basic_spec())
        assert not np.array_equal(out.sequence.frame(0), still.sequence.frame(0))

    def test_3d_grid(self):
        spec = PhantomSpec(
            grid=(8, 16, 16),
            regions=(
                Region(center=(4, 8, 8), radii=(2, 4, 4), baseline=30.0, amplitude=50.0),
            ),
            n_frames=4,
        )
        out = generate(spec)
        assert out.sequence.frames.shape == (4, 8, 16, 16)
        assert out.truth_mask.mask.shape == (8, 16, 16)

    def test_detect_ce_recovers_truth_noise_free(self):
        out = generate(_basic_spec())
        ce = detect_ce(out.sequence, baseline_index=0, threshold=20.0)
        npt.assert_array_equal(ce.mask, out.truth_mask.mask)

    def test_detect_ce_dice_under_noise(self):
        spec = _basic_spec(noise_sigma=5.0)  # threshold / 4
        out = generate(spec)
        ce = detect_ce(out.sequence, baseline_index=0, threshold=20.0)
        assert dice(ce.mask, out.truth_mask.mask) >= 0.95


class TestMakeTriple:
    def test_degenerate_indices_collapse(self):
        # with motion on, all three frames must draw the same offset
        for motion in (0.0, 1.5):
            spec = _basic_spec(motion=motion)
            content, style, generated = make_triple(spec, 2, 2)
            npt.assert_array_equal(content, style)
            npt.assert_array_equal(content, generated)

    def test_noiseless_generated_equals_style_frame(self):
        spec = _basic_spec()
        _, style, generated = make_triple(spec, 0, 4)
        npt.assert_array_equal(generated, style)
        npt.assert_array_equal(generated, generate(spec).sequence.frame(4))

    def test_noisy_draws_are_independent(self):
        # the content frame must take its offset and then its noise from
        # the same generator as the sequence frame, also with Rician noise
        for extra in ({}, {"motion": 1.5, "rician": True}):
            spec = _basic_spec(noise_sigma=3.0, **extra)
            content, style, generated = make_triple(spec, 0, 4)
            seq = generate(spec).sequence
            npt.assert_array_equal(content, seq.frame(0))
            assert not np.array_equal(style, seq.frame(4))
            assert not np.array_equal(generated, style)
            # same enhancement values though
            assert np.abs(style - generated).mean() < 6 * 3.0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="indices"):
            make_triple(_basic_spec(), 0, 6)

    def test_generated_keeps_content_geometry_under_motion(self):
        spec = _basic_spec(motion=2.0)
        content, style, generated = make_triple(spec, 0, 4)
        # geometry of frame 0, enhancement of frame 4: the generated frame
        # correlates spatially with content where nothing enhances
        truth = generate(spec).truth_mask.mask
        quiet = ~truth
        diff_content = np.abs(generated - content)[quiet].mean()
        diff_style = np.abs(generated - style)[quiet].mean()
        assert diff_content < diff_style
