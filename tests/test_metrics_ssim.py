import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import dcemetrics.metrics as metrics
import dcemetrics.tensor as tensor
from dcemetrics.metrics import (
    METRIC_FIELDS,
    MS_SSIM_EXPONENTS,
    EvalParams,
    MetricReport,
    MSSSIMParams,
    SSIMParams,
    WeightingModeWarning,
    cw_ssim,
    detect_ce,
    distance_map,
    evaluate_triple,
    invert_map,
    ms_ssim,
    ms_ssim_scale_count,
    psnr,
    ssim,
)
from dcemetrics.tensor import VolumeSequence, window_sizes, windowed_moments
from oracles import naive_ms_ssim, naive_ssim


# numpy's error state as a caller may leave it: the default, and raising on
# overflow; an overflow must be named the same way under both
CALLER_ERRSTATES = ({}, {"over": "raise"})


def _image(seed, shape=(32, 32), lo=0.0, hi=255.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


# 2D images and 3D volumes; sides start at 1 so window truncation is drawn often
_shapes = array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=16)


def _gauss_window(sizes, sigma=1.5):
    # built here from first principles so the oracle shares no package code
    w = np.ones(())
    for n in sizes:
        r = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
        w = np.multiply.outer(w, np.exp(-(r**2) / (2.0 * sigma**2)))
    return w / w.sum()


class TestSSIM:
    def test_identity_is_one(self):
        x = _image(0)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_with_fixed_range(self):
        x, y = _image(1), _image(2)
        p = SSIMParams(data_range=255.0)
        assert ssim(x, y, p) == ssim(y, x, p)

    @settings(derandomize=True, deadline=None)
    @given(x=arrays(np.float64, _shapes, elements=st.floats(-1.0, 1.0)))
    def test_property_identity_is_one(self, x):
        L = float(x.max() - x.min())
        assume(L >= 0.5)
        # 1 up to the cancellation in E[x^2] - E[x]^2, which the variance
        # clamps at zero and the covariance does not: a few ulps of max x^2
        # against c2 = (0.03 L)^2
        tol = 16 * np.finfo(np.float64).eps * (np.abs(x).max() / (0.03 * L)) ** 2
        assert ssim(x, x) == pytest.approx(1.0, abs=tol)

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_symmetric_with_fixed_range(self, data):
        shape = data.draw(_shapes)
        x, y = (data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 255.0)))
                for _ in range(2))
        p = SSIMParams(data_range=255.0)
        assert ssim(x, y, p) == ssim(y, x, p)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_reference_2d(self, seed):
        x = _image(seed, (24, 24))
        y = np.clip(x + _image(seed + 50, (24, 24), -20, 20), 0, 255)
        p = SSIMParams(data_range=255.0)
        w = _gauss_window((11, 11))
        npt.assert_allclose(ssim(x, y, p), naive_ssim(x, y, w, 255.0), rtol=1e-10)

    def test_matches_naive_reference_3d(self):
        x = _image(7, (10, 12, 14))
        y = np.clip(x + _image(57, (10, 12, 14), -15, 15), 0, 255)
        p = SSIMParams(data_range=255.0)
        got = ssim(x, y, p)
        # 10-voxel axis truncates to the largest odd window that fits: 9 taps
        expected = naive_ssim(x, y, _gauss_window((9, 11, 11)), 255.0)
        npt.assert_allclose(got, expected, rtol=1e-10)

    def test_window_truncation_on_thin_axis(self):
        # a 5-voxel axis forces a 5-tap window on that axis only
        x = _image(8, (5, 40))
        y = np.clip(x + _image(58, (5, 40), -10, 10), 0, 255)
        p = SSIMParams(data_range=255.0)
        npt.assert_allclose(
            ssim(x, y, p), naive_ssim(x, y, _gauss_window((5, 11)), 255.0), rtol=1e-10
        )

    def test_auto_range_uses_first_argument(self):
        x = _image(3, lo=0.0, hi=100.0)
        y = _image(4, lo=0.0, hi=100.0)
        auto = ssim(x, y)
        fixed = ssim(x, y, SSIMParams(data_range=float(x.max() - x.min())))
        assert auto == fixed

    def test_constant_reference_without_range_rejected(self):
        with pytest.raises(ValueError, match="data_range"):
            ssim(np.full((16, 16), 5.0), _image(5, (16, 16)))

    def test_underflowing_range_rejected(self):
        # c1 = (0.01 L)^2 and c2 = (0.03 L)^2 underflow to 0 at L = 1e-200, so
        # flat windows would score 0 / 0
        x = np.zeros((16, 16))
        x[3, 4] = 1e-200
        with pytest.raises(ValueError, match="data_range"):
            ssim(x, x)
        with pytest.raises(ValueError, match="data_range"):
            ms_ssim(x, x)
        # a positive range whose constants stay nonzero still scores
        assert ssim(x, x, SSIMParams(data_range=1e-150)) == 1.0

    @pytest.mark.parametrize("score", ["ssim", "ms_ssim", "cw_ssim"])
    def test_overflow_names_input_or_range(self, score):
        # squares of values near 1e155 and the constant (0.03 * 1e160)^2 pass
        # the float64 range; each used to give nan or a bare OverflowError
        x = _image(9, (32, 32), 0.0, 1.0)
        dm = distance_map(x > 0.5)
        fn = {"ssim": ssim, "ms_ssim": ms_ssim,
              "cw_ssim": lambda a, b, p: cw_ssim(a, b, dm, p)}[score]
        for state in CALLER_ERRSTATES:
            with np.errstate(**state):
                with pytest.raises(ValueError, match="^x is too large to score"):
                    fn(x * 1e155, x, MSSSIMParams())  # auto range 1e155: finite constants
                with pytest.raises(ValueError, match="^y is too large to score"):
                    fn(x, x * 1e155, MSSSIMParams(data_range=1.0))
                for data_range in (None, 1e160, math.inf, math.nan):
                    with pytest.raises(ValueError, match="^data_range"):
                        fn(x * 1e160, x, MSSSIMParams(data_range=data_range))
                score_1e150 = fn(x * 1e150, x * 1e150, MSSSIMParams())
                assert score_1e150 == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ssim(_image(0, (16, 16)), _image(0, (16, 17)))

    def test_lower_for_degraded_image(self):
        x = _image(9)
        rng = np.random.default_rng(99)
        mild = x + rng.normal(0, 5, x.shape)
        harsh = x + rng.normal(0, 40, x.shape)
        p = SSIMParams(data_range=255.0)
        assert ssim(x, mild, p) > ssim(x, harsh, p)

    def test_per_slice_averages_2d_scores(self):
        x = _image(11, (4, 20, 20))
        y = np.clip(x + _image(61, (4, 20, 20), -10, 10), 0, 255)
        p = SSIMParams(data_range=255.0, per_slice=True)
        per_slice = [
            ssim(x[k], y[k], SSIMParams(data_range=255.0)) for k in range(4)
        ]
        npt.assert_allclose(ssim(x, y, p), np.mean(per_slice), rtol=1e-12)


class TestMSSSIM:
    def test_exponents_sum_to_one(self):
        assert math.fsum(MS_SSIM_EXPONENTS) == pytest.approx(1.0, abs=1e-15)

    def test_identity_is_one(self):
        x = _image(20, (64, 64))
        assert ms_ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_scale_count_176(self):
        # 176 -> 88 -> 44 -> 22 -> 11 supports all five scales
        assert ms_ssim_scale_count((176, 176), MSSSIMParams()) == 5
        # 40 -> 20 -> 10: the 11-tap window fits at 40 and 20 only, so two scales
        assert ms_ssim_scale_count((40, 40), MSSSIMParams()) == 2

    @pytest.mark.parametrize("shape", [(1, 40), (2, 64), (3, 100), (4, 64, 64), (12, 200, 200),
                                       (40, 6), (9, 9, 176)])
    def test_scale_count_agrees_with_window_sizes_on_thin_shapes(self, shape):
        # every scale counted holds the full-resolution window on every axis,
        # and the next scale, short of five, does not
        sizes = window_sizes(shape)
        n = ms_ssim_scale_count(shape, MSSSIMParams())
        fits = [all(d >> j >= k for d, k in zip(shape, sizes)) for j in range(6)]
        assert fits[:n] == [True] * n
        assert n == 5 or not fits[n]

    def test_thin_volume_falls_back_to_single_scale(self):
        p = MSSSIMParams(data_range=255.0)
        assert ms_ssim_scale_count((4, 64, 64), p) == 1
        x = _image(21, (4, 64, 64))
        y = np.clip(x + _image(71, (4, 64, 64), -10, 10), 0, 255)
        npt.assert_allclose(
            ms_ssim(x, y, p), ssim(x, y, SSIMParams(data_range=255.0)), rtol=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_reference(self, seed):
        x = _image(seed + 30, (96, 96))
        y = np.clip(x + _image(seed + 80, (96, 96), -25, 25), 0, 255)
        p = MSSSIMParams(data_range=255.0)
        n = ms_ssim_scale_count(x.shape, p)
        assert n == 4  # 96 -> 48 -> 24 -> 12; 6 cannot host an 11-tap window
        exponents = np.asarray(MS_SSIM_EXPONENTS[:n])
        exponents = exponents / exponents.sum()
        expected = naive_ms_ssim(x, y, exponents, _gauss_window((11, 11)), 255.0)
        npt.assert_allclose(ms_ssim(x, y, p), expected, rtol=1e-9)

    def test_strict_mode_rejects_small_input(self):
        p = MSSSIMParams(data_range=255.0, allow_scale_reduction=False)
        with pytest.raises(ValueError, match="176"):
            ms_ssim(_image(40, (64, 64)), _image(41, (64, 64)), p)

    def test_strict_mode_passes_large_input(self):
        x = _image(42, (176, 176))
        p = MSSSIMParams(data_range=255.0, allow_scale_reduction=False)
        assert 0.0 <= ms_ssim(x, x, p) <= 1.0 + 1e-12

    def test_reduced_exponents_renormalized(self):
        # two usable scales: score must use exponents (w1, w2) / (w1 + w2)
        x = _image(43, (40, 40))
        y = np.clip(x + _image(93, (40, 40), -20, 20), 0, 255)
        p = MSSSIMParams(data_range=255.0)
        w = np.asarray(MS_SSIM_EXPONENTS[:2])
        expected = naive_ms_ssim(x, y, w / w.sum(), _gauss_window((11, 11)), 255.0)
        npt.assert_allclose(ms_ssim(x, y, p), expected, rtol=1e-9)

    @pytest.mark.parametrize("shape", [(256, 256), (255, 129), (16, 48, 48), (7, 33, 20)])
    def test_pooling_matches_reshape_mean_bit_for_bit(self, shape):
        a = _image(45, shape)
        want = a
        for ax in range(a.ndim):  # the pooling as per-axis means of reshaped pairs
            n = want.shape[ax] - want.shape[ax] % 2
            want = want[(slice(None),) * ax + (slice(0, n),)]
            want = want.reshape(want.shape[:ax] + (n // 2, 2) + want.shape[ax + 1 :]).mean(ax + 1)
        npt.assert_array_equal(metrics._downsample2(a), want)

    @pytest.mark.parametrize("scales", [0, 6])
    def test_scale_count_outside_exponents_rejected(self, scales):
        x = _image(44, (64, 64))
        p = MSSSIMParams(data_range=255.0, scales=scales)
        with pytest.raises(ValueError, match="scales must lie in 1..5"):
            ms_ssim(x, x, p)
        with pytest.raises(ValueError, match="scales must lie in 1..5"):
            ms_ssim_scale_count(x.shape, p)


class TestCWSSIM:
    def _triple(self, seed, shape=(24, 24)):
        x = _image(seed, shape)
        y = np.clip(x + _image(seed + 500, shape, -20, 20), 0, 255)
        rng = np.random.default_rng(seed + 1000)
        mask = rng.random(shape) < 0.2
        if not mask.any():
            mask.flat[0] = True
        return x, y, distance_map(mask)

    def test_unit_map_identical_to_plain_ssim(self):
        x, y, dm = self._triple(1)
        unit = distance_map(np.zeros(x.shape, dtype=bool))  # degenerate: all ones
        p = SSIMParams(data_range=255.0)
        assert cw_ssim(x, y, unit, p) == ssim(x, y, p)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_ssim_of_weighted_images(self, seed):
        x, y, dm = self._triple(seed)
        p = SSIMParams(data_range=255.0)
        direct = ssim(x * dm.weights, y * dm.weights, p)
        npt.assert_allclose(cw_ssim(x, y, dm, p), direct, atol=1e-15)

    def test_identity_is_one(self):
        x, _, dm = self._triple(6)
        assert cw_ssim(x, x, dm) == pytest.approx(1.0, abs=1e-12)

    def test_style_mode_wants_inverted_map(self):
        x, y, dm = self._triple(7)
        with pytest.warns(WeightingModeWarning):
            cw_ssim(x, y, dm, SSIMParams(data_range=255.0), mode="style")
        inv = invert_map(dm)
        with pytest.warns(WeightingModeWarning):
            cw_ssim(x, y, inv, SSIMParams(data_range=255.0), mode="content")

    def test_map_of_another_shape_rejected(self):
        x, y, _ = self._triple(9)
        dm = distance_map(np.eye(20, dtype=bool))
        with pytest.raises(ValueError, match=r"^distance map \(20, 20\) does not match images "
                                             r"\(24, 24\)$"):
            cw_ssim(x, y, dm)

    def test_unknown_mode_rejected(self):
        x, y, dm = self._triple(10)
        with pytest.raises(ValueError, match="^unknown mode 'both', expected 'content' or "):
            cw_ssim(x, y, dm, mode="both")

    def test_auto_range_from_unweighted_image(self):
        x, y, dm = self._triple(8)
        got = cw_ssim(x, y, dm)
        expected = ssim(
            x * dm.weights,
            y * dm.weights,
            SSIMParams(data_range=float(x.max() - x.min())),
        )
        npt.assert_allclose(got, expected, atol=1e-15)


class TestPSNR:
    def test_uniform_offset_example(self):
        x = np.zeros((8, 8))
        y = np.full((8, 8), 10.0)
        assert psnr(x, y, peak=255.0) == pytest.approx(
            10.0 * math.log10(255.0**2 / 100.0), abs=1e-12
        )

    def test_identical_images_are_infinite(self):
        x = _image(50)
        assert psnr(x, x, peak=255.0) == math.inf

    def test_auto_peak_is_reference_range(self):
        x = _image(51, lo=10.0, hi=90.0)
        y = _image(52, lo=10.0, hi=90.0)
        assert psnr(x, y) == psnr(x, y, peak=float(x.max() - x.min()))

    def test_monotone_in_noise_level(self):
        x = _image(53)
        rng = np.random.default_rng(530)
        levels = [1.0, 5.0, 20.0, 60.0]
        scores = [psnr(x, x + rng.normal(0, s, x.shape), peak=255.0) for s in levels]
        assert scores == sorted(scores, reverse=True)

    def test_nonpositive_peak_rejected(self):
        with pytest.raises(ValueError, match="peak"):
            psnr(_image(54), _image(55), peak=0.0)

    def test_overflow_names_input_or_peak(self):
        x = _image(56, lo=0.0, hi=1.0)
        # peak^2 is finite here, but the sum of squared errors overflows
        for state in CALLER_ERRSTATES:
            with np.errstate(**state):
                with pytest.raises(ValueError, match="^reference is too large to score"):
                    psnr(x * 6e153, np.zeros_like(x))
                with pytest.raises(ValueError, match="^reference is too large to score"):
                    psnr(x * 1e200, x, peak=1.0)
                with pytest.raises(ValueError, match="^test is too large to score"):
                    psnr(x, x * 1e160, peak=1.0)
                for peak in (None, 1e155, math.inf, math.nan):
                    with pytest.raises(ValueError, match="^peak"):
                        psnr(x * 1e155, x, peak=peak)


class TestEvaluateTriple:
    def _sequence_and_triple(self, seed, shape=(24, 24)):
        rng = np.random.default_rng(seed)
        grids = np.ogrid[tuple(slice(0, n) for n in shape)]
        truth = sum(((g - n / 2) / (n / 4)) ** 2 for g, n in zip(grids, shape)) <= 1.0
        frames = np.full((5, *shape), 60.0)
        frames[1:] += 90.0 * truth
        frames += rng.normal(0, 2.0, frames.shape)
        seq = VolumeSequence(frames)
        content = frames[0]
        style = frames[-1] + rng.normal(0, 2.0, shape)
        generated = frames[-1] + rng.normal(0, 2.0, shape)
        return seq, generated, content, style

    @pytest.mark.parametrize("edit, message", [
        (lambda g, c, s, seq, p: (g[:-1], c, s, seq, p),
         r"^triple shapes differ: generated \(23, 24\), content \(24, 24\), style \(24, 24\)$"),
        (lambda g, c, s, seq, p: (g, c, s, VolumeSequence(seq.frames[:, :-1]), p),
         r"^mask sequence spatial shape \(23, 24\) does not match images \(24, 24\)$"),
        (lambda g, c, s, seq, p: (g, c, s, seq, EvalParams(direction="sideways")),
         r"^direction must be one of \('nce_to_ce', 'ce_to_nce'\)$"),
    ], ids=["triple-shapes", "mask-sequence-shape", "unknown-direction"])
    def test_bad_arguments_rejected(self, edit, message):
        seq, g, c, s = self._sequence_and_triple(59)
        with pytest.raises(ValueError, match=message):
            evaluate_triple(*edit(g, c, s, seq, EvalParams()))

    def test_report_fields_populated(self):
        seq, g, c, s = self._sequence_and_triple(60)
        report = evaluate_triple(g, c, s, seq, EvalParams())
        assert isinstance(report, MetricReport)
        for v in (
            report.ssim_content_vs_gen,
            report.ms_ssim_content_vs_gen,
            report.cw_ssim_content,
            report.cw_ssim_style,
        ):
            assert -1.0 <= v <= 1.0 + 1e-12
        assert report.psnr_style_vs_gen > 0.0
        assert report.direction == "nce_to_ce"

    def test_matches_manual_composition(self):
        seq, g, c, s = self._sequence_and_triple(61)
        params = EvalParams()
        report = evaluate_triple(g, c, s, seq, params)

        ce = detect_ce(seq, params.baseline_index, params.threshold)
        dm = distance_map(ce.mask)
        inv = invert_map(dm)
        L = float(c.max() - c.min())
        sp = SSIMParams(data_range=L)
        npt.assert_allclose(report.ssim_content_vs_gen, ssim(c, g, sp), atol=1e-15)
        npt.assert_allclose(
            report.ms_ssim_content_vs_gen,
            ms_ssim(c, g, MSSSIMParams(data_range=L)),
            atol=1e-15,
        )
        npt.assert_allclose(
            report.cw_ssim_content, ssim(c * dm.weights, g * dm.weights, sp), atol=1e-15
        )
        npt.assert_allclose(
            report.cw_ssim_style, ssim(s * inv.weights, g * inv.weights, sp), atol=1e-15
        )
        npt.assert_allclose(
            report.psnr_style_vs_gen,
            psnr(s, g, peak=float(s.max() - s.min())),
            atol=1e-15,
        )

    @pytest.mark.parametrize(
        "shape, slice_mode, calls",
        [((176, 176), "3d", 13), ((4, 40, 40), "3d", 3), ((4, 40, 40), "2d", 16)],
    )
    def test_content_pair_scored_once(self, shape, slice_mode, calls, monkeypatch):
        # SSIM is MS-SSIM's first-scale term: one moment pass per slab of each
        # MS-SSIM scale (per slice in 2D mode) plus one per slab of each
        # contrast-weighted SSIM; at 176x176 the 166 valid rows of full
        # resolution take three slabs, each coarser scale one: 3 + 4 + 3 + 3
        seq, g, c, s = self._sequence_and_triple(67, shape)
        moments = metrics.windowed_moments
        seen = []
        monkeypatch.setattr(
            metrics, "windowed_moments", lambda *a: seen.append(1) or moments(*a)
        )
        report = evaluate_triple(g, c, s, seq, EvalParams(slice_mode=slice_mode))
        assert len(seen) == calls
        L = float(c.max() - c.min())
        per_slice = slice_mode == "2d"
        assert report.ssim_content_vs_gen == ssim(
            c, g, SSIMParams(data_range=L, per_slice=per_slice)
        )
        assert report.ms_ssim_content_vs_gen == ms_ssim(
            c, g, MSSSIMParams(data_range=L, per_slice=per_slice)
        )

    @pytest.mark.parametrize("shape, slice_mode, spacing", [
        ((24, 24), "3d", None),
        ((12, 24, 24), "3d", None),
        ((12, 24, 24), "2d", None),
        ((176, 176), "3d", None),  # three slabs at full resolution, five scales
        ((24, 24), "3d", (1.0, 2.5)),
    ], ids=["image", "volume", "volume-by-slice", "multi-slab", "physical"])
    def test_scores_equal_public_functions(self, shape, slice_mode, spacing):
        # evaluate_triple scores through private stages and one shared
        # workspace; the public functions, each with its own, must agree
        seq, g, c, s = self._sequence_and_triple(78, shape)
        mode = "voxel" if spacing is None else "physical"
        seq = VolumeSequence(seq.frames, spacing_mm=spacing)
        report = evaluate_triple(g, c, s, seq,
                                 EvalParams(slice_mode=slice_mode, spacing_mode=mode))
        dm = distance_map(detect_ce(seq), spacing, mode)
        sp = SSIMParams(data_range=float(c.max() - c.min()), per_slice=slice_mode == "2d")
        assert report.psnr_style_vs_gen == psnr(s, g)
        assert report.ssim_content_vs_gen == ssim(c, g, sp)
        assert report.ms_ssim_content_vs_gen == ms_ssim(
            c, g, MSSSIMParams(data_range=sp.data_range, per_slice=sp.per_slice))
        assert report.cw_ssim_content == cw_ssim(g, c, dm, sp, mode="content")
        assert report.cw_ssim_style == cw_ssim(g, s, invert_map(dm), sp, mode="style")

    @pytest.mark.parametrize("floor", [False, True], ids=["default-slabs", "floor-slabs"])
    def test_reused_buffers_hold_no_stale_values(self, floor, monkeypatch):
        # one workspace serves every slab, scale and pair of a triple; a map
        # that misses a row would read what an earlier slab left there.  The
        # first scores give each moment call its own workspace, both buffers
        # NaN to the stack's size, so a missed row shows; then triples of
        # other shapes are scored in turn, reusing the buffers.  At the floor
        # budget 176x176 takes eleven slabs, the last shorter
        if floor:
            monkeypatch.setattr(tensor, "_SLAB_BYTES", 0)
        shapes = [(176, 176), (24, 24), (12, 24, 24)]
        cases = [self._sequence_and_triple(79 + i, shape) for i, shape in enumerate(shapes)]
        moments = metrics.windowed_moments

        def isolated(x, y, sizes, ws):
            own = tensor.Workspace()
            for i in (0, 1):
                own.take(i, (5,) + x.shape).fill(np.nan)
            return moments(x, y, sizes, own)

        with monkeypatch.context() as mp:
            mp.setattr(metrics, "windowed_moments", isolated)
            first = [evaluate_triple(g, c, s, seq) for seq, g, c, s in cases]
        for i in [0, 1, 2, 2, 0, 1]:
            seq, g, c, s = cases[i]
            assert evaluate_triple(g, c, s, seq) == first[i], shapes[i]

    def test_peak_memory_below_whole_image_moments(self):
        # whole-image moments hold the volume's (5, ...) stack and the output of
        # its first pass at once; streamed in slabs, a whole 3D triple, EDT and
        # weight maps included, peaks below that
        shape = (96, 32, 32)
        seq, g, c, s = self._sequence_and_triple(77, shape)
        evaluate_triple(g, c, s, seq)  # loads scipy.ndimage outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_triple(g, c, s, seq)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        whole = 5 * 8 * (c.size + (shape[0] - 10) * shape[1] * shape[2])
        assert peak < whole, f"peak {peak / (8 * c.size):.1f} x 8 B per voxel"

    def test_peak_memory_per_voxel_of_a_3d_triple(self):
        # at 32x128x128 the first SSIM-family pair sets the peak: one slab's
        # maps (26 of the 32 rows with the halo) and the pooled MS-SSIM
        # images, on top of the weights, 7.0 maps per voxel.  A distance map
        # or a whole inverted map held beside the weights adds one map each
        # (9.0 with both)
        shape = (32, 128, 128)
        seq, g, c, s = self._sequence_and_triple(78, shape)
        evaluate_triple(g, c, s, seq)  # loads scipy.ndimage outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_triple(g, c, s, seq)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * c.size) < 7.5

    @pytest.mark.parametrize(
        "setting, owner",
        [({"data_range": 255.0}, "data_range"), ({"per_slice": True}, "slice_mode")],
    )
    def test_ms_ssim_settings_owned_elsewhere_rejected(self, setting, owner):
        seq, g, c, s = self._sequence_and_triple(68)
        params = EvalParams(ms_ssim=MSSSIMParams(**setting))
        with pytest.raises(ValueError, match=f"EvalParams.{owner}"):
            evaluate_triple(g, c, s, seq, params)

    @pytest.mark.parametrize("slice_mode", ["2D", "3D", "slices", ""])
    def test_unknown_slice_mode_rejected(self, slice_mode):
        seq, g, c, s = self._sequence_and_triple(68)
        with pytest.raises(ValueError, match=r"slice_mode must be one of \('3d', '2d'\)"):
            evaluate_triple(g, c, s, seq, EvalParams(slice_mode=slice_mode))

    @pytest.mark.parametrize("constant_style", [False, True])
    def test_constant_content_needs_data_range(self, constant_style, monkeypatch):
        seq, g, c, s = self._sequence_and_triple(69)
        for name in ("psnr", "windowed_moments"):
            monkeypatch.setattr(metrics, name, pytest.fail)  # no score may start
        style = np.full_like(s, 3.0) if constant_style else s
        with pytest.raises(ValueError, match="data_range"):
            evaluate_triple(g, np.full_like(c, 7.0), style, seq, EvalParams())

    @pytest.mark.parametrize("explicit", [False, True])
    def test_underflowing_range_rejected(self, explicit):
        seq, g, c, s = self._sequence_and_triple(69)
        if explicit:
            params = EvalParams(data_range=1e-200)
        else:
            c, params = np.zeros_like(c), EvalParams()
            c[3, 4] = 1e-200
        with pytest.raises(ValueError, match="data_range"):
            evaluate_triple(g, c, s, seq, params)

    @pytest.mark.parametrize("culprit", ["generated", "content", "style"])
    def test_overflowing_input_named(self, culprit):
        seq, *triple = self._sequence_and_triple(71)
        names = ("generated", "content", "style")
        triple[names.index(culprit)] = triple[names.index(culprit)] * 1e153
        for state in CALLER_ERRSTATES:
            with np.errstate(**state), pytest.raises(
                    ValueError, match=f"^{culprit} is too large to score"):
                evaluate_triple(*triple, seq, EvalParams(data_range=100.0, peak=100.0))

    def test_overflowing_mask_sequence_named(self):
        # CE detection's mean rise overflows; it must not score with a wrong mask
        _, g, c, s = self._sequence_and_triple(72)
        frames = np.zeros((6,) + g.shape)
        frames[1:] = np.array([1e308, 1e308, -1e308, -1e308, -10.0])[:, None, None]
        for state in CALLER_ERRSTATES:
            with np.errstate(**state), pytest.raises(
                    ValueError, match="^sequence is too large to score"):
                evaluate_triple(g, c, s, VolumeSequence(frames))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # unchecked, nan and +inf give an empty mask and -inf flags every voxel
        seq, g, c, s = self._sequence_and_triple(73)
        with pytest.raises(ValueError, match="^threshold must be finite"):
            evaluate_triple(g, c, s, seq, EvalParams(threshold=threshold))

    @pytest.mark.parametrize("peak", [0.0, -1.0, math.nan, math.inf])
    def test_bad_peak_rejected_before_any_stage(self, peak, monkeypatch):
        seq, g, c, s = self._sequence_and_triple(74)
        for name in ("detect_ce", "windowed_moments"):
            monkeypatch.setattr(metrics, name, pytest.fail)  # no stage may start
        with pytest.raises(ValueError, match="^peak"):
            evaluate_triple(g, c, s, seq, EvalParams(peak=peak))

    @pytest.mark.parametrize("shape, slice_mode", [
        ((176, 176), "3d"), ((12, 24, 24), "3d"), ((12, 24, 24), "2d"),
    ])
    def test_finiteness_scans_per_triple(self, shape, slice_mode, monkeypatch):
        # the three inputs once on entry; the scores run on private stages and
        # the moments scan nothing
        seq, g, c, s = self._sequence_and_triple(75, shape)
        sizes = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a, *args, **kw: sizes.append(np.size(a))
                            or isfinite(a, *args, **kw))
        evaluate_triple(g, c, s, seq, EvalParams(slice_mode=slice_mode))
        assert sum(n > 1 for n in sizes) <= 3

    @pytest.mark.parametrize("name", ["data_range", "peak"])
    def test_overflowing_range_or_peak_rejected(self, name):
        seq, g, c, s = self._sequence_and_triple(71)
        with pytest.raises(ValueError, match=f"^{name}"):
            evaluate_triple(g, c, s, seq, EvalParams(**{name: 1e160}))

    def test_physical_spacing_weights_cw_ssim(self):
        seq, g, c, s = self._sequence_and_triple(70)
        spacing = (1.0, 2.5)
        seq_mm = VolumeSequence(seq.frames, spacing_mm=spacing)
        params = EvalParams(spacing_mode="physical")
        report = evaluate_triple(g, c, s, seq_mm, params)

        dm = distance_map(detect_ce(seq_mm, params.baseline_index, params.threshold),
                          spacing, "physical")
        inv = invert_map(dm)
        sp = SSIMParams(data_range=float(c.max() - c.min()))
        npt.assert_allclose(
            report.cw_ssim_content, ssim(c * dm.weights, g * dm.weights, sp), atol=1e-15
        )
        npt.assert_allclose(
            report.cw_ssim_style, ssim(s * inv.weights, g * inv.weights, sp), atol=1e-15
        )
        voxel = evaluate_triple(g, c, s, seq_mm, EvalParams())
        assert report.cw_ssim_content != voxel.cw_ssim_content
        with pytest.raises(ValueError, match="spacing"):
            evaluate_triple(g, c, s, seq, params)

    def test_shared_range_comes_from_content(self):
        # widening the style image must not perturb SSIM-family scores
        seq, g, c, s = self._sequence_and_triple(62)
        base = evaluate_triple(g, c, s, seq, EvalParams(peak=255.0))
        s_wide = s.copy()
        s_wide[0, 0] = 10000.0
        wide = evaluate_triple(g, c, s_wide, seq, EvalParams(peak=255.0))
        assert wide.ssim_content_vs_gen == base.ssim_content_vs_gen
        assert wide.cw_ssim_content == base.cw_ssim_content

    def test_degenerate_mask_noted(self):
        frames = np.full((5, 16, 16), 40.0)
        seq = VolumeSequence(frames)  # nothing enhances
        g = _image(63, (16, 16))
        params = EvalParams(peak=255.0, data_range=255.0)
        report = evaluate_triple(g, frames[0], frames[0] + 1.0, seq, params)
        assert any("uniform" in n for n in report.notes)

    @staticmethod
    def _uniform_enhancement(rise, shape=(32, 32)):
        """Every voxel rises by ``rise`` after the baseline frame."""
        rng = np.random.default_rng(68)
        frames = np.full((5, *shape), 60.0) + rng.normal(0, 2.0, (5, *shape))
        frames[1:] += rise
        generated = frames[-1] + rng.normal(0, 2.0, shape)
        style = frames[-1] + rng.normal(0, 2.0, shape)
        return VolumeSequence(frames), generated, frames[0], style

    def test_empty_ce_mask_outcome(self):
        seq, g, c, s = self._uniform_enhancement(0.0)
        report = evaluate_triple(g, c, s, seq)
        assert report.notes == [
            "no CE voxels detected; content weighting is uniform 1.0",
            "ms_ssim used 2 of 5 scales",
        ]
        assert all(math.isfinite(getattr(report, f)) for f in METRIC_FIELDS)
        # uniform 1.0 weights and the shared range leave the images untouched
        assert report.cw_ssim_content == report.ssim_content_vs_gen

    def test_all_ce_mask_outcome(self):
        seq, g, c, s = self._uniform_enhancement(90.0)
        report = evaluate_triple(g, c, s, seq)
        assert report.notes == [
            "every voxel detected as CE; content weighting is uniform 0.1",
            "ms_ssim used 2 of 5 scales",
        ]
        assert all(math.isfinite(getattr(report, f)) for f in METRIC_FIELDS)
        # the inverted map is 1.1 - 0.1 == 1.0 everywhere
        L = float(c.max() - c.min())
        assert report.cw_ssim_style == ssim(g, s, SSIMParams(data_range=L))

    def test_scoring_layers_looked_up_at_call_time(self, monkeypatch):
        # the benchmark's tracer replaces these module globals to time them
        seq, g, c, s = self._sequence_and_triple(69)
        calls = []
        for name in ("distance_transform", "windowed_moments"):
            fn = getattr(metrics, name)
            monkeypatch.setattr(
                metrics, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
            )
        evaluate_triple(g, c, s, seq, EvalParams())
        assert calls.count("distance_transform") == 1
        assert calls.count("windowed_moments") == ms_ssim_scale_count(c.shape) + 2

    @pytest.mark.parametrize("shape, slice_mode, spacing", [
        ((24, 24), "3d", None), ((12, 24, 24), "2d", None), ((24, 24), "3d", (1.0, 2.5)),
    ], ids=["image", "volume-by-slice", "physical"])
    def test_weights_come_from_one_distance_map_call(self, shape, slice_mode, spacing,
                                                     monkeypatch):
        # distance_map is the one path from a CE mask to weights; both weighted
        # pairs get its array itself, not a copy or a second map
        seq, g, c, s = self._sequence_and_triple(79, shape)
        seq = VolumeSequence(seq.frames, spacing_mm=spacing)
        mode = "voxel" if spacing is None else "physical"
        maps, weights_seen = [], []
        dmap, family = metrics.distance_map, metrics._ssim_family
        monkeypatch.setattr(metrics, "distance_map",
                            lambda *a: maps.append(dmap(*a)) or maps[-1])
        monkeypatch.setattr(metrics, "_ssim_family", lambda *a, **kw: (
            weights_seen.append(a[5] if len(a) > 5 else kw.get("w")) or family(*a, **kw)))
        evaluate_triple(g, c, s, seq, EvalParams(slice_mode=slice_mode, spacing_mode=mode))
        assert len(maps) == 1
        assert [w is maps[0].weights for w in weights_seen if w is not None] == [True, True]

    def test_scales_counted_once_and_public_ssim_unused(self, monkeypatch):
        # the benchmark times metrics.ssim and metrics.cw_ssim as separate layers
        seq, g, c, s = self._sequence_and_triple(69)
        monkeypatch.setattr(metrics, "ssim", pytest.fail)
        counted = []
        count = metrics.ms_ssim_scale_count
        monkeypatch.setattr(
            metrics, "ms_ssim_scale_count", lambda *a: counted.append(a) or count(*a)
        )
        evaluate_triple(g, c, s, seq, EvalParams())
        assert len(counted) == 1

    def test_ce_to_nce_direction_recorded(self):
        seq, g, c, s = self._sequence_and_triple(64)
        report = evaluate_triple(g, c, s, seq, EvalParams(direction="ce_to_nce"))
        assert report.direction == "ce_to_nce"

    def test_round_trip_through_dict(self):
        seq, g, c, s = self._sequence_and_triple(65)
        report = evaluate_triple(g, c, s, seq, EvalParams())
        back = MetricReport.from_dict(report.to_dict())
        assert back == report

    def test_infinite_psnr_serialization(self):
        seq, g, c, s = self._sequence_and_triple(66)
        report = evaluate_triple(s, c, s, seq, EvalParams())
        assert report.psnr_style_vs_gen == math.inf
        d = report.to_dict()
        assert d["psnr_style_vs_gen"] is None
        assert d["psnr_infinite"] is True
        assert MetricReport.from_dict(d).psnr_style_vs_gen == math.inf


class TestMomentsContract:
    """``windowed_moments`` checks nothing, so every score must hand it
    finite float64 pairs of one shape and a window that fits them."""

    @pytest.mark.parametrize("shape, slice_mode", [
        ((176, 176), "3d"),  # five MS-SSIM scales
        ((24, 48, 48), "3d"),  # two scales
        ((4, 40, 40), "2d"),  # 40x40 slices, two scales
        ((4, 40, 40), "3d"),  # window cut to 3 on the thin axis; one scale of five
    ], ids=["image", "volume", "volume-by-slice", "thin-volume"])
    def test_every_call_gets_a_checked_pair(self, shape, slice_mode, monkeypatch):
        seq, g, c, s = TestEvaluateTriple()._sequence_and_triple(76, shape)
        # float32 and integer inputs must reach the moments widened to float64
        g, c = g.astype(np.float32), np.rint(c).astype(np.int64)
        dm = distance_map(detect_ce(seq))
        calls = []
        moments = metrics.windowed_moments
        # the inputs may live in a workspace that later calls overwrite, so
        # each call's pair is copied as it arrives
        monkeypatch.setattr(
            metrics, "windowed_moments",
            lambda *a: calls.append((a[0].copy(), a[1].copy(), a[2])) or moments(*a)
        )
        per_slice = slice_mode == "2d"
        ssim(c, g, SSIMParams(per_slice=per_slice))
        ms_ssim(c, g, MSSSIMParams(per_slice=per_slice))
        cw_ssim(g, c, dm, SSIMParams(per_slice=per_slice))
        evaluate_triple(g, c, s, seq, EvalParams(slice_mode=slice_mode))
        assert len(calls) >= 6
        for x, y, sizes in calls:
            assert x.dtype == y.dtype == np.float64
            assert x.shape == y.shape
            assert np.isfinite(x).all() and np.isfinite(y).all()
            assert len(sizes) == x.ndim
            assert all(k % 2 == 1 and k <= n for k, n in zip(sizes, x.shape))


class TestInputsUntouched:
    """Score arithmetic runs in place only on buffers the call itself made."""

    @staticmethod
    def _unchanged(held, call):
        """``call()``, asserting every array in ``held`` keeps its bytes."""
        before = [a.tobytes() for a in held]
        result = call()
        assert [a.tobytes() for a in held] == before
        return result

    @pytest.mark.parametrize("shape, slice_mode", [
        ((24, 24), "3d"), ((12, 24, 24), "3d"), ((12, 24, 24), "2d"),
    ])
    def test_evaluate_triple(self, shape, slice_mode):
        # content is a view of the mask sequence's baseline frame
        seq, g, c, s = TestEvaluateTriple()._sequence_and_triple(70, shape)
        params = EvalParams(slice_mode=slice_mode)
        self._unchanged([seq.frames, g, c, s], lambda: evaluate_triple(g, c, s, seq, params))

    def test_ce_and_weight_maps(self):
        seq, g, c, s = TestEvaluateTriple()._sequence_and_triple(71, (24, 24))
        for reverse in (False, True):
            self._unchanged([seq.frames], lambda: detect_ce(seq, 1, -20.0, reverse))
        ce = detect_ce(seq)
        dm = self._unchanged([ce.mask], lambda: distance_map(ce))
        inv = self._unchanged([dm.weights], lambda: invert_map(dm))
        held = [g, c, s, dm.weights, inv.weights]
        self._unchanged(held, lambda: cw_ssim(g, c, dm, mode="content"))
        self._unchanged(held, lambda: cw_ssim(g, s, inv, mode="style"))

    @pytest.mark.parametrize("shape", [(48, 48), (12, 24, 24)])
    def test_moments_and_ssim_family(self, shape):
        x, y = _image(72, shape), _image(73, shape)
        sizes = window_sizes(shape)
        held = [x, y]
        m = self._unchanged(held, lambda: windowed_moments(x, y, sizes))
        # a later call, and the scores built on fresh moments, leave these alone
        held += list(m)
        self._unchanged(held, lambda: windowed_moments(y, x, sizes))
        self._unchanged(held, lambda: ssim(x, y))
        self._unchanged(held, lambda: ms_ssim(x, y))
        self._unchanged(held, lambda: ms_ssim(x, y, MSSSIMParams(per_slice=True)))
