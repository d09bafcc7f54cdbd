import math

import numpy as np
import numpy.testing as npt
import pytest

import dcemetrics.metrics as metrics
from dcemetrics.metrics import (
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
from dcemetrics.tensor import VolumeSequence
from oracles import naive_ms_ssim, naive_ssim


def _image(seed, shape=(32, 32), lo=0.0, hi=255.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


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
        # 40 -> 20 -> 10 < 11, so three scales with an 11-tap window... 20 >= 11,
        # 10 < 11 stops it at two full-window scales? windows truncate per axis,
        # so recompute: truncated window at 40 is 11, usable while dim >= 11.
        assert ms_ssim_scale_count((40, 40), MSSSIMParams()) == 2

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

    @pytest.mark.parametrize("scales", [0, 6])
    def test_scale_count_outside_exponents_rejected(self, scales):
        x = _image(44, (64, 64))
        with pytest.raises(ValueError, match="scales"):
            ms_ssim(x, x, MSSSIMParams(data_range=255.0, scales=scales))


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
        [((176, 176), "3d", 7), ((4, 40, 40), "3d", 3), ((4, 40, 40), "2d", 16)],
    )
    def test_content_pair_scored_once(self, shape, slice_mode, calls, monkeypatch):
        # SSIM is MS-SSIM's first-scale term: one moment pass per MS-SSIM scale
        # (per slice in 2D mode) plus one per contrast-weighted SSIM
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

    @pytest.mark.parametrize(
        "setting, owner",
        [({"data_range": 255.0}, "data_range"), ({"per_slice": True}, "slice_mode")],
    )
    def test_ms_ssim_settings_owned_elsewhere_rejected(self, setting, owner):
        seq, g, c, s = self._sequence_and_triple(68)
        params = EvalParams(ms_ssim=MSSSIMParams(**setting))
        with pytest.raises(ValueError, match=f"EvalParams.{owner}"):
            evaluate_triple(g, c, s, seq, params)

    @pytest.mark.parametrize("constant_style", [False, True])
    def test_constant_content_needs_data_range(self, constant_style, monkeypatch):
        seq, g, c, s = self._sequence_and_triple(69)
        for name in ("psnr", "windowed_moments"):
            monkeypatch.setattr(metrics, name, pytest.fail)  # no score may start
        style = np.full_like(s, 3.0) if constant_style else s
        with pytest.raises(ValueError, match="data_range"):
            evaluate_triple(g, np.full_like(c, 7.0), style, seq, EvalParams())

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
