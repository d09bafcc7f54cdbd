import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcemetrics import tensor
from dcemetrics.tensor import (
    TensorND,
    VolumeSequence,
    check_spacing,
    conv,
    window_sizes,
    windowed_moments,
)
from oracles import brute_conv, naive_window_moments


def _traced_peak(call) -> int:
    """Bytes allocated at the tracemalloc peak of ``call()`` above its start."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestTensorND:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            TensorND(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            TensorND(np.array([np.inf, 1.0]))

    def test_axis_label_rank_check(self):
        with pytest.raises(ValueError, match="axis_labels"):
            TensorND(np.zeros((2, 2)), axis_labels=("T", "Y", "X"))

    def test_widens_float32(self):
        t = TensorND(np.ones((3, 3), dtype=np.float32))
        assert t.data.dtype == np.float64

    def test_spacing_has_one_entry_per_axis_other_than_t(self):
        t = TensorND(np.zeros((2, 3, 4)), ("T", "Y", "X"), [1.5, 2])
        assert t.spacing_mm == (1.5, 2.0)
        assert TensorND(np.zeros((3, 4)), spacing_mm=(1.0, 1.0)).spacing_mm == (1.0, 1.0)
        with pytest.raises(ValueError, match="^spacing_mm has 3 entries for 2 spatial axes"):
            TensorND(np.zeros((2, 3, 4)), ("T", "Y", "X"), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="^spacing_mm entries must be finite and positive"):
            TensorND(np.zeros((3, 4)), spacing_mm=(0.0, 1.0))


class TestVolumeSequence:
    def test_spacing_rank_check(self):
        with pytest.raises(ValueError, match="spacing"):
            VolumeSequence(np.zeros((3, 4, 4)), spacing_mm=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_spacing_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            VolumeSequence(np.zeros((3, 4, 4)), spacing_mm=(bad, 1.0))

    @pytest.mark.parametrize("bad", [[True, 2], "12", np.ones((1, 2)), np.array(1.5)],
                             ids=["bool-entry", "string", "2d-array", "0d-array"])
    def test_spacing_without_plain_numbers_rejected(self, bad):
        # unchecked, [True, 2] and "12" both read as (1.0, 2.0)
        with pytest.raises(ValueError, match="^spacing must be a list of numbers"):
            check_spacing(bad, 2)
        assert check_spacing(np.array([1, 2.5]), 2) == (1.0, 2.5)

    @pytest.mark.parametrize("bad", [3, ["a", 1.0], [[1.0], 1.0], [10**400, 1.0]])
    def test_spacing_of_wrong_type_rejected(self, bad):
        with pytest.raises(ValueError, match="^spacing_mm must be a list of numbers"):
            VolumeSequence(np.zeros((3, 4, 4)), spacing_mm=bad)

    def test_frame_access(self):
        seq = VolumeSequence(np.arange(8.0).reshape(2, 2, 2), spacing_mm=(1.12, 1.12))
        assert seq.n_frames == 2
        assert seq.spatial_shape == (2, 2)
        npt.assert_array_equal(seq.frame(1), [[4.0, 5.0], [6.0, 7.0]])


class TestConv:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 6, 7))
        k = np.zeros((2, 2, 3, 3))
        k[[0, 1], [0, 1], 1, 1] = 1.0  # each output channel taps its own input's centre
        out = conv(x, k)
        npt.assert_array_equal(out, x)

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 5, 5))
        k = rng.normal(size=(1, 1, 3, 3))
        npt.assert_allclose(conv(x, k), brute_conv(x, k), atol=1e-12)

    def test_matches_brute_force_multichannel(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 6, 5))
        k = rng.normal(size=(4, 4, 3, 3))
        npt.assert_allclose(conv(x, k), brute_conv(x, k), atol=1e-12)

    def test_matches_brute_force_3d(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 4, 5, 4))
        k = rng.normal(size=(3, 2, 3, 3, 3))
        npt.assert_allclose(conv(x, k), brute_conv(x, k), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 8))
        y = rng.normal(size=(2, 8, 8))
        k = rng.normal(size=(3, 2, 3, 3))
        a, b = 1.7, -0.4
        lhs = conv(a * x + b * y, k)
        rhs = a * conv(x, k) + b * conv(y, k)
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_equals_per_channel_composition(self):
        # a multichannel kernel must agree with running each input channel
        # through its own slice of the kernel and summing the partial outputs
        rng = np.random.default_rng(5)
        c = 3
        x = rng.normal(size=(c, 7, 7))
        k_full = rng.normal(size=(1, c, 3, 3))
        full = conv(x, k_full)
        acc = np.zeros_like(full)
        for ch in range(c):
            acc += conv(x[ch : ch + 1], k_full[:, ch : ch + 1])
        npt.assert_allclose(full, acc, atol=1e-12)

    def test_shape_errors(self):
        x = np.ones((2, 4, 4))
        with pytest.raises(ValueError, match="rank"):
            conv(x, np.ones((1, 2, 3)))
        with pytest.raises(ValueError, match="^kernel expects 1 input channels, input provides 2"):
            conv(x, np.ones((3, 1, 3, 3)))
        with pytest.raises(ValueError, match="odd"):
            conv(x, np.ones((1, 2, 2, 2)))

    @pytest.mark.parametrize(
        "spatial, c_in, c_out",
        [
            ((6, 5), 4, 6),
            ((6, 5), 4, 4),
            ((4, 5, 3), 2, 3),
            ((4, 5, 3), 4, 2),
            ((4, 5, 3), 3, 3),
        ],
    )
    def test_batch_axis_matches_items(self, spatial, c_in, c_out):
        rng = np.random.default_rng(17)
        xb = rng.normal(size=(3, c_in) + spatial)
        k = rng.normal(size=(c_out, c_in) + (3,) * len(spatial))
        out = conv(xb, k)
        assert out.shape[:2] == (3, c_out)
        for x, got in zip(xb, out):
            npt.assert_array_equal(got, conv(x, k))
            npt.assert_allclose(got, brute_conv(x, k), atol=1e-12)

    def test_batch_shape_errors(self):
        xb = np.ones((2, 4, 6, 6))
        with pytest.raises(ValueError, match="rank"):
            conv(xb[np.newaxis], np.ones((1, 4, 3, 3)))
        with pytest.raises(ValueError, match=r"input channels.*reads as \(B, C_in, spatial"):
            conv(xb, np.ones((2, 3, 3, 3)))

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_matches_brute_force(self, data):
        # kernels longer than the axis give row shifts with no overlap at all
        rank = data.draw(st.integers(1, 3))
        spatial = tuple(data.draw(st.integers(1, 8)) for _ in range(rank))
        kshape = tuple(data.draw(st.sampled_from([1, 3, 5])) for _ in range(rank))
        c_in, c_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xb = rng.normal(size=(2, c_in) + spatial)
        k = rng.normal(size=(c_out, c_in) + kshape)
        out = conv(xb, k)
        assert out.shape == (2, c_out) + spatial
        for x, got in zip(xb, out):
            npt.assert_array_equal(got, conv(x, k))
            npt.assert_allclose(got, brute_conv(x, k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("items_per_block", [1, 2, 5])
    def test_batch_blocks_match_items(self, monkeypatch, items_per_block):
        # a stack budget of 1 or 2 items splits a batch of five into blocks,
        # the last one shorter; the 5-row kernel on a 2-row axis leaves row
        # shifts with no overlap, whose zeros every block reuses
        rng = np.random.default_rng(23)
        xb = rng.normal(size=(5, 3, 2, 7))
        k = rng.normal(size=(4, 3, 5, 3))
        # k0 * C_in * padded grid; the 2 * 9 products round up to 32 columns,
        # which read 4 padded rows, plus the spare one
        item_bytes = 8 * 5 * 3 * (4 + 1) * (7 + 2)
        monkeypatch.setattr(tensor, "_CONV_STACK_BYTES", items_per_block * item_bytes)
        out = conv(xb, k)
        assert out.shape == (5, 4, 2, 7)
        for x, got in zip(xb, out):
            npt.assert_array_equal(got, conv(x, k))
            npt.assert_allclose(got, brute_conv(x, k), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spatial", [(14, 14), (5, 5), (9, 6), (1, 7), (4, 5, 6)])
    def test_patch_outputs_equal_the_whole_inputs(self, spatial):
        # the products span a multiple of _CONV_WIDTH_ALIGN columns, so every
        # output at least a half-width from a patch's cut edges is computed as
        # in the whole input, bit for bit, wherever the patch lies
        rng = np.random.default_rng(29)
        x = rng.normal(size=(8,) + spatial)
        k = rng.normal(size=(16, 8) + (3,) * len(spatial))
        full = conv(x, k)
        size = tuple(min(5, n) for n in spatial)
        starts = list(np.ndindex(*(n - w + 1 for n, w in zip(spatial, size))))
        patches = np.stack([x[(slice(None),) + tuple(slice(s, s + w) for s, w in zip(st, size))]
                            for st in starts])
        for st, got in zip(starts, conv(patches, k)):
            # a cut edge loses its outermost output; the image's own edges do not
            keep = [(s if s == 0 else s + 1, s + w if s + w == n else s + w - 1)
                    for s, w, n in zip(st, size, spatial)]
            npt.assert_array_equal(
                got[(slice(None),) + tuple(slice(lo - s, hi - s) for (lo, hi), s in zip(keep, st))],
                full[(slice(None),) + tuple(slice(lo, hi) for lo, hi in keep)],
            )

    @pytest.mark.parametrize(
        "shape, c_out, batched",
        [((12, 64, 64), 32, False), ((4, 8, 12, 12), 8, False), ((32, 16, 14, 14), 16, True)],
        ids=["shape0-32", "shape1-8", "shape2-16"],
    )
    def test_peak_memory_linear_in_voxels(self, shape, c_out, batched):
        # bound: four times the bytes of the input plus the output, over the
        # whole batch; the batched case is the extractor's grad-check probe layer
        rng = np.random.default_rng(19)
        x = rng.normal(size=shape)
        c_in = shape[int(batched)]
        k = rng.normal(size=(c_out, c_in) + (3,) * (len(shape) - 1 - batched))
        peak = _traced_peak(lambda: conv(x, k))
        io_bytes = x.nbytes + 8 * c_out * (x.size // c_in)
        assert peak <= 4 * io_bytes, f"peak {peak / io_bytes:.1f} x input plus output bytes"


class TestGaussianWindow:
    """The window is its per-axis sizes; ``_gauss_1d`` makes its taps, which
    only the band matrices hold."""

    def test_sum_is_one(self):
        for k in range(1, 12, 2):
            assert abs(tensor._gauss_1d(k).sum() - 1.0) < 1e-12

    def test_reflection_symmetry(self):
        for k in range(1, 12, 2):
            taps = tensor._gauss_1d(k)
            assert taps.size == k
            npt.assert_array_equal(taps, taps[::-1])

    def test_sizes_truncate_to_odd(self):
        assert window_sizes((64, 8, 5)) == (11, 7, 5)

    def test_rejects_axis_without_room(self):
        with pytest.raises(ValueError, match="axis of length 0 cannot host a window"):
            window_sizes((12, 0, 5))

    @pytest.mark.parametrize("k", [1, 3, 11])
    @pytest.mark.parametrize("block", [1, 13, 16])
    def test_band_rows_hold_the_taps(self, k, block):
        band = tensor._band(k, block)
        assert band.shape == (block, block + k - 1)
        for i, row in enumerate(band):
            want = np.zeros(block + k - 1)
            want[i : i + k] = tensor._gauss_1d(k)
            npt.assert_array_equal(row, want)

    @pytest.mark.parametrize("k", [1, 3, 11])
    @pytest.mark.parametrize("block", [1, 13, 16])
    def test_band_transpose_is_c_contiguous(self, k, block):
        band_t = tensor._band_t(k, block)
        npt.assert_array_equal(band_t, tensor._band(k, block).T)
        assert band_t.flags.c_contiguous

    def test_bands_are_read_only(self):
        for band in (tensor._band(11, 16), tensor._band_t(11, 16)):
            assert not band.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                band[0, 0] = 1.0


class TestBandCorrelate:
    # 37 and 23 valid outputs split into blocks of 13 and 12, so the last
    # block slides back; 65 and 60 merged rows in chunks of at most 7 leave
    # an uneven last chunk of 2 and 4 rows
    @pytest.mark.parametrize("k", [11, 7, 3, 1])
    @pytest.mark.parametrize("lead, n_out", [((5, 13), 37), ((5, 3, 4), 23)], ids=["2d", "3d"])
    @pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default-budget", "row-chunks"])
    def test_last_axis_matches_naive_correlation(self, monkeypatch, k, lead, n_out, chunk_rows):
        n = n_out + k - 1
        if chunk_rows is not None:
            monkeypatch.setattr(tensor, "_SLAB_BYTES", 8 * n * chunk_rows)
        rng = np.random.default_rng(k)
        s = rng.uniform(0, 10, size=lead + (n,))
        out = np.full(lead + (n_out,), np.nan)  # rows a pass skips stay NaN
        want = sum(t * s[..., j : j + n_out] for j, t in enumerate(tensor._gauss_1d(k)))
        got = tensor._band_correlate(s, k, len(lead), out)
        assert got is out
        npt.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestWindowedMoments:
    def test_constant_image(self):
        x = np.full((9, 9), 3.25)
        mu_x, _, var_x, _, _ = windowed_moments(x, x, (5, 5))
        npt.assert_allclose(mu_x, 3.25, atol=1e-12)
        npt.assert_allclose(var_x, 0.0, atol=1e-12)
        assert np.all(var_x >= 0)

    def test_self_covariance_equals_variance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(12, 12))
        _, _, var_x, _, cov_xy = windowed_moments(x, x, (5, 5))
        npt.assert_allclose(cov_xy, var_x, atol=1e-12)

    def test_matches_naive_sliding_window(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(0, 10, size=(16, 16))
        y = rng.uniform(0, 10, size=(16, 16))
        m = windowed_moments(x, y, (7, 7))
        weights = np.multiply.outer(tensor._gauss_1d(7), tensor._gauss_1d(7))
        for pos in [(0, 0), (3, 5), (9, 9), (2, 0)]:
            want = naive_window_moments(x, y, weights, pos)
            for got, value, tol in zip(m, want, (1e-12, 1e-12, 1e-10, 1e-10, 1e-10)):
                assert got[pos] == pytest.approx(value, abs=tol)

    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_property_matches_naive_sliding_window(self, data):
        # one axis up to 150 long, so one-block, multi-block and slid-back
        # last blocks all occur along it; windows truncated on any axis
        rank = data.draw(st.integers(1, 3))
        sizes = tuple(data.draw(st.sampled_from([1, 3, 5, 7, 9, 11])) for _ in range(rank))
        long_axis = data.draw(st.integers(0, rank - 1))
        shape = tuple(
            data.draw(st.integers(ws, 150 if axis == long_axis else ws + 12))
            for axis, ws in enumerate(sizes)
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.uniform(0, 10, size=shape)
        y = rng.uniform(0, 10, size=shape)
        m = windowed_moments(x, y, sizes)
        out_shape = tuple(n - ws + 1 for n, ws in zip(shape, sizes))
        assert m[0].shape == out_shape
        weights = np.ones(())
        for k in sizes:
            weights = np.multiply.outer(weights, tensor._gauss_1d(k))
        # every position on each axis-parallel line through one drawn anchor
        anchor = tuple(data.draw(st.integers(0, n - 1)) for n in out_shape)
        for axis, n in enumerate(out_shape):
            for i in range(n):
                pos = anchor[:axis] + (i,) + anchor[axis + 1 :]
                want = naive_window_moments(x, y, weights, pos)
                for got, value, tol in zip(m, want, (1e-12, 1e-12, 1e-10, 1e-10, 1e-10)):
                    assert got[pos] == pytest.approx(value, abs=tol)

    def test_variance_nonneg_and_cauchy_schwarz(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = rng.normal(size=(10, 10))
            y = rng.normal(size=(10, 10))
            _, _, var_x, var_y, cov_xy = windowed_moments(x, y, (5, 5))
            assert np.all(var_x >= 0)
            assert np.all(var_y >= 0)
            assert np.all(np.abs(cov_xy) <= np.sqrt(var_x * var_y) + 1e-9)

    @pytest.mark.parametrize("shape", [(16, 48, 48), (32, 48, 48), (256, 256)])
    def test_peak_memory_linear_in_voxels(self, shape):
        # bound: 16 float64 values per input voxel, whatever the window size
        rng = np.random.default_rng(53)
        x = rng.uniform(0, 255, size=shape)
        y = rng.uniform(0, 255, size=shape)
        sizes = window_sizes(shape)
        peak = _traced_peak(lambda: windowed_moments(x, y, sizes))
        assert peak < 16 * 8 * x.size, f"peak {peak / (8 * x.size):.1f} x 8 B per voxel"

