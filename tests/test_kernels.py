import math
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from dcemetrics import kernels
from dcemetrics.kernels import (
    ConvLSTMState,
    ConvLSTMWeights,
    FixedFeatureExtractor,
    GradCheckReport,
    adain,
    bidirectional_convlstm,
    convlstm_cell,
    grad_check,
    grad_loss_adv_mse,
    grad_loss_l1,
    gram_matrix,
    loss_adv_mse,
    loss_feature,
    loss_l1,
    loss_style_frob,
    run_grad_checks,
)
from dcemetrics.tensor import TensorND, as_f64
from oracles import brute_conv, scalar_convlstm_cell


class _LinearExtractor:
    """Identity feature map; lets quadratic-form properties hold exactly."""

    def features(self, image):
        x = as_f64(image)
        return x if x.ndim >= 3 else x[np.newaxis]

    def linearize(self, image):
        f = self.features(image)
        plain = as_f64(image).ndim != 3

        def vjp(cotangent):
            g = np.asarray(cotangent, dtype=np.float64)
            return g[0] if plain else g

        # the identity map moves each probe's features where it moved the image
        return f, vjp, partial(kernels._probe_stack, f)


class _StackingExtractor:
    """An extractor whose probes go through ``features`` as one explicit stack.

    It stands for the full pass over every probe, which the probe evaluator
    must reproduce bit for bit.
    """

    def __init__(self, inner):
        self.inner = inner
        self.features = inner.features

    def linearize(self, image):
        f, vjp, _ = self.inner.linearize(image)
        base = as_f64(image)
        plain = base.ndim == self.inner.kernels[0].ndim - 2

        def probe(moved, steps):
            stack = kernels._probe_stack(base, moved, steps)
            return self.inner.features(stack[:, np.newaxis] if plain else stack)

        return f, vjp, probe


def _extractor(seed, kernel_shapes):
    """A FixedFeatureExtractor with seeded weights of the given kernel shapes."""
    rng = np.random.default_rng(seed)
    kernels = tuple(rng.normal(0.0, 1.0 / math.sqrt(math.prod(k[1:])), size=k)
                    for k in kernel_shapes)
    biases = tuple(rng.normal(0.0, 0.1, size=k[0]) for k in kernel_shapes)
    return FixedFeatureExtractor(kernels, biases)


# (extractor, first input) pairs the probe evaluator must reproduce bit for
# bit: images smaller than the receptive field, several input channels,
# non-square kernels and a 3D extractor
_PROBE_CASES = {
    "14x14": (lambda: FixedFeatureExtractor.from_seed(0), (14, 14)),
    "5x5": (lambda: FixedFeatureExtractor.from_seed(1), (5, 5)),
    "1x7": (lambda: FixedFeatureExtractor.from_seed(2), (1, 7)),
    "1x1": (lambda: FixedFeatureExtractor.from_seed(3), (1, 1)),
    "3x8x8": (lambda: FixedFeatureExtractor.from_seed(4, channels=(3, 8, 16, 16)), (3, 8, 8)),
    "5x3_kernels": (lambda: _extractor(5, [(4, 1, 5, 3), (6, 4, 5, 3), (5, 6, 5, 3)]), (9, 6)),
    "3d": (lambda: _extractor(6, [(4, 1, 3, 3, 3), (5, 4, 3, 1, 5)]), (5, 6, 4)),
}


class TestAdaIN:
    def test_self_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, size=(3, 8, 8))
        npt.assert_allclose(adain(x, x, eps=1e-12), x, atol=1e-6)

    def test_hand_computed_case(self):
        # content mean 1, std 2; style mean 3, std 4
        content = np.array([[[-1.0, 3.0], [-1.0, 3.0]]])
        style = np.array([[[-1.0, 7.0], [-1.0, 7.0]]])
        out = adain(content, style, eps=1e-12)
        # 4 * (+-2) / 2 + 3 by hand
        npt.assert_allclose(out, [[[-1.0, 7.0], [-1.0, 7.0]]], atol=1e-9)

    def test_output_stats_match_style(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=(4, 10, 10))
            s = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=(4, 12, 6))
            out = adain(c, s, eps=1e-12)
            npt.assert_allclose(out.mean(axis=(1, 2)), s.mean(axis=(1, 2)), atol=1e-6)
            npt.assert_allclose(out.std(axis=(1, 2)), s.std(axis=(1, 2)), atol=1e-6)

    def test_default_eps_biases_low_variance_channels(self):
        # with eps 1e-5 a sigma of 1e-3 shrinks visibly; the tight statistic
        # guarantee therefore only holds for small eps
        rng = np.random.default_rng(2)
        c = rng.normal(0.0, 1e-3, size=(1, 50, 50))
        s = rng.normal(0.0, 1.0, size=(1, 50, 50))
        out = adain(c, s)
        assert out.std() < 0.5 * s.std()

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel"):
            adain(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))

    def test_bad_eps(self):
        # nan would return all NaN, inf the style means, with no error
        for eps in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be finite and positive"):
                adain(np.zeros((1, 4, 4)), np.ones((1, 4, 4)), eps=eps)

    def test_rejects_bool_eps(self):
        # unchecked, True was taken as eps = 1.0
        with pytest.raises(ValueError, match="^eps must be finite and positive, got True$"):
            adain(np.zeros((1, 4, 4)), np.ones((1, 4, 4)), eps=True)


class TestConvLSTMCell:
    def test_all_zero_weights_give_zero_state(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5, 5))
        w = ConvLSTMWeights.zeros(in_channels=2, hidden=3)
        state = ConvLSTMState.zeros(3, (5, 5))
        out = convlstm_cell(x, state, w)
        # i = f = o = 0.5 but g = tanh(0) = 0, so both states stay zero
        npt.assert_array_equal(out.c, 0.0)
        npt.assert_array_equal(out.h, 0.0)

    def test_saturated_forget_gate_carries_memory(self):
        rng = np.random.default_rng(11)
        hidden = 2
        bias = np.zeros(4 * hidden)
        bias[0:hidden] = -30.0  # input gate shut
        bias[hidden : 2 * hidden] = 30.0  # forget gate wide open
        w = ConvLSTMWeights(np.zeros((4 * hidden, 3 + hidden, 3, 3)), bias)
        c0 = rng.normal(size=(hidden, 4, 4))
        state = ConvLSTMState(np.zeros_like(c0), c0)
        out = convlstm_cell(rng.normal(size=(3, 4, 4)), state, w)
        npt.assert_allclose(out.c, c0, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        w = ConvLSTMWeights.from_seed(200 + seed, in_channels=2, hidden=2)
        x = rng.normal(size=(2, 4, 4))
        state = ConvLSTMState(rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)))
        out = convlstm_cell(x, state, w)
        h_ref, c_ref = scalar_convlstm_cell(x, state.h, state.c, w)
        npt.assert_allclose(out.h, h_ref, atol=1e-12)
        npt.assert_allclose(out.c, c_ref, atol=1e-12)

    def test_cell_bound_and_hidden_range(self):
        rng = np.random.default_rng(12)
        w = ConvLSTMWeights.from_seed(13, in_channels=2, hidden=4)
        state = ConvLSTMState(rng.normal(size=(4, 6, 6)), rng.normal(size=(4, 6, 6)))
        for _ in range(5):
            x = rng.normal(size=(2, 6, 6))
            new = convlstm_cell(x, state, w)
            stacked = np.concatenate([x, state.h], axis=0)
            pre = brute_conv(stacked, w.kernel, padding="zero") + w.bias[:, None, None]
            i = 1.0 / (1.0 + np.exp(-pre[:4]))
            f = 1.0 / (1.0 + np.exp(-pre[4:8]))
            g = np.tanh(pre[8:12])
            assert np.all(np.abs(new.c) <= np.abs(f * state.c) + np.abs(i * g) + 1e-12)
            assert np.all(np.abs(new.h) < 1.0)
            state = new

    def test_seed42_golden_sums(self):
        # frozen from an inspected run; guards against silent drift in the
        # draw order or the gate kernel shape
        w = ConvLSTMWeights.from_seed(42, in_channels=2, hidden=3)
        assert w.kernel.shape == (12, 5, 3, 3)
        npt.assert_allclose(
            (float(w.kernel.sum()), float(w.bias.sum())),
            (-0.6617812948949152, -0.13508815918982076),
            rtol=1e-12,
        )

    def test_rejects_a_kernel_with_no_input_channels(self):
        # once accepted with in_channels == -1; the cell then said "weights expect -1"
        with pytest.raises(ValueError,
                           match=r"^kernel must be .*, got \(8, 1, 3, 3\)$"):
            ConvLSTMWeights(np.zeros((8, 1, 3, 3)), np.zeros(8))

    def test_rejects_a_kernel_with_no_hidden_channels(self):
        # once built a zero-hidden cell
        with pytest.raises(ValueError, match=r"^kernel must be .*, got \(0, 2, 3, 3\)$"):
            ConvLSTMWeights.from_seed(0, 2, 0)

    def test_shape_validation(self):
        w = ConvLSTMWeights.zeros(in_channels=2, hidden=2)
        state = ConvLSTMState.zeros(2, (4, 4))
        with pytest.raises(ValueError, match="channels"):
            convlstm_cell(np.zeros((3, 4, 4)), state, w)
        with pytest.raises(ValueError, match="state"):
            convlstm_cell(np.zeros((2, 5, 5)), state, w)


class TestBidirectional:
    def _sequence(self, seed, frames=5, shape=(2, 4, 4)):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape) for _ in range(frames)]

    def test_wrong_frame_count_rejected(self):
        w = ConvLSTMWeights.zeros(2, 2)
        with pytest.raises(ValueError, match="exactly 5"):
            bidirectional_convlstm(self._sequence(0, frames=4), w, w)

    def test_reversal_swap_symmetry_exact(self):
        seq = self._sequence(14)
        fw = ConvLSTMWeights.from_seed(15, 2, 3)
        bw = ConvLSTMWeights.from_seed(16, 2, 3)
        out = bidirectional_convlstm(seq, fw, bw)
        out_rev = bidirectional_convlstm(seq[::-1], bw, fw)
        hidden = fw.hidden
        for t in range(5):
            swapped = np.concatenate(
                [out_rev[4 - t][hidden:], out_rev[4 - t][:hidden]], axis=0
            )
            npt.assert_array_equal(out[t], swapped)

    def test_matches_unrolled_cells(self):
        seq = self._sequence(17)
        fw = ConvLSTMWeights.from_seed(18, 2, 3)
        bw = ConvLSTMWeights.from_seed(19, 2, 3)
        out = bidirectional_convlstm(seq, fw, bw)

        state = ConvLSTMState.zeros(3, (4, 4))
        fw_h = []
        for f in seq:
            state = convlstm_cell(f, state, fw)
            fw_h.append(state.h)
        state = ConvLSTMState.zeros(3, (4, 4))
        bw_h = []
        for f in seq[::-1]:
            state = convlstm_cell(f, state, bw)
            bw_h.append(state.h)
        bw_h = bw_h[::-1]
        for t in range(5):
            npt.assert_array_equal(out[t], np.concatenate([fw_h[t], bw_h[t]], axis=0))

    def test_constant_sequence_is_iterated_cell(self):
        frame = np.full((2, 4, 4), 0.3)
        w = ConvLSTMWeights.from_seed(20, 2, 2)
        out = bidirectional_convlstm([frame] * 5, w, w)
        state = ConvLSTMState.zeros(2, (4, 4))
        iterated = []
        for _ in range(5):
            state = convlstm_cell(frame, state, w)
            iterated.append(state.h)
        for t in range(5):
            npt.assert_array_equal(out[t][:2], iterated[t])
            # backward pass over a constant sequence walks the same orbit
            npt.assert_array_equal(out[t][2:], iterated[4 - t])

    def test_frame_shape_consistency(self):
        seq = self._sequence(21)
        seq[3] = np.zeros((2, 5, 5))
        w = ConvLSTMWeights.zeros(2, 2)
        with pytest.raises(ValueError, match="frame 3"):
            bidirectional_convlstm(seq, w, w)


class TestFeatureExtractor:
    def test_deterministic(self):
        a = FixedFeatureExtractor.from_seed(0)
        b = FixedFeatureExtractor.from_seed(0)
        x = np.linspace(0, 1, 64).reshape(8, 8)
        npt.assert_array_equal(a.features(x), b.features(x))

    def test_output_shape_and_bounds(self):
        ex = FixedFeatureExtractor.from_seed(1)
        f = ex.features(np.random.default_rng(2).normal(size=(12, 10)))
        assert f.shape == (16, 12, 10)
        assert np.all(np.abs(f) < 1.0)

    def test_vjp_matches_finite_differences(self):
        ex = FixedFeatureExtractor.from_seed(3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 7))
        cot = rng.normal(size=(16, 7, 7))
        feats, vjp, _ = ex.linearize(x)
        grad = vjp(cot)
        h = 1e-6
        for idx in [(0, 0), (3, 4), (6, 6), (2, 5)]:
            xp = x.copy()
            xp[idx] += h
            xm = x.copy()
            xm[idx] -= h
            numeric = ((ex.features(xp) - ex.features(xm)) * cot).sum() / (2 * h)
            assert grad[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_seed42_golden_sums(self):
        # frozen from an inspected run; guards against silent drift in the
        # draw order, the layer shapes or the per-layer scales
        ex = FixedFeatureExtractor.from_seed(42)
        assert [k.shape for k in ex.kernels] == [(8, 1, 3, 3), (16, 8, 3, 3), (16, 16, 3, 3)]
        golden = [(float(k.sum()), float(b.sum())) for k, b in zip(ex.kernels, ex.biases)]
        expected = [
            (0.5331811577708505, 0.04581504471777645),
            (-4.40358466823242, 0.15253667653043862),
            (-2.648158322705676, 0.19469493220355977),
        ]
        npt.assert_allclose(golden, expected, rtol=1e-12)

    def test_three_channel_input(self):
        ex = FixedFeatureExtractor.from_seed(5, channels=(3, 8, 16, 16))
        f = ex.features(np.random.default_rng(6).normal(size=(3, 9, 9)))
        assert f.shape == (16, 9, 9)

    @pytest.mark.parametrize("wrap", [np.asarray, np.ndarray.tolist, TensorND],
                             ids=["ndarray", "list", "TensorND"])
    def test_vjp_of_a_plain_image_has_its_shape(self, wrap):
        # a TensorND's pullback once kept the lifted channel axis: (1, 6, 6)
        ex = FixedFeatureExtractor.from_seed(8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 6))
        cot = rng.normal(size=(16, 6, 6))
        feats, vjp, _ = ex.linearize(wrap(x))
        want_feats, want_vjp, _ = ex.linearize(x)
        npt.assert_array_equal(feats, want_feats)
        grad = vjp(cot)
        assert grad.shape == (6, 6)
        npt.assert_array_equal(grad, want_vjp(cot))

    def test_list_layers_are_taken_as_arrays(self):
        # list kernels once raised AttributeError at the first features call
        ex = FixedFeatureExtractor.from_seed(7)
        listed = FixedFeatureExtractor([k.tolist() for k in ex.kernels],
                                       [b.tolist() for b in ex.biases])
        x = np.random.default_rng(8).normal(size=(6, 6))
        npt.assert_array_equal(listed.features(x), ex.features(x))
        assert isinstance(listed.kernels, tuple) and isinstance(listed.biases[0], np.ndarray)

    def test_rejects_no_layers(self):
        # once an IndexError at construction
        with pytest.raises(ValueError, match="^an extractor needs at least one layer"):
            FixedFeatureExtractor((), ())

    def test_rejects_more_kernels_than_biases(self):
        # once a silent one-layer network: zip dropped the second kernel
        ex = FixedFeatureExtractor.from_seed(0, channels=(1, 8, 8))
        with pytest.raises(ValueError, match="^2 kernels but 1 biases; layer 1 lacks its bias$"):
            FixedFeatureExtractor(ex.kernels, ex.biases[:1])

    @pytest.mark.parametrize("shape", [(8, 9), (8, 1, 4, 4), (8, 1, 3, 2), (0, 1, 3, 3)],
                             ids=["no_spatial_axis", "even", "one_even_axis", "no_channels"])
    def test_rejects_a_kernel_of_the_wrong_shape(self, shape):
        ex = FixedFeatureExtractor.from_seed(0)
        kernels = (ex.kernels[0], np.zeros(shape)) + ex.kernels[2:]
        with pytest.raises(ValueError, match=r"^layer 1 kernel must be shaped \(C_out, C_in, odd"):
            FixedFeatureExtractor(kernels, ex.biases)

    def test_rejects_mixed_spatial_ranks(self):
        ex = FixedFeatureExtractor.from_seed(0)
        kernels = (ex.kernels[0], np.zeros((16, 8, 3, 3, 3)), ex.kernels[2])
        with pytest.raises(ValueError, match="^layer 1 kernel has 3 spatial axes, layer 0 has 2$"):
            FixedFeatureExtractor(kernels, ex.biases)

    def test_rejects_unchained_channels(self):
        ex = FixedFeatureExtractor.from_seed(0)
        kernels = ex.kernels[:2] + (np.zeros((16, 8, 3, 3)),)
        with pytest.raises(ValueError, match="^layer 2 kernel takes 8 channels, layer 1 gives 16$"):
            FixedFeatureExtractor(kernels, ex.biases)

    @pytest.mark.parametrize("shape", [(4,), (16, 1), ()])
    def test_rejects_a_bias_of_the_wrong_shape(self, shape):
        ex = FixedFeatureExtractor.from_seed(0)
        biases = (ex.biases[0], np.zeros(shape), ex.biases[2])
        with pytest.raises(ValueError, match=r"^layer 1 bias must be shaped \(16,\), got"):
            FixedFeatureExtractor(ex.kernels, biases)

    @pytest.mark.parametrize("part", ["kernel", "bias"])
    def test_rejects_a_non_finite_weight(self, part):
        ex = FixedFeatureExtractor.from_seed(0)
        kernels, biases = list(ex.kernels), list(ex.biases)
        if part == "kernel":
            kernels[2] = kernels[2].copy()
            kernels[2].flat[5] = np.inf
        else:
            biases[2] = biases[2].copy()
            biases[2][3] = np.nan
        offset = 5 if part == "kernel" else 3
        with pytest.raises(ValueError, match=f"^layer 2 {part} contains a non-finite value "
                                             f"at flat offset {offset}$"):
            FixedFeatureExtractor(kernels, biases)

    @pytest.mark.parametrize("case", _PROBE_CASES)
    def test_probe_evaluator_equals_features_of_the_probe_stack(self, case):
        # every coordinate, edges and corners included, moved both ways, in
        # stacks of _PROBE_CHUNK like the gradient checks; the reference is
        # the full pass over the explicit stack of probes
        make, shape = _PROBE_CASES[case]
        ex = make()
        image = np.random.default_rng(9).normal(size=shape)
        probe = ex.linearize(image)[2]
        reference = _StackingExtractor(ex).linearize(image)[2]
        moved = np.repeat(np.arange(image.size), 2)
        steps = np.tile([1e-5, -1e-5], image.size)
        for start in range(0, moved.size, kernels._PROBE_CHUNK):
            chunk = slice(start, start + kernels._PROBE_CHUNK)
            got = probe(moved[chunk], steps[chunk])
            want = reference(moved[chunk], steps[chunk])
            assert got.shape == want.shape
            npt.assert_array_equal(got, want)

    def test_probe_evaluator_takes_one_image(self):
        ex = FixedFeatureExtractor.from_seed(0)
        with pytest.raises(ValueError, match="^linearize takes one image"):
            ex.linearize(np.zeros((2, 1, 5, 5)))

    @pytest.mark.parametrize("case", _PROBE_CASES)
    def test_linearize_runs_one_forward_pass(self, case, monkeypatch):
        # its features are those of ``features``, and the pullback and the
        # probe evaluator take no second pass: one conv per layer
        make, shape = _PROBE_CASES[case]
        ex = make()
        image = np.random.default_rng(10).normal(size=shape)
        want = ex.features(image)
        calls = []
        conv = kernels.conv
        monkeypatch.setattr(kernels, "conv", lambda *a: calls.append(1) or conv(*a))
        feats, _, _ = ex.linearize(image)
        npt.assert_array_equal(feats, want)
        assert len(calls) == len(ex.kernels)

    def test_exposes_features_and_linearize_only(self):
        ex = FixedFeatureExtractor.from_seed(0)
        public = {n for n in dir(ex) if not n.startswith("_")}
        # its layers, its seeded constructor and its input channels beside them
        assert public == {"features", "linearize", "kernels", "biases", "from_seed",
                          "in_channels"}


class TestGram:
    def test_symmetric_psd(self):
        rng = np.random.default_rng(22)
        f = rng.normal(size=(5, 7, 7))
        g = gram_matrix(f)
        npt.assert_allclose(g, g.T, atol=0)
        assert np.linalg.eigvalsh(g).min() >= -1e-12

    def test_spatial_shuffle_invariance(self):
        rng = np.random.default_rng(23)
        f = rng.normal(size=(4, 6, 6))
        flat = f.reshape(4, -1)
        perm = rng.permutation(36)
        shuffled = flat[:, perm].reshape(4, 6, 6)
        npt.assert_allclose(gram_matrix(f), gram_matrix(shuffled), atol=1e-12)

    def test_normalization_flag(self):
        f = np.ones((2, 3, 3))
        npt.assert_allclose(gram_matrix(f), 0.5 * np.ones((2, 2)))


class TestLosses:
    def test_l1_examples(self):
        x = np.random.default_rng(24).normal(size=(6, 6))
        assert loss_l1(x, x) == 0.0
        assert loss_l1(x + 1.0, x) == pytest.approx(1.0, abs=1e-12)

    def test_l1_matches_scalar_loop(self):
        rng = np.random.default_rng(25)
        a, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        acc = math.fsum(abs(float(u) - float(v)) for u, v in zip(a.ravel(), b.ravel()))
        assert loss_l1(a, b) == pytest.approx(acc / 25.0, rel=1e-14)

    def test_adv_examples(self):
        assert loss_adv_mse(np.ones(8), 1.0) == 0.0
        assert loss_adv_mse(np.zeros(8), 1.0) == 1.0
        with pytest.raises(ValueError, match="target"):
            loss_adv_mse(np.zeros(4), 0.5)

    def test_adv_gradient_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            grad_loss_adv_mse(np.ones(4), 0.5)

    def test_adv_matches_scalar_loop(self):
        rng = np.random.default_rng(26)
        s = rng.normal(size=17)
        acc = math.fsum((float(v) - 1.0) ** 2 for v in s)
        assert loss_adv_mse(s, 1.0) == pytest.approx(acc / 17.0, rel=1e-14)

    def test_feature_zero_at_coincidence(self):
        ex = FixedFeatureExtractor.from_seed(0)
        x = np.random.default_rng(27).normal(size=(9, 9))
        assert loss_feature(x, x, ex) == 0.0

    def test_feature_quadratic_under_linear_extractor(self):
        lin = _LinearExtractor()
        rng = np.random.default_rng(28)
        x = rng.normal(size=(8, 8))
        d = rng.normal(size=(8, 8))
        base = loss_feature(x + d, x, lin)
        assert loss_feature(x + 2 * d, x, lin) == pytest.approx(4 * base, rel=1e-12)

    def test_feature_matches_scalar_recomputation(self):
        ex = FixedFeatureExtractor.from_seed(0)
        rng = np.random.default_rng(29)
        g, x = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        fg, fx = ex.features(g), ex.features(x)
        acc = math.fsum(
            (float(u) - float(v)) ** 2 for u, v in zip(fg.ravel(), fx.ravel())
        )
        assert loss_feature(g, x, ex) == pytest.approx(acc / fg.size, rel=1e-12)

    def test_style_zero_at_coincidence(self):
        ex = FixedFeatureExtractor.from_seed(0)
        y = np.random.default_rng(30).normal(size=(9, 9))
        assert loss_style_frob(y, y, ex) == 0.0

    def test_style_positive_for_distinct_textures(self):
        ex = FixedFeatureExtractor.from_seed(0)
        rng = np.random.default_rng(31)
        g = rng.normal(size=(12, 12))
        y = np.tile([[0.0, 1.0]], (12, 6))
        assert loss_style_frob(g, y, ex) > 0


class TestGradCheck:
    def test_l1_away_from_ties(self):
        rng = np.random.default_rng(33)
        a, b = rng.normal(size=(10, 10)), rng.normal(size=(10, 10))
        report = grad_check("l1", (a, b), seed=0)
        assert report.ok and report.max_rel_error <= 1e-6

    def test_feature_with_linear_extractor(self):
        rng = np.random.default_rng(34)
        g, x = rng.normal(size=(9, 9)), rng.normal(size=(9, 9))
        report = grad_check("feature", (g, x, _LinearExtractor()), seed=1)
        assert report.ok and report.max_rel_error <= 1e-6

    def test_style_with_three_channel_features(self):
        ex = FixedFeatureExtractor.from_seed(7, channels=(3, 8, 16, 16))
        rng = np.random.default_rng(35)
        g, y = rng.normal(size=(3, 8, 8)), rng.normal(size=(3, 8, 8))
        report = grad_check("style_frob", (g, y, ex), seed=2)
        assert report.ok and report.max_rel_error <= 1e-4

    def test_full_battery_passes(self):
        for report in run_grad_checks(seed=3):
            assert report.ok, report
            assert report.max_rel_error <= 1e-4, report

    def test_tied_l1_handled(self):
        a = np.zeros((8, 8))
        report = grad_check("l1", (a, a.copy()), seed=4)
        assert not report.ok
        assert "tied" in report.note

    def test_analytic_gradients_match_finite_differences_directly(self):
        rng = np.random.default_rng(36)
        a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        g = grad_loss_l1(a, b)
        npt.assert_allclose(g, np.sign(a - b) / 36.0, atol=0)
        s = rng.normal(size=12)
        npt.assert_allclose(grad_loss_adv_mse(s, 0.0), 2 * s / 12.0, atol=1e-15)

    @pytest.mark.parametrize("loss_id", ["feature", "style_frob"])
    def test_fixed_side_extracted_once(self, loss_id, monkeypatch):
        calls = []
        features = FixedFeatureExtractor.features

        def counting(self, image):
            calls.append(1)
            return features(self, image)

        monkeypatch.setattr(FixedFeatureExtractor, "features", counting)
        rng = np.random.default_rng(38)
        ex = FixedFeatureExtractor.from_seed(0)
        g, fixed = rng.normal(size=(10, 10)), rng.normal(size=(10, 10))
        report = grad_check(loss_id, (g, fixed, ex), seed=6, n_coords=16)
        assert report.ok and report.n_coords == 16
        # two probes per coordinate plus the fixed side, extracted once for
        # both the values and the gradient; re-extracting it per probe would
        # double the count
        assert len(calls) <= 2 * 16 + 1

    @pytest.mark.parametrize("loss_id", ["feature", "style_frob"])
    def test_probes_run_in_batches(self, loss_id, monkeypatch):
        calls = []
        features = FixedFeatureExtractor.features

        def counting(self, image):
            calls.append(1)
            return features(self, image)

        monkeypatch.setattr(FixedFeatureExtractor, "features", counting)
        rng = np.random.default_rng(39)
        ex = FixedFeatureExtractor.from_seed(1)
        g, fixed = rng.normal(size=(14, 14)), rng.normal(size=(14, 14))
        report = grad_check(loss_id, (g, fixed, ex), seed=7, n_coords=64)
        assert report.ok and report.max_rel_error <= 1e-4
        # the fixed side once, then one call per stack of probes
        assert len(calls) <= 1 + math.ceil(2 * 64 / kernels._PROBE_CHUNK)

    @pytest.mark.parametrize("loss_id", ["feature", "style_frob"])
    def test_skewed_gradient_is_caught(self, loss_id):
        # an analytic gradient 1% too large must show as a relative error of
        # about 0.01; probes that moved more than their own coordinate would
        # report something else entirely
        class SkewedExtractor(FixedFeatureExtractor):
            def linearize(self, image):
                f, vjp, probe = super().linearize(image)
                return f, lambda cotangent: 1.01 * vjp(cotangent), probe

        rng = np.random.default_rng(40)
        ex = SkewedExtractor.from_seed(2)
        g, fixed = rng.normal(size=(10, 10)), rng.normal(size=(10, 10))
        report = grad_check(loss_id, (g, fixed, ex), seed=8, n_coords=40)
        assert report.ok and 0.005 <= report.max_rel_error <= 0.02

    def test_unknown_loss_id(self):
        with pytest.raises(ValueError, match="loss_id"):
            grad_check("nope", (np.zeros(4), np.zeros(4)), seed=0)

    @pytest.mark.parametrize("n_coords", [0, -3])
    def test_rejects_n_coords_below_one(self, n_coords):
        # unchecked, 0 reported ok with nothing checked and -3 raised numpy's
        # "negative dimensions are not allowed"
        a, b = np.random.default_rng(42).normal(size=(2, 4, 4))
        with pytest.raises(ValueError, match=f"^n_coords must be at least 1, got {n_coords}$"):
            grad_check("l1", (a, b), seed=0, n_coords=n_coords)

    @pytest.mark.parametrize("n_coords", [2.5, True, 3.0, "3"])
    def test_rejects_n_coords_not_an_integer(self, n_coords):
        # unchecked, 2.5 and True raised numpy's "expected a sequence of
        # integers or a single integer", naming no argument
        a, b = np.random.default_rng(42).normal(size=(2, 4, 4))
        with pytest.raises(ValueError, match=f"^n_coords must be an integer, got {n_coords!r}$"):
            grad_check("l1", (a, b), seed=0, n_coords=n_coords)

    def test_numpy_integer_n_coords_is_stored_as_int(self):
        a, b = np.random.default_rng(42).normal(size=(2, 4, 4))
        report = grad_check("l1", (a, b), seed=0, n_coords=np.int64(3))
        assert report == grad_check("l1", (a, b), seed=0, n_coords=3)
        assert type(report.n_coords) is int
        assert type(report.to_dict()["n_coords"]) is int

    def test_rejects_bool_h(self):
        # unchecked, True was taken as h = 1.0
        a, b = np.random.default_rng(42).normal(size=(2, 4, 4))
        with pytest.raises(ValueError, match="^h must be finite and positive, got True$"):
            grad_check("l1", (a, b), seed=0, h=True)

    @pytest.mark.parametrize("h", [0.0, -1e-5, math.inf, math.nan])
    def test_rejects_h_not_finite_and_positive(self, h):
        # unchecked, 0 divided by zero into a "non-finite probe" report and inf
        # reported every coordinate tied
        a, b = np.random.default_rng(42).normal(size=(2, 4, 4))
        with pytest.raises(ValueError, match="^h must be finite and positive, got "):
            grad_check("l1", (a, b), seed=0, h=h)

    def test_non_finite_analytic_gradient_is_reported(self):
        # 2 * (1e308 - 1) overflows before the division by the score count
        with np.errstate(over="ignore", invalid="ignore"):
            report = grad_check("adv_mse", (np.full(4, 1e308), 1.0), seed=0)
        assert (report.ok, report.n_coords, report.max_rel_error) == (False, 0, math.inf)
        assert report.note == "non-finite analytic gradient"

    def test_non_finite_probe_is_reported(self):
        # the gradient is finite, but the squared scores overflow the loss
        with np.errstate(over="ignore", invalid="ignore"):
            report = grad_check("adv_mse", (np.full(4, 1.5e154), 1.0), seed=0)
        assert (report.ok, report.n_coords, report.max_rel_error) == (False, 4, math.inf)
        assert report.note == "non-finite probe"

    def test_l1_notes_too_few_coordinates_clear_of_ties(self):
        a = np.zeros((8, 8))
        b = a.copy()
        b.ravel()[[3, 17, 40]] = 1.0
        report = grad_check("l1", (a, b), seed=0)
        assert report.ok and report.n_coords == 3
        assert report.note == "only 3 coordinates clear of ties"

    @pytest.mark.parametrize("loss_id", kernels.LOSS_IDS)
    def test_value_fn_is_the_public_loss(self, loss_id):
        # the check must probe the public loss itself, not a second copy of
        # its formula that could drift from it
        rng = np.random.default_rng(43)
        first, second = rng.normal(size=(2, 9, 9))
        ex = FixedFeatureExtractor.from_seed(4)
        public, rest = {
            "l1": (loss_l1, (second,)),
            "adv_mse": (loss_adv_mse, (1.0,)),
            "feature": (loss_feature, (second, ex)),
            "style_frob": (loss_style_frob, (second, ex)),
        }[loss_id]
        extract, [(_, distance, _)] = kernels._loss_closure(loss_id, (first, *rest))
        moved, steps = np.array([0, 40, 80]), rng.normal(size=3)
        probes = kernels._probe_stack(first, moved, steps)
        assert distance(extract(moved, steps)).tolist() == [public(p, *rest) for p in probes]

    @pytest.mark.parametrize("seed", range(5))
    def test_run_grad_checks_equals_separate_checks(self, seed):
        # the feature and style checks share their probes; each report must
        # still equal the one its own grad_check call gives, bit for bit
        rng = np.random.default_rng(seed)
        extractor = FixedFeatureExtractor.from_seed(seed)
        a, b = rng.normal(0.0, 1.0, size=(2, 14, 14))
        scores = rng.normal(0.5, 0.3, size=(128,))
        g, x, y = rng.normal(0.0, 1.0, size=(3, 14, 14))
        separate = [
            grad_check("l1", (a, b), seed),
            grad_check("adv_mse", (scores, 1.0), seed),
            grad_check("feature", (g, x, extractor), seed),
            grad_check("style_frob", (g, y, extractor), seed),
        ]
        assert [r.to_dict() for r in run_grad_checks(seed)] == [r.to_dict() for r in separate]

    @pytest.mark.parametrize("seed", range(5))
    def test_run_grad_checks_equals_explicit_probe_stacks(self, seed):
        # the probe evaluator must leave every report as the full pass over
        # each explicit stack of probes gives it, bit for bit
        rng = np.random.default_rng(seed)
        stacking = _StackingExtractor(FixedFeatureExtractor.from_seed(seed))
        a, b = rng.normal(0.0, 1.0, size=(2, 14, 14))
        scores = rng.normal(0.5, 0.3, size=(128,))
        g, x, y = rng.normal(0.0, 1.0, size=(3, 14, 14))
        explicit = [
            grad_check("l1", (a, b), seed),
            grad_check("adv_mse", (scores, 1.0), seed),
            grad_check("feature", (g, x, stacking), seed),
            grad_check("style_frob", (g, y, stacking), seed),
        ]
        assert [r.to_dict() for r in run_grad_checks(seed)] == [r.to_dict() for r in explicit]

    @pytest.mark.parametrize("case", _PROBE_CASES)
    @pytest.mark.parametrize("loss_id", ["feature", "style_frob"])
    def test_grad_check_equals_explicit_probe_stacks(self, loss_id, case):
        make, shape = _PROBE_CASES[case]
        ex = make()
        rng = np.random.default_rng(44)
        g, fixed = rng.normal(size=(2,) + shape)
        report = grad_check(loss_id, (g, fixed, ex), seed=9, n_coords=40)
        assert report.ok and report.max_rel_error <= 1e-4
        explicit = grad_check(loss_id, (g, fixed, _StackingExtractor(ex)), seed=9, n_coords=40)
        assert report == explicit

    def test_run_grad_checks_makes_one_extractor_pass_per_probe_stack(self, monkeypatch):
        calls = {"features": 0, "conv": 0}
        features, conv = FixedFeatureExtractor.features, kernels.conv

        def counting_features(self, image):
            calls["features"] += 1
            return features(self, image)

        def counting_conv(*args, **kwargs):
            calls["conv"] += 1
            return conv(*args, **kwargs)

        monkeypatch.setattr(FixedFeatureExtractor, "features", counting_features)
        monkeypatch.setattr(kernels, "conv", counting_conv)
        run_grad_checks(0)
        # x and y as one batch, g forward once for both its pullback and its
        # probe evaluator and back once per loss, then 3 patch convs per
        # stack of 32 probes: 1 and 24; a second forward pass of g made 27,
        # full passes per stack 6 and 27, separate checks 10 and 42
        assert calls["features"] <= 1
        assert calls["conv"] <= 24

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_bad_seed(self, seed):
        # unchecked, -1 raised numpy's "expected non-negative integer"
        a, b = np.random.default_rng(42).normal(size=(2, 4, 4))
        with pytest.raises(ValueError, match="^seed must be "):
            grad_check("l1", (a, b), seed=seed)
        with pytest.raises(ValueError, match="^seed must be "):
            run_grad_checks(seed)

    def test_report_serializes(self):
        rng = np.random.default_rng(37)
        report = grad_check("l1", (rng.normal(size=100), rng.normal(size=100)), seed=5)
        d = report.to_dict()
        assert isinstance(d["max_rel_error"], float)
        assert d["loss_id"] == "l1"
        assert GradCheckReport(**d) == report


def _finiteness_scans(monkeypatch, call) -> int:
    """``np.isfinite`` calls on more than one element made by ``call()``."""
    sizes = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a, *args, **kw: sizes.append(np.size(a))
                        or isfinite(a, *args, **kw))
    call()
    monkeypatch.setattr(np, "isfinite", isfinite)
    return sum(n > 1 for n in sizes)


def _kernels_calls():
    """(name, call, expected) per public kernels call: the benchmark's shapes."""
    rng = np.random.default_rng(45)
    ex = FixedFeatureExtractor.from_seed(0)
    a, b, g, x, y = rng.normal(size=(5, 14, 14))
    frames = list(rng.normal(size=(5, 4, 64, 64)))
    fw, bw = ConvLSTMWeights.from_seed(0, 4, 8), ConvLSTMWeights.from_seed(1, 4, 8)
    state = ConvLSTMState.zeros(8, (64, 64))
    return [
        # 6 of them the extractor's layers; each of the six inputs once, and
        # the analytic gradient and the probe values of each of four checks
        ("run_grad_checks", lambda: run_grad_checks(0), 20),
        # each frame once, then each cell's new state (h, c) as it is built,
        # and the zero states of both directions
        ("bidirectional_convlstm", lambda: bidirectional_convlstm(frames, fw, bw), 29),
        ("convlstm_cell", lambda: convlstm_cell(frames[0], state, fw), 3),
        ("features", lambda: ex.features(g), 1),
        ("loss_feature", lambda: loss_feature(g, x, ex), 2),
        ("loss_style_frob", lambda: loss_style_frob(g, y, ex), 2),
        ("grad_check_l1", lambda: grad_check("l1", (a, b), 0), 4),
        ("grad_check_feature", lambda: grad_check("feature", (g, x, ex), 0), 4),
        ("grad_check_style_frob", lambda: grad_check("style_frob", (g, y, ex), 0), 4),
    ]


class TestFiniteness:
    @pytest.mark.parametrize("index", range(9), ids=[c[0] for c in _kernels_calls()])
    def test_finiteness_scans_per_call(self, index, monkeypatch):
        # each array once, where it enters; conv and the extractor's passes
        # inside a loss or a check scan nothing (146 per benchmark op before:
        # 87 for run_grad_checks and 59 for the ConvLSTM)
        _, call, expected = _kernels_calls()[index]
        assert _finiteness_scans(monkeypatch, call) == expected

    @pytest.mark.parametrize("name", ["g", "x", "y", "a", "b", "scores", "image", "frame 2"])
    def test_nan_names_its_input(self, name):
        rng = np.random.default_rng(46)
        ex = FixedFeatureExtractor.from_seed(0)
        arrays = dict(zip("gxyab", rng.normal(size=(5, 9, 9))))
        scores = rng.normal(size=16)
        frames = list(rng.normal(size=(5, 2, 6, 6)))
        w = ConvLSTMWeights.from_seed(0, 2, 3)
        bad = np.full((9, 9), 1.0)
        bad[4, 5] = np.nan
        bad_frame = frames[2].copy()
        bad_frame[1, 2, 3] = np.inf
        calls = {
            "g": [lambda: grad_check("feature", (bad, arrays["x"], ex), 0),
                  lambda: grad_check("style_frob", (bad, arrays["y"], ex), 0),
                  lambda: loss_feature(bad, arrays["x"], ex),
                  lambda: loss_style_frob(bad, arrays["y"], ex)],
            "x": [lambda: grad_check("feature", (arrays["g"], bad, ex), 0),
                  lambda: loss_feature(arrays["g"], bad, ex),
                  lambda: convlstm_cell(bad_frame, ConvLSTMState.zeros(3, (6, 6)), w)],
            "y": [lambda: grad_check("style_frob", (arrays["g"], bad, ex), 0),
                  lambda: loss_style_frob(arrays["g"], bad, ex)],
            "a": [lambda: grad_check("l1", (bad, arrays["b"]), 0),
                  lambda: loss_l1(bad, arrays["b"]), lambda: grad_loss_l1(bad, arrays["b"])],
            "b": [lambda: grad_check("l1", (arrays["a"], bad), 0),
                  lambda: loss_l1(arrays["a"], bad), lambda: grad_loss_l1(arrays["a"], bad)],
            "scores": [lambda: grad_check("adv_mse", (np.append(scores, np.nan), 1.0), 0),
                       lambda: loss_adv_mse(np.append(scores, np.nan), 1.0)],
            "image": [lambda: ex.features(bad), lambda: ex.linearize(bad)],
            "frame 2": [lambda: bidirectional_convlstm(frames[:2] + [bad_frame] + frames[3:],
                                                       w, w)],
        }[name]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} contains a non-finite value"):
                call()
