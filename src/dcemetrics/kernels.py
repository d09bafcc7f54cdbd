"""Neural building blocks with hand-derived gradients.

This module collects the small, self-contained pieces that a sequence
style-transfer network is assembled from, each implemented directly on
numpy arrays so its behaviour can be checked against scalar reference
loops and finite differences:

* ``adain`` aligns per-channel feature statistics of a content map to a
  style map.
* ``AdaConvKernelSet`` / ``adaconv_apply`` run a predicted depthwise
  spatial convolution, a pointwise channel-mixing convolution and a bias
  add, in that order, under reflect padding.
* ``KernelPredictorSet`` builds the three fixed-seed linear predictor
  heads that map a style code to an ``AdaConvKernelSet``.
* ``convlstm_cell`` / ``bidirectional_convlstm`` implement the standard
  convolutional LSTM gate equations and the two-direction driver that
  concatenates the per-frame hidden states of both passes.
* ``FixedFeatureExtractor`` is a frozen random convolutional network
  standing in for a pretrained perceptual backbone.  Its nonlinearity is
  tanh so every loss routed through it is smooth and finite-difference
  checks are valid everywhere.
* the loss family (``loss_l1``, ``loss_adv_mse``, ``loss_feature``,
  ``loss_style_frob``) with analytic gradients and ``grad_check``, a
  central-difference harness over randomly sampled coordinates.

Feature maps are arrays shaped (C, spatial...); plain images enter the
extractor as (spatial...) and are lifted to a single channel.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .tensor import as_f64, conv

logger = logging.getLogger(__name__)

LOSS_IDS = ("l1", "adv_mse", "feature", "style_frob")


def _check_feature_map(x: np.ndarray, name: str) -> np.ndarray:
    if x.ndim < 2:
        raise ValueError(f"{name} must be shaped (C, spatial...), got {x.shape}")
    return x


def _same_shape(a, b, name_a: str, name_b: str) -> tuple[np.ndarray, np.ndarray]:
    xa = as_f64(a, name_a)
    xb = as_f64(b, name_b)
    if xa.shape != xb.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {xb.shape}")
    return xa, xb


def _spatial_axes(x: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, x.ndim))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exact identity; tanh saturates instead of overflowing for any z
    return 0.5 * np.tanh(0.5 * z) + 0.5


# ---------------------------------------------------------------------------
# statistic alignment


def adain(content, style, eps: float = 1e-5) -> np.ndarray:
    """Shift content features to carry the style features' channel statistics.

    Per channel: ``sigma_style * (content - mu_content) / sqrt(var_content
    + eps) + mu_style``.  Spatial shapes of the two maps may differ; only
    the channel counts must agree.
    """
    c = _check_feature_map(as_f64(content, "content"), "content")
    s = _check_feature_map(as_f64(style, "style"), "style")
    if c.shape[0] != s.shape[0]:
        raise ValueError(
            f"channel mismatch: content has {c.shape[0]}, style has {s.shape[0]}"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    mu_c = c.mean(axis=_spatial_axes(c), keepdims=True)
    var_c = c.var(axis=_spatial_axes(c), keepdims=True)
    stat_shape = (s.shape[0],) + (1,) * (c.ndim - 1)
    mu_s = s.mean(axis=_spatial_axes(s)).reshape(stat_shape)
    sigma_s = s.std(axis=_spatial_axes(s)).reshape(stat_shape)
    return sigma_s * (c - mu_c) / np.sqrt(var_c + eps) + mu_s


# ---------------------------------------------------------------------------
# predicted-kernel convolution


@dataclass(frozen=True)
class AdaConvKernelSet:
    """One predicted convolution: depthwise spatial, pointwise 1x1, bias.

    ``depthwise`` is shaped (C, C // groups, k...), ``pointwise``
    (C_out, C, 1...), ``bias`` (C_out,).  Spatial kernel sizes must be odd
    so that reflect padding preserves the input extent.
    """

    depthwise: np.ndarray
    pointwise: np.ndarray
    bias: np.ndarray
    groups: int = 1

    def __post_init__(self):
        dw = as_f64(self.depthwise, "depthwise")
        pw = as_f64(self.pointwise, "pointwise")
        b = as_f64(self.bias, "bias")
        object.__setattr__(self, "depthwise", dw)
        object.__setattr__(self, "pointwise", pw)
        object.__setattr__(self, "bias", b)
        if dw.ndim < 3 or pw.ndim != dw.ndim:
            raise ValueError("depthwise and pointwise kernels must share rank")
        if any(k % 2 == 0 for k in dw.shape[2:]):
            raise ValueError(f"depthwise kernel sizes must be odd, got {dw.shape[2:]}")
        if any(k != 1 for k in pw.shape[2:]):
            raise ValueError("pointwise kernel must be 1 along every spatial axis")
        if self.groups < 1 or dw.shape[0] % self.groups != 0:
            raise ValueError(
                f"groups ({self.groups}) must divide depthwise channels ({dw.shape[0]})"
            )
        if pw.shape[1] != dw.shape[0]:
            raise ValueError(
                f"pointwise expects {pw.shape[1]} channels but depthwise yields {dw.shape[0]}"
            )
        if b.shape != (pw.shape[0],):
            raise ValueError(f"bias must be shaped ({pw.shape[0]},), got {b.shape}")

    @property
    def in_channels(self) -> int:
        return self.depthwise.shape[1] * self.groups

    @classmethod
    def identity(cls, channels: int, kernel_size: int = 3, ndim: int = 2) -> "AdaConvKernelSet":
        """Kernel set whose application is the identity map."""
        dw = np.zeros((channels, 1) + (kernel_size,) * ndim)
        center = (slice(None), 0) + (kernel_size // 2,) * ndim
        dw[center] = 1.0
        pw = np.eye(channels).reshape((channels, channels) + (1,) * ndim)
        return cls(dw, pw, np.zeros(channels), groups=channels)


def adaconv_apply(content, kernels: AdaConvKernelSet) -> np.ndarray:
    """Run the depthwise conv, the pointwise conv, then add the bias.

    Reflect padding keeps spatial extent; order is fixed as
    depthwise -> pointwise -> bias.
    """
    x = _check_feature_map(as_f64(content, "content"), "content")
    if x.shape[0] != kernels.in_channels:
        raise ValueError(
            f"content has {x.shape[0]} channels but kernel set expects "
            f"{kernels.in_channels}"
        )
    if x.ndim != kernels.depthwise.ndim - 1:
        raise ValueError(
            f"content rank {x.ndim - 1} does not match kernel rank "
            f"{kernels.depthwise.ndim - 2}"
        )
    mid = conv(x, kernels.depthwise, padding="reflect", groups=kernels.groups)
    out = conv(mid, kernels.pointwise, padding="reflect")
    return out + kernels.bias.reshape((-1,) + (1,) * (x.ndim - 1))


@dataclass(frozen=True)
class KernelPredictor:
    """Linear head mapping a style code to one kernel tensor.

    Conv over the code, global average pooling, then a dense mix down to
    the flattened target shape.  No biases anywhere, so a zero code
    predicts a zero tensor.
    """

    conv_kernel: np.ndarray
    mix: np.ndarray
    target_shape: tuple[int, ...]

    def predict(self, style_code: np.ndarray) -> np.ndarray:
        z = conv(style_code, self.conv_kernel, padding="zero")
        pooled = z.mean(axis=_spatial_axes(z))
        return (self.mix @ pooled).reshape(self.target_shape)


@dataclass(frozen=True)
class KernelPredictorSet:
    """Three fixed-seed heads predicting depthwise, pointwise and bias.

    Untrained; exists so the predicted-kernel path can be exercised
    deterministically end to end.
    """

    depthwise_head: KernelPredictor
    pointwise_head: KernelPredictor
    bias_head: KernelPredictor
    in_channels: int
    groups: int
    seed: int

    @classmethod
    def from_seed(
        cls,
        seed: int,
        code_channels: int,
        channels: int,
        kernel_size: int = 3,
        groups: int | None = None,
        ndim: int = 2,
        hidden: int = 8,
    ) -> "KernelPredictorSet":
        if groups is None:
            groups = channels
        if channels % groups != 0:
            raise ValueError(f"groups ({groups}) must divide channels ({channels})")
        targets = (
            (channels, channels // groups) + (kernel_size,) * ndim,
            (channels, channels) + (1,) * ndim,
            (channels,),
        )
        children = np.random.SeedSequence(seed).spawn(3)
        heads = []
        for child, target in zip(children, targets):
            rng = np.random.default_rng(child)
            ck = rng.normal(0.0, 0.1, size=(hidden, code_channels) + (3,) * ndim)
            mix = rng.normal(0.0, 0.1, size=(int(np.prod(target)), hidden))
            heads.append(KernelPredictor(ck, mix, target))
        return cls(heads[0], heads[1], heads[2], code_channels, groups, seed)

    def predict(self, style_code) -> AdaConvKernelSet:
        code = _check_feature_map(as_f64(style_code, "style_code"), "style_code")
        if code.shape[0] != self.in_channels:
            raise ValueError(
                f"style code has {code.shape[0]} channels, predictor expects "
                f"{self.in_channels}"
            )
        return AdaConvKernelSet(
            self.depthwise_head.predict(code),
            self.pointwise_head.predict(code),
            self.bias_head.predict(code),
            groups=self.groups,
        )


# ---------------------------------------------------------------------------
# convolutional LSTM


@dataclass(frozen=True)
class ConvLSTMWeights:
    """Stacked gate kernels over the concatenated (input, hidden) channels.

    ``kernel`` is (4*hidden, in_channels + hidden, k...) and ``bias``
    (4*hidden,), gate blocks ordered (i, f, g, o).
    """

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        k = as_f64(self.kernel, "kernel")
        b = as_f64(self.bias, "bias")
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "bias", b)
        if k.ndim < 3 or k.shape[0] % 4 != 0:
            raise ValueError(
                f"kernel must be (4*hidden, channels, k...), got {k.shape}"
            )
        if any(s % 2 == 0 for s in k.shape[2:]):
            raise ValueError(f"gate kernel sizes must be odd, got {k.shape[2:]}")
        if b.shape != (k.shape[0],):
            raise ValueError(f"bias must be shaped ({k.shape[0]},), got {b.shape}")

    @property
    def hidden(self) -> int:
        return self.kernel.shape[0] // 4

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1] - self.hidden

    def _gate(self, idx: int) -> np.ndarray:
        h = self.hidden
        return self.kernel[idx * h : (idx + 1) * h]

    def _gate_bias(self, idx: int) -> np.ndarray:
        h = self.hidden
        return self.bias[idx * h : (idx + 1) * h]

    # per-gate views, in the (i, f, g, o) stacking order
    @property
    def w_i(self) -> np.ndarray:
        return self._gate(0)

    @property
    def w_f(self) -> np.ndarray:
        return self._gate(1)

    @property
    def w_g(self) -> np.ndarray:
        return self._gate(2)

    @property
    def w_o(self) -> np.ndarray:
        return self._gate(3)

    @property
    def b_i(self) -> np.ndarray:
        return self._gate_bias(0)

    @property
    def b_f(self) -> np.ndarray:
        return self._gate_bias(1)

    @property
    def b_g(self) -> np.ndarray:
        return self._gate_bias(2)

    @property
    def b_o(self) -> np.ndarray:
        return self._gate_bias(3)

    @classmethod
    def from_seed(
        cls, seed: int, in_channels: int, hidden: int, kernel_size: int = 3, ndim: int = 2
    ) -> "ConvLSTMWeights":
        rng = np.random.default_rng(seed)
        shape = (4 * hidden, in_channels + hidden) + (kernel_size,) * ndim
        return cls(rng.normal(0.0, 0.1, size=shape), rng.normal(0.0, 0.1, size=4 * hidden))

    @classmethod
    def zeros(
        cls, in_channels: int, hidden: int, kernel_size: int = 3, ndim: int = 2
    ) -> "ConvLSTMWeights":
        shape = (4 * hidden, in_channels + hidden) + (kernel_size,) * ndim
        return cls(np.zeros(shape), np.zeros(4 * hidden))


@dataclass(frozen=True)
class ConvLSTMState:
    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        h = as_f64(self.h, "h")
        c = as_f64(self.c, "c")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)
        if h.shape != c.shape:
            raise ValueError(f"hidden {h.shape} and cell {c.shape} must share shape")

    @classmethod
    def zeros(cls, hidden: int, spatial: tuple[int, ...]) -> "ConvLSTMState":
        z = np.zeros((hidden,) + tuple(spatial))
        return cls(z, z.copy())


def convlstm_cell(x, state: ConvLSTMState, weights: ConvLSTMWeights) -> ConvLSTMState:
    """One gated update: i,f,o sigmoid and g tanh over conv(concat(x, h)).

    c' = f*c + i*g and h' = o*tanh(c'), zero padding at the borders.
    """
    xa = _check_feature_map(as_f64(x, "x"), "x")
    if xa.shape[0] != weights.in_channels:
        raise ValueError(
            f"input has {xa.shape[0]} channels, weights expect {weights.in_channels}"
        )
    if state.h.shape != (weights.hidden,) + xa.shape[1:]:
        raise ValueError(
            f"state shape {state.h.shape} does not match input spatial {xa.shape[1:]} "
            f"with {weights.hidden} hidden channels"
        )
    stacked = np.concatenate([xa, state.h], axis=0)
    pre = conv(stacked, weights.kernel, padding="zero")
    pre += weights.bias.reshape((-1,) + (1,) * (xa.ndim - 1))
    hid = weights.hidden
    i = _sigmoid(pre[:hid])
    f = _sigmoid(pre[hid : 2 * hid])
    g = np.tanh(pre[2 * hid : 3 * hid])
    o = _sigmoid(pre[3 * hid :])
    c_new = f * state.c + i * g
    h_new = o * np.tanh(c_new)
    return ConvLSTMState(h_new, c_new)


def bidirectional_convlstm(
    seq,
    fw_weights: ConvLSTMWeights,
    bw_weights: ConvLSTMWeights,
    expected_frames: int = 5,
) -> list[np.ndarray]:
    """Run the cell in both temporal directions and concatenate the outputs.

    Output frame t carries (forward h_t, backward h_t) stacked along the
    channel axis.  Concatenation rather than summation is an assumption;
    the two-direction recurrence itself is standard.
    """
    frames = [_check_feature_map(as_f64(f, f"frame {i}"), f"frame {i}") for i, f in enumerate(seq)]
    if len(frames) != expected_frames:
        raise ValueError(f"expected exactly {expected_frames} frames, got {len(frames)}")
    shape = frames[0].shape
    for i, f in enumerate(frames):
        if f.shape != shape:
            raise ValueError(f"frame {i} has shape {f.shape}, expected {shape}")
    if fw_weights.hidden != bw_weights.hidden:
        raise ValueError("forward and backward weights must share hidden size")

    def run(direction_frames, weights):
        state = ConvLSTMState.zeros(weights.hidden, shape[1:])
        outs = []
        for f in direction_frames:
            state = convlstm_cell(f, state, weights)
            outs.append(state.h)
        return outs

    fw = run(frames, fw_weights)
    bw = run(frames[::-1], bw_weights)[::-1]
    return [np.concatenate([a, b], axis=0) for a, b in zip(fw, bw)]


# ---------------------------------------------------------------------------
# fixed perceptual extractor


@dataclass(frozen=True)
class FixedFeatureExtractor:
    """Frozen three-layer tanh conv net used as the perceptual map P.

    Channels run 1 -> 8 -> 16 -> 16 with 3x3 kernels and zero 'same'
    padding.  Weights are drawn once from the seed and never updated.
    ``features_and_vjp`` exposes the exact adjoint so losses routed
    through P have analytic input gradients.
    """

    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    seed: int

    @classmethod
    def from_seed(
        cls,
        seed: int = 0,
        channels: tuple[int, ...] = (1, 8, 16, 16),
        kernel_size: int = 3,
        ndim: int = 2,
    ) -> "FixedFeatureExtractor":
        rng = np.random.default_rng(seed)
        kernels = []
        biases = []
        for cin, cout in zip(channels[:-1], channels[1:]):
            scale = 1.0 / np.sqrt(cin * kernel_size**ndim)
            kernels.append(
                rng.normal(0.0, scale, size=(cout, cin) + (kernel_size,) * ndim)
            )
            biases.append(rng.normal(0.0, 0.1, size=cout))
        return cls(tuple(kernels), tuple(biases), seed)

    @property
    def in_channels(self) -> int:
        return self.kernels[0].shape[1]

    def _lift(self, image) -> np.ndarray:
        x = as_f64(image, "image")
        n_sp = self.kernels[0].ndim - 2
        if x.ndim > n_sp:  # already (C, spatial...) or a batch (B, C, spatial...)
            if x.shape[-n_sp - 1] != self.in_channels:
                raise ValueError(
                    f"feature input has {x.shape[-n_sp - 1]} channels, "
                    f"expected {self.in_channels}"
                )
            return x
        if self.in_channels != 1:
            raise ValueError("plain images require a single-channel extractor")
        return x[np.newaxis]

    def features(self, image) -> np.ndarray:
        """Feature map (C_last, spatial...) for an image (spatial...) or (C, spatial...).

        A batch (B, C, spatial...) gives (B, C_last, spatial...), each layer
        running the whole batch through one convolution; gradient checks
        pass their probes this way.
        """
        return self.features_and_vjp(image)[0]

    def features_and_vjp(self, image):
        """Features plus a pullback mapping d(loss)/d(features) to d(loss)/d(image)."""
        a = self._lift(image)
        activations = [a]
        for k, b in zip(self.kernels, self.biases):
            z = conv(a, k, padding="zero") + b.reshape((-1,) + (1,) * (k.ndim - 2))
            a = np.tanh(z)
            activations.append(a)

        lifted_plain = np.asarray(image).ndim == a.ndim - 1

        def vjp(cotangent: np.ndarray) -> np.ndarray:
            grad = np.asarray(cotangent, dtype=np.float64)
            for k, out in zip(reversed(self.kernels), reversed(activations[1:])):
                grad = grad * (1.0 - out**2)  # through tanh
                # adjoint of same-padded cross-correlation: swap the channel
                # axes and flip every spatial axis, then correlate again
                k_adj = np.flip(k, axis=tuple(range(2, k.ndim))).swapaxes(0, 1)
                grad = conv(grad, k_adj, padding="zero")
            return grad[0] if lifted_plain else grad

        return activations[-1], vjp


def gram_matrix(features, normalize: bool = True) -> np.ndarray:
    """Channel-by-channel inner products of a feature map.

    G[a, b] = sum_s F_a(s) F_b(s), divided by (channels * positions)
    unless ``normalize`` is False.
    """
    f = _check_feature_map(as_f64(features, "features"), "features")
    return _grams(f[np.newaxis], normalize)[0]


def _grams(f: np.ndarray, normalize: bool) -> np.ndarray:
    """Gram matrices (B, C, C) of a stack of feature maps (B, C, spatial...)."""
    flat = f.reshape(f.shape[:2] + (-1,))
    g = flat @ flat.swapaxes(1, 2)
    return g / flat[0].size if normalize else g


# ---------------------------------------------------------------------------
# losses and analytic gradients


def loss_l1(a, b) -> float:
    """Mean absolute difference."""
    xa, xb = _same_shape(a, b, "a", "b")
    return float(np.abs(xa - xb).mean())


def grad_loss_l1(a, b) -> np.ndarray:
    """d(mean |a - b|)/da; the subgradient at exact ties is taken as 0."""
    xa, xb = _same_shape(a, b, "a", "b")
    return np.sign(xa - xb) / xa.size


def _adv_target(target) -> float:
    if target not in (0.0, 1.0, 0, 1):
        raise ValueError(f"target must be 0 or 1, got {target}")
    return float(target)


def loss_adv_mse(scores, target: float) -> float:
    """Mean squared distance of discriminator scores from a 0/1 target."""
    s = as_f64(scores, "scores")
    return float(((s - _adv_target(target)) ** 2).mean())


def grad_loss_adv_mse(scores, target: float) -> np.ndarray:
    s = as_f64(scores, "scores")
    return 2.0 * (s - _adv_target(target)) / s.size


def _feature_distance(fg: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """(1/f) ||fg[i] - fx||^2 for each map of a stack fg (B, C, spatial...)."""
    d = (fg - fx).reshape(len(fg), -1)
    return (d**2).sum(axis=1) / d.shape[1]


def loss_feature(g, x, extractor: FixedFeatureExtractor) -> float:
    """Size-normalized squared distance between extracted feature maps.

    (1/f) * ||P(g) - P(x)||^2 with f the feature element count.
    """
    ga, xa = _same_shape(g, x, "g", "x")
    return float(_feature_distance(extractor.features(ga)[np.newaxis], extractor.features(xa))[0])


def grad_loss_feature(g, x, extractor: FixedFeatureExtractor) -> np.ndarray:
    ga = as_f64(g, "g")
    fx = extractor.features(as_f64(x, "x"))
    fg, vjp = extractor.features_and_vjp(ga)
    d = fg - fx
    return vjp(2.0 * d / d.size)


def _style_distance(fg: np.ndarray, gram_y: np.ndarray, normalize_gram: bool) -> np.ndarray:
    """||G(fg[i]) - gram_y||_F^2 for each map of a stack fg (B, C, spatial...)."""
    dg = _grams(fg, normalize_gram) - gram_y
    return (dg**2).sum(axis=(1, 2))


def loss_style_frob(g, y, extractor: FixedFeatureExtractor, normalize_gram: bool = True) -> float:
    """Squared Frobenius distance between feature Gram matrices."""
    ga, ya = _same_shape(g, y, "g", "y")
    gram_y = gram_matrix(extractor.features(ya), normalize_gram)
    return float(_style_distance(extractor.features(ga)[np.newaxis], gram_y, normalize_gram)[0])


def grad_loss_style_frob(
    g, y, extractor: FixedFeatureExtractor, normalize_gram: bool = True
) -> np.ndarray:
    ga = as_f64(g, "g")
    fy = extractor.features(as_f64(y, "y"))
    fg, vjp = extractor.features_and_vjp(ga)
    delta = gram_matrix(fg, normalize_gram) - gram_matrix(fy, normalize_gram)
    flat = fg.reshape(fg.shape[0], -1)
    scale = 4.0 / flat.size if normalize_gram else 4.0
    cotangent = (scale * (delta @ flat)).reshape(fg.shape)
    return vjp(cotangent)


@dataclass(frozen=True)
class LossBundle:
    """All scalar training losses evaluated for one generated frame."""

    l1_image: float
    l1_latent: float
    adv_mse: float
    feature: float
    style_frob: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{f.name} must be finite and non-negative, got {v}")

    def to_dict(self) -> dict:
        return asdict(self)


def compute_loss_bundle(
    generated,
    original,
    latent_pred,
    latent_recon,
    adv_scores,
    adv_target: float,
    style,
    extractor: FixedFeatureExtractor,
) -> LossBundle:
    return LossBundle(
        l1_image=loss_l1(generated, original),
        l1_latent=loss_l1(latent_pred, latent_recon),
        adv_mse=loss_adv_mse(adv_scores, adv_target),
        feature=loss_feature(generated, original, extractor),
        style_frob=loss_style_frob(generated, style, extractor),
    )


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    loss_id: str
    max_rel_error: float
    n_coords: int
    h: float
    seed: int
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# probes per value_fn call; bounds the memory of one batched extractor pass
_PROBE_CHUNK = 32


def _probe_batch(probes: np.ndarray, fixed_features: np.ndarray) -> np.ndarray:
    """Give a stack of plain-image probes the channel axis the extractor expects."""
    return probes[:, np.newaxis] if probes.ndim == fixed_features.ndim else probes


def _loss_closure(loss_id: str, inputs: tuple) -> tuple[Callable, np.ndarray]:
    """Return (value_fn, analytic gradient) for the first argument.

    ``value_fn`` maps a stack of probes shaped (B, *first.shape) to their B
    loss values.  The feature losses extract the fixed second argument's
    features (or Gram matrix) once here and run each probe stack through
    the extractor as one batch.
    """
    if loss_id == "l1":
        a, b = _same_shape(*inputs, "a", "b")
        return (
            lambda p: np.abs(p - b).reshape(len(p), -1).mean(axis=1)
        ), grad_loss_l1(a, b)
    if loss_id == "adv_mse":
        scores, target = inputs
        t = _adv_target(target)
        return (
            lambda p: ((p - t) ** 2).reshape(len(p), -1).mean(axis=1)
        ), grad_loss_adv_mse(scores, target)
    if loss_id == "feature":
        g, x, extractor = inputs
        fx = extractor.features(_same_shape(g, x, "g", "x")[1])
        return (
            lambda p: _feature_distance(extractor.features(_probe_batch(p, fx)), fx)
        ), grad_loss_feature(g, x, extractor)
    if loss_id == "style_frob":
        g, y, extractor = inputs
        fy = extractor.features(_same_shape(g, y, "g", "y")[1])
        gram_y = gram_matrix(fy)
        return (
            lambda p: _style_distance(
                extractor.features(_probe_batch(p, fy)), gram_y, normalize_gram=True
            )
        ), grad_loss_style_frob(g, y, extractor)
    raise ValueError(f"unknown loss_id {loss_id!r}; expected one of {LOSS_IDS}")


def grad_check(
    loss_id: str,
    inputs: tuple,
    seed: int,
    n_coords: int = 64,
    h: float = 1e-5,
) -> GradCheckReport:
    """Central-difference check of one analytic gradient.

    Samples ``n_coords`` coordinates of the first input (all of them when
    the array is smaller), perturbs each by +-h and reports the max
    relative error with denominator max(|analytic|, |numeric|, 1e-8).
    Each probe moves exactly one coordinate; the 2 * n probes are
    evaluated as stacks of ``_PROBE_CHUNK``, so a feature loss makes one
    batched extractor pass per stack.
    For the L1 loss, coordinates whose difference is within 2h of a tie
    are excluded: the kink there makes finite differences meaningless.
    """
    value_fn, analytic = _loss_closure(loss_id, inputs)
    base = as_f64(inputs[0], "inputs[0]")
    if not np.all(np.isfinite(analytic)):
        return GradCheckReport(
            loss_id, float("inf"), 0, h, seed, ok=False, note="non-finite analytic gradient"
        )

    eligible = np.arange(base.size)
    note = ""
    if loss_id == "l1":
        margin = max(1e-7, 2.0 * h)
        diff = np.abs(base.ravel() - as_f64(inputs[1], "inputs[1]").ravel())
        eligible = eligible[diff > margin]
        if eligible.size == 0:
            return GradCheckReport(
                loss_id, float("inf"), 0, h, seed, ok=False, note="all coordinates tied"
            )
        if eligible.size < n_coords:
            note = f"only {eligible.size} coordinates clear of ties"

    rng = np.random.default_rng(seed)
    n = min(n_coords, eligible.size)
    coords = rng.choice(eligible, size=n, replace=False)

    # probe 2j moves coords[j] by +h, probe 2j + 1 moves it by -h
    moved = np.repeat(coords, 2)
    steps = np.tile([h, -h], n)
    values = np.empty(2 * n)
    for start in range(0, 2 * n, _PROBE_CHUNK):
        chunk = slice(start, start + _PROBE_CHUNK)
        idx = moved[chunk]
        probes = np.repeat(base.reshape(1, -1), idx.size, axis=0)
        probes[np.arange(idx.size), idx] += steps[chunk]
        values[chunk] = value_fn(probes.reshape((idx.size,) + base.shape))
    numeric = (values[0::2] - values[1::2]) / (2.0 * h)
    if not np.all(np.isfinite(numeric)):
        return GradCheckReport(
            loss_id, float("inf"), n, h, seed, ok=False, note="non-finite probe"
        )
    exact = analytic.ravel()[coords]
    denom = np.maximum(np.maximum(np.abs(exact), np.abs(numeric)), 1e-8)
    max_err = float(np.max(np.abs(exact - numeric) / denom, initial=0.0))
    return GradCheckReport(loss_id, max_err, n, h, seed, ok=True, note=note)


def run_grad_checks(seed: int, image_shape: tuple[int, int] = (14, 14)) -> list[GradCheckReport]:
    """One report per loss on random inputs derived from ``seed``."""
    rng = np.random.default_rng(seed)
    extractor = FixedFeatureExtractor.from_seed(seed)
    a = rng.normal(0.0, 1.0, size=image_shape)
    b = rng.normal(0.0, 1.0, size=image_shape)
    scores = rng.normal(0.5, 0.3, size=(128,))
    g = rng.normal(0.0, 1.0, size=image_shape)
    x = rng.normal(0.0, 1.0, size=image_shape)
    y = rng.normal(0.0, 1.0, size=image_shape)
    return [
        grad_check("l1", (a, b), seed),
        grad_check("adv_mse", (scores, 1.0), seed),
        grad_check("feature", (g, x, extractor), seed),
        grad_check("style_frob", (g, y, extractor), seed),
    ]
