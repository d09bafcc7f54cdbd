"""Neural building blocks with hand-derived gradients.

This module collects the small, self-contained pieces that a sequence
style-transfer network is assembled from, each implemented directly on
numpy arrays so its behaviour can be checked against scalar reference
loops and finite differences:

* ``adain`` aligns per-channel feature statistics of a content map to a
  style map.
* ``convlstm_cell`` / ``bidirectional_convlstm`` implement the standard
  convolutional LSTM gate equations and the two-direction driver that
  concatenates the per-frame hidden states of both passes.
* ``FixedFeatureExtractor`` is a frozen random convolutional network
  standing in for a pretrained perceptual backbone.  Its nonlinearity is
  tanh so every loss routed through it is smooth and finite-difference
  checks are valid everywhere.  It checks its layers when it is built.
* the loss family (``loss_l1``, ``loss_adv_mse``, ``loss_feature``,
  ``loss_style_frob``) and ``grad_check``, a central-difference harness
  over randomly sampled coordinates.  Each loss's value has one batched
  definition, which both the public loss and the check call.  The L1 and
  adversarial gradients are public functions; the feature and style
  gradients live in the check itself, pulled back through the extractor's
  adjoint from the fixed-side features it extracts once.  One probe loop,
  ``_grad_checks``, serves ``grad_check`` (one loss) and
  ``run_grad_checks``, whose feature and style checks share ``g``: they
  run ``linearize(g)`` once, apply its pullback to each loss's cotangent
  and take their distances from one evaluation per stack of probes.  A
  probe moves one coordinate, so the probe evaluator recomputes only the
  window the move reaches, from ``g``'s own activations; the reports equal
  those of a full pass over each stack of probes bit for bit.

Each array is scanned for NaN/Inf once, by the public function that takes
it, which hands it on as ``tensor._trusted``; ``conv`` scans nothing.  An
extractor is any object with ``features`` and ``linearize`` that takes
what ``as_f64`` takes.

The paper's convolution with kernels predicted from a style code is not
kept; every convolution is ``tensor.conv``, zero-padded and size-preserving.
Feature maps are arrays shaped (C, spatial...); plain images enter the
extractor as (spatial...) and are lifted to a single channel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from .tensor import _is_int, _trusted, as_f64, as_f64_pair, conv

LOSS_IDS = ("l1", "adv_mse", "feature", "style_frob")
# spatial kernel of every seeded or zero-weight constructor
_KERNEL = (3, 3)
# frames of a bidirectional ConvLSTM sequence
_N_FRAMES = 5


def _feature_map(x, name: str) -> np.ndarray:
    """``as_f64(x, name)``, which must be shaped (C, spatial...)."""
    f = as_f64(x, name)
    if f.ndim < 2:
        raise ValueError(f"{name} must be shaped (C, spatial...), got {f.shape}")
    return f


def _spatial_axes(x: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, x.ndim))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of ``z``, computed in place over ``z``."""
    # exact identity; tanh saturates instead of overflowing for any z
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


# ---------------------------------------------------------------------------
# statistic alignment


def adain(content, style, eps: float = 1e-5) -> np.ndarray:
    """Shift content features to carry the style features' channel statistics.

    Per channel: ``sigma_style * (content - mu_content) / sqrt(var_content
    + eps) + mu_style``.  Spatial shapes of the two maps may differ; only
    the channel counts must agree.
    """
    c = _feature_map(content, "content")
    s = _feature_map(style, "style")
    if c.shape[0] != s.shape[0]:
        raise ValueError(
            f"channel mismatch: content has {c.shape[0]}, style has {s.shape[0]}"
        )
    if isinstance(eps, bool) or not 0.0 < eps < np.inf:  # NaN fails both comparisons
        raise ValueError(f"eps must be finite and positive, got {eps}")
    mu_c = c.mean(axis=_spatial_axes(c), keepdims=True)
    var_c = c.var(axis=_spatial_axes(c), keepdims=True)
    stat_shape = (s.shape[0],) + (1,) * (c.ndim - 1)
    mu_s = s.mean(axis=_spatial_axes(s)).reshape(stat_shape)
    sigma_s = s.std(axis=_spatial_axes(s)).reshape(stat_shape)
    return sigma_s * (c - mu_c) / np.sqrt(var_c + eps) + mu_s


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
        if k.ndim < 3 or k.shape[0] % 4 != 0 or not 0 < k.shape[0] // 4 < k.shape[1]:
            raise ValueError(
                f"kernel must be (4*hidden, in_channels + hidden, k...), each count at "
                f"least 1, got {k.shape}"
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

    @classmethod
    def from_seed(cls, seed: int, in_channels: int, hidden: int) -> "ConvLSTMWeights":
        rng = np.random.default_rng(seed)
        shape = (4 * hidden, in_channels + hidden) + _KERNEL
        return cls(rng.normal(0.0, 0.1, size=shape), rng.normal(0.0, 0.1, size=4 * hidden))

    @classmethod
    def zeros(cls, in_channels: int, hidden: int) -> "ConvLSTMWeights":
        return cls(np.zeros((4 * hidden, in_channels + hidden) + _KERNEL), np.zeros(4 * hidden))


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
    xa = _feature_map(x, "x")
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
    pre = conv(stacked, weights.kernel)
    pre += weights.bias.reshape((-1,) + (1,) * (xa.ndim - 1))
    hid = weights.hidden
    # the gates are computed in place in the fresh pre-activations
    i = _sigmoid(pre[:hid])
    f = _sigmoid(pre[hid : 2 * hid])
    g = np.tanh(pre[2 * hid : 3 * hid], out=pre[2 * hid : 3 * hid])
    o = _sigmoid(pre[3 * hid :])
    c_new = np.multiply(f, state.c)
    c_new += np.multiply(i, g, out=i)
    h_new = np.tanh(c_new)
    h_new *= o
    return ConvLSTMState(h_new, c_new)


def bidirectional_convlstm(
    seq, fw_weights: ConvLSTMWeights, bw_weights: ConvLSTMWeights
) -> list[np.ndarray]:
    """Run the cell in both temporal directions and concatenate the outputs.

    Output frame t carries (forward h_t, backward h_t) stacked along the
    channel axis.  Concatenation rather than summation is an assumption;
    the two-direction recurrence itself is standard.
    """
    frames = [_feature_map(f, f"frame {i}") for i, f in enumerate(seq)]
    if len(frames) != _N_FRAMES:
        raise ValueError(f"expected exactly {_N_FRAMES} frames, got {len(frames)}")
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
            state = convlstm_cell(_trusted(f), state, weights)
            outs.append(state.h)
        return outs

    fw = run(frames, fw_weights)
    bw = run(frames[::-1], bw_weights)[::-1]
    return [np.concatenate([a, b], axis=0) for a, b in zip(fw, bw)]


# ---------------------------------------------------------------------------
# fixed perceptual extractor


def _activation(z: np.ndarray, bias: np.ndarray, n_sp: int) -> np.ndarray:
    """A layer's tanh(z + bias), in place in its pre-activations ``z`` (..., C, spatial...)."""
    z += bias.reshape((-1,) + (1,) * n_sp)
    return np.tanh(z, out=z)


def _boxes(radius: np.ndarray, spatial: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Shape and starts (positions, n_sp) of the box reaching ``radius`` from each position.

    Row i of the starts belongs to flat image position i.  Each box is
    shifted inside the image, and spans the whole axis where the image is
    narrower.
    """
    size = np.minimum(2 * radius + 1, spatial)
    at = np.indices(spatial).reshape(len(spatial), -1).T
    return tuple(size), np.clip(at - radius, 0, spatial - size)


def _windows(x: np.ndarray, size: tuple[int, ...]) -> np.ndarray:
    """Writeable view (B, C, starts..., *size) of every ``size`` box of ``x`` (B, C, spatial...).

    ``x`` must be C-contiguous; the view is built on its buffer.  Views
    from ``as_strided`` left a 0.9 MB block live after about 200 kernels
    workload ops (tracemalloc), which raised the run's peak RSS by 2 MB.
    """
    starts = tuple(n - w + 1 for n, w in zip(x.shape[2:], size))
    return np.ndarray(x.shape[:2] + starts + size, x.dtype, x, strides=x.strides + x.strides[2:])


@dataclass(frozen=True)
class FixedFeatureExtractor:
    """Frozen tanh conv net used as the perceptual map P.

    ``from_seed`` builds the paper's stand-in: channels 1 -> 8 -> 16 -> 16
    with 3x3 kernels.  Any chain of layers may be given: kernels shaped
    (C_out, C_in, odd sizes...) of one spatial rank, each taking the
    previous one's channels, and biases shaped (C_out,).  Every layer is
    zero 'same' padded and weights are never updated.
    ``linearize`` exposes the exact adjoint so losses routed through P have
    analytic input gradients, and gives the features of one-coordinate
    moves of an image from that image's own activations.
    """

    kernels: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        kernels, biases = tuple(self.kernels), tuple(self.biases)
        if not kernels:
            raise ValueError("an extractor needs at least one layer, got no kernels")
        if len(kernels) != len(biases):
            raise ValueError(
                f"{len(kernels)} kernels but {len(biases)} biases; layer "
                f"{min(len(kernels), len(biases))} lacks its "
                f"{'bias' if len(kernels) > len(biases) else 'kernel'}"
            )
        checked = []
        for i, (kernel, bias) in enumerate(zip(kernels, biases)):
            k = as_f64(kernel, f"layer {i} kernel")
            b = as_f64(bias, f"layer {i} bias")
            if k.ndim < 3 or 0 in k.shape[:2] or any(s % 2 == 0 for s in k.shape[2:]):
                raise ValueError(
                    f"layer {i} kernel must be shaped (C_out, C_in, odd sizes...), got {k.shape}"
                )
            if checked:
                prev = checked[-1][0]
                if k.ndim != prev.ndim:
                    raise ValueError(
                        f"layer {i} kernel has {k.ndim - 2} spatial axes, "
                        f"layer {i - 1} has {prev.ndim - 2}"
                    )
                if k.shape[1] != prev.shape[0]:
                    raise ValueError(
                        f"layer {i} kernel takes {k.shape[1]} channels, "
                        f"layer {i - 1} gives {prev.shape[0]}"
                    )
            if b.shape != (k.shape[0],):
                raise ValueError(f"layer {i} bias must be shaped ({k.shape[0]},), got {b.shape}")
            checked.append((k, b))
        object.__setattr__(self, "kernels", tuple(k for k, _ in checked))
        object.__setattr__(self, "biases", tuple(b for _, b in checked))

    @classmethod
    def from_seed(
        cls, seed: int = 0, channels: tuple[int, ...] = (1, 8, 16, 16)
    ) -> "FixedFeatureExtractor":
        rng = np.random.default_rng(seed)
        kernels = []
        biases = []
        for cin, cout in zip(channels[:-1], channels[1:]):
            scale = 1.0 / np.sqrt(cin * 9)
            kernels.append(rng.normal(0.0, scale, size=(cout, cin) + _KERNEL))
            biases.append(rng.normal(0.0, 0.1, size=cout))
        return cls(tuple(kernels), tuple(biases))

    @property
    def in_channels(self) -> int:
        return self.kernels[0].shape[1]

    def _lift(self, image) -> tuple[np.ndarray, bool]:
        """``image`` as (C, spatial...) or a batch, and whether it was a plain image."""
        x = as_f64(image, "image")
        n_sp = self.kernels[0].ndim - 2
        if x.ndim > n_sp:  # already (C, spatial...) or a batch (B, C, spatial...)
            if x.shape[-n_sp - 1] != self.in_channels:
                raise ValueError(
                    f"feature input has {x.shape[-n_sp - 1]} channels, "
                    f"expected {self.in_channels}"
                )
            return x, False
        if self.in_channels != 1:
            raise ValueError("plain images require a single-channel extractor")
        return x[np.newaxis], True

    def _forward(self, a: np.ndarray) -> list[np.ndarray]:
        """The lifted input ``a`` and every layer's activations of it."""
        activations = [a]
        for k, b in zip(self.kernels, self.biases):
            activations.append(_activation(conv(activations[-1], k), b, k.ndim - 2))
        return activations

    def features(self, image) -> np.ndarray:
        """Feature map (C_last, spatial...) for an image (spatial...) or (C, spatial...).

        A batch (B, C, spatial...) gives (B, C_last, spatial...), each layer
        running the whole batch through one convolution.
        """
        return self._forward(self._lift(image)[0])[-1]

    def linearize(self, image) -> tuple[np.ndarray, Callable, Callable]:
        """``(features, vjp, probe)`` of one image, from one check and one forward pass.

        ``vjp`` maps d(loss)/d(features) to d(loss)/d(image) (spatial...) or
        (C, spatial...).  ``probe(moved, steps)`` gives the features (B,
        C_last, spatial...) of B one-coordinate moves: probe i is ``image``
        with flat coordinate ``moved[i]`` moved by ``steps[i]``.  The move
        reaches only a window of each layer's output, whose radius on each
        axis is the sum of the kernels' half-widths so far.  ``probe`` runs
        each layer through ``conv`` on one patch per probe, that window plus
        a halo of the kernel's half-widths, clipped to and shifted inside the
        image so its edges keep conv's zero padding, and writes the last
        windows into copies of ``image``'s features.  ``conv`` computes an
        output the same way whatever the extent around it, so the result
        equals ``features`` of the stack of probes bit for bit.
        """
        a, plain = self._lift(image)
        n_sp = self.kernels[0].ndim - 2
        if a.ndim != n_sp + 1:
            raise ValueError(f"linearize takes one image, got a batch {a.shape}")
        activations = self._forward(a)

        def vjp(cotangent: np.ndarray) -> np.ndarray:
            grad = np.asarray(cotangent, dtype=np.float64)
            for k, out in zip(reversed(self.kernels), reversed(activations[1:])):
                # through tanh: grad * (1 - out^2), in one fresh map (out is kept)
                d = np.square(out)
                np.subtract(1.0, d, out=d)
                d *= grad
                grad = d
                # adjoint of same-padded cross-correlation: swap the channel
                # axes and flip every spatial axis, then correlate again
                k_adj = np.flip(k, axis=tuple(range(2, k.ndim))).swapaxes(0, 1)
                grad = conv(grad, k_adj)
            return grad[0] if plain else grad

        spatial = np.array(a.shape[1:])
        positions = np.indices(spatial).reshape(n_sp, -1).T
        # per layer: its weights, its input's activations, and the boxes of
        # its patches and of the window its output moves in; a patch reaches
        # that window plus a halo of the kernel's half-widths
        layers = []
        radius = np.zeros(n_sp, dtype=int)
        for k, b, act in zip(self.kernels, self.biases, activations):
            half = np.array(k.shape[2:]) // 2
            patches = _boxes(radius + 2 * half, spatial)
            radius = radius + half
            layers.append((k, b, act[np.newaxis], patches, _boxes(radius, spatial)))

        def probe(moved, steps):
            n = np.size(moved)
            channel, at = np.divmod(np.asarray(moved), spatial.prod())
            probe_of = (np.arange(n), slice(None))
            every = (np.zeros(n, dtype=int), slice(None))  # each probe's patch of act
            features = np.repeat(activations[-1][np.newaxis], n, axis=0)
            window = None
            for k, b, act, (size, starts), (window_size, window_starts) in layers:
                start = starts[at]
                patch = _windows(act, size)[every + tuple(start.T)]
                if window is None:  # the input moves at one position of one channel
                    patch[(np.arange(n), channel) + tuple((positions[at] - start).T)] += steps
                else:
                    _windows(patch, moved_size)[probe_of + tuple((moved_start - start).T)] = window
                # the box of the window this layer's output moves in
                moved_size, moved_start = window_size, window_starts[at]
                z = conv(patch, k)
                window = _windows(z, moved_size)[probe_of + tuple((moved_start - start).T)]
                window = _activation(window, b, n_sp)
            _windows(features, moved_size)[probe_of + tuple(moved_start.T)] = window
            return features

        return activations[-1], vjp, probe


def gram_matrix(features) -> np.ndarray:
    """Channel-by-channel inner products of a feature map.

    G[a, b] = sum_s F_a(s) F_b(s) / (channels * positions).
    """
    f = _feature_map(features, "features")
    return _grams(f[np.newaxis])[0]


def _grams(f: np.ndarray) -> np.ndarray:
    """Gram matrices (B, C, C) of a stack of feature maps (B, C, spatial...)."""
    flat = f.reshape(f.shape[:2] + (-1,))
    return flat @ flat.swapaxes(1, 2) / flat[0].size


# ---------------------------------------------------------------------------
# losses and analytic gradients


def _l1_distance(pa: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mean |pa[i] - b| for each array of a stack pa (B, *b.shape)."""
    return np.abs(pa - b).reshape(len(pa), -1).mean(axis=1)


def loss_l1(a, b) -> float:
    """Mean absolute difference."""
    xa, xb = as_f64_pair(a, b, "a", "b")
    return float(_l1_distance(xa[np.newaxis], xb)[0])


def grad_loss_l1(a, b) -> np.ndarray:
    """d(mean |a - b|)/da; the subgradient at exact ties is taken as 0."""
    xa, xb = as_f64_pair(a, b, "a", "b")
    return np.sign(xa - xb) / xa.size


def _adv_target(target) -> float:
    if target not in (0.0, 1.0, 0, 1):
        raise ValueError(f"target must be 0 or 1, got {target}")
    return float(target)


def _adv_distance(ps: np.ndarray, target: float) -> np.ndarray:
    """mean (ps[i] - target)^2 for each score array of a stack ps (B, ...)."""
    return ((ps - target) ** 2).reshape(len(ps), -1).mean(axis=1)


def loss_adv_mse(scores, target: float) -> float:
    """Mean squared distance of discriminator scores from a 0/1 target."""
    s = as_f64(scores, "scores")
    return float(_adv_distance(s[np.newaxis], _adv_target(target))[0])


def grad_loss_adv_mse(scores, target: float) -> np.ndarray:
    s = as_f64(scores, "scores")
    return 2.0 * (s - _adv_target(target)) / s.size


def _feature_distance(fg: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """(1/f) ||fg[i] - fx||^2 for each map of a stack fg (B, C, spatial...)."""
    d = (fg - fx).reshape(len(fg), -1)
    d *= d
    return d.sum(axis=1) / d.shape[1]


def loss_feature(g, x, extractor: FixedFeatureExtractor) -> float:
    """Size-normalized squared distance between extracted feature maps.

    (1/f) * ||P(g) - P(x)||^2 with f the feature element count.
    """
    fg, fx = (extractor.features(_trusted(v)) for v in as_f64_pair(g, x, "g", "x"))
    return float(_feature_distance(fg[np.newaxis], fx)[0])


def _style_distance(fg: np.ndarray, gram_y: np.ndarray) -> np.ndarray:
    """||G(fg[i]) - gram_y||_F^2 for each map of a stack fg (B, C, spatial...)."""
    dg = _grams(fg) - gram_y
    return (dg**2).sum(axis=(1, 2))


def loss_style_frob(g, y, extractor: FixedFeatureExtractor) -> float:
    """Squared Frobenius distance between feature Gram matrices."""
    fg, fy = (extractor.features(_trusted(v)) for v in as_f64_pair(g, y, "g", "y"))
    return float(_style_distance(fg[np.newaxis], _grams(fy[np.newaxis])[0])[0])


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


# probes per extract call, whose features every check on those probes
# shares; bounds the memory of one stack's features
_PROBE_CHUNK = 32

#: Largest ``max_rel_error`` a passing gradient check reports (acceptance
#: criterion 06); ``dcemetrics gradcheck`` fails above it.
GRAD_CHECK_TOL = 1e-4


def _probe_stack(base: np.ndarray, moved: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Probes (B, *base.shape): ``base`` with flat coordinate ``moved[i]`` moved by ``steps[i]``."""
    probes = np.repeat(base.reshape(1, -1), moved.size, axis=0)
    probes[np.arange(moved.size), moved] += steps
    return probes.reshape((moved.size,) + base.shape)


def _extractor_closures(g, extractor: FixedFeatureExtractor, fixed: dict) -> tuple[Callable, list]:
    """The probes' features, and a (loss_id, distance, analytic) check per feature loss of ``g``.

    ``fixed`` maps ``"feature"`` and/or ``"style_frob"`` to that loss's fixed
    second input; their features are extracted once, as one batch.  ``g``
    goes through ``linearize`` once and each loss's cotangent is pulled back
    through that one adjoint.  The returned ``extract`` is ``g``'s probe
    evaluator, mapping the moved coordinates and steps of a stack of probes
    to their features; each loss's ``distance`` maps those to loss values.
    """
    names = {"feature": "x", "style_frob": "y"}
    ga = _trusted(as_f64(g, "g"))
    others = [as_f64_pair(ga, other, "g", names[loss_id])[1] for loss_id, other in fixed.items()]
    fg, vjp, extract = extractor.linearize(ga)
    # a stack of plain images gets the channel axis the extractor expects
    stack = np.stack(others)
    fixed_features = extractor.features(
        _trusted(stack[:, np.newaxis] if stack.ndim == fg.ndim else stack))
    checks = []
    for loss_id, fo in zip(fixed, fixed_features):
        if loss_id == "feature":
            distance = partial(_feature_distance, fx=fo)
            # d/dF of (1/f) ||F - fx||^2
            cotangent = 2.0 * (fg - fo) / fg.size
        else:
            gram_y = _grams(fo[np.newaxis])[0]
            distance = partial(_style_distance, gram_y=gram_y)
            # d/dF of ||G(F) - gram_y||^2 with G(F) = F F^T / f
            flat = fg.reshape(fg.shape[0], -1)
            gram_g = _grams(fg[np.newaxis])[0]
            cotangent = (4.0 / flat.size * ((gram_g - gram_y) @ flat)).reshape(fg.shape)
        checks.append((loss_id, distance, vjp(cotangent)))
    return extract, checks


def _loss_closure(loss_id: str, inputs: tuple) -> tuple[Callable, list]:
    """``extract`` and the one (loss_id, distance, analytic) check of the first argument.

    ``distance(extract(moved, steps))`` maps a stack of probes, the first
    argument with flat coordinate ``moved[i]`` moved by ``steps[i]``, to
    their B loss values.  ``extract`` builds that stack for the L1 and
    adversarial losses and is the extractor's probe evaluator for the
    feature losses (``_extractor_closures``).
    """
    if loss_id == "l1":
        a, b = as_f64_pair(*inputs, "a", "b")
        check = (loss_id, partial(_l1_distance, b=b), grad_loss_l1(_trusted(a), _trusted(b)))
        return partial(_probe_stack, a), [check]
    if loss_id == "adv_mse":
        scores, target = inputs
        t = _adv_target(target)
        s = as_f64(scores, "scores")
        check = (loss_id, partial(_adv_distance, target=t), grad_loss_adv_mse(_trusted(s), t))
        return partial(_probe_stack, s), [check]
    if loss_id in ("feature", "style_frob"):
        g, fixed, extractor = inputs
        return _extractor_closures(g, extractor, {loss_id: fixed})
    raise ValueError(f"unknown loss_id {loss_id!r}; expected one of {LOSS_IDS}")


def _grad_checks(
    extract: Callable,
    checks: list[tuple[str, Callable, np.ndarray]],
    seed: int,
    n_coords: int,
    h: float,
    eligible: np.ndarray | None = None,
    note: str = "",
) -> list[GradCheckReport]:
    """One report per (loss_id, distance, analytic) check of the same first input.

    Every check probes the same ``n_coords`` of the input's coordinates,
    drawn from ``eligible`` (by default all, as many as an analytic gradient
    has) with ``seed``; each stack of ``_PROBE_CHUNK`` probes goes through ``extract``
    once, as its moved coordinates and steps, and every check takes its
    values from those features.
    """
    reports = {}
    live = []
    for loss_id, distance, analytic in checks:
        if np.all(np.isfinite(analytic)):
            live.append((loss_id, distance, analytic))
        else:
            reports[loss_id] = GradCheckReport(
                loss_id, float("inf"), 0, h, seed, ok=False, note="non-finite analytic gradient"
            )
    if eligible is None:
        eligible = np.arange(checks[0][2].size)
    rng = np.random.default_rng(seed)
    n = min(n_coords, eligible.size)
    coords = rng.choice(eligible, size=n, replace=False)

    # probe 2j moves coords[j] by +h, probe 2j + 1 moves it by -h
    moved = np.repeat(coords, 2)
    steps = np.tile([h, -h], n)
    values = np.empty((len(live), 2 * n))
    # no probes when no analytic gradient is finite
    for start in range(0, 2 * n if live else 0, _PROBE_CHUNK):
        chunk = slice(start, start + _PROBE_CHUNK)
        extracted = extract(moved[chunk], steps[chunk])
        for row, (_, distance, _) in zip(values, live):
            row[chunk] = distance(extracted)
        del extracted  # else held while the next stack is extracted (+0.8 MB peak)
    for row, (loss_id, _, analytic) in zip(values, live):
        numeric = (row[0::2] - row[1::2]) / (2.0 * h)
        if not np.all(np.isfinite(numeric)):
            reports[loss_id] = GradCheckReport(
                loss_id, float("inf"), n, h, seed, ok=False, note="non-finite probe"
            )
            continue
        exact = analytic.ravel()[coords]
        denom = np.maximum(np.maximum(np.abs(exact), np.abs(numeric)), 1e-8)
        max_err = float(np.max(np.abs(exact - numeric) / denom, initial=0.0))
        reports[loss_id] = GradCheckReport(loss_id, max_err, n, h, seed, ok=True, note=note)
    return [reports[loss_id] for loss_id, _, _ in checks]


def _int_arg(value, name: str, least: int) -> int:
    """``value`` as a plain int, or a ValueError naming ``name``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def grad_check(
    loss_id: str,
    inputs: tuple,
    seed: int,
    n_coords: int = 64,
    h: float = 1e-5,
) -> GradCheckReport:
    """Central-difference check of one analytic gradient.

    Samples ``n_coords`` >= 1 coordinates of the first input (all of them
    when the array is smaller) with a generator seeded by ``seed`` >= 0
    (both integers), perturbs each by a finite, positive +-h and
    reports the max relative error, denominator max(|analytic|, |numeric|, 1e-8).
    Each probe moves exactly one coordinate; the 2 * n probes are
    evaluated as stacks of ``_PROBE_CHUNK``.  A feature loss evaluates
    each stack through the probe evaluator of the extractor's
    ``linearize``, which recomputes only each probe's receptive field.
    For the L1 loss, coordinates whose difference is within 2h of a tie
    are excluded: the kink there makes finite differences meaningless.
    """
    seed = _int_arg(seed, "seed", 0)
    n_coords = _int_arg(n_coords, "n_coords", 1)
    if isinstance(h, bool) or not 0.0 < h < np.inf:  # NaN fails both comparisons
        raise ValueError(f"h must be finite and positive, got {h}")
    eligible, note = None, ""
    if loss_id == "l1":  # its analytic gradient, a sign over a size, is always finite
        a, b = as_f64_pair(*inputs, "a", "b")
        inputs = (_trusted(a), _trusted(b))
        eligible = np.flatnonzero(np.abs(a - b).ravel() > max(1e-7, 2.0 * h))
        if eligible.size == 0:
            return GradCheckReport(
                loss_id, float("inf"), 0, h, seed, ok=False, note="all coordinates tied"
            )
        if eligible.size < n_coords:
            note = f"only {eligible.size} coordinates clear of ties"
    extract, checks = _loss_closure(loss_id, inputs)
    return _grad_checks(extract, checks, seed, n_coords, h, eligible, note)[0]


def run_grad_checks(seed: int) -> list[GradCheckReport]:
    """One report per loss on random 14x14 inputs derived from ``seed``.

    The L1 and adversarial checks go through ``grad_check``; the feature
    and style checks share ``g`` and the extractor, so they share one set
    of probes and one probe evaluation per stack of them.  The reports
    equal those of four ``grad_check`` calls.
    """
    seed = _int_arg(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    extractor = FixedFeatureExtractor.from_seed(seed)
    shape = (14, 14)
    a = rng.normal(0.0, 1.0, size=shape)
    b = rng.normal(0.0, 1.0, size=shape)
    scores = rng.normal(0.5, 0.3, size=(128,))
    g = rng.normal(0.0, 1.0, size=shape)
    x = rng.normal(0.0, 1.0, size=shape)
    y = rng.normal(0.0, 1.0, size=shape)
    extract, checks = _extractor_closures(g, extractor, {"feature": x, "style_frob": y})
    return [
        grad_check("l1", (a, b), seed),
        grad_check("adv_mse", (scores, 1.0), seed),
        *_grad_checks(extract, checks, seed, n_coords=64, h=1e-5),
    ]
