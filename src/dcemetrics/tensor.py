"""Dense n-D array carriers and the windowed statistics built on them.

Everything downstream (similarity metrics, adaptive kernels, phantom
sequences) funnels through the small set of primitives in this module:
grouped n-D cross-correlation and Gaussian-window moment maps.  The
Gaussian window is separable, so the moment maps are taken with one 1D
pass per axis over all five maps at once.  All verification arithmetic
is float64; 32-bit data read from files is widened on entry.

Conventions:
  * image sequences carry axes (T, Z, Y, X), feature maps (C, Z, Y, X),
    with leading axes dropped for lower-rank data;
  * ``conv`` is a cross-correlation (deep-learning convention, kernel
    not flipped);
  * all operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

SEQUENCE_AXES = ("T", "Z", "Y", "X")
FEATURE_AXES = ("C", "Z", "Y", "X")

PADDING_MODES = ("zero", "reflect", "valid")


def as_f64(x, name: str = "input") -> np.ndarray:
    """Return ``x`` as a finite float64 ndarray.

    ``TensorND`` inputs are unwrapped without re-validation; raw arrays and
    nested sequences are converted and checked for NaN/Inf.
    """
    if isinstance(x, TensorND):
        return x.data
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
        raise ValueError(f"{name} contains a non-finite value at flat offset {bad}")
    return arr


@dataclass
class TensorND:
    """Row-major dense array of float64 scalars with optional axis tags.

    Non-finite values are rejected at construction; every operation in the
    package may therefore assume finite inputs.
    """

    data: np.ndarray
    axis_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
            raise ValueError(f"tensor data contains a non-finite value at flat offset {bad}")
        self.data = arr
        if self.axis_labels is not None:
            labels = tuple(str(a) for a in self.axis_labels)
            if len(labels) != arr.ndim:
                raise ValueError(
                    f"axis_labels has {len(labels)} entries for a rank-{arr.ndim} tensor"
                )
            self.axis_labels = labels

    @classmethod
    def from_flat(cls, values, shape: Sequence[int], axis_labels=None) -> "TensorND":
        """Build a tensor from flat row-major values and an explicit shape."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        shape = tuple(int(s) for s in shape)
        expected = int(np.prod(shape)) if shape else 1
        if flat.size != expected:
            raise ValueError(
                f"flat data has {flat.size} values, shape {shape} needs {expected}"
            )
        return cls(flat.reshape(shape), axis_labels)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size


@dataclass
class VolumeSequence:
    """Time series of 2D images or 3D volumes, axes (T, spatial...).

    ``spacing_mm`` gives the physical size of a voxel along each spatial
    axis and is only consulted by physical-distance computations.
    """

    frames: np.ndarray
    spacing_mm: tuple[float, ...] | None = None

    def __post_init__(self):
        self.frames = as_f64(self.frames, "sequence frames")
        if self.frames.ndim < 2:
            raise ValueError("a sequence needs a time axis plus at least one spatial axis")
        if self.spacing_mm is not None:
            spacing = tuple(float(s) for s in self.spacing_mm)
            if len(spacing) != self.frames.ndim - 1:
                raise ValueError(
                    f"spacing_mm has {len(spacing)} entries for "
                    f"{self.frames.ndim - 1} spatial axes"
                )
            if any(s <= 0 for s in spacing):
                raise ValueError("spacing_mm entries must be positive")
            self.spacing_mm = spacing

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.frames.shape[1:]

    def frame(self, t: int) -> np.ndarray:
        return self.frames[t]


def _gauss_1d(size: int, sigma: float) -> np.ndarray:
    center = (size - 1) / 2.0
    offsets = np.arange(size, dtype=np.float64) - center
    return np.exp(-(offsets**2) / (2.0 * sigma * sigma))


@dataclass(frozen=True)
class GaussianWindow:
    """Separable Gaussian weighting window, normalized to unit sum.

    Sizes are per-axis and must be odd so the window has a center sample.
    The window is the outer product of the per-axis ``taps``; each tap
    vector sums to one and is symmetric under reflection by construction.
    """

    sizes: tuple[int, ...]
    sigma: float
    taps: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, sizes, sigma: float = 1.5) -> "GaussianWindow":
        if np.isscalar(sizes):
            sizes = (int(sizes),)
        sizes = tuple(int(s) for s in sizes)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        for s in sizes:
            if s < 1 or s % 2 == 0:
                raise ValueError(f"window sizes must be odd and positive, got {sizes}")
        taps = tuple(g / g.sum() for g in (_gauss_1d(s, sigma) for s in sizes))
        return cls(sizes, float(sigma), taps)

    @classmethod
    def for_shape(cls, shape, size: int = 11, sigma: float = 1.5) -> "GaussianWindow":
        """Window truncated per axis to the largest odd length that fits."""
        sizes = []
        for n in shape:
            s = min(size, int(n))
            if s % 2 == 0:
                s -= 1
            if s < 1:
                raise ValueError(f"axis of length {n} cannot host a window")
            sizes.append(s)
        return cls.create(tuple(sizes), sigma)


class Moments(NamedTuple):
    mu_x: np.ndarray
    mu_y: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    cov_xy: np.ndarray


def _pad_spatial(x: np.ndarray, kernel_shape, padding: str, n_lead: int) -> np.ndarray:
    """Pad the trailing axes of ``x`` so same-size correlation is possible."""
    pads = [(0, 0)] * n_lead
    for k in kernel_shape:
        if k % 2 == 0:
            raise ValueError(
                f"padding '{padding}' needs odd kernel sizes, got {tuple(kernel_shape)}"
            )
        pads.append((k // 2, k // 2))
    mode = "constant" if padding == "zero" else "reflect"
    return np.pad(x, pads, mode=mode)


def conv(x, kernel, padding: str = "zero", groups: int = 1) -> np.ndarray:
    """Grouped n-D cross-correlation over a channel-first array.

    Args:
        x: input of shape (C_in, spatial...).
        kernel: weights of shape (C_out, C_in // groups, k_1, ..., k_n); the
            kernel rank must be the input rank plus one.
        padding: 'zero' or 'reflect' keep the spatial size (odd kernels
            only); 'valid' shrinks it by k - 1 per axis.
        groups: channel groups; ``groups == C_in`` with a (C, 1, k...) kernel
            is a depthwise pass.

    Returns:
        Array of shape (C_out, spatial...).
    """
    x = as_f64(x, "conv input")
    k = as_f64(kernel, "conv kernel")
    if padding not in PADDING_MODES:
        raise ValueError(f"unknown padding {padding!r}, expected one of {PADDING_MODES}")
    if x.ndim < 2:
        raise ValueError("conv input must have a channel axis plus spatial axes")
    if k.ndim != x.ndim + 1:
        raise ValueError(
            f"kernel rank {k.ndim} does not match input rank {x.ndim} "
            f"(expected spatial rank {x.ndim - 1} plus two channel axes)"
        )
    c_in = x.shape[0]
    c_out, c_per_group = k.shape[:2]
    if groups < 1 or c_in % groups or c_out % groups:
        raise ValueError(f"groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_per_group != c_in // groups:
        raise ValueError(
            f"kernel expects {c_per_group} channels per group, input provides "
            f"{c_in // groups} (C_in={c_in}, groups={groups})"
        )
    kshape = k.shape[2:]
    spatial = x.shape[1:]
    if padding == "valid":
        out_sp = tuple(n - ks + 1 for n, ks in zip(spatial, kshape))
        if any(n < 1 for n in out_sp):
            raise ValueError(
                f"kernel {kshape} does not fit in spatial extent {spatial} (valid mode)"
            )
        xp = x
    else:
        xp = _pad_spatial(x, kshape, padding, n_lead=1)
        out_sp = spatial

    win = sliding_window_view(xp, kshape, axis=tuple(range(1, xp.ndim)))
    # win: (C_in, out_spatial..., kshape...)
    n_pos = int(np.prod(out_sp)) if out_sp else 1
    ktail = int(np.prod(kshape)) if kshape else 1
    winflat = win.reshape(c_in, n_pos, ktail)
    out = np.empty((c_out, n_pos), dtype=np.float64)
    opg = c_out // groups
    cpg = c_in // groups
    for g in range(groups):
        block = winflat[g * cpg : (g + 1) * cpg]
        block = np.moveaxis(block, 0, 1).reshape(n_pos, cpg * ktail)
        kg = k[g * opg : (g + 1) * opg].reshape(opg, cpg * ktail)
        out[g * opg : (g + 1) * opg] = kg @ block.T
    return out.reshape((c_out,) + tuple(out_sp))


def windowed_moments(x, y, window: GaussianWindow) -> Moments:
    """Weighted first and second moments of (x, y) at every window position.

    Only fully interior positions are kept.  The maps x, y, x^2, y^2 and xy
    are stacked and correlated with the window's taps one axis at a time,
    cropping to the valid region after each pass.  Variances use the
    weighted E[v^2] - E[v]^2 form and are clamped at zero to absorb
    catastrophic cancellation on near-constant regions; the covariance is
    left unclamped.
    """
    xa = as_f64(x, "x")
    ya = as_f64(y, "y")
    if xa.shape != ya.shape:
        raise ValueError(f"shape mismatch: x {xa.shape} vs y {ya.shape}")
    if len(window.sizes) != xa.ndim:
        raise ValueError(f"window rank {len(window.sizes)} does not match image rank {xa.ndim}")
    if any(ws > s for ws, s in zip(window.sizes, xa.shape)):
        raise ValueError(f"window {window.sizes} is larger than image {xa.shape}")
    sums = np.stack([xa, ya, xa * xa, ya * ya, xa * ya])
    for axis, taps in enumerate(window.taps, start=1):
        sums = ndimage.correlate1d(sums, taps, axis=axis, mode="constant")
        half = taps.size // 2
        valid = slice(half, sums.shape[axis] - half)
        sums = sums[(slice(None),) * axis + (valid,)]
    mu_x, mu_y, e_xx, e_yy, e_xy = sums
    var_x = np.maximum(e_xx - mu_x * mu_x, 0.0)
    var_y = np.maximum(e_yy - mu_y * mu_y, 0.0)
    cov_xy = e_xy - mu_x * mu_y
    return Moments(mu_x, mu_y, var_x, var_y, cov_xy)
