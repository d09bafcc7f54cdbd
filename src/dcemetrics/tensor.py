"""Dense n-D array carriers and the windowed statistics built on them.

Everything downstream (similarity metrics, adaptive kernels, phantom
sequences) funnels through the small set of primitives in this module:
grouped n-D cross-correlation and Gaussian-window moment maps.  The
cross-correlation is kn2row: one matrix product per kernel tap against
the flattened, padded input shifted by that tap's offset, summed into one
accumulator, so no window of the input is ever copied; channel groups
and an optional leading batch axis are broadcast axes of those products.
The Gaussian window is separable, so the moment maps are taken with one
1D pass per axis over all five maps at once.  All verification
arithmetic is float64; 32-bit data read from files is widened on entry.

Conventions:
  * image sequences carry axes (T, Z, Y, X), feature maps (C, Z, Y, X)
    and batches of them (B, C, Z, Y, X), with spatial axes dropped for
    lower-rank data;
  * ``conv`` is a cross-correlation (deep-learning convention, kernel
    not flipped);
  * all operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import ndimage

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


def conv(x, kernel, padding: str = "zero", groups: int = 1) -> np.ndarray:
    """Grouped n-D cross-correlation over a channel-first array.

    Computed kn2row-style (Vasudevan, Anderson and Gregg 2017): the padded
    input's spatial axes are flattened, and for each kernel tap one matrix
    product of that tap's (C_out, C_in) weights with the flat input shifted
    by the tap's offset is added into an accumulator on the padded grid,
    whose wrapped-around columns are cropped at the end.  No window of the
    input is copied; groups and the optional batch axis are broadcast axes
    of the products.

    Args:
        x: input of shape (C_in, spatial...), or (B, C_in, spatial...) for a
            batch, which is read as such when its rank equals the kernel's.
        kernel: weights of shape (C_out, C_in // groups, k_1, ..., k_n).
        padding: 'zero' or 'reflect' keep the spatial size (odd kernels
            only); 'valid' shrinks it by k - 1 per axis.
        groups: channel groups; ``groups == C_in`` with a (C, 1, k...) kernel
            is a depthwise pass.

    Returns:
        Array of shape (C_out, spatial...), or (B, C_out, spatial...).
    """
    x = as_f64(x, "conv input")
    k = as_f64(kernel, "conv kernel")
    if padding not in PADDING_MODES:
        raise ValueError(f"unknown padding {padding!r}, expected one of {PADDING_MODES}")
    if x.ndim < 2:
        raise ValueError("conv input must have a channel axis plus spatial axes")
    n_sp = k.ndim - 2
    if n_sp < 1 or x.ndim not in (n_sp + 1, n_sp + 2):
        raise ValueError(
            f"kernel rank {k.ndim} does not match input rank {x.ndim} (expected "
            f"spatial rank {x.ndim - 1} plus two channel axes, or the input's "
            f"rank for a batch (B, C_in, spatial...))"
        )
    lead = x.shape[: x.ndim - n_sp - 1]  # () or (B,)
    c_in = x.shape[len(lead)]
    c_out, c_per_group = k.shape[:2]
    if groups < 1 or c_in % groups or c_out % groups:
        raise ValueError(f"groups={groups} must divide C_in={c_in} and C_out={c_out}")
    if c_per_group != c_in // groups:
        layout = "(B, C_in, spatial...)" if lead else "(C_in, spatial...)"
        raise ValueError(
            f"kernel expects {c_per_group} channels per group, input provides "
            f"{c_in // groups} (C_in={c_in}, groups={groups}; a rank-{x.ndim} "
            f"input reads as {layout})"
        )
    kshape = k.shape[2:]
    spatial = x.shape[-n_sp:]
    if padding == "valid":
        out_sp = tuple(n - ks + 1 for n, ks in zip(spatial, kshape))
        if any(n < 1 for n in out_sp):
            raise ValueError(
                f"kernel {kshape} does not fit in spatial extent {spatial} (valid mode)"
            )
        halves = (0,) * n_sp
    else:
        if any(ks % 2 == 0 for ks in kshape):
            raise ValueError(f"padding '{padding}' needs odd kernel sizes, got {kshape}")
        out_sp = spatial
        halves = tuple(ks // 2 for ks in kshape)
    # one spare slab after the first spatial axis keeps every tap's shifted
    # read in bounds; it feeds only columns that are cropped away
    pads = [(0, 0)] * (x.ndim - n_sp) + [(h, h + (i == 0)) for i, h in enumerate(halves)]
    xp = np.pad(x, pads, mode="reflect" if padding == "reflect" else "constant")

    # output position p reads tap t at flat column (p + t) . strides of the
    # padded grid; rows of the accumulator run the padded grid's full width
    padded = xp.shape[-n_sp:]
    strides = np.cumprod((1,) + padded[:0:-1])[::-1]  # row-major, in elements
    offsets = np.dot(list(np.ndindex(*kshape)), strides)
    width = out_sp[0] * int(strides[0])
    flat = xp.reshape(lead + (groups, c_in // groups, -1))
    taps = np.moveaxis(k.reshape(groups, c_out // groups, c_per_group, -1), -1, 0).copy()
    acc = np.matmul(taps[0], flat[..., :width])  # the first tap's offset is 0
    part = np.empty_like(acc)
    for tap, offset in zip(taps[1:], offsets[1:]):
        np.matmul(tap, flat[..., offset : offset + width], out=part)
        acc += part
    del part  # before the cropped copy, which bounds the peak memory
    acc = acc.reshape(lead + (c_out, out_sp[0]) + padded[1:])
    return np.ascontiguousarray(acc[(...,) + tuple(slice(n) for n in out_sp[1:])])


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
