"""Dense n-D array carriers and the windowed statistics built on them.

Everything downstream (similarity metrics, the kernels layer, phantom
sequences) funnels through the small set of primitives in this module:
zero-padded n-D cross-correlation and Gaussian-window moment maps.  The
cross-correlation is kn2row (Vasudevan, Anderson and Gregg 2017) with the
first spatial axis's row shifts stacked into the contraction: the input's
k0 row-shifted copies are written into one zeroed stack, and each tap of
the other axes is one matrix product of that stack, flattened and shifted
by the tap's offset, summed into one accumulator (3 products for a 3x3
kernel, 9 for 3x3x3); an optional leading batch axis goes through the
stack in blocks of as many items as fit ``_CONV_STACK_BYTES``, each
block's items a broadcast axis of its products.
The Gaussian window is separable, so the moment maps are taken one axis
at a time over all five maps at once, each pass a few matrix products
with a banded matrix of the axis's taps (on the last axis, cache-sized
chunks of rows times a C-contiguous copy of the band's transpose); the
variances and the covariance are then formed in place in that stack.  The
SSIM family takes these moments slab by slab, in row slabs sized by
``_SLAB_BYTES``, never for a whole image at once.  Every map of a slab
lives in a ``Workspace``, two buffers that one scoring call makes and
reuses for all its slabs, scales and pairs; the only state kept between
calls is the read-only band matrices and their transposes, built once per
(window size, block) by ``_band`` and ``_band_t``.  Inputs are widened to
float64 and scanned once, where they enter (``as_f64``, ``TensorND``);
``windowed_moments`` checks nothing and trusts its one caller.

Conventions:
  * image sequences carry axes (T, Z, Y, X), feature maps (C, Z, Y, X)
    and batches of them (B, C, Z, Y, X), with spatial axes dropped for
    lower-rank data;
  * ``conv`` is a cross-correlation (deep-learning convention, kernel
    not flipped) that zero-pads to keep the spatial size;
  * all operations are pure functions of their inputs.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Most valid outputs per band block in ``windowed_moments``: each output
#: then costs at most this many plus taps - 1 multiply-adds (26 for the
#: 11-tap window, 74 at a block of 64), whatever the axis length, where one
#: dense band would cost the axis length.  Lower quartile to median time
#: of a full 11-tap pass, one CPU, one BLAS thread: (5, 256, 256) 2.6-2.9 ms
#: at 16, 4.1-4.2 ms at 64, and 5.4 ms at 8, where the per-block matmul
#: calls cost more than the taps saved; (5, 32, 128, 128) 19.1-19.7 ms at 16
#: and 29.4-30.4 ms at 64.  At these shapes and at (5, 16, 48, 48) the
#: outputs equal those at 64 bit for bit; other shapes can differ in the
#: last bits, as BLAS may group a row's terms by their offset in the block.
_BAND_BLOCK = 16

#: Bytes of one slab's (5, rows, ...) moment stack in ``metrics._slab_means``.
#: A slab holds S = max(_BAND_BLOCK, _SLAB_BYTES // (5 * 8 * voxels per row)
#: - (k0 - 1)) valid output rows (the valid rows split into equal slabs) plus
#: the window's k0 - 1 halo rows, so each slab's maps stay cache-sized: with
#: one ``Workspace`` per triple a 256x256 triple takes 710 minor page faults
#: (837 with fresh maps per slab).  Median ``evaluate_triple`` time at 256x256
#: against one whole-image slab, both through a workspace, one CPU, one BLAS
#: thread, 120 interleaved ops: 0.88 at 512 KiB (41 rows), 0.86 at 1 MiB, 0.87
#: at 2 MiB and 1.09 at 256 KiB.  At 32x128x128 one row outweighs the budget,
#: so S is ``_BAND_BLOCK`` (1.00 against one slab, measured before the
#: workspace).  The same budget sizes the row chunks of ``_band_correlate``'s
#: last-axis pass, at most max(1, _SLAB_BYTES // (8 * axis length)) rows, so
#: a chunk stays cache-resident across its blocks' products: at (5, 26, 128,
#: 128) the pass took 6.2-7.8 ms in chunks against 16.8-16.9 ms in one, at
#: (5, 14, 246, 256) 23-26 ms against 53-61 ms (one CPU, one BLAS thread).
#: The benchmark's slabs are one chunk each.
_SLAB_BYTES = 512 * 1024

#: Bytes of ``conv``'s row-shift stack.  A batch goes through it in blocks
#: of as many items as fit (at least one), so the stack stays cache-sized
#: and is zeroed once per call.  The extractor's probe layers (32, 8, 14,
#: 14) -> 16 and (32, 16, 14, 14) -> 16 took 0.71 and 1.45 ms per call,
#: against 0.80 and 1.60 at 1 MiB, 1.89 and 1.78 at 2 MiB, and 1.95 and
#: 1.89 with one stack for the whole batch (5.9 MB at 16 channels); one
#: CPU, one BLAS thread, medians of 5 loops of 30 calls.
_CONV_STACK_BYTES = 512 * 1024

#: The SSIM window of Wang et al. 2004: 11 Gaussian taps per axis, sigma 1.5.
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5


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


def as_f64_pair(a, b, name_a: str = "x", name_b: str = "y") -> tuple[np.ndarray, np.ndarray]:
    """``as_f64`` of two arrays that must share one shape."""
    xa = as_f64(a, name_a)
    xb = as_f64(b, name_b)
    if xa.shape != xb.shape:
        raise ValueError(f"shape mismatch: {name_a} {xa.shape} vs {name_b} {xb.shape}")
    return xa, xb


def _is_real(value) -> bool:
    """A real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_vector(value, entry_ok) -> bool:
    """A list, tuple or 1-D array (never a string) whose entries all pass ``entry_ok``."""
    if isinstance(value, np.ndarray) and value.ndim != 1:
        return False
    return isinstance(value, (list, tuple, np.ndarray)) and all(map(entry_ok, value))


def check_spacing(spacing, ndim: int, name: str = "spacing") -> tuple[float, ...]:
    """Voxel sizes as floats: one real number per spatial axis, each finite and positive."""
    sp = None
    if _is_vector(spacing, _is_real):
        try:
            sp = tuple(float(s) for s in spacing)
        except OverflowError:  # an integer beyond float64
            pass
    if sp is None:
        raise ValueError(f"{name} must be a list of numbers, got {spacing!r}")
    if len(sp) != ndim:
        raise ValueError(f"{name} has {len(sp)} entries for {ndim} spatial axes")
    if not all(0.0 < s < np.inf for s in sp):  # NaN fails both comparisons
        raise ValueError(f"{name} entries must be finite and positive, got {sp}")
    return sp


@dataclass
class TensorND:
    """Row-major dense array of float64 scalars with optional axis tags.

    Non-finite values are rejected at construction; every operation in the
    package may therefore assume finite inputs.  ``spacing_mm``, as a
    tensor file's sidecar gives it, holds one voxel size per axis other
    than T, each finite and positive.
    """

    data: np.ndarray
    axis_labels: tuple[str, ...] | None = None
    spacing_mm: tuple[float, ...] | None = None

    def __post_init__(self):
        arr = self.data = as_f64(self.data, "tensor data")
        if self.axis_labels is not None:
            labels = tuple(str(a) for a in self.axis_labels)
            if len(labels) != arr.ndim:
                raise ValueError(
                    f"axis_labels has {len(labels)} entries for a rank-{arr.ndim} tensor"
                )
            self.axis_labels = labels
        if self.spacing_mm is not None:
            n_spatial = arr.ndim - (self.axis_labels or ()).count("T")
            self.spacing_mm = check_spacing(self.spacing_mm, n_spatial, "spacing_mm")

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
            self.spacing_mm = check_spacing(self.spacing_mm, self.frames.ndim - 1, "spacing_mm")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.frames.shape[1:]

    def frame(self, t: int) -> np.ndarray:
        return self.frames[t]


def _gauss_1d(size: int) -> np.ndarray:
    """The ``size`` Gaussian taps of one window axis, normalized to unit sum."""
    center = (size - 1) / 2.0
    offsets = np.arange(size, dtype=np.float64) - center
    g = np.exp(-(offsets**2) / (2.0 * WINDOW_SIGMA * WINDOW_SIGMA))
    return g / g.sum()


@dataclass(frozen=True)
class GaussianWindow:
    """Separable Gaussian weighting window, normalized to unit sum.

    Sizes are per-axis and must be odd so the window has a center sample.
    The window is the outer product of the per-axis ``taps``, each
    ``WINDOW_SIGMA`` wide; each tap vector sums to one and is symmetric
    under reflection by construction.
    """

    sizes: tuple[int, ...]
    # derived from sizes, so equality and hashing leave the arrays out
    taps: tuple[np.ndarray, ...] = field(compare=False)

    @classmethod
    def create(cls, sizes) -> "GaussianWindow":
        sizes = tuple(int(s) for s in sizes)
        for s in sizes:
            if s < 1 or s % 2 == 0:
                raise ValueError(f"window sizes must be odd and positive, got {sizes}")
        taps = tuple(_gauss_1d(s) for s in sizes)
        return cls(sizes, taps)

    @classmethod
    def for_shape(cls, shape) -> "GaussianWindow":
        """``WINDOW_SIZE`` window truncated per axis to the largest odd length that fits."""
        sizes = []
        for n in shape:
            s = min(WINDOW_SIZE, int(n))
            if s % 2 == 0:
                s -= 1
            if s < 1:
                raise ValueError(f"axis of length {n} cannot host a window")
            sizes.append(s)
        return cls.create(tuple(sizes))


class Moments(NamedTuple):
    mu_x: np.ndarray
    mu_y: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    cov_xy: np.ndarray


def conv(x, kernel) -> np.ndarray:
    """Zero-padded, size-preserving n-D cross-correlation over a channel-first array.

    Computed kn2row-style (Vasudevan, Anderson and Gregg 2017), with the k0
    row shifts of the first spatial axis stacked into the contraction: each
    shifted copy of the input is written straight into one zeroed stack
    (k0, C_in, rows, padded other axes), without ``np.pad``.  The stack's
    spatial axes are flattened, and for each tap of the other axes one
    matrix product of its (C_out, k0 * C_in) weights with the flat stack
    shifted by the tap's offset is added into an accumulator on the padded
    grid, whose wrapped-around columns are cropped at the end: 3 products
    for a 3x3 kernel, 9 for 3x3x3.  No window of the input is copied.  The
    optional batch axis goes through the stack in blocks of as many items
    as fit ``_CONV_STACK_BYTES`` (at least one), each block's items a
    broadcast axis of its products, so every item's products are the same
    whatever the batch around it.

    Args:
        x: input of shape (C_in, spatial...), or (B, C_in, spatial...) for a
            batch, which is read as such when its rank equals the kernel's.
        kernel: weights of shape (C_out, C_in, k_1, ..., k_n), each k_i odd.

    Returns:
        Array of shape (C_out, spatial...), or (B, C_out, spatial...).
    """
    x = as_f64(x, "conv input")
    k = as_f64(kernel, "conv kernel")
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
    c_out = k.shape[0]
    if k.shape[1] != c_in:
        layout = "(B, C_in, spatial...)" if lead else "(C_in, spatial...)"
        raise ValueError(
            f"kernel expects {k.shape[1]} input channels, input provides {c_in} "
            f"(a rank-{x.ndim} input reads as {layout})"
        )
    kshape = k.shape[2:]
    if any(ks % 2 == 0 for ks in kshape):
        raise ValueError(f"conv keeps the spatial size only for odd kernel sizes, got {kshape}")
    spatial = x.shape[-n_sp:]
    n0, k0 = spatial[0], kshape[0]
    h0 = k0 // 2
    # stack[b, s, :, j] holds row j + s - h0 of item b, zero where that row
    # is outside the input, so each row shift s of the first axis is one
    # block of the products' contraction.  The other axes are zero-padded,
    # and one spare row after the first axis keeps every tap's shifted read
    # in bounds; it feeds only columns that are cropped away.  The items go
    # through the stack a block at a time; every block writes the same
    # in-input region, so the zeros written once stay valid
    halves = [ks // 2 for ks in kshape[1:]]
    padded = (n0 + 1,) + tuple(n + 2 * h for n, h in zip(spatial[1:], halves))
    n_items = math.prod(lead)  # an unbatched input is one item
    items = x.reshape((n_items, c_in) + spatial)
    item_bytes = 8 * k0 * c_in * math.prod(padded)
    block = max(1, min(n_items, _CONV_STACK_BYTES // max(item_bytes, 1)))
    stack = np.zeros((block, k0, c_in) + padded)
    inner = tuple(slice(h, h + n) for h, n in zip(halves, spatial[1:]))

    # output position p reads tap t of the other axes at flat column
    # (p + t) . strides of the padded grid; rows of the accumulator run the
    # padded grid's full width
    strides = np.cumprod((1,) + padded[:0:-1])[::-1]  # row-major, in elements
    offsets = [sum(i * st for i, st in zip(t, strides[1:])) for t in np.ndindex(*kshape[1:])]
    width = n0 * int(strides[0])
    # (C_out, k0 * C_in) weights per tap of the other axes, shift-major like the stack
    taps = np.moveaxis(k.swapaxes(1, 2).reshape(c_out, k0 * c_in, -1), -1, 0).copy()
    acc = np.empty((n_items, c_out, width))
    part = np.empty((block, c_out, width))
    for b0 in range(0, n_items, block):
        n = min(block, n_items - b0)
        for s in range(k0):
            lo, hi = max(0, h0 - s), min(n0, n0 + h0 - s)
            if lo < hi:  # a kernel longer than the axis has shifts with no overlap
                rows = items[b0 : b0 + n, :, lo + s - h0 : hi + s - h0]
                stack[(slice(n), s, slice(None), slice(lo, hi)) + inner] = rows
        flat = stack[:n].reshape(n, k0 * c_in, -1)
        block_acc = acc[b0 : b0 + n]
        np.matmul(taps[0], flat[..., :width], out=block_acc)  # the first tap's offset is 0
        for tap, offset in zip(taps[1:], offsets[1:]):
            np.matmul(tap, flat[..., offset : offset + width], out=part[:n])
            block_acc += part[:n]
    del stack, part  # before the cropped copy, which bounds the peak memory
    acc = acc.reshape(lead + (c_out, n0) + padded[1:])
    return np.ascontiguousarray(acc[(...,) + tuple(slice(n) for n in spatial[1:])])


@functools.lru_cache(maxsize=(WINDOW_SIZE + 1) // 2 * _BAND_BLOCK)
def _band(k: int, block: int) -> np.ndarray:
    """Read-only (block, block + k - 1) band matrix of the k-tap window.

    Row i holds the taps at columns i..i + k - 1, so it maps a block's
    block + k - 1 input rows to its block outputs.  Built once per (window
    size, block); the window's taps depend on its size alone.
    """
    rows = np.arange(block)[:, np.newaxis]
    band = np.zeros((block, block + k - 1))
    band[rows, rows + np.arange(k)] = _gauss_1d(k)
    band.flags.writeable = False
    return band


@functools.lru_cache(maxsize=(WINDOW_SIZE + 1) // 2 * _BAND_BLOCK)
def _band_t(k: int, block: int) -> np.ndarray:
    """Read-only, C-contiguous ``_band(k, block).T``: the last-axis pass's right operand."""
    band_t = np.ascontiguousarray(_band(k, block).T)
    band_t.flags.writeable = False
    return band_t


class Workspace:
    """Scratch memory for the moment maps of one scoring call.

    Two flat float64 buffers, each grown to the largest request it gets:
    buffer 0 holds the (5, ...) moment stack and every even pass's output,
    buffer 1 the first pass's output and every later odd pass's, so one
    slab's passes ping-pong between them.  ``take`` hands out a C-contiguous
    view of a buffer's leading elements, so a map of a given shape has the
    same layout, and its products the same bits, as in a fresh array.
    Nothing survives the call that made the workspace.
    """

    def __init__(self):
        self._buffers = [np.empty(0), np.empty(0)]

    def take(self, i: int, shape) -> np.ndarray:
        n = math.prod(shape)
        if self._buffers[i].size < n:
            self._buffers[i] = np.empty(n)
        return self._buffers[i][:n].reshape(shape)


def _band_correlate(s: np.ndarray, k: int, axis: int, out: np.ndarray) -> np.ndarray:
    """Valid-only correlation of ``s`` with the k-tap window along ``axis``, into ``out``.

    The n - k + 1 valid outputs are split into equal blocks of at most
    ``_BAND_BLOCK``; one (B, B + k - 1) band matrix (``_band``) maps each
    block's B + k - 1 input rows to its B outputs, the last block sliding
    back to end at the last output.  The axes before ``axis`` are merged
    into the products' batch axis and the axes after it into their columns,
    as views of a contiguous ``s`` and of the contiguous ``out``, which has
    ``s``'s shape with n - k + 1 on ``axis``.  On the last axis the merged
    leading axes are the rows of (rows, block + k - 1) @ ``_band_t``
    products, taken in equal chunks of at most max(1, ``_SLAB_BYTES`` //
    (8 * n)) rows with every block inside a chunk, so the chunk stays in
    cache across its blocks; chunks and outputs are views, nothing is
    copied.  A C-contiguous band transpose keeps OpenBLAS on its small
    matrix path: a score-2d slab's last-axis pass, (5, 41, 256), took
    0.59-0.69 of its time with the transposed view ``band.T`` (one CPU, one
    BLAS thread).
    """
    n = s.shape[axis]
    n_out = n - k + 1
    n_blocks = -(-n_out // _BAND_BLOCK)
    block = -(-n_out // n_blocks)
    width = block + k - 1
    starts = [min(lo, n_out - block) for lo in range(0, n_out, block)]
    rest = s.shape[axis + 1 :]
    if rest:  # band @ (axis rows, merged trailing axes), batched over the leading axes
        band = _band(k, block)
        flat = s.reshape(-1, n, math.prod(rest))
        flat_out = out.reshape(flat.shape[0], n_out, flat.shape[2])
        for lo in starts:
            np.matmul(band, flat[:, lo : lo + width], out=flat_out[:, lo : lo + block])
    else:  # the last axis: (merged leading axes, axis) @ band.T, in row chunks
        band_t = _band_t(k, block)
        flat = s.reshape(-1, n)
        flat_out = out.reshape(flat.shape[0], n_out)
        n_rows = flat.shape[0]
        n_chunks = -(-n_rows // max(1, _SLAB_BYTES // (8 * n)))
        chunk = -(-n_rows // n_chunks)
        for r0 in range(0, n_rows, chunk):
            rows, rows_out = flat[r0 : r0 + chunk], flat_out[r0 : r0 + chunk]
            for lo in starts:
                np.matmul(rows[:, lo : lo + width], band_t, out=rows_out[:, lo : lo + block])
    return out


def windowed_moments(x, y, window: GaussianWindow, ws: Workspace | None = None) -> Moments:
    """Weighted first and second moments of (x, y) at every window position.

    Only fully interior positions are kept.  The maps x, y, x^2, y^2 and xy
    are written into one (5, ...) stack and correlated with the window's
    taps one axis at a time, each pass producing only valid positions
    through blocked band-matrix products (``_band_correlate``).
    Variances use the weighted E[v^2] - E[v]^2 form and are clamped at zero
    to absorb catastrophic cancellation on near-constant regions; the
    covariance is left unclamped.  Both are computed in place over the
    second moments, with one spare map for the products.

    Every map lives in ``ws`` (a fresh ``Workspace`` if None): the five
    returned maps are views that the caller may overwrite, valid until
    ``ws`` is next used.  ``x`` and ``y`` may be the stack's first two maps
    for their shape, ``ws.take(0, (5,) + x.shape)[:2]``; copying them there
    is then a no-op.  Unchecked, the caller's to guarantee: ``x`` and ``y``
    are finite float64 arrays of one shape, and ``window`` has one size per
    axis, none longer than the axis.
    """
    if ws is None:
        ws = Workspace()
    sums = ws.take(0, (5,) + x.shape)
    sums[0] = x
    sums[1] = y
    np.multiply(x, x, out=sums[2])
    np.multiply(y, y, out=sums[3])
    np.multiply(x, y, out=sums[4])
    for axis, k in enumerate(window.sizes, start=1):
        shape = sums.shape[:axis] + (sums.shape[axis] - k + 1,) + sums.shape[axis + 1 :]
        sums = _band_correlate(sums, k, axis, ws.take(axis % 2, shape))
    mu_x, mu_y, var_x, var_y, cov_xy = sums  # second moments until overwritten
    prod = ws.take((len(window.sizes) + 1) % 2, mu_x.shape)  # the buffer the last pass read
    var_x -= np.multiply(mu_x, mu_x, out=prod)
    var_y -= np.multiply(mu_y, mu_y, out=prod)
    cov_xy -= np.multiply(mu_x, mu_y, out=prod)
    np.maximum(sums[2:4], 0.0, out=sums[2:4])  # both variances
    return Moments(mu_x, mu_y, var_x, var_y, cov_xy)
