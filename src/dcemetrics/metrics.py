"""Contrast-aware image quality metrics for DCE-MRI style transfer.

The evaluation battery couples the classic similarity scores (PSNR, SSIM,
MS-SSIM) with a contrast-weighted SSIM: voxels are weighted by their
normalized distance to the nearest contrast-enhanced voxel, so structural
agreement can be judged away from enhancing tissue (content mode) or right
on top of it (style mode, inverted weighting).

Pipeline for one (generated, content, style) triple:

  1. detect enhancing voxels by averaging post-baseline signal increases
     and thresholding;
  2. turn the enhancement mask into a distance map, normalized onto
     [0.1, 1.0], optionally inverted;
  3. multiply both images by the weighting and score them with SSIM.

Every SSIM-family score needs only the means of its luminance and
contrast-structure maps, so ``_slab_means`` takes the windowed moments in
slabs of rows along the leading axis and sums each slab into running
totals; no moment or SSIM map is ever image-sized.  Each scoring call makes
one ``tensor.Workspace`` for those maps: a public ``ssim``, ``ms_ssim`` or
``cw_ssim`` call one of its own, ``evaluate_triple`` one for all three
SSIM-family pairs of a triple, which it scores, and its PSNR, through the
same private stages as the public functions, so its inputs are checked
once.  It holds one weight map per triple: the distances turn into the
weights in place, and the style pair's inverted weights are formed slab by
slab in the moment workspace.

Distances come from scipy's exact Euclidean feature transform, turned into
distances in row slabs with scipy's own arithmetic, so weightings match
``scipy.ndimage.distance_transform_edt`` and are reproducible down to the
last bit across runs.  ``scipy.ndimage`` is loaded by the first
``distance_transform`` call, not by importing this module; the SSIM family
(``windowed_moments``) never loads it.
"""

from __future__ import annotations

import logging
import math
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .tensor import (WINDOW_SIZE, GaussianWindow, VolumeSequence, Workspace, as_f64,
                     as_f64_pair, check_spacing, windowed_moments)

logger = logging.getLogger(__name__)

#: SSIM stabilizing constants c = (K * data_range)^2 of Wang et al. 2004.
_K1, _K2 = 0.01, 0.03

#: Every value below this squares to a finite float64.
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(np.float64).max)

#: Per-scale exponents of the standard 5-scale multi-scale SSIM (Wang,
#: Simoncelli and Bovik 2003), rescaled to sum to exactly 1 so the weight
#: vector stays a convex combination.
_MS_BASE_EXPONENTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
MS_SSIM_EXPONENTS = tuple(w / sum(_MS_BASE_EXPONENTS) for w in _MS_BASE_EXPONENTS)

DIRECTIONS = ("nce_to_ce", "ce_to_nce")
SLICE_MODES = ("3d", "2d")

#: The five scores of a ``MetricReport``, in report and print order.
METRIC_FIELDS = (
    "psnr_style_vs_gen",
    "ssim_content_vs_gen",
    "ms_ssim_content_vs_gen",
    "cw_ssim_content",
    "cw_ssim_style",
)


class WeightingModeWarning(UserWarning):
    """Distance-map inversion flag disagrees with the requested mode."""


@dataclass(frozen=True)
class SSIMParams:
    """Settings shared by the SSIM family.

    The window (11 Gaussian taps per axis, sigma 1.5, truncated on short
    axes) and the constants K1 = 0.01, K2 = 0.03 are fixed.  ``data_range``
    of None derives the dynamic range from the first (reference) argument
    as max - min of the unweighted image.  With ``per_slice`` set, volumes
    are scored slice by slice along the leading spatial axis and averaged,
    instead of using a 3D window.
    """

    data_range: float | None = None
    per_slice: bool = False


@dataclass(frozen=True)
class MSSSIMParams(SSIMParams):
    """Multi-scale settings; scales are halved dyadically by mean pooling.

    ``scales`` (1-5) picks the first entries of ``MS_SSIM_EXPONENTS``.
    When ``allow_scale_reduction`` is set (the default) the scale count
    drops to whatever the image can support; the exponents are then
    renormalized over the surviving scales.  Unset, a smaller image is an
    error.
    """

    scales: int = 5
    allow_scale_reduction: bool = True


@dataclass
class CEMask:
    """Boolean map of contrast-enhancing voxels for one sequence."""

    mask: np.ndarray
    threshold_used: float
    baseline_index: int

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)


@dataclass
class DistanceMap:
    """Per-voxel weighting in [0.1, 1.0] derived from a CE mask.

    The plain map weights voxels far from enhancement most (content
    scoring); the inverted map flips the emphasis onto enhancing voxels
    (style scoring).  ``distances`` keeps the raw Euclidean distances that
    produced the weights (infinite when the mask had no CE voxel).
    """

    weights: np.ndarray
    inverted: bool = False
    spacing_mode: str = "voxel"
    distances: np.ndarray | None = None


@dataclass
class MetricReport:
    """Score battery for one (generated, content, style) triple."""

    psnr_style_vs_gen: float
    ssim_content_vs_gen: float
    ms_ssim_content_vs_gen: float
    cw_ssim_content: float
    cw_ssim_style: float
    direction: str = "nce_to_ce"
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {name: float(getattr(self, name)) for name in METRIC_FIELDS}
        d["psnr_infinite"] = math.isinf(d["psnr_style_vs_gen"])
        if d["psnr_infinite"]:
            d["psnr_style_vs_gen"] = None
        return {**d, "direction": self.direction, "notes": list(self.notes)}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        scores = dict(d, psnr_style_vs_gen=math.inf) if d.get("psnr_infinite") else d
        return cls(
            **{name: float(scores[name]) for name in METRIC_FIELDS},
            direction=d.get("direction", "nce_to_ce"),
            notes=list(d.get("notes", [])),
        )


@dataclass
class EvalParams:
    """Knobs for evaluating one triple end to end.

    ``slice_mode`` is "3d" (3D windows) or "2d" (volumes scored slice by
    slice); ``data_range`` sets the range shared by every SSIM-family
    score.  ``ms_ssim`` sets only MS-SSIM's ``scales`` and
    ``allow_scale_reduction``; its ``data_range`` and ``per_slice`` must
    stay unset, as ``data_range`` and ``slice_mode`` own them.
    """

    threshold: float = 20.0
    baseline_index: int = 0
    signed_reverse: bool = False
    spacing_mode: str = "voxel"
    slice_mode: str = "3d"  # "2d" scores volumes slice by slice
    peak: float | None = None  # None: style max - min
    data_range: float | None = None  # None: content max - min
    direction: str = "nce_to_ce"
    ms_ssim: MSSSIMParams = field(default_factory=MSSSIMParams)


def detect_ce(
    seq: VolumeSequence,
    baseline_index: int = 0,
    threshold: float = 20.0,
    signed_reverse: bool = False,
) -> CEMask:
    """Flag voxels whose mean post-baseline intensity rise exceeds ``threshold``.

    Every frame except the baseline is differenced against the baseline
    frame; a voxel enhances when the average difference is strictly above
    the threshold.  Enhancement means signal increase, so the difference is
    frame - baseline; ``signed_reverse`` flips the sign for data where
    enhancement darkens the image.  A non-finite threshold raises
    ``ValueError``, as does a difference or mean that overflows float64,
    naming the sequence.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    frames = seq.frames if isinstance(seq, VolumeSequence) else as_f64(seq, "sequence")
    if frames.shape[0] < 2:
        raise ValueError("CE detection needs at least two frames")
    if not 0 <= baseline_index < frames.shape[0]:
        raise ValueError(
            f"baseline_index {baseline_index} out of range for {frames.shape[0]} frames"
        )
    baseline = frames[baseline_index]
    later = [frame for t, frame in enumerate(frames) if t != baseline_index]
    rise = np.empty_like(baseline)
    with _named_overflow(sequence=frames):
        mean_rise = np.subtract(later[0], baseline)  # a running sum over frames in time order
        for frame in later[1:]:
            mean_rise += np.subtract(frame, baseline, out=rise)
        mean_rise /= len(later)
    if signed_reverse:  # exact: rounding is symmetric under negation
        np.negative(mean_rise, out=mean_rise)
    return CEMask(mean_rise > threshold, float(threshold), int(baseline_index))


def distance_transform(mask, spacing=None) -> np.ndarray:
    """Exact Euclidean distance from every voxel to the nearest True voxel.

    ``spacing`` gives the per-axis voxel size (default 1), each finite and
    positive, small enough that the squared distance across the grid is
    finite and large enough that each square is a normal float64.  On
    integer (voxel) grids the result matches an all-pairs scan bit for bit.
    All-False masks yield +inf everywhere.

    The nearest True voxel of each voxel comes from scipy's feature
    transform (int32, one map per axis).  The distances are then formed as
    ``scipy.ndimage.distance_transform_edt`` forms them, bit for bit, but in
    slabs of rows along the leading axis sized by ``tensor._SLAB_BYTES``:
    per axis (feature - index) as float64, times the spacing, squared and
    summed in axis order, then the square root.  So no index map and no
    per-axis difference or distance stack is ever volume-sized.  Without a
    spacing, scipy gets no sampling and the product by 1, exact, is skipped.
    """
    m = np.asarray(mask.mask if isinstance(mask, CEMask) else mask, dtype=bool)
    if m.ndim == 0:
        raise ValueError("mask must have at least one axis")
    if m.size == 0:
        raise ValueError("mask must be non-empty")
    if spacing is not None:
        spacing = check_spacing(spacing, m.ndim)
        # the EDT squares distances up to the grid's diagonal; half the bound
        # leaves room for the rounding of their sums
        if not math.hypot(*(s * (n - 1) for s, n in zip(spacing, m.shape))) < _SQRT_FLOAT_MAX / 2:
            raise ValueError(f"spacing {spacing} is too large for a {m.shape} grid: squared "
                             f"distances across it overflow float64")
        if min(spacing) ** 2 < np.finfo(np.float64).tiny:  # subnormal squares lose digits or vanish
            raise ValueError(f"spacing {spacing} is too small: its squares underflow float64")
    if not m.any():
        # scipy measures to a point outside the array here; there is no site
        return np.full(m.shape, np.inf)
    from scipy import ndimage  # on first use, so importing the package skips it

    feature = ndimage.distance_transform_edt(~m, sampling=spacing, return_distances=False,
                                             return_indices=True)
    n0 = m.shape[0]
    rows = max(1, tensor._SLAB_BYTES // (8 * math.prod(m.shape[1:])))
    # each axis's voxel indices, shaped to broadcast along that axis of a slab
    index = [np.arange(n, dtype=np.int32).reshape((-1,) + (1,) * (m.ndim - 1 - ax))
             for ax, n in enumerate(m.shape)]
    dist = np.empty(m.shape)
    term = np.empty((min(rows, n0),) + m.shape[1:])
    for lo in range(0, n0, rows):
        hi = min(lo + rows, n0)
        acc = dist[lo:hi]
        for ax in range(m.ndim):
            d = acc if ax == 0 else term[: hi - lo]
            # int32 differences, exact as float64
            np.subtract(feature[ax, lo:hi], index[0][lo:hi] if ax == 0 else index[ax], out=d)
            if spacing is not None:  # voxel distances skip the exact product by 1.0
                d *= spacing[ax]
            np.multiply(d, d, out=d)
            if ax:
                acc += d
        np.sqrt(acc, out=acc)
    return dist


def distance_map(mask, spacing=None, mode: str = "voxel") -> DistanceMap:
    """Distance-to-enhancement weighting normalized onto [0.1, 1.0].

    Raw distances d are mapped linearly by 0.1 + 0.9 * d / d_max, so CE
    voxels carry weight 0.1 and the farthest voxel weight 1.0.  Degenerate
    masks collapse to uniform maps: all-False -> all 1.0 (no enhancement to
    anchor the map), all-True -> all 0.1.

    ``mode='physical'`` measures distances in millimetres using
    ``spacing``; the default voxel mode ignores spacing.  The mask and
    spacing are ``distance_transform``'s to check.
    """
    dist = distance_transform(mask, _mode_spacing(spacing, mode))
    return DistanceMap(_weigh(dist, np.empty_like(dist)), False, mode, dist)


def _mode_spacing(spacing, mode: str):
    """The spacing ``distance_transform`` gets in spacing ``mode``: None in voxel mode."""
    if mode not in ("voxel", "physical"):
        raise ValueError(f"unknown spacing mode {mode!r}")
    if mode == "physical" and spacing is None:
        raise ValueError("physical mode needs per-axis spacing")
    return spacing if mode == "physical" else None


def _weigh(dist: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``distance_map``'s weights of the distances ``dist``, written into ``out``.

    ``out`` may be ``dist`` itself, which then turns into its weights.
    """
    if dist.min() == np.inf:  # all +inf: the mask has no CE voxel
        logger.info("distance_map: mask has no CE voxel, weighting is uniform 1.0")
        out.fill(1.0)
        return out
    d_max = dist.max()
    if d_max == 0.0:
        logger.info("distance_map: mask is all CE, weighting is uniform 0.1")
        out.fill(0.1)
    else:
        np.divide(dist, d_max, out=out)  # then 0.1 + 0.9 * w in place
        out *= 0.9
        out += 0.1
    return out


def invert_map(dm: DistanceMap) -> DistanceMap:
    """Reflect a distance map so enhancing voxels carry the most weight.

    Applies w -> 1.1 - w, preserving the [0.1, 1.0] range.  A map can only
    be inverted once; invert an original map again rather than chaining.
    """
    if dm.inverted:
        raise ValueError("distance map is already inverted")
    return DistanceMap(1.1 - dm.weights, True, dm.spacing_mode, dm.distances)


def _resolve_range(reference: np.ndarray, data_range) -> float:
    if data_range is None:
        data_range = float(reference.max()) - float(reference.min())
    if not data_range > 0:
        raise ValueError(
            "data_range must be positive; pass it explicitly for constant references"
        )
    # a zero constant would turn every flat window into 0 / 0; c1 <= c2
    if not (_K2 * data_range < _SQRT_FLOAT_MAX and (_K1 * data_range) ** 2):
        raise ValueError(f"data_range {data_range!r} is too small or too large: the SSIM "
                         f"stabilizing constants (k * data_range)^2 underflow to 0 or "
                         f"overflow float64")
    return float(data_range)


_in_named_overflow = ContextVar("_in_named_overflow", default=False)


@contextmanager
def _named_overflow(**inputs):
    """Raise a float64 overflow in the block as a ValueError naming the largest input."""
    if _in_named_overflow.get():  # nested: the enclosing block names its caller's inputs
        yield
        return
    token = _in_named_overflow.set(True)
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        name = max(inputs, key=lambda k: np.abs(inputs[k]).max())
        raise ValueError(f"{name} is too large to score: float64 overflows on its "
                         f"values; rescale the inputs") from None
    finally:
        _in_named_overflow.reset(token)


def _downsample2(a: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x mean pooling; odd tails are dropped."""
    for ax in range(a.ndim):
        n = a.shape[ax] - (a.shape[ax] % 2)
        lead = (slice(None),) * ax
        a = np.add(a[lead + (slice(0, n, 2),)], a[lead + (slice(1, n, 2),)])
        a /= 2  # the pair's mean, as reshape(..., 2, ...).mean(axis) forms it
    return a


def _ssim_family(xa, ya, data_range: float, per_slice: bool, n_scales: int,
                 w=None, ws: Workspace | None = None,
                 invert: bool = False) -> tuple[float, float]:
    """(SSIM, MS-SSIM) of a checked pair over ``n_scales`` dyadic scales.

    SSIM is MS-SSIM's first-scale term.  With ``per_slice`` a volume is
    scored slice by slice along its leading axis and both scores averaged.
    One window serves every scale: each scale ``ms_ssim_scale_count``
    admits still holds the full-resolution window on every axis.  ``w``,
    checked weights of the pair's shape, multiplies both images voxelwise
    before scoring, or their inversion 1.1 - w with ``invert`` set; only
    single-scale calls pass it.  Every slab of every
    scale and slice takes its maps from ``ws`` (a fresh ``Workspace`` if
    None), which a caller scoring several pairs passes to each.
    """
    if ws is None:
        ws = Workspace()
    c1 = (_K1 * data_range) ** 2
    c2 = (_K2 * data_range) ** 2
    slices = range(xa.shape[0]) if per_slice and xa.ndim == 3 else [Ellipsis]
    window = GaussianWindow.for_shape(xa[slices[0]].shape)
    trimmed = MS_SSIM_EXPONENTS[:n_scales]
    exponents = [e / sum(trimmed) for e in trimmed]
    ssims, ms_ssims = [], []
    for i in slices:
        x, y = xa[i], ya[i]
        per_scale = []  # (mean SSIM, mean contrast-structure) at each scale
        for scale in range(n_scales):
            if scale:
                x, y = _downsample2(x), _downsample2(y)
            per_scale.append(_slab_means(x, y, None if w is None else w[i], window, c1, c2,
                                         ws, invert))
        terms = [cs for _, cs in per_scale[:-1]] + [per_scale[-1][0]]
        ssims.append(per_scale[0][0])
        ms_ssims.append(math.prod(max(t, 0.0) ** e for t, e in zip(terms, exponents)))
    return float(np.mean(ssims)), float(np.mean(ms_ssims))


def _slab_means(x, y, w, window: GaussianWindow, c1: float, c2: float,
                ws: Workspace, invert: bool = False) -> tuple[float, float]:
    """Means of lum * cs and of cs over every valid window position of (x, y).

    The valid output rows along the leading axis are split into equal slabs
    of at most S rows, S from ``tensor._SLAB_BYTES``; each slab's inputs are
    views of its S rows plus the window's k0 - 1 halo rows, and its
    ``windowed_moments`` maps are summed into running totals, so no map is
    ever image-sized.  With ``w`` the weighted inputs are written straight
    into the first two maps of the slab's moment stack in ``ws``; with
    ``invert`` as well, the slab's rows of ``invert_map``'s 1.1 - w go
    first into the stack's third map, which ``windowed_moments`` then
    overwrites, so no inverted map is image-sized either.  The
    luminance and contrast-structure maps are formed in place in each
    slab's maps, each formula evaluated left to right as written.
    """
    k0 = window.sizes[0]
    n_out = x.shape[0] - k0 + 1
    row_bytes = 5 * 8 * math.prod(x.shape[1:])  # one float64 row of the (5, ...) stack
    rows = max(tensor._BAND_BLOCK, tensor._SLAB_BYTES // row_bytes - (k0 - 1))
    n_slabs = -(-n_out // rows)
    rows = -(-n_out // n_slabs)  # equal slabs; the last may be shorter
    ssim_total = cs_total = 0.0
    count = 0
    for lo in range(0, n_out, rows):
        rows_in = slice(lo, min(lo + rows, n_out) + k0 - 1)
        xs, ys = x[rows_in], y[rows_in]
        if w is not None:
            stack = ws.take(0, (5,) + xs.shape)
            w_rows = np.subtract(1.1, w[rows_in], out=stack[2]) if invert else w[rows_in]
            xs = np.multiply(xs, w_rows, out=stack[0])
            ys = np.multiply(ys, w_rows, out=stack[1])
        # positional: the benchmark's tracer and the tests wrap this global as *args
        mu_x, mu_y, var_x, var_y, cs = windowed_moments(xs, ys, window, ws)
        # cs = (2 cov + c2) / (var_x + var_y + c2)
        cs *= 2.0
        cs += c2
        var_x += var_y
        var_x += c2
        cs /= var_x
        # lum = (2 mu_x mu_y + c1) / (mu_x^2 + mu_y^2 + c1), then lum * cs
        lum = np.multiply(mu_x, 2.0, out=var_y)
        lum *= mu_y
        lum += c1
        np.square(mu_x, out=mu_x)
        mu_x += np.square(mu_y, out=mu_y)
        mu_x += c1
        lum /= mu_x
        lum *= cs
        ssim_total += float(lum.sum())
        cs_total += float(cs.sum())
        count += cs.size
    return ssim_total / count, cs_total / count


def ssim(x, y, params: SSIMParams | None = None) -> float:
    """Mean structural similarity between two images or volumes.

    The Gaussian window (11 taps, sigma 1.5) is truncated per axis for
    small images or thin volumes; only fully interior window positions
    contribute.  The first argument acts as the reference when the dynamic
    range is derived automatically.
    """
    params = params or SSIMParams()
    xa, ya = as_f64_pair(x, y)
    data_range = _resolve_range(xa, params.data_range)
    with _named_overflow(x=xa, y=ya):
        return _ssim_family(xa, ya, data_range, params.per_slice, 1)[0]


def ms_ssim_scale_count(shape, params: MSSSIMParams | None = None) -> int:
    """Number of dyadic scales MS-SSIM uses on images of ``shape``.

    A scale is usable while every axis still holds the window it had at
    full resolution (truncated per axis for thin volumes), so thin-axis
    inputs fall back to fewer scales, down to one, rather than failing.
    The count is capped at ``params.scales``; a reduction is logged, or
    raises when ``allow_scale_reduction`` is unset.
    """
    params = params or MSSSIMParams()
    if not 1 <= params.scales <= len(MS_SSIM_EXPONENTS):
        raise ValueError(f"scales must lie in 1..{len(MS_SSIM_EXPONENTS)} (one "
                         f"exponent each), got {params.scales}")
    win = GaussianWindow.for_shape(shape).sizes
    dims = list(shape)
    usable = 0
    while usable < params.scales and all(d >= w for d, w in zip(dims, win)):
        usable += 1
        dims = [d // 2 for d in dims]
    if usable < params.scales:
        if not params.allow_scale_reduction:
            need = WINDOW_SIZE * 2 ** (params.scales - 1)
            raise ValueError(f"image {shape} too small for {params.scales} scales; "
                             f"needs at least {need} per spatial axis (window {WINDOW_SIZE})")
        logger.info("ms_ssim: reduced to %d of %d scales for shape %s",
                    usable, params.scales, shape)
    return usable


def ms_ssim(x, y, params: MSSSIMParams | None = None) -> float:
    """Multi-scale SSIM over dyadically downsampled image pairs.

    Contrast-structure terms from every scale and the full SSIM at the
    coarsest scale are combined as a weighted geometric mean.  Negative
    per-scale terms are clamped at zero before exponentiation.
    """
    params = params or MSSSIMParams()
    xa, ya = as_f64_pair(x, y)
    data_range = _resolve_range(xa, params.data_range)
    per_slice = params.per_slice and xa.ndim == 3
    n_scales = ms_ssim_scale_count(xa.shape[1:] if per_slice else xa.shape, params)
    with _named_overflow(x=xa, y=ya):
        return _ssim_family(xa, ya, data_range, per_slice, n_scales)[1]


def cw_ssim(x, y, dm: DistanceMap, params: SSIMParams | None = None,
            mode: str = "content") -> float:
    """Contrast-weighted SSIM: SSIM of the distance-weighted image pair.

    Both images are multiplied voxelwise by the distance-map weighting
    before scoring, so the plain map emphasizes agreement away from
    enhancement (content) and the inverted map emphasizes the enhancing
    voxels themselves (style).  A map whose inversion flag disagrees with
    ``mode`` triggers a warning but is still applied as given.

    The dynamic range defaults to the range of the unweighted first image
    so weighting never shifts the stabilizing constants.
    """
    if mode not in ("content", "style"):
        raise ValueError(f"unknown mode {mode!r}, expected 'content' or 'style'")
    params = params or SSIMParams()
    xa, ya = as_f64_pair(x, y)
    w = as_f64(dm.weights, "distance map weights")
    if w.shape != xa.shape:
        raise ValueError(f"distance map {w.shape} does not match images {xa.shape}")
    expect_inverted = mode == "style"
    if dm.inverted != expect_inverted:
        warnings.warn(
            f"{mode} mode expects an {'inverted' if expect_inverted else 'original'} "
            f"distance map, got inverted={dm.inverted}",
            WeightingModeWarning,
            stacklevel=2,
        )
    data_range = _resolve_range(xa, params.data_range)
    with _named_overflow(x=xa, y=ya):
        return _ssim_family(xa, ya, data_range, params.per_slice, 1, w)[0]


def _resolve_peak(reference: np.ndarray, peak) -> float:
    if peak is None:
        peak = float(reference.max()) - float(reference.min())
    if not 0 < peak < _SQRT_FLOAT_MAX:
        raise ValueError(f"peak {peak!r} must be positive with a finite square; pass it "
                         f"explicitly for constant references")
    return peak


def psnr(reference, test, peak: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical inputs.

    ``peak`` of None uses max - min of the reference.
    """
    ref, tst = as_f64_pair(reference, test, "reference", "test")
    peak = _resolve_peak(ref, peak)
    with _named_overflow(reference=ref, test=tst):
        return _psnr(ref, tst, peak)


def _psnr(ref: np.ndarray, tst: np.ndarray, peak: float) -> float:
    """PSNR of a checked pair at a checked peak."""
    diff = ref - tst
    mse = float(np.mean(np.square(diff, out=diff)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def dice(a, b) -> float:
    """Dice overlap 2|A^B| / (|A|+|B|) between boolean masks."""
    aa = np.asarray(a, dtype=bool)
    bb = np.asarray(b, dtype=bool)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    denom = int(aa.sum()) + int(bb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((aa & bb).sum()) / denom


def evaluate_triple(generated, content, style, seq_for_mask: VolumeSequence,
                    params: EvalParams | None = None) -> MetricReport:
    """Full score battery for one (generated, content, style) triple.

    Pairings: PSNR scores the generated image against the style image;
    SSIM (MS-SSIM's first-scale term) and MS-SSIM score it against the
    content image; the contrast-weighted SSIMs score content agreement
    under the plain map and style agreement under the inverted map.  One
    shared dynamic range, from the unweighted content image unless
    ``params.data_range`` is set, feeds every SSIM-family score; it and
    PSNR's peak are checked, like the inputs, before any stage runs.  The
    scores come from the private stages behind ``psnr``, ``ssim``,
    ``ms_ssim`` and ``cw_ssim``, so nothing is checked twice, and the
    three SSIM-family pairs share one moment ``Workspace``.  The weights
    are ``distance_map``'s, formed in place of the fresh distances, and
    the style pair inverts them slab by slab as ``invert_map`` would, so
    neither a distance map nor an inverted map is held beside them.
    """
    params = params or EvalParams()
    if params.direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if params.slice_mode not in SLICE_MODES:
        raise ValueError(f"slice_mode must be one of {SLICE_MODES}, got {params.slice_mode!r}")
    if params.ms_ssim.data_range is not None:
        raise ValueError("set EvalParams.data_range, not EvalParams.ms_ssim.data_range")
    if params.ms_ssim.per_slice:
        raise ValueError("set EvalParams.slice_mode, not EvalParams.ms_ssim.per_slice")
    gen = as_f64(generated, "generated")
    con = as_f64(content, "content")
    sty = as_f64(style, "style")
    if not (gen.shape == con.shape == sty.shape):
        raise ValueError(
            f"triple shapes differ: generated {gen.shape}, content {con.shape}, "
            f"style {sty.shape}"
        )
    if seq_for_mask.spatial_shape != gen.shape:
        raise ValueError(
            f"mask sequence spatial shape {seq_for_mask.spatial_shape} does not "
            f"match images {gen.shape}"
        )
    per_slice = params.slice_mode == "2d" and gen.ndim == 3
    data_range = _resolve_range(con, params.data_range)
    peak = _resolve_peak(sty, params.peak)
    used = ms_ssim_scale_count(gen.shape[1:] if per_slice else gen.shape, params.ms_ssim)

    notes: list[str] = []
    ce = detect_ce(seq_for_mask, params.baseline_index, params.threshold,
                   params.signed_reverse)
    spacing = _mode_spacing(seq_for_mask.spacing_mm, params.spacing_mode)
    dist = distance_transform(ce, spacing)
    weights = _weigh(dist, out=dist)  # distance_map's weights, in place of the distances
    if not ce.mask.any():
        notes.append("no CE voxels detected; content weighting is uniform 1.0")
    elif ce.mask.all():
        notes.append("every voxel detected as CE; content weighting is uniform 0.1")

    if used < params.ms_ssim.scales:
        notes.append(f"ms_ssim used {used} of {params.ms_ssim.scales} scales")
    ws = Workspace()
    with _named_overflow(generated=gen, content=con, style=sty):
        psnr_sg = _psnr(sty, gen, peak)
        ssim_cg, ms_ssim_cg = _ssim_family(con, gen, data_range, per_slice, used, ws=ws)
        return MetricReport(
            psnr_style_vs_gen=psnr_sg,
            ssim_content_vs_gen=ssim_cg,
            ms_ssim_content_vs_gen=ms_ssim_cg,
            cw_ssim_content=_ssim_family(gen, con, data_range, per_slice, 1, weights, ws)[0],
            cw_ssim_style=_ssim_family(gen, sty, data_range, per_slice, 1, weights, ws,
                                       invert=True)[0],
            direction=params.direction,
            notes=notes,
        )
