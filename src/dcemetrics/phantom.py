"""Synthetic dynamic contrast sequences with known ground truth.

Ellipse/ellipsoid regions sit on a flat background; enhancing regions add
a gamma-variate bolus curve on top of their painted baseline.  Everything
is deterministic per seed, so the same spec always yields bit-identical
volumes, truth masks and curves.  ``scipy.ndimage`` is loaded only when
a spec has motion, by the first shifted frame.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .metrics import CEMask
from .tensor import VolumeSequence, _is_int, _is_real, _is_vector, check_spacing


def _store(obj, name: str, ok, cast, kind: str) -> None:
    """Store field ``name`` as ``cast(value)`` if ``ok(value)``, else raise a ValueError naming it."""
    value = getattr(obj, name)
    if ok(value):
        try:
            object.__setattr__(obj, name, cast(value))
            return
        except OverflowError:  # an integer beyond float64
            pass
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _store_floats(obj, scalars=(), vectors=()) -> None:
    """Store named real fields as floats, ``vectors`` as tuples of floats; each must be finite."""
    for name in (*scalars, *vectors):
        if name in vectors:
            _store(obj, name, lambda v: _is_vector(v, _is_real),
                   lambda v: tuple(float(x) for x in v), "a list of numbers")
        else:
            _store(obj, name, _is_real, float, "a number")
        if not np.all(np.isfinite(getattr(obj, name))):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


def _check_keys(cls, d) -> dict:
    """``d`` itself, once it is an object with every required field of ``cls`` and no other key."""
    if not isinstance(d, dict):
        raise ValueError(f"a {cls.__name__} must be a JSON object, got {type(d).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys {unknown}; the fields are {names}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{cls.__name__} is missing required keys {missing}")
    return d


@dataclass(frozen=True)
class Region:
    """One ellipse (2D) or ellipsoid (3D) tissue patch.

    ``amplitude`` > 0 marks the region as enhancing; its intensity over
    time is baseline + amplitude * g(t) with g the gamma-variate curve.
    """

    center: tuple[float, ...]
    radii: tuple[float, ...]
    baseline: float
    amplitude: float = 0.0
    onset: float = 0.0
    alpha: float = 3.0
    beta: float = 1.5

    def __post_init__(self):
        _store_floats(self, ("baseline", "amplitude", "onset", "alpha", "beta"),
                      vectors=("center", "radii"))
        if len(self.center) != len(self.radii):
            raise ValueError("center and radii must have the same rank")
        if any(r <= 0 for r in self.radii):
            raise ValueError(f"radii must be positive, got {self.radii}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.amplitude > 0 and (self.alpha <= 0 or self.beta <= 0):
            raise ValueError("enhancing regions need alpha > 0 and beta > 0")
        if self.onset < 0:
            raise ValueError("onset must be non-negative")

    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "Region":
        return cls(**_check_keys(cls, d))


@dataclass(frozen=True)
class PhantomSpec:
    grid: tuple[int, ...]
    regions: tuple[Region, ...]
    n_frames: int = 5
    noise_sigma: float = 0.0
    motion: float = 0.0
    seed: int = 0
    rician: bool = False
    background: float = 0.0
    spacing_mm: tuple[float, ...] | None = None

    def __post_init__(self):
        _store(self, "grid", lambda g: _is_vector(g, _is_int),
               lambda g: tuple(int(n) for n in g), "a list of integers")
        _store(self, "regions", lambda r: _is_vector(r, lambda e: isinstance(e, Region)),
               tuple, "a list of regions")
        _store(self, "n_frames", _is_int, int, "an integer")
        _store(self, "seed", _is_int, int, "an integer")
        _store(self, "rician", lambda v: isinstance(v, (bool, np.bool_)), bool, "a boolean")
        _store_floats(self, ("noise_sigma", "motion", "background"))
        if len(self.grid) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {self.grid}")
        if any(n < 1 for n in self.grid):
            raise ValueError(f"grid sides must be positive, got {self.grid}")
        if self.n_frames < 2:
            raise ValueError("need at least two frames")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.motion < 0:
            raise ValueError("motion must be non-negative")
        for i, r in enumerate(self.regions):
            if len(r.center) != len(self.grid):
                raise ValueError(f"region {i} rank does not match grid")
            for c, rad, n in zip(r.center, r.radii, self.grid):
                if c - rad < 0 or c + rad > n - 1:
                    raise ValueError(f"region {i} extends outside the grid")
        if self.spacing_mm is not None:
            sp = check_spacing(self.spacing_mm, len(self.grid), "spacing_mm")
            object.__setattr__(self, "spacing_mm", sp)

    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        d = _check_keys(cls, d)
        if not isinstance(d["regions"], (list, tuple)):  # tuple: from to_dict
            raise ValueError(f"regions must be a list of regions, got {d['regions']!r}")
        return cls(**{**d, "regions": tuple(Region.from_dict(r) for r in d["regions"])})


@dataclass(frozen=True)
class PhantomOutput:
    sequence: VolumeSequence
    truth_mask: CEMask
    truth_curves: np.ndarray  # (n_regions, n_frames), baseline + bolus

    def __post_init__(self):
        if self.truth_mask.mask.shape != self.sequence.spatial_shape:
            raise ValueError("truth mask shape must equal the frame shape")


def gamma_variate(t, onset: float, alpha: float, beta: float) -> np.ndarray:
    """Bolus curve, zero before onset, peaking at 1 when t = onset + alpha/beta."""
    t = np.asarray(t, dtype=np.float64)
    tp = alpha / beta
    tau = (t - onset) / tp
    out = np.zeros_like(tau)
    rising = tau > 0
    out[rising] = tau[rising] ** alpha * np.exp(alpha * (1.0 - tau[rising]))
    return out


def _region_mask(grid: tuple[int, ...], region: Region) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, n) for n in grid)]
    acc = sum(
        ((g - c) / r) ** 2 for g, c, r in zip(grids, region.center, region.radii)
    )
    return acc <= 1.0


def _noiseless_frame(spec, masks, curve_values) -> np.ndarray:
    """Paint baselines in listed order, then add each region's bolus value."""
    frame = np.full(spec.grid, float(spec.background))
    for region, mask in zip(spec.regions, masks):
        frame[mask] = region.baseline
    for region, mask, value in zip(spec.regions, masks, curve_values):
        if region.amplitude > 0:
            frame[mask] += region.amplitude * value
    return frame


def _add_noise(frame: np.ndarray, rng, sigma: float, rician: bool) -> np.ndarray:
    if sigma == 0:
        return frame
    if rician:
        re = frame + rng.normal(0.0, sigma, size=frame.shape)
        im = rng.normal(0.0, sigma, size=frame.shape)
        return np.sqrt(re**2 + im**2)
    return frame + rng.normal(0.0, sigma, size=frame.shape)


def _layout(spec: PhantomSpec):
    """Region masks and the (n_regions, n_frames) bolus curves g(t)."""
    masks = [_region_mask(spec.grid, r) for r in spec.regions]
    times = np.arange(spec.n_frames, dtype=np.float64)
    bolus = np.stack(
        [gamma_variate(times, r.onset, r.alpha, r.beta) for r in spec.regions]
    ) if spec.regions else np.zeros((0, spec.n_frames))
    return masks, bolus


def _render_frame(spec, masks, curve_values, offset_rng, noise_rng) -> np.ndarray:
    """Paint one frame, shift it by a motion offset, then add noise."""
    frame = _noiseless_frame(spec, masks, curve_values)
    if spec.motion > 0:
        from scipy import ndimage  # on first use, so importing the package skips it

        offset = offset_rng.uniform(-spec.motion, spec.motion, size=len(spec.grid))
        frame = ndimage.shift(frame, offset, order=1, mode="nearest")
    return _add_noise(frame, noise_rng, spec.noise_sigma, spec.rician)


def generate(spec: PhantomSpec) -> PhantomOutput:
    """Render the full sequence along with the ground-truth mask and curves.

    Per frame, in draw order: motion offset (if enabled), then noise, each
    from that frame's own spawned generator, so frames are independent and
    the whole output is reproducible bit for bit.
    """
    masks, bolus = _layout(spec)
    curves = np.stack(
        [r.baseline + r.amplitude * bolus[i] for i, r in enumerate(spec.regions)]
    ) if spec.regions else np.zeros((0, spec.n_frames))

    children = np.random.SeedSequence(spec.seed).spawn(spec.n_frames)
    frames = np.empty((spec.n_frames, *spec.grid))
    for t in range(spec.n_frames):
        rng = np.random.default_rng(children[t])
        frames[t] = _render_frame(spec, masks, bolus[:, t], rng, rng)

    truth = np.zeros(spec.grid, dtype=bool)
    for region, mask in zip(spec.regions, masks):
        if region.amplitude > 0:
            truth |= mask
    return PhantomOutput(
        VolumeSequence(frames, spacing_mm=spec.spacing_mm),
        CEMask(truth),
        curves,
    )


def make_triple(spec: PhantomSpec, t_content: int, t_style: int):
    """Content frame, independently-noised style frame, and the ideal transfer.

    The content frame is frame ``t_content`` of ``generate(spec)``.  The
    ideal transfer keeps the content frame's geometry (its motion state)
    but carries the style frame's enhancement values, which is exactly what
    a perfect style transfer would output; its noise draw is independent
    of both.
    """
    if not (0 <= t_content < spec.n_frames) or not (0 <= t_style < spec.n_frames):
        raise ValueError(
            f"frame indices must lie in [0, {spec.n_frames}), "
            f"got {t_content} and {t_style}"
        )
    masks, bolus = _layout(spec)
    # the first n_frames children equal the ones generate spawns; the two
    # extra ones seed the style and ideal-transfer noise
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_frames + 2)

    def rng(i: int):
        return np.random.default_rng(children[i])

    # a frame's motion offset is always the first draw of that frame's own
    # generator; the content frame then draws its noise from it as well
    content_rng = rng(t_content)
    content = _render_frame(spec, masks, bolus[:, t_content], content_rng, content_rng)
    style = _render_frame(spec, masks, bolus[:, t_style], rng(t_style), rng(spec.n_frames))
    generated_ideal = _render_frame(
        spec, masks, bolus[:, t_style], rng(t_content), rng(spec.n_frames + 1)
    )
    return content, style, generated_ideal
