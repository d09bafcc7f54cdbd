"""``evaluate_triple`` end to end against a composition of the oracles alone.

Each stage has its own oracle test; this property checks how the stages are
wired together.  The chain is ``voxelwise_ce_mask``, then
``brute_force_edt``, then the [0.1, 1.0] weights and their inversion, then
``naive_ssim`` / ``naive_ms_ssim`` on the (weighted) pairs; PSNR comes from
its formula.  Every tolerance is the one the matching stage test uses.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcemetrics.tensor as tensor
from dcemetrics.metrics import EvalParams, evaluate_triple
from dcemetrics.tensor import VolumeSequence
from oracles import brute_force_edt, naive_ms_ssim, naive_ssim, voxelwise_ce_mask

# the standard 5-scale MS-SSIM exponents (Wang, Simoncelli and Bovik 2003)
_MS_EXPONENTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)

# brute_force_edt holds voxels x sites x rank distances; this keeps it near 40 MB
_MAX_VOXELS = 1400


def _window(shape):
    """The 11-tap, sigma-1.5 Gaussian window, cut per axis to the largest odd length that fits."""
    w = np.ones(())
    for n in shape:
        size = min(11, n) - (min(11, n) % 2 == 0)
        r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
        w = np.multiply.outer(w, np.exp(-(r**2) / (2.0 * 1.5**2)))
    return w / w.sum()


def _scale_count(shape, window):
    """Dyadic scales, at most five, while every axis still holds the window."""
    dims, used = list(shape), 0
    while used < 5 and all(d >= k for d, k in zip(dims, window.shape)):
        used += 1
        dims = [d // 2 for d in dims]
    return used


@st.composite
def _shapes(draw):
    """Small 2D images and 3D volumes: odd sides, thin axes, leading axes past 27 rows."""
    if draw(st.booleans()):
        n0 = draw(st.integers(3, 45))
        return (n0, draw(st.integers(3, min(31, _MAX_VOXELS // n0))))
    n0 = draw(st.integers(1, 30))
    n1 = draw(st.integers(3, min(31, _MAX_VOXELS // n0)))
    return (n0, n1, draw(st.integers(1, min(13, _MAX_VOXELS // (n0 * n1)))))


def _oracle_report(gen, con, sty, frames, baseline, threshold, reverse, spacing, per_slice):
    """The five scores and the notes, from the oracles only."""
    mask = voxelwise_ce_mask(-frames if reverse else frames, baseline, threshold)
    dist = brute_force_edt(mask, spacing)
    if not mask.any():
        weights = np.ones(mask.shape)
    elif dist.max() == 0.0:
        weights = np.full(mask.shape, 0.1)
    else:
        weights = dist / dist.max() * 0.9 + 0.1
    inverted = 1.1 - weights

    data_range = float(con.max() - con.min())
    peak = float(sty.max() - sty.min())
    squared = 0.0
    for s, g in zip(sty.ravel(), gen.ravel()):
        squared += (s - g) ** 2
    mse = squared / gen.size
    psnr = math.inf if mse == 0.0 else 10.0 * math.log10(peak * peak / mse)

    slices = range(gen.shape[0]) if per_slice else [Ellipsis]
    window = _window(gen[slices[0]].shape)
    used = _scale_count(gen[slices[0]].shape, window)
    exponents = [e / sum(_MS_EXPONENTS[:used]) for e in _MS_EXPONENTS[:used]]

    def mean_over_slices(score):
        return float(np.mean([score(i) for i in slices]))

    notes = []
    if not mask.any():
        notes.append("no CE voxels detected; content weighting is uniform 1.0")
    elif mask.all():
        notes.append("every voxel detected as CE; content weighting is uniform 0.1")
    if used < 5:
        notes.append(f"ms_ssim used {used} of 5 scales")
    scores = {
        "psnr_style_vs_gen": psnr,
        "ssim_content_vs_gen": mean_over_slices(
            lambda i: naive_ssim(con[i], gen[i], window, data_range)),
        "ms_ssim_content_vs_gen": mean_over_slices(
            lambda i: naive_ms_ssim(con[i], gen[i], exponents, window, data_range)),
        "cw_ssim_content": mean_over_slices(lambda i: naive_ssim(
            gen[i] * weights[i], con[i] * weights[i], window, data_range)),
        "cw_ssim_style": mean_over_slices(lambda i: naive_ssim(
            gen[i] * inverted[i], sty[i] * inverted[i], window, data_range)),
    }
    return scores, notes


# the stage tests' tolerances: naive_ssim 1e-10, naive_ms_ssim 1e-9, PSNR 1e-12
_RTOL = {
    "psnr_style_vs_gen": 1e-12,
    "ssim_content_vs_gen": 1e-10,
    "ms_ssim_content_vs_gen": 1e-9,
    "cw_ssim_content": 1e-10,
    "cw_ssim_style": 1e-10,
}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(shape=_shapes(), data=st.data())
def test_scores_and_notes_match_the_composed_oracles(shape, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_frames = data.draw(st.integers(2, 5), label="n_frames")
    baseline = data.draw(st.integers(0, n_frames - 1), label="baseline")
    reverse = data.draw(st.booleans(), label="signed_reverse")
    # rises far below, around and far above the enhancement: empty, mixed and all-CE masks
    threshold = data.draw(st.floats(-30.0, 80.0), label="threshold")
    physical = data.draw(st.booleans(), label="physical")
    spacing = tuple(data.draw(st.floats(0.5, 3.0), label="spacing") for _ in shape)
    per_slice = len(shape) == 3 and data.draw(st.booleans(), label="slice_mode 2d")
    # the moment slabs at their default height, or at their floor, where a
    # leading axis of 27 rows or more spans two or more slabs
    floor = data.draw(st.booleans(), label="slab floor")

    enhancing = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    frames = rng.uniform(40.0, 80.0, shape) + rng.normal(0.0, 2.0, (n_frames, *shape))
    rise = np.where(np.arange(n_frames) == baseline, 0.0, -40.0 if reverse else 40.0)
    frames += rise.reshape(-1, *(1,) * len(shape)) * enhancing
    content = frames[baseline].copy()
    style = frames[-1] + rng.normal(0.0, 2.0, shape)
    generated = frames[-1] + rng.normal(0.0, 2.0, shape)

    params = EvalParams(threshold=threshold, baseline_index=baseline, signed_reverse=reverse,
                        spacing_mode="physical" if physical else "voxel",
                        slice_mode="2d" if per_slice else "3d")
    with pytest.MonkeyPatch.context() as mp:
        if floor:
            mp.setattr(tensor, "_SLAB_BYTES", 0, raising=False)
        report = evaluate_triple(generated, content, style,
                                 VolumeSequence(frames, spacing_mm=spacing), params)

    scores, notes = _oracle_report(generated, content, style, frames, baseline, threshold,
                                   reverse, spacing if physical else None, per_slice)
    for name, want in scores.items():
        npt.assert_allclose(getattr(report, name), want, rtol=_RTOL[name], err_msg=name)
    assert report.notes == notes
