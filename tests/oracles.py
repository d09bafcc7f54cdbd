"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops over positions,
all-pairs scans) and shares no code with the package internals, so a bug
in the fast paths cannot hide in the oracle as well.
"""

import math

import numpy as np


def brute_conv(x, kernel, padding="zero", groups=1):
    """Nested-loop grouped cross-correlation over (C_in, spatial...)."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    c_in = x.shape[0]
    c_out = k.shape[0]
    kshape = k.shape[2:]
    spatial = x.shape[1:]
    offsets = [ks // 2 for ks in kshape]
    if padding == "valid":
        out_sp = tuple(n - ks + 1 for n, ks in zip(spatial, kshape))
    else:
        out_sp = spatial
    cpg = c_in // groups
    opg = c_out // groups
    out = np.zeros((c_out,) + tuple(out_sp))
    for o in range(c_out):
        g = o // opg
        for pos in np.ndindex(*out_sp):
            acc = 0.0
            for ci in range(cpg):
                c = g * cpg + ci
                for kpos in np.ndindex(*kshape):
                    if padding == "valid":
                        src = tuple(p + kp for p, kp in zip(pos, kpos))
                    else:
                        src = tuple(p + kp - off for p, kp, off in zip(pos, kpos, offsets))
                    val = _sample(x[c], src, padding)
                    acc += k[(o, ci) + kpos] * val
            out[(o,) + pos] = acc
    return out


def _sample(img, idx, padding):
    """Fetch img[idx] honoring zero or reflect boundary handling."""
    fixed = []
    for i, n in zip(idx, img.shape):
        if 0 <= i < n:
            fixed.append(i)
            continue
        if padding == "zero":
            return 0.0
        # numpy-style odd reflection about the edge samples
        if n == 1:
            fixed.append(0)
            continue
        period = 2 * (n - 1)
        i = i % period
        if i >= n:
            i = period - i
        fixed.append(i)
    return img[tuple(fixed)]


def naive_window_moments(x, y, weights, pos):
    """Weighted moments of one window anchored at ``pos`` (top-left corner)."""
    w = np.asarray(weights, dtype=np.float64)
    sl = tuple(slice(p, p + ws) for p, ws in zip(pos, w.shape))
    xp = np.asarray(x, dtype=np.float64)[sl]
    yp = np.asarray(y, dtype=np.float64)[sl]
    mu_x = float((w * xp).sum())
    mu_y = float((w * yp).sum())
    var_x = float((w * (xp - mu_x) ** 2).sum())
    var_y = float((w * (yp - mu_y) ** 2).sum())
    cov = float((w * (xp - mu_x) * (yp - mu_y)).sum())
    return mu_x, mu_y, var_x, var_y, cov


def naive_ssim(x, y, weights, data_range, k1=0.01, k2=0.03, return_cs=False):
    """Sliding-window SSIM computed position by position."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    out_shape = tuple(n - ws + 1 for n, ws in zip(x.shape, w.shape))
    vals = []
    cs_vals = []
    for pos in np.ndindex(*out_shape):
        mu_x, mu_y, var_x, var_y, cov = naive_window_moments(x, y, w, pos)
        lum = (2 * mu_x * mu_y + c1) / (mu_x**2 + mu_y**2 + c1)
        cs = (2 * cov + c2) / (var_x + var_y + c2)
        vals.append(lum * cs)
        cs_vals.append(cs)
    if return_cs:
        return float(np.mean(vals)), float(np.mean(cs_vals))
    return float(np.mean(vals))


def halve_by_mean(a):
    """2x average pooling with odd tails dropped, one axis at a time."""
    a = np.asarray(a, dtype=np.float64)
    for ax in range(a.ndim):
        n = a.shape[ax] - (a.shape[ax] % 2)
        a = np.take(a, range(n), axis=ax)
        shp = a.shape[:ax] + (n // 2, 2) + a.shape[ax + 1 :]
        a = a.reshape(shp).mean(axis=ax + 1)
    return a


def naive_ms_ssim(x, y, weights_per_scale, window, data_range, k1=0.01, k2=0.03):
    """Multi-scale product assembled from naive per-scale SSIM and cs terms.

    Uses the luminance-at-last-scale formulation: l_M^w_M * prod cs_j^w_j,
    which is algebraically identical to weighting the full SSIM at scale M.
    """
    xs, ys = np.asarray(x, np.float64), np.asarray(y, np.float64)
    n_scales = len(weights_per_scale)
    cs_terms = []
    last_ssim = None
    for j in range(n_scales):
        ssim_j, cs_j = naive_ssim(xs, ys, window, data_range, k1, k2, return_cs=True)
        cs_terms.append(max(cs_j, 0.0))
        last_ssim = max(ssim_j, 0.0)
        if j < n_scales - 1:
            xs = halve_by_mean(xs)
            ys = halve_by_mean(ys)
    value = 1.0
    for j in range(n_scales - 1):
        value *= cs_terms[j] ** weights_per_scale[j]
    value *= last_ssim ** weights_per_scale[-1]
    return value


def brute_force_edt(mask, spacing=None):
    """All-pairs Euclidean distance to the nearest True voxel.

    Computes the minimum over every (voxel, site) pair, O(n^2); infinite
    where the mask has no True voxel at all.
    """
    mask = np.asarray(mask, dtype=bool)
    if spacing is None:
        spacing = (1.0,) * mask.ndim
    spacing = np.asarray(spacing, dtype=np.float64)
    sites = np.argwhere(mask).astype(np.float64)
    out = np.full(mask.shape, np.inf)
    if sites.size == 0:
        return out
    coords = np.argwhere(np.ones(mask.shape, dtype=bool)).astype(np.float64)
    diff = (coords[:, None, :] - sites[None, :, :]) * spacing[None, None, :]
    d2 = (diff**2).sum(axis=2).min(axis=1)
    return np.sqrt(d2).reshape(mask.shape)


def scalar_convlstm_cell(x, h, c, weights):
    """Per-voxel scalar evaluation of the ConvLSTM gate equations.

    ``weights`` carries the gate kernels over the concatenated (x, h)
    stack plus biases, stacked (i, f, g, o); zero padding at the borders.
    """
    x = np.asarray(x, np.float64)
    h = np.asarray(h, np.float64)
    c = np.asarray(c, np.float64)
    z = np.concatenate([x, h], axis=0)
    hidden = h.shape[0]
    spatial = x.shape[1:]

    def gate_pre(kern, bias, ch, pos):
        kshape = kern.shape[2:]
        offs = [ks // 2 for ks in kshape]
        acc = bias[ch]
        for ci in range(z.shape[0]):
            for kpos in np.ndindex(*kshape):
                src = tuple(p + kp - off for p, kp, off in zip(pos, kpos, offs))
                if any(s < 0 or s >= n for s, n in zip(src, spatial)):
                    continue
                acc += kern[(ch, ci) + kpos] * z[(ci,) + src]
        return acc

    # per-gate blocks, stacked (i, f, g, o) along the output axis
    w_i, w_f, w_g, w_o = (weights.kernel[k * hidden : (k + 1) * hidden] for k in range(4))
    b_i, b_f, b_g, b_o = (weights.bias[k * hidden : (k + 1) * hidden] for k in range(4))
    h_new = np.zeros_like(h)
    c_new = np.zeros_like(c)
    for ch in range(hidden):
        for pos in np.ndindex(*spatial):
            i = 1.0 / (1.0 + math.exp(-gate_pre(w_i, b_i, ch, pos)))
            f = 1.0 / (1.0 + math.exp(-gate_pre(w_f, b_f, ch, pos)))
            o = 1.0 / (1.0 + math.exp(-gate_pre(w_o, b_o, ch, pos)))
            g = math.tanh(gate_pre(w_g, b_g, ch, pos))
            cn = f * c[(ch,) + pos] + i * g
            c_new[(ch,) + pos] = cn
            h_new[(ch,) + pos] = o * math.tanh(cn)
    return h_new, c_new


def spreadsheet_mean_std(values):
    """Mean and sample std (n-1 denominator) via explicit accumulation."""
    vals = [float(v) for v in values]
    n = len(vals)
    total = 0.0
    for v in vals:
        total += v
    mean = total / n
    if n < 2:
        return mean, None
    acc = 0.0
    for v in vals:
        acc += (v - mean) ** 2
    return mean, math.sqrt(acc / (n - 1))


def voxelwise_dice(a, b):
    """Dice overlap computed by scanning every voxel once."""
    a = np.asarray(a, dtype=bool).ravel()
    b = np.asarray(b, dtype=bool).ravel()
    inter = 0
    na = 0
    nb = 0
    for va, vb in zip(a, b):
        inter += int(va and vb)
        na += int(va)
        nb += int(vb)
    if na + nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def voxelwise_ce_mask(frames, baseline_index, threshold):
    """Per-voxel re-derivation of the enhancement mask."""
    frames = np.asarray(frames, dtype=np.float64)
    t_count = frames.shape[0]
    out = np.zeros(frames.shape[1:], dtype=bool)
    for pos in np.ndindex(*frames.shape[1:]):
        acc = 0.0
        n = 0
        for t in range(t_count):
            if t == baseline_index:
                continue
            acc += frames[(t,) + pos] - frames[(baseline_index,) + pos]
            n += 1
        out[pos] = (acc / n) > threshold
    return out
