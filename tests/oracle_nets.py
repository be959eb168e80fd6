"""References for the feature path: preprocessing and the forward passes.

The loop versions deliberately avoid the vectorized code paths of the
package: plain Python loops over output positions, so they serve as
independent oracles.  Two whole-array references sit beside them, kept from
earlier versions of the package so the replacements can be held to them:
`conv2d_einsum`, the im2col-style convolution that einsums over every
materialised kh x kw window, and `bilinear_resize_rows_first`, which gathers
source rows before columns.  `one_hot` and `cross_entropy` are the
per-sample label encoding and loss that the classifier computes in batches.
"""

import math

import numpy as np

from facelight.classifier import PROB_FLOOR
from facelight.errors import DomainError
from facelight.labels import UNKNOWN


def conv2d_einsum(x, kernel):
    """(N, C_in, H, W) x (C_out, C_in, kh, kw) -> (N, C_out, H, W) over a window copy."""
    _, _, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    return np.einsum("nchwij,ocij->nohw", windows, kernel, optimize=True)


def _bilinear_taps(n_in, n_out):
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, src - i0


def bilinear_resize_rows_first(image, out_h, out_w):
    """(N, H, W, 3) or (H, W, 3) -> uint8 of size (out_h, out_w), half-pixel centers."""
    img = np.asarray(image)
    batched = img.ndim == 4
    data = (img if batched else img[None]).astype(float)
    r0, r1, tr = _bilinear_taps(data.shape[1], out_h)
    c0, c1, tc = _bilinear_taps(data.shape[2], out_w)
    top = data[:, r0][:, :, c0] * (1 - tc)[None, None, :, None] + data[:, r0][:, :, c1] * tc[None, None, :, None]
    bot = data[:, r1][:, :, c0] * (1 - tc)[None, None, :, None] + data[:, r1][:, :, c1] * tc[None, None, :, None]
    out = top * (1 - tr)[None, :, None, None] + bot * tr[None, :, None, None]
    out = np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    return out if batched else out[0]


def conv2d_loops(x, kernel):
    """(C_in, H, W) x (C_out, C_in, kh, kw) -> (C_out, H, W), zero padded."""
    cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    assert cin == cin_k
    ph, pw = kh // 2, kw // 2
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            ii = i + a - ph
                            jj = j + b - pw
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += x[c, ii, jj] * kernel[o, c, a, b]
                out[o, i, j] = acc
    return out


def sigmoid_scalar(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def resblock_loops(x, params):
    h = x.copy()
    for conv, scale, shift in (
        (params.conv1, params.scale1, params.shift1),
        (params.conv2, params.scale2, params.shift2),
        (params.conv3, params.scale3, params.shift3),
    ):
        h = conv2d_loops(h, conv)
        for c in range(h.shape[0]):
            h[c] = h[c] * scale[c] + shift[c]
        h = np.maximum(h, 0.0)
    return np.maximum(h + x, 0.0)


def _mlp_loops(v, params):
    hidden = np.maximum(params.mlp_w1 @ v + params.mlp_b1, 0.0)
    return params.mlp_w2 @ hidden + params.mlp_b2


def cbam_loops(c, params):
    channels, h, w = c.shape
    maxp = np.array([c[i].max() for i in range(channels)])
    avgp = np.array([c[i].mean() for i in range(channels)])
    gate = _mlp_loops(maxp, params) + _mlp_loops(avgp, params)
    c1 = np.empty_like(c)
    for i in range(channels):
        c1[i] = c[i] * sigmoid_scalar(gate[i])

    stacked = np.stack([c1.max(axis=0), c1.mean(axis=0)])
    conv = conv2d_loops(stacked, params.spatial)[0]
    out = np.empty_like(c1)
    for i in range(h):
        for j in range(w):
            g = sigmoid_scalar(conv[i, j])
            for ch in range(channels):
                out[ch, i, j] = c1[ch, i, j] * g
    return out


def pooled_loops(s, p_grid):
    channels, h, w = s.shape
    out = []
    for c in range(channels):
        vals = s[c]
        out.append(vals.mean())
        out.append(vals.std())
        for i in range(p_grid):
            for j in range(p_grid):
                r0, r1 = (i * h) // p_grid, ((i + 1) * h) // p_grid
                c0, c1 = (j * w) // p_grid, ((j + 1) * w) // p_grid
                out.append(vals[r0:r1, c0:c1].mean())
    return np.array(out)


def one_hot(index, size):
    """Unified label as a one-hot vector; UNKNOWN encodes as all zeros."""
    vec = np.zeros(size)
    if index == UNKNOWN:
        return vec
    if not 0 <= index < size:
        raise DomainError(f"label {index} out of range [0, {size})")
    vec[index] = 1.0
    return vec


def cross_entropy(p, target):
    """-log p[target] for a one-hot target, with p floored at 1e-12."""
    p = np.asarray(p, dtype=float)
    target = np.asarray(target, dtype=float)
    if p.shape != target.shape:
        raise DomainError(f"shape mismatch: probs {p.shape} vs target {target.shape}")
    ones = np.flatnonzero(target == 1.0)
    if ones.size != 1 or not np.all((target == 0.0) | (target == 1.0)):
        raise DomainError("target must be a one-hot vector")
    return float(-np.log(max(p[ones[0]], PROB_FLOOR)))
