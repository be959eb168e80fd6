"""References for the feature path and head training: preprocessing, the forward passes, Adam.

The loop versions deliberately avoid the vectorized code paths of the
package: plain Python loops over output positions, so they serve as
independent oracles.  Two whole-array references sit beside them, kept from
earlier versions of the package so the replacements can be held to them:
`conv2d_einsum`, the im2col-style convolution that einsums over every
materialised kh x kw window, and `bilinear_resize_rows_first`, which gathers
source rows before columns.  `conv2d_zero_fill` (the shift-and-add
convolution accumulating every tap into zeros) and `sigmoid_masked` (the
logistic evaluated through boolean masks) are the feature stages' earlier
forms, which the package's features must still match bit for bit.  `one_hot` and `cross_entropy` are the
per-sample label encoding and loss that the classifier computes in batches.

For training, `adam_step` is the allocating Adam update the package used
before it updated in place, and `train_two_tier_reference` is the head
training loop built on it; the package's blocked in-place training must
reproduce both bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from facelight.classifier import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, PROB_FLOOR, MlpHead
from facelight.errors import DomainError
from facelight.labels import UNKNOWN, split_label


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


def conv2d_zero_fill(x, kernel):
    """(N, C_in, H, W) x (C_out, C_in, kh, kw) -> (N, C_out, H, W): shift-and-add
    over the zero-padded input, every tap's product added to a zeroed output."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    wp = w + 2 * pw
    padded = np.zeros((n, cin, h + 2 * ph + 1, wp), dtype=x.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x
    flat = padded.reshape(n, cin, -1)
    span = h * wp
    out = np.zeros((n, cout, span))
    term = np.empty_like(out)
    for a in range(kh):
        for b in range(kw):
            start = a * wp + b
            np.matmul(kernel[:, :, a, b], flat[:, :, start : start + span], out=term)
            out += term
    return out.reshape(n, cout, h, wp)[..., :w]


def sigmoid_masked(x):
    """Elementwise logistic, positive and negative inputs gathered by boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, param):
        return cls(np.zeros_like(param, dtype=float), np.zeros_like(param, dtype=float), 0)


def adam_step(param, grad, state, lr, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
    """One bias-corrected Adam update over whole arrays; returns the new parameter and state."""
    param = np.asarray(param, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if param.shape != grad.shape:
        raise DomainError(f"shape mismatch: param {param.shape} vs grad {grad.shape}")
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), AdamState(m, v, t)


def train_two_tier_reference(features, unified_labels, layout, epochs, batch_size, lr, seed):
    """The discriminator and predictor heads and the loss log, trained one
    whole-array `adam_step` at a time with the RNG draws of `train_two_tier`."""
    x = np.asarray(features, dtype=float)
    pairs = [split_label(int(v), layout) for v in unified_labels]
    cats = np.array([j for j, _ in pairs])
    apps = np.array([k for _, k in pairs])
    rng = np.random.default_rng(seed)
    heads = [MlpHead.init(x.shape[1], layout.num_categories, rng)]
    heads += [MlpHead.init(x.shape[1], layout.counts[j], rng) for j in range(layout.num_categories)]
    jobs = [(heads[0], x, cats, "discriminator")]
    jobs += [(heads[j + 1], x[cats == j], apps[cats == j], layout.category_name(j)) for j in range(layout.num_categories)]
    log = []
    for head, hx, hy, name in jobs:
        states = {key: AdamState.zeros_like(p) for key, p in head.params().items()}
        for epoch in range(1, epochs + 1):
            order = rng.permutation(hx.shape[0])
            for b, start in enumerate(range(0, hx.shape[0], batch_size)):
                idx = order[start : start + batch_size]
                loss, grads = head.loss_and_gradients(hx[idx], hy[idx])
                for key in states:
                    new_p, states[key] = adam_step(getattr(head, key), grads[key], states[key], lr)
                    getattr(head, key)[...] = new_p
                log.append({"head": name, "epoch": epoch, "batch": b, "loss": loss})
    return heads, log
