"""Frozen-random convolutional feature extractor.

A residual block (three 3x3 conv / affine / ReLU stages plus identity
shortcut) followed by channel- and spatial-attention gating, then pooling to
a fixed-length vector (per-channel global mean, global std and a PxP grid of
cell means).  Convolution weights are never trained; they are drawn once from
a seeded Gaussian (std 0.1) and only the classifier heads on top learn.

Channel count stays 3 end to end, so the attention MLP is 3 -> 3 -> 3 with no
reduction.  The stage functions take one (3, H, W) tensor or a batch
(N, 3, H, W) and run the identical arithmetic on either.

Both the 3x3 residual convolutions and the 7x7 spatial-attention gate go
through `conv2d_same`, which adds one shifted view of the zero-padded input
per kernel tap into a single output buffer.  It never materialises the
kh*kw windows of each pixel (an im2col copy would be N*Cin*H*W*kh*kw
floats, 822 MB for the 7x7 gate on 256 frames at 64x64), so the working set
stays a few copies of the block itself.

`extract_features` runs every stage on blocks of `block_frames(L, H, W)`
frames, sized so that the largest array any stage makes for a block is about
`BLOCK_BYTES`: per frame the largest of the (3, L, L) float64 tensors, the
resize column pass's (2H, L, 3) float64 and `upscale2x`'s (2H, 2W, 3) uint16
sums (5, 14 and 28 frames at L = 64, 32 and 16 from 24x24 frames).  Each
stage then makes its few block-sized temporaries in the per-core L2 cache
instead of streaming tensors of tens of MiB through memory, and peak memory
no longer grows with the batch.  No stage changes its arithmetic and each
frame's features depend only on that frame, so the blocking is bit-identical
to running the whole batch at once.

The blocks run on one thread per CPU the process may use, at most
`MAX_THREADS`; numpy releases the interpreter lock inside the ufuncs and
matrix products that do the work.  Thread k takes blocks k, k + T, k + 2T,
... and each block's features go to their own slot, so the result does not
depend on scheduling or on the thread count.  The calling thread takes share
0 and short-lived helpers the rest, joined before the call returns: glibc
gives every thread that allocates its own malloc arena, which keeps about as
much freed memory as the largest temporaries that thread made, so working in
the caller saves one arena, and the per-array block rule above keeps what
each helper's arena holds small.  The first failing block's exception is
raised in the caller.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check
from .preprocess import check_image, preprocess

CHANNELS = 3
WEIGHT_STD = 0.1
# the largest array a stage, or scene.face_screen_weights, makes for one block; fits a per-core L2
BLOCK_BYTES = 512 * 1024
MAX_THREADS = 4  # feature threads per call, the calling thread included
# the shape of every FeatureParams array, in field order
PARAM_SHAPES = {
    "conv1": (3, 3, 3, 3), "conv2": (3, 3, 3, 3), "conv3": (3, 3, 3, 3),
    "scale1": (3,), "shift1": (3,), "scale2": (3,), "shift2": (3,),
    "scale3": (3,), "shift3": (3,),
    "mlp_w1": (3, 3), "mlp_b1": (3,), "mlp_w2": (3, 3), "mlp_b2": (3,),
    "spatial": (1, 2, 7, 7),
}


@dataclass(frozen=True)
class FeatureParams:
    """All frozen extractor weights; `from_seed` draws them reproducibly."""

    conv1: np.ndarray  # (3, 3, 3, 3) out, in, kh, kw
    conv2: np.ndarray
    conv3: np.ndarray
    scale1: np.ndarray  # per-channel affine in place of batch norm
    shift1: np.ndarray
    scale2: np.ndarray
    shift2: np.ndarray
    scale3: np.ndarray
    shift3: np.ndarray
    mlp_w1: np.ndarray  # (3, 3)
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray
    spatial: np.ndarray  # (1, 2, 7, 7)

    def __post_init__(self):
        for name, shape in PARAM_SHAPES.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_seed(cls, seed: int) -> "FeatureParams":
        """Draw conv/MLP weights from N(0, 0.1^2); affine is identity, biases zero."""
        rng = np.random.default_rng(seed)
        draw = lambda *shape: rng.normal(0.0, WEIGHT_STD, size=shape)
        return cls(
            conv1=draw(3, 3, 3, 3), conv2=draw(3, 3, 3, 3), conv3=draw(3, 3, 3, 3),
            scale1=np.ones(3), shift1=np.zeros(3),
            scale2=np.ones(3), shift2=np.zeros(3),
            scale3=np.ones(3), shift3=np.zeros(3),
            mlp_w1=draw(3, 3), mlp_b1=np.zeros(3),
            mlp_w2=draw(3, 3), mlp_b2=np.zeros(3),
            spatial=draw(1, 2, 7, 7),
        )


def conv2d_same(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded same-size 2-D cross-correlation, (N, Cin, H, W) -> (N, Cout, H, W).

    Shift-and-add over the zero-padded tensor, one (Cout, Cin) matrix
    product per kernel tap.  Each image plane is padded and flattened with
    row stride Wp = W + 2 * (kw // 2), so tap (a, b) reads the contiguous
    run that starts a * Wp + b further on.  The output is built in the same
    layout; its last Wp - W columns per row mix neighbouring rows and are
    dropped.
    """
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise DomainError(f"input has {cin} channels, kernel expects {cin_k}")
    ph, pw = kh // 2, kw // 2
    wp = w + 2 * pw
    # one spare row at the bottom keeps the last tap's run inside the buffer
    padded = np.zeros((n, cin, h + 2 * ph + 1, wp), dtype=x.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x
    flat = padded.reshape(n, cin, -1)
    span = h * wp
    # the first tap's product initialises the output: against summing into
    # zeros only the sign of an all-zero result can differ, and the affine
    # shift or the sigmoid after every convolution removes it
    out = np.empty((n, cout, span))
    term = np.empty_like(out)
    for tap in range(kh * kw):
        a, b = divmod(tap, kw)
        start = a * wp + b
        np.matmul(kernel[:, :, a, b], flat[:, :, start : start + span], out=term if tap else out)
        if tap:
            out += term
    return out.reshape(n, cout, h, wp)[..., :w]


def _check_tensor(t) -> tuple[np.ndarray, bool]:
    t = np.asarray(t, dtype=float)
    batched = t.ndim == 4
    if not batched:
        t = t[None]
    if t.ndim != 4:
        raise DomainError(f"expected a (3, H, W) tensor or a batch, got shape {np.asarray(t).shape}")
    if t.shape[1] != CHANNELS:
        raise DomainError(f"expected {CHANNELS} channels, got {t.shape[1]}")
    return t, batched


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def resblock_forward(x, params: FeatureParams) -> np.ndarray:
    """Main path of three conv/affine/ReLU stages plus the identity shortcut."""
    xb, batched = _check_tensor(x)
    h = xb
    for conv, scale, shift in (
        (params.conv1, params.scale1, params.shift1),
        (params.conv2, params.scale2, params.shift2),
        (params.conv3, params.scale3, params.shift3),
    ):
        h = _relu(conv2d_same(h, conv) * scale[None, :, None, None] + shift[None, :, None, None])
    out = _relu(h + xb)
    return out if batched else out[0]


def _attention_mlp(v: np.ndarray, params: FeatureParams) -> np.ndarray:
    """Shared two-layer MLP over per-channel pooled vectors, (N, 3) -> (N, 3)."""
    h = _relu(v @ params.mlp_w1.T + params.mlp_b1)
    return h @ params.mlp_w2.T + params.mlp_b2


def cbam_forward(c, params: FeatureParams) -> np.ndarray:
    """Channel attention then spatial attention, both as sigmoid gates.

    Channel gate: sigmoid(MLP(maxpool) + MLP(avgpool)) per channel.
    Spatial gate: sigmoid(conv7x7([channel-max ; channel-avg])), zero padded.
    """
    cb, batched = _check_tensor(c)
    n = cb.shape[0]
    # one MLP call on the stacked (2N, 3) pooled vectors: a one-row product
    # takes another BLAS routine, which rounds a lone frame differently
    both = _attention_mlp(np.concatenate([cb.max(axis=(2, 3)), cb.mean(axis=(2, 3))]), params)
    gate_c = _sigmoid(both[:n] + both[n:])
    c1 = cb * gate_c[:, :, None, None]

    ch_max = c1.max(axis=1, keepdims=True)
    ch_avg = c1.mean(axis=1, keepdims=True)
    stacked = np.concatenate([ch_max, ch_avg], axis=1)
    gate_s = _sigmoid(conv2d_same(stacked, params.spatial))
    out = c1 * gate_s
    return out if batched else out[0]


def pooled_features(s, p_grid: int) -> np.ndarray:
    """Per channel: global mean, global population std, then PxP cell means.

    Concatenated channel-major; the vector length is 3 * (2 + P^2).  Batched
    input yields (N, 3 * (2 + P^2)).
    """
    sb, batched = _check_tensor(s)
    n, c, h, w = sb.shape
    if p_grid < 1:
        raise DomainError(f"pooling grid must be >= 1, got {p_grid}")
    if p_grid > min(h, w):
        raise DomainError(f"pooling grid {p_grid} exceeds tensor size {h}x{w}")
    he = (np.arange(p_grid + 1) * h) // p_grid
    we = (np.arange(p_grid + 1) * w) // p_grid
    parts = [sb.mean(axis=(2, 3)), sb.std(axis=(2, 3))]  # (N, 3) each
    cells = np.empty((n, c, p_grid, p_grid))
    for i in range(p_grid):
        for j in range(p_grid):
            cells[:, :, i, j] = sb[:, :, he[i] : he[i + 1], we[j] : we[j + 1]].mean(axis=(2, 3))
    vec = np.concatenate(
        [np.stack(parts, axis=2), cells.reshape(n, c, p_grid * p_grid)], axis=2
    ).reshape(n, c * (2 + p_grid * p_grid))
    return vec if batched else vec[0]


def feature_length(p_grid: int) -> int:
    return CHANNELS * (2 + p_grid * p_grid)


def block_frames(l_size: int, height: int, width: int) -> int:
    """Frames per `extract_features` block for (height, width) images at target size L.

    The largest per-frame array any stage makes sets the count: the (3, L, L)
    float64 tensors, the resize column pass's (2H, L, 3) float64 and
    `upscale2x`'s (2H, 2W, 3) uint16 sums; a block holds about BLOCK_BYTES of it.
    """
    check("l_size", l_size)
    per_frame = CHANNELS * max(8 * l_size * l_size, 8 * 2 * height * l_size, 2 * 2 * height * 2 * width)
    return max(1, BLOCK_BYTES // per_frame)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _block_features(imgs: np.ndarray, params: FeatureParams, l_size: int, p_grid: int) -> np.ndarray:
    block = cbam_forward(resblock_forward(preprocess(imgs, l_size), params), params)
    return pooled_features(block, p_grid)


def extract_features(images, params: FeatureParams, l_size: int, p_grid: int) -> np.ndarray:
    """Images -> feature vectors: preprocess, resblock, attention, pooling.

    Accepts one (H, W, 3) image or a non-empty batch.  All four stages run on
    one block of `block_frames` frames at a time, so the temporaries stay
    cache-sized, and the blocks are spread over the available CPUs (see the
    module notes); a frame's features depend only on that frame, so the
    result equals the whole-batch composition bit for bit.  Returns
    (N, 3*(2+P^2)) for batches, a flat vector for a single image.
    """
    imgs, batched = check_image(images)
    if imgs.shape[0] == 0:
        raise DomainError("expected at least one image")
    step = block_frames(l_size, imgs.shape[1], imgs.shape[2])
    starts = range(0, imgs.shape[0], step)
    threads = min(_cpu_count(), MAX_THREADS, len(starts))
    slots = [None] * len(starts)
    failures = [None] * threads  # (block index, exception) of each thread's first failing block

    def work(k: int) -> None:
        for i in range(k, len(starts), threads):
            try:
                slots[i] = _block_features(imgs[starts[i] : starts[i] + step], params, l_size, p_grid)
            except Exception as exc:  # raised again in the caller below
                failures[k] = (i, exc)
                return

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, threads)]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    failed = [f for f in failures if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = np.concatenate(slots, axis=0)
    return out if batched else out[0]
