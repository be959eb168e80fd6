"""Face-image preprocessing: 2x upscale, square resize, per-channel z-scoring.

All resampling is bilinear with half-pixel centers and edge clamping, so a
same-size resize is an exact identity.  Functions accept a single (H, W, 3)
uint8 image or a batch (N, H, W, 3); the batch path is the same code and the
same arithmetic.  Normalized tensors are channel-major float64 arrays
(3, H, W).

`upscale2x` is the bilinear 2x resample done in integers.  Its taps are only
0, 1/4 and 3/4: after padding each axis by its edge pixel, output 2k is
p[k] + 3 p[k+1] and output 2k+1 is 3 p[k+1] + p[k+2], both over 4.  The two
axis passes build 16 times the bilinear value as an exact uint16 sum s of at
most 16 * 255, and (s + 8) >> 4 is the float path's half-up rounding of
s / 16, so the bytes equal `bilinear_resize` to twice the size (the tests
hold it to that) at a quarter of the memory per value.

Both resamplers take 8-bit input: values that are not integers in [0, 255]
(NaN and infinities included) raise DomainError instead of being clamped.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check
from .ppm import as_uint8


def check_image(img) -> tuple[np.ndarray, bool]:
    """The image data as a batch (N, H, W, 3), and whether it was one."""
    img = np.asarray(img)
    batched = img.ndim == 4
    if not batched:
        img = img[None]
    if img.ndim != 4 or img.shape[3] != 3 or img.shape[1] < 1 or img.shape[2] < 1:
        raise DomainError(f"expected (H, W, 3) or (N, H, W, 3) image data, got {np.asarray(img).shape}")
    return img, batched


def _axis_taps(n_in: int, n_out: int):
    """Source indices and lerp weights for one bilinear axis (half-pixel centers)."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    return i0, i1, t


def bilinear_resize(image, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample to (out_h, out_w); output rounds half-up to uint8.

    Columns are interpolated once over the source rows, then each output
    row blends two of those.  Every output element sees the same float
    expression as when source rows are gathered first, so the bytes are
    the same either way; this order only does less work.
    """
    if out_h < 1 or out_w < 1:
        raise DomainError("output dimensions must be >= 1")
    img, batched = check_image(image)
    img = as_uint8(img)
    r0, r1, tr = _axis_taps(img.shape[1], out_h)
    c0, c1, tc = _axis_taps(img.shape[2], out_w)
    tc = tc[None, None, :, None]
    cols = img[:, :, c0] * (1 - tc) + img[:, :, c1] * tc
    tr = tr[None, :, None, None]
    out = cols[:, r0] * (1 - tr) + cols[:, r1] * tr
    # blends of 8-bit values stay within [0, 255], so the rounding needs no clamp
    out = np.floor(out + 0.5).astype(np.uint8)
    return out if batched else out[0]


def upscale2x(image) -> np.ndarray:
    """Double both image dimensions (stand-in for learned super-resolution).

    Exact integer form of `bilinear_resize` to (2H, 2W); see the module notes.
    """
    img, batched = check_image(image)
    img = as_uint8(img)
    n, h, w, c = img.shape
    p = np.empty((n, h, w + 2, c), dtype=np.uint16)  # edge-padded columns
    p[:, :, 1:-1] = img
    p[:, :, 0] = img[:, :, 0]
    p[:, :, -1] = img[:, :, -1]
    # the column pass fills rows 1..h; rows 0 and h+1 repeat the edge rows for the row pass
    cols = np.empty((n, h + 2, 2 * w, c), dtype=np.uint16)
    mid = 3 * p[:, :, 1:-1]
    np.add(p[:, :, :-2], mid, out=cols[:, 1:-1, 0::2])
    np.add(mid, p[:, :, 2:], out=cols[:, 1:-1, 1::2])
    cols[:, 0] = cols[:, 1]
    cols[:, -1] = cols[:, -2]
    out = np.empty((n, 2 * h, 2 * w, c), dtype=np.uint16)
    mid = 3 * cols[:, 1:-1]
    np.add(cols[:, :-2], mid, out=out[:, 0::2])
    np.add(mid, cols[:, 2:], out=out[:, 1::2])
    out += 8
    out >>= 4
    out = out.astype(np.uint8)
    return out if batched else out[0]


def resize(image, l_size: int) -> np.ndarray:
    """Resample to a square l_size x l_size image."""
    check("l_size", l_size)
    return bilinear_resize(image, l_size, l_size)


def znorm(image) -> np.ndarray:
    """Per-channel z-score normalization to a (3, H, W) float tensor.

    Uses the population standard deviation; a constant channel maps to zeros.
    Batched input yields (N, 3, H, W).
    """
    img, batched = check_image(image)
    chw = img.astype(float).transpose(0, 3, 1, 2)
    mean = chw.mean(axis=(2, 3), keepdims=True)
    std = chw.std(axis=(2, 3), keepdims=True)
    out = np.where(std > 0, (chw - mean) / np.where(std > 0, std, 1.0), 0.0)
    return out if batched else out[0]


def preprocess(image, l_size: int) -> np.ndarray:
    """Full preprocessing chain: upscale 2x, resize to l_size, z-normalize."""
    return znorm(resize(upscale2x(image), l_size))
