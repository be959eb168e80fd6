"""Binary PPM (P6, maxval 255) read/write for rendered face images."""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def as_uint8(img: np.ndarray) -> np.ndarray:
    """8-bit image data as uint8; values that are not integers in [0, 255] raise DomainError."""
    if img.dtype == np.uint8:
        return img
    # NaN fails every comparison, so it is rejected too
    if not np.all((img >= 0) & (img <= 255) & (np.floor(img) == img)):
        raise DomainError("image values must be integers in [0, 255]")
    return img.astype(np.uint8)


def require_image(img) -> np.ndarray:
    """Validate an (H, W, 3) 8-bit image; returns it as uint8."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DomainError(f"expected an (H, W, 3) image, got shape {img.shape}")
    if img.size == 0:
        raise DomainError("image is empty")
    return as_uint8(img)


def write_ppm(path, img) -> None:
    img = require_image(img)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise DomainError(f"{path}: not a binary PPM (P6) file")
    # Header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed; pixel data starts after a single whitespace
    # byte following maxval.
    tokens = []
    i = 2
    while len(tokens) < 3:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise DomainError(f"{path}: truncated PPM header")
        tokens.append(data[start:i])
    i += 1  # the single whitespace after maxval
    fields = []
    for name, token in zip(("width", "height", "maxval"), tokens):
        try:
            fields.append(int(token))
        except ValueError:
            raise DomainError(f"{path}: PPM {name} must be an integer, got {token.decode('latin-1')!r}") from None
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise DomainError(f"{path}: PPM width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise DomainError(f"{path}: only maxval 255 PPMs are supported, got {maxval}")
    pixels = data[i : i + w * h * 3]
    if len(pixels) != w * h * 3:
        raise DomainError(f"{path}: truncated PPM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).copy()
