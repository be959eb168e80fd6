"""Statistics over rendered face images.

Provides a two-sample Kolmogorov-Smirnov test (exact statistic, asymptotic
p-value) and the minimally-differentiable-content search: shrink a
left-red/right-blue probe image on an otherwise dark screen and find how
small it can get while the two face halves still look statistically
different.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, check
from .ppm import require_image
from .scene import Scene, quantize, render_linear, resolve_exposure

P_SIGNIFICANT = 0.05
RATIO_THRESHOLDS = np.arange(1, 100) / 100.0  # blue-to-red thresholds 1% .. 99% in 1% steps


def ks_statistic(x, y) -> float:
    """Two-sample KS statistic: sup over values of |ECDF_x - ECDF_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise DomainError("KS samples must be non-empty")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_pvalue(d: float, n: int, m: int) -> float:
    """Asymptotic two-sample KS p-value.

    Uses the effective size n_e = nm/(n+m), lambda = (sqrt(n_e) + 0.12 +
    0.11/sqrt(n_e)) * d and the Kolmogorov survival series
    2 * sum_k (-1)^{k-1} exp(-2 k^2 lambda^2), truncated once a term drops
    below 1e-12.  If the series has not converged after 10^4 terms (lambda
    effectively 0) the p-value is 1.  The result is clamped into [0, 1].
    """
    if not 0.0 <= d <= 1.0:
        raise DomainError(f"KS statistic must lie in [0, 1], got {d}")
    if n < 1 or m < 1:
        raise DomainError("sample sizes must be >= 1")
    n_e = n * m / (n + m)
    lam = (np.sqrt(n_e) + 0.12 + 0.11 / np.sqrt(n_e)) * d
    if lam < 3.7e-4:
        # The leading term cannot drop below 1e-12 within the iteration cap.
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 10_001):
        term = np.exp(-2.0 * k * k * lam * lam)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    else:
        return 1.0
    return float(min(max(2.0 * total, 0.0), 1.0))


def half_ratio_samples(image) -> Tuple[np.ndarray, np.ndarray]:
    """Blue-to-red ratios of the left and right image halves.

    The split is at the vertical midline (a middle column of an odd-width
    image belongs to neither half).  Pixels with B = R = 0 are excluded;
    R = 0 with B > 0 yields +inf.
    """
    image = require_image(image)
    w = image.shape[1]
    halves = []
    for sl in (np.s_[:, : w // 2], np.s_[:, (w + 1) // 2 :]):
        r = image[sl][:, :, 0].astype(float).ravel()
        b = image[sl][:, :, 2].astype(float).ravel()
        keep = (r > 0) | (b > 0)
        r, b = r[keep], b[keep]
        with np.errstate(divide="ignore"):
            halves.append(np.where(r > 0, b / np.maximum(r, 1e-300), np.inf))
    return halves[0], halves[1]


@dataclass(frozen=True)
class MdcResult:
    """Min p-value per probe fraction plus the largest statistically-quiet fraction."""

    fractions: Tuple[float, ...]
    min_p: Tuple[float, ...]
    boundary: Optional[float]


def probe_content(rows: int, cols: int, fraction: float) -> np.ndarray:
    """Dark screen content with a centered left-red/right-blue patch.

    The patch covers `fraction` of the screen area (both dimensions scale by
    sqrt(fraction)); its column count is forced even so red and blue always
    get equal areas split at the patch middle.
    """
    check("mdc.fractions", [fraction])
    content = np.zeros((rows, cols, 3), dtype=np.uint8)
    scale = np.sqrt(fraction)
    ph = max(1, int(round(rows * scale)))
    pw = min(cols - cols % 2, max(2, 2 * int(round(cols * scale / 2.0))))
    r0 = (rows - ph) // 2
    c0 = (cols - pw) // 2
    content[r0 : r0 + ph, c0 : c0 + pw // 2, 0] = 255
    content[r0 : r0 + ph, c0 + pw // 2 : c0 + pw, 2] = 255
    return content


def add_pixel_noise(image, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian pixel noise; sigma is a fraction of full scale (255)."""
    image = require_image(image)
    if sigma <= 0:
        return image.copy()
    noisy = image.astype(float) + rng.normal(0.0, sigma * 255.0, size=image.shape)
    return quantize(noisy)


def mdc_search(
    scene_template: Scene,
    fractions: Sequence[float],
    seed: int = 0,
    noise_sigma: float = 0.05,
    radiance_scale: float = 100.0,
) -> MdcResult:
    """Minimum KS p-value between face halves per probe-content area fraction.

    For each fraction the probe content is rendered on the template scene
    (auto exposure is anchored once, on the full-screen probe, so shrinking
    the probe does not re-brighten the image), seeded pixel noise is applied,
    and for every ratio threshold in `RATIO_THRESHOLDS` the left/right halves
    are compared with a KS test on the thresholded ratio samples.  The
    reported `boundary` is the largest fraction whose minimum p-value is still
    >= 0.05, i.e. the largest probe the test cannot distinguish from a dark
    screen; None if every fraction is distinguishable.
    """
    fractions = check("mdc.fractions", [float(f) for f in fractions])
    check("screen.radiance_scale", radiance_scale)

    def linear(fraction):
        content = probe_content(scene_template.screen.rows, scene_template.screen.cols, fraction)
        return render_linear(scene_template, content.astype(float) / 255.0 * radiance_scale)

    exposure = resolve_exposure(scene_template, linear(1.0))
    min_ps = []
    for idx, fraction in enumerate(fractions):
        image = quantize(exposure * linear(fraction))
        rng = np.random.default_rng([seed, idx])
        noisy = add_pixel_noise(image, noise_sigma, rng)
        left, right = half_ratio_samples(noisy)
        if left.size == 0 or right.size == 0:
            raise DomainError("face halves contain no usable pixels; raise ambient light")
        best = 1.0
        for thr in RATIO_THRESHOLDS:
            x = (left > thr).astype(float)
            y = (right > thr).astype(float)
            d = ks_statistic(x, y)
            best = min(best, ks_pvalue(d, x.size, y.size))
        min_ps.append(best)

    boundary = None
    for f, p in sorted(zip(fractions, min_ps)):
        if p >= P_SIGNIFICANT:
            boundary = f
    return MdcResult(tuple(fractions), tuple(min_ps), boundary)


def write_mdc_csv(path, result: MdcResult) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "min_p"])
        for f, p in zip(result.fractions, result.min_p):
            writer.writerow([repr(float(f)), repr(float(p))])
