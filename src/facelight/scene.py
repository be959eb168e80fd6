"""Scene construction and rendering.

A scene is a rectangular emitting screen, an ellipsoid-patch face, a camera
point and the optics configuration.  Rendering evaluates the reflected
intensity at every face grid point and quantizes to an 8-bit image whose
pixel (u, v) corresponds to face grid point (u, v).  No camera projection is
involved; the camera position only fixes the viewing direction per point.

The intensity is linear in the screen radiance, through one (face points,
emitters) weight matrix per scene.  `face_screen_weights` builds it in
blocks of face points sized by the package's `BLOCK_BYTES`, the budget the
feature stages use, so the geometry's (P, E, 3) temporaries stay in cache
and the peak memory is about the matrix itself (5.8 MiB traced for the
2.5 MiB default matrix, against 38 MiB for all pairs at once).

Conventions (world frame):
  * the screen is centered on its `origin` and spans `width` along its local
    u axis and `height` along its local v axis; for the default normal
    (0, 0, 1) these are +x (content left -> right) and +y (content bottom ->
    top), i.e. content pixel column 0 sits at -x and row 0 at +y,
  * the face fronts the screen: its patch is sampled around the -z direction,
    so face image columns run -x -> +x exactly like screen content columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, GeometryError, check
from .features import BLOCK_BYTES
from .optics import OpticsConfig, reflection_cosines, unit, vec3
from .ppm import require_image


def _screen_axes(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic in-plane (u, v) basis for a screen with unit normal `n`."""
    up = np.array([0.0, 1.0, 0.0])
    if abs(float(n @ up)) > 0.999:
        up = np.array([0.0, 0.0, 1.0])
    u = unit(np.cross(up, n))
    v = np.cross(n, u)
    return u, v


def _radiance(values, shape=None) -> np.ndarray:
    """`values` as a float (rows, cols, 3) radiance grid, of `shape` if given, >= 0 everywhere (NaN fails)."""
    rad = np.asarray(values, dtype=float)
    if rad.ndim != 3 or rad.shape[2] != 3 or rad.shape != (shape or rad.shape):
        raise DomainError(f"radiance must be {shape or '(rows, cols, 3)'}, got shape {rad.shape}")
    if not np.all(rad >= 0):
        raise DomainError("unit radiance must be >= 0")
    return rad


@dataclass(frozen=True)
class ScreenModel:
    """Grid of emitting cells on a plane, centered on `origin`.

    The grid's rows and cols are those of `radiance`, (rows, cols, 3);
    `positions` holds the cell centers in the same layout.
    """

    radiance: np.ndarray
    width: float
    height: float
    origin: np.ndarray
    normal: np.ndarray
    positions: np.ndarray = field(init=False)

    def __post_init__(self):
        rad = _radiance(self.radiance)
        rows, cols = check("screen.rows", rad.shape[0]), check("screen.cols", rad.shape[1])
        check("screen.width", self.width)
        check("screen.height", self.height)
        origin = check("screen.center", vec3(self.origin))
        n = unit(check("screen.normal", vec3(self.normal)))
        u, v = _screen_axes(n)
        us = ((np.arange(cols) + 0.5) / cols - 0.5) * self.width
        vs = (0.5 - (np.arange(rows) + 0.5) / rows) * self.height
        object.__setattr__(self, "radiance", rad)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "positions", origin + us[None, :, None] * u + vs[:, None, None] * v)

    @property
    def rows(self) -> int:
        return self.radiance.shape[0]

    @property
    def cols(self) -> int:
        return self.radiance.shape[1]


def _cell_means(content: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Mean RGB of each grid cell of 8-bit `content`; cell edges partition the image evenly.

    The cell sums are exact integer sums, so each mean has the bits of a
    float `mean` over the cell.
    """
    h, w = content.shape[:2]
    re = (np.arange(rows) * h) // rows
    ce = (np.arange(cols) * w) // cols
    sums = np.add.reduceat(np.add.reduceat(content.astype(np.int64), re, axis=0), ce, axis=1)
    counts = np.diff(re, append=h)[:, None, None] * np.diff(ce, append=w)[None, :, None]
    return sums / counts


def screen_from_image(
    content,
    physical: Tuple[float, float],
    grid: Tuple[int, int],
    origin,
    normal,
    radiance_scale: float = 100.0,
) -> ScreenModel:
    """Discretize an RGB content image into an emitting screen.

    Each grid cell's radiance is the mean RGB of its image cell scaled
    linearly: value / 255 * radiance_scale.  Content row 0 maps to the top of
    the screen, column 0 to its left edge (as seen looking along -normal).
    """
    content = require_image(content)
    rows, cols = check("screen.rows", grid[0]), check("screen.cols", grid[1])
    if rows > content.shape[0] or cols > content.shape[1]:
        raise DomainError(
            f"grid {rows}x{cols} exceeds content resolution {content.shape[0]}x{content.shape[1]}"
        )
    check("screen.radiance_scale", radiance_scale)
    radiance = _cell_means(content, rows, cols) / 255.0 * radiance_scale
    return ScreenModel(radiance, physical[0], physical[1], origin, normal)


@dataclass(frozen=True)
class FaceModel:
    """Ellipsoid patch facing -z (toward the screen), with uniform coefficients.

    The patch spans +-patch_degrees in azimuth (columns, -x -> +x) and
    elevation (rows, +y -> -y, so row 0 is the top of the face) on a
    grid = (rows, cols) of points.  `positions` and `normals` are (rows, cols,
    3); the normals are the analytic outward ellipsoid gradients, normalized.
    """

    center: np.ndarray
    semi_axes: Tuple[float, float, float]
    grid: Tuple[int, int]
    k_d: float = 0.55
    k_s: float = 0.25
    k_a: float = 0.35
    n_s: float = 2.0
    patch_degrees: float = 80.0
    positions: np.ndarray = field(init=False)
    normals: np.ndarray = field(init=False)

    def __post_init__(self):
        center = check("face.center", vec3(self.center))
        rows, cols = check("face.rows", self.grid[0]), check("face.cols", self.grid[1])
        for name in ("k_d", "k_s", "k_a", "n_s", "patch_degrees"):
            check(f"face.{name}", getattr(self, name))
        a, b, c = (float(s) for s in check("face.semi_axes", self.semi_axes))
        ext = np.deg2rad(self.patch_degrees)
        beta = np.linspace(ext, -ext, rows)  # elevation, top row first
        alpha = np.linspace(-ext, ext, cols)  # azimuth, -x first
        bb, aa = np.meshgrid(beta, alpha, indexing="ij")
        local = np.stack(
            [a * np.cos(bb) * np.sin(aa), b * np.sin(bb), -c * np.cos(bb) * np.cos(aa)], axis=2
        )
        grad = local / np.array([a * a, b * b, c * c])
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "semi_axes", (a, b, c))
        object.__setattr__(self, "positions", center + local)
        object.__setattr__(self, "normals", grad / np.linalg.norm(grad, axis=2, keepdims=True))


@dataclass(frozen=True)
class Scene:
    """Screen + face + camera + optics, with a fixed or automatic exposure."""

    screen: ScreenModel
    face: FaceModel
    camera: np.ndarray
    optics: OpticsConfig = field(default_factory=OpticsConfig)
    exposure: Union[float, str] = "auto"

    def __post_init__(self):
        object.__setattr__(self, "camera", check("camera", vec3(self.camera)))
        check("exposure", self.exposure)
        rel = (self.camera - self.face.center) / np.asarray(self.face.semi_axes)
        if float(rel @ rel) <= 1.0:
            raise GeometryError("camera lies inside the face ellipsoid")
        d0 = (self.face.positions - self.screen.origin) @ self.screen.normal
        if np.min(d0) <= 0:
            raise GeometryError("face must be strictly in front of the screen plane")

    @cached_property
    def weights(self) -> np.ndarray:
        """`face_screen_weights` of this scene, computed on first use."""
        return face_screen_weights(self)


def quantize(values: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255] and round half-up to uint8."""
    return np.clip(np.floor(np.asarray(values, dtype=float) + 0.5), 0, 255).astype(np.uint8)


def face_screen_weights(scene: Scene) -> np.ndarray:
    """Per (face point, screen unit) scalar weights of the linear render.

    The rendered linear intensity is `weights @ radiance + k_a * ambient`,
    with weights[p, e] = cos^g(te)/d^2 * (k_d cos(tr) + k_s cos^{n_s}(tm)),
    all cosines clamped at 0.  Shape (U*V, rows*cols).

    The rows are filled one block of face points at a time; a block holds
    about BLOCK_BYTES of its largest temporary, the (E, 3) float64 emitter
    directions of each point.  Each row depends only on its own face point,
    so the blocks give the same bits as the whole matrix at once.
    """
    face, screen = scene.face, scene.screen
    positions, normals = face.positions.reshape(-1, 3), face.normals.reshape(-1, 3)
    emitters = screen.positions.reshape(-1, 3)
    weights = np.empty((len(positions), len(emitters)))
    step = max(1, BLOCK_BYTES // (24 * len(emitters)))
    for a in range(0, len(positions), step):
        cos_e, cos_r, cos_m, d2 = reflection_cosines(
            positions[a : a + step], normals[a : a + step], emitters, screen.normal, scene.camera
        )
        falloff = cos_e**scene.optics.g / d2
        np.multiply(falloff, face.k_d * cos_r + face.k_s * cos_m**face.n_s, out=weights[a : a + step])
    return weights


def render_linear(scene: Scene, radiance: np.ndarray = None) -> np.ndarray:
    """Un-exposed linear intensity per face grid point, shape (U, V, 3), under `radiance` or the screen's own."""
    radiance = scene.screen.radiance if radiance is None else _radiance(radiance, scene.screen.radiance.shape)
    linear = scene.weights @ radiance.reshape(-1, 3) + scene.face.k_a * scene.optics.ambient
    return linear.reshape(*scene.face.grid, 3)


def resolve_exposure(scene: Scene, linear: np.ndarray) -> float:
    """Fixed exposure passes through; 'auto' maps the 99th percentile to 240."""
    if scene.exposure != "auto":
        return float(scene.exposure)
    p99 = float(np.percentile(linear, 99.0))
    if p99 <= 0.0:
        raise DomainError("auto exposure needs nonzero radiance or ambient light")
    return 240.0 / p99


def render_face(scene: Scene) -> np.ndarray:
    """Render the face to an (U, V, 3) uint8 image."""
    linear = render_linear(scene)
    return quantize(resolve_exposure(scene, linear) * linear)


# ---------------------------------------------------------------------------
# 2-D importance-weight curves along a screen segment


@dataclass(frozen=True)
class WeightCurve:
    """Diffuse/specular importance weights of one face point per screen unit."""

    unit_x: np.ndarray
    g_d: np.ndarray
    g_s: np.ndarray


def _pad3(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape == (2,):
        return np.array([v[0], v[1], 0.0])
    if v.shape == (3,):
        return v.copy()
    raise DomainError(f"expected a 2- or 3-vector, got shape {v.shape}")


def simulate_weight_curves(
    unit_xs: Sequence[float],
    points: Sequence[Tuple[Sequence[float], Sequence[float]]],
    camera_x: float,
    g: float = 30.0,
    n_s: float = 2.0,
) -> List[WeightCurve]:
    """Importance-weight curves along a screen segment.

    The screen is the segment of `unit_xs` on the x axis with normal +y; the
    camera sits on the x axis at `camera_x`.  Each entry of `points` is a
    (position, normal) pair with y != 0; 2-vectors are taken in the x-y
    simulation plane, 3-vectors allow out-of-plane normals.  Returns one
    curve of (G_d, G_s) per point, sampled at every screen unit.
    """
    xs = np.asarray(unit_xs, dtype=float)
    if xs.ndim != 1:
        raise DomainError(f"screen unit positions must be 1-D, got shape {xs.shape}")
    check("weight_sim.units", xs.size)
    if not np.all(np.isfinite(xs)):
        raise DomainError("screen unit positions must be finite")
    check("weight_sim.camera_x", camera_x)
    check("weight_sim.points", [np.ravel(pos).tolist() + np.ravel(nrm).tolist() for pos, nrm in points])
    screen_n = np.array([0.0, 1.0, 0.0])
    cam = np.array([float(camera_x), 0.0, 0.0])
    epos = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
    curves = []
    for pos, nrm in points:
        p = _pad3(pos)
        if p[1] == 0.0:
            raise GeometryError("face point lies on the screen line")
        n = unit(_pad3(nrm))
        cosines = reflection_cosines(p[None], n[None], epos, screen_n, cam)
        cos_e, cos_r, cos_m = (c[0] for c in cosines[:3])
        w = cos_e**g * cos_e * cos_e
        curves.append(WeightCurve(xs.copy(), w * cos_r, w * cos_m**n_s))
    return curves


def count_local_maxima(ys) -> int:
    """Number of local maxima of a sampled curve; plateaus count once."""
    ys = np.asarray(ys, dtype=float)
    slopes = np.sign(np.diff(ys))
    filled = []
    prev = 0.0
    for s in slopes:
        if s != 0.0:
            prev = s
        filled.append(prev)
    filled = np.asarray(filled)
    nonzero = filled[filled != 0]
    if nonzero.size == 0:
        return 1  # constant curve: a single (degenerate) maximum
    count = int(np.sum((nonzero[:-1] > 0) & (nonzero[1:] < 0)))
    if nonzero[0] < 0:
        count += 1  # falling from the left edge
    if nonzero[-1] > 0:
        count += 1  # rising into the right edge
    return count


def peak_location(curve: WeightCurve, which: str = "g_d") -> float:
    ys = getattr(curve, which)
    return float(curve.unit_x[int(np.argmax(ys))])


def fwhm(curve: WeightCurve, which: str = "g_d") -> float:
    """Full width at half maximum with linear interpolation at the crossings.

    A side that never falls below half maximum contributes its end of the
    sampled interval.
    """
    xs = curve.unit_x
    ys = getattr(curve, which)
    k = int(np.argmax(ys))
    half = ys[k] / 2.0
    if ys[k] <= 0.0:
        return 0.0

    left = xs[0]
    for i in range(k, 0, -1):
        if ys[i - 1] < half <= ys[i]:
            t = (half - ys[i - 1]) / (ys[i] - ys[i - 1])
            left = xs[i - 1] + t * (xs[i] - xs[i - 1])
            break
    right = xs[-1]
    for i in range(k, len(ys) - 1):
        if ys[i + 1] < half <= ys[i]:
            t = (ys[i] - half) / (ys[i] - ys[i + 1])
            right = xs[i] + t * (xs[i + 1] - xs[i])
            break
    return float(right - left)


def write_weight_curves_csv(path, curves: Sequence[WeightCurve]) -> None:
    """One `unit_x,G_d,G_s` block per curve, blank-line separated."""
    blocks = []
    for curve in curves:
        lines = ["unit_x,G_d,G_s"]
        for x, gd, gs in zip(curve.unit_x, curve.g_d, curve.g_s):
            lines.append(f"{float(x)!r},{float(gd)!r},{float(gs)!r}")
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n\n".join(blocks))
        fh.write("\n")
