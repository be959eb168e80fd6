"""Per-emitter scalar references for the reflection geometry kernel.

Plain Python loops over emitters and scalar cosine helpers, independent of
`facelight.optics.reflection_cosines`, so they serve as oracles for the
vectorized weights, weight curves and both reflected-intensity forms.  Two
whole-array references sit beside them: the weight matrix computed for every
(face point, emitter) pair at once, and the screen's cell means as one
`mean` per cell.
"""

import math

import numpy as np

from facelight.errors import DomainError, GeometryError
from facelight.optics import EmitterUnit, FacePoint, OpticsConfig, _require_unit, reflection_cosines, unit, vec3

HALF_PI = math.pi / 2.0


def emitter_units(screen):
    """Every screen cell as an EmitterUnit, row-major."""
    return [
        EmitterUnit(screen.positions[i, j], screen.radiance[i, j])
        for i in range(screen.rows)
        for j in range(screen.cols)
    ]


def face_point(face, u, v):
    """Face grid point (u, v) with the face's reflection coefficients."""
    return FacePoint(face.positions[u, v], face.normals[u, v], face.k_d, face.k_s, face.k_a, face.n_s)


def face_screen_weights(scene):
    """`scene.face_screen_weights` for all (face point, emitter) pairs at once, shape (U*V, rows*cols)."""
    face, screen = scene.face, scene.screen
    cos_e, cos_r, cos_m, d2 = reflection_cosines(
        face.positions.reshape(-1, 3),
        face.normals.reshape(-1, 3),
        screen.positions.reshape(-1, 3),
        screen.normal,
        scene.camera,
    )
    falloff = cos_e**scene.optics.g / d2
    return falloff * (face.k_d * cos_r + face.k_s * cos_m**face.n_s)


def cell_means(content, rows, cols):
    """Mean RGB of each grid cell, one float `mean` per cell; cell edges partition the image evenly."""
    content = np.asarray(content, dtype=float)
    h, w = content.shape[:2]
    re = (np.arange(rows + 1) * h) // rows
    ce = (np.arange(cols + 1) * w) // cols
    out = np.empty((rows, cols, 3), dtype=float)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = content[re[i] : re[i + 1], ce[j] : ce[j + 1]].reshape(-1, 3).mean(axis=0)
    return out


def angular_distribution(theta: float, g: float) -> float:
    """Emitter falloff cos^g(theta) for theta in [0, pi/2]."""
    if not 0.0 <= theta <= HALF_PI:
        raise DomainError(f"theta must lie in [0, pi/2], got {theta}")
    if g < 0:
        raise DomainError(f"exponent g must be >= 0, got {g}")
    return math.cos(theta) ** g


def incident_intensity(i_e, theta_e: float, d_ef: float, g: float):
    """Intensity arriving at a face point: I_e * cos^g(theta_e) / d^2.

    i_e may be a scalar or a per-channel vector; the result has the same shape.
    """
    if d_ef <= 0.0:
        raise GeometryError(f"emitter-face distance must be > 0, got {d_ef}")
    w = angular_distribution(theta_e, g)
    return np.asarray(i_e, dtype=float) * (w / (d_ef * d_ef))


def mirror_direction(incident: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Reflect an incident direction about a surface normal: d - 2(d.n)n.

    `incident` points from the emitter toward the surface; both inputs must be
    unit vectors.  The result is unit-norm and reflecting it again returns the
    incident direction.
    """
    d = _require_unit(incident, "incident direction")
    n = _require_unit(normal, "surface normal")
    return d - 2.0 * float(d @ n) * n


def diffuse_weight(theta_e: float, theta_r: float, g: float) -> float:
    """Per-emitter diffuse importance weight cos^g(te) * cos^2(te) * cos(tr)."""
    if not 0.0 <= theta_r <= HALF_PI:
        raise DomainError(f"theta_r must lie in [0, pi/2], got {theta_r}")
    w = angular_distribution(theta_e, g)
    ce = math.cos(theta_e)
    return w * ce * ce * math.cos(theta_r)


def specular_weight(theta_e: float, theta_m: float, g: float, n_s: float) -> float:
    """Per-emitter specular importance weight cos^g(te) * cos^2(te) * cos^{n_s}(tm).

    theta_m may reach pi; cos(theta_m) is clamped at 0 so back-facing specular
    lobes contribute nothing.
    """
    if not 0.0 <= theta_m <= math.pi:
        raise DomainError(f"theta_m must lie in [0, pi], got {theta_m}")
    w = angular_distribution(theta_e, g)
    ce = math.cos(theta_e)
    cm = max(math.cos(theta_m), 0.0)
    return w * ce * ce * cm**n_s


def _cos_clamped(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two unit vectors, clamped into [0, 1]."""
    return min(max(float(a @ b), 0.0), 1.0)


def reflected_intensity(
    face_point: FacePoint,
    emitters,
    screen_normal: np.ndarray,
    camera: np.ndarray,
    cfg: OpticsConfig,
) -> np.ndarray:
    """Total reflected intensity toward the camera, per RGB channel (distance form)."""
    n_e = _require_unit(screen_normal, "screen normal")
    camera = vec3(camera)
    f = face_point.position
    view = camera - f
    if np.linalg.norm(view) == 0.0:
        raise GeometryError("camera coincides with the face point")
    v_hat = unit(view)

    emitters = list(emitters)
    if not emitters and not np.any(cfg.ambient > 0):
        raise DomainError("no emitters and no ambient light: nothing to reflect")

    total = face_point.k_a * cfg.ambient.copy()
    n_f = face_point.normal
    for em in emitters:
        ef = f - em.position
        d = float(np.linalg.norm(ef))
        if d == 0.0:
            raise GeometryError("face point coincides with an emitter")
        e_hat = ef / d
        cos_e = _cos_clamped(e_hat, n_e)
        i_f = em.radiance * (cos_e**cfg.g / (d * d))
        cos_r = _cos_clamped(-e_hat, n_f)
        m_hat = e_hat - 2.0 * float(e_hat @ n_f) * n_f
        cos_m = _cos_clamped(m_hat, v_hat)
        total = total + i_f * (face_point.k_d * cos_r + face_point.k_s * cos_m**face_point.n_s)
    return total


def reflected_intensity_planar(
    face_point: FacePoint,
    emitters,
    screen_normal: np.ndarray,
    screen_origin: np.ndarray,
    camera: np.ndarray,
    cfg: OpticsConfig,
) -> np.ndarray:
    """Total reflected intensity via the importance-weight form for a planar screen.

    Requires the face point strictly in front of the plane through
    `screen_origin` with normal `screen_normal`.
    """
    n_e = _require_unit(screen_normal, "screen normal")
    camera = vec3(camera)
    origin = vec3(screen_origin)
    f = face_point.position
    d0 = float((f - origin) @ n_e)
    if d0 <= 0.0:
        raise GeometryError("face point must be strictly in front of the screen plane")
    view = camera - f
    if np.linalg.norm(view) == 0.0:
        raise GeometryError("camera coincides with the face point")
    v_hat = unit(view)

    emitters = list(emitters)
    if not emitters and not np.any(cfg.ambient > 0):
        raise DomainError("no emitters and no ambient light: nothing to reflect")

    n_f = face_point.normal
    acc = np.zeros(3)
    for em in emitters:
        e_hat = unit(f - em.position)
        cos_e = _cos_clamped(e_hat, n_e)
        cos_r = _cos_clamped(-e_hat, n_f)
        m_hat = e_hat - 2.0 * float(e_hat @ n_f) * n_f
        cos_m = _cos_clamped(m_hat, v_hat)
        w = cos_e**cfg.g * cos_e * cos_e
        g_d = w * cos_r
        g_s = w * cos_m**face_point.n_s
        acc = acc + em.radiance * (face_point.k_d * g_d + face_point.k_s * g_s)
    return acc / (d0 * d0) + face_point.k_a * cfg.ambient
