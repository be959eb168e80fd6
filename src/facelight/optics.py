"""Reflection physics for a light-emitting screen illuminating a face.

Every screen cell is a directional point emitter whose output falls off as
cos^g of the off-normal angle.  A face point reflects the incident light with
a diffuse term (cos of the receive angle), a specular term (cos^n_s of the
angle between the mirror direction and the viewing direction) and a constant
ambient term:

    per emitter:  I_f = I_e * cos^g(theta_e) / d^2
    total:        sum k_d * I_f * cos(theta_r)
                + sum k_s * I_f * cos^{n_s}(theta_m)
                + k_a * I_a

One kernel, `reflection_cosines`, computes the geometry of every (face point,
emitter) pair: the mirror direction, the three cosines clamped into [0, 1]
(so occluded and back-facing terms contribute nothing) and the squared
distance.  The renderer's weight matrix (`scene.face_screen_weights`, which
calls it on one block of face points at a time), the 2-D weight curves
(`scene.simulate_weight_curves`) and both forms of the total below are built
on it.  Its temporaries are (P, E) and (P, E, 3) float64 arrays for P face
points and E emitters, so a caller bounds its memory by the P it passes.

For a planar screen the perpendicular distance from the face point to the
screen plane is d0 = d * cos(theta_e), so the total can also be written with
per-emitter importance weights:

    total = (1/d0^2) * sum I_e * (k_d * G_d + k_s * G_s) + k_a * I_a
    G_d = cos^g(theta_e) * cos^2(theta_e) * cos(theta_r)
    G_s = cos^g(theta_e) * cos^2(theta_e) * cos^{n_s}(theta_m)

`reflected_intensity` is the distance form and `reflected_intensity_planar`
the importance-weight form; they agree to ~1e-9 relative on planar screens
and the agreement is enforced by tests.  The per-emitter scalar formulas are
kept as loop references in tests/oracle_optics.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, check

# Defaults for the emitter falloff exponent and the shininess exponent.
DEFAULT_G = 30.0
DEFAULT_SHININESS = 2.0

_UNIT_TOL = 1e-6


def vec3(x, y=None, z=None) -> np.ndarray:
    """Build a float (3,) vector from components or any length-3 sequence."""
    if y is None:
        v = np.asarray(x, dtype=float)
        if v.shape != (3,):
            raise DomainError(f"expected a 3-vector, got shape {v.shape}")
        return v
    return np.array([x, y, z], dtype=float)


def unit(v) -> np.ndarray:
    """Normalize to unit length; a vector of zero or overflowing length is an error."""
    v = np.asarray(v, dtype=float)
    n = math.hypot(*v)  # scaled, so neither a huge nor a tiny component under- or overflows
    if not 0 < n < math.inf:
        raise GeometryError(f"cannot normalize a vector of length {n}")
    return v / n


def _require_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise DomainError(f"{name} must be unit-norm, |v| = {np.linalg.norm(v)!r}")
    return v


@dataclass(frozen=True)
class EmitterUnit:
    """One light-emitting screen cell: position (m) and per-RGB radiance (>= 0)."""

    position: np.ndarray
    radiance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", vec3(self.position))
        object.__setattr__(self, "radiance", vec3(self.radiance))
        if np.any(self.radiance < 0):
            raise DomainError("emitter radiance components must be >= 0")


@dataclass(frozen=True)
class FacePoint:
    """A surface sample of the face: position, outward unit normal, reflection coefficients."""

    position: np.ndarray
    normal: np.ndarray
    k_d: float = 0.5
    k_s: float = 0.3
    k_a: float = 0.3
    n_s: float = DEFAULT_SHININESS

    def __post_init__(self):
        object.__setattr__(self, "position", vec3(self.position))
        object.__setattr__(self, "normal", _require_unit(self.normal, "face normal"))
        for name in ("k_d", "k_s", "k_a", "n_s"):
            check(f"face.{name}", getattr(self, name))


def _default_ambient() -> np.ndarray:
    return np.zeros(3)


@dataclass(frozen=True)
class OpticsConfig:
    """Emitter falloff exponent g and the ambient intensity per RGB channel."""

    g: float = DEFAULT_G
    ambient: np.ndarray = field(default_factory=_default_ambient)

    def __post_init__(self):
        check("optics.g", self.g)
        object.__setattr__(self, "ambient", check("optics.ambient", vec3(self.ambient)))


def reflection_cosines(face_pos, face_nrm, emitter_pos, screen_normal, camera):
    """Reflection geometry of every (face point, emitter) pair.

    face_pos and face_nrm are (P, 3) with unit normals, emitter_pos is (E, 3),
    screen_normal is the unit emitter normal and camera a 3-vector.  Returns
    (cos_e, cos_r, cos_m, d2), each (P, E): the emitter off-normal angle, the
    receive angle at the face normal, the angle between the mirror direction
    and the view toward the camera (cosines clamped into [0, 1]), and the
    squared emitter-face distance.
    """
    ef = face_pos[:, None, :] - emitter_pos[None, :, :]  # emitter -> face
    d2 = np.einsum("peq,peq->pe", ef, ef)
    if np.any(d2 == 0.0):
        raise GeometryError("a face point coincides with an emitter")
    e_hat = ef / np.sqrt(d2)[:, :, None]
    view = camera - face_pos
    vn = np.linalg.norm(view, axis=1)
    if np.any(vn == 0.0):
        raise GeometryError("camera coincides with a face point")
    v_hat = view / vn[:, None]

    dot_en = np.einsum("peq,pq->pe", e_hat, face_nrm)
    m_hat = e_hat - 2.0 * dot_en[:, :, None] * face_nrm[:, None, :]
    cos_e = np.clip(e_hat @ screen_normal, 0.0, 1.0)
    cos_r = np.clip(-dot_en, 0.0, 1.0)
    cos_m = np.clip(np.einsum("peq,pq->pe", m_hat, v_hat), 0.0, 1.0)
    return cos_e, cos_r, cos_m, d2


def _point_geometry(face_point: FacePoint, emitters, screen_normal, camera, cfg: OpticsConfig):
    """Emitter radiances (E, 3) and the (E,) kernel cosines and d2 of one face point."""
    emitters = list(emitters)
    positions = np.array([em.position for em in emitters]).reshape(-1, 3)
    radiance = np.array([em.radiance for em in emitters]).reshape(-1, 3)
    cosines = reflection_cosines(
        face_point.position[None], face_point.normal[None], positions, screen_normal, vec3(camera)
    )
    if not emitters and not np.any(cfg.ambient > 0):
        raise DomainError("no emitters and no ambient light: nothing to reflect")
    return radiance, [c[0] for c in cosines]


def reflected_intensity(
    face_point: FacePoint,
    emitters,
    screen_normal: np.ndarray,
    camera: np.ndarray,
    cfg: OpticsConfig,
) -> np.ndarray:
    """Total reflected intensity toward the camera, per RGB channel (distance form)."""
    n_e = _require_unit(screen_normal, "screen normal")
    radiance, (cos_e, cos_r, cos_m, d2) = _point_geometry(face_point, emitters, n_e, camera, cfg)
    fp = face_point
    w = cos_e**cfg.g / d2 * (fp.k_d * cos_r + fp.k_s * cos_m**fp.n_s)
    return w @ radiance + fp.k_a * cfg.ambient


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
    d0 = float((face_point.position - vec3(screen_origin)) @ n_e)
    if d0 <= 0.0:
        raise GeometryError("face point must be strictly in front of the screen plane")
    radiance, (cos_e, cos_r, cos_m, _) = _point_geometry(face_point, emitters, n_e, camera, cfg)
    fp = face_point
    w = cos_e ** (cfg.g + 2.0) * (fp.k_d * cos_r + fp.k_s * cos_m**fp.n_s)  # k_d G_d + k_s G_s
    return w @ radiance / (d0 * d0) + fp.k_a * cfg.ambient
