import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_optics as oracle
from oracle_optics import (
    angular_distribution,
    diffuse_weight,
    incident_intensity,
    mirror_direction,
    specular_weight,
)

from facelight.errors import DomainError, GeometryError
from facelight.optics import (
    EmitterUnit,
    FacePoint,
    OpticsConfig,
    reflected_intensity,
    reflected_intensity_planar,
    reflection_cosines,
    unit,
    vec3,
)


def test_angular_distribution_on_axis():
    assert angular_distribution(0.0, 30.0) == 1.0


def test_angular_distribution_grazing():
    assert angular_distribution(math.pi / 2, 30.0) == pytest.approx(0.0, abs=1e-30)


def test_angular_distribution_sixty_degrees():
    expected = math.cos(math.pi / 3) ** 30
    assert angular_distribution(math.pi / 3, 30.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(9.3132e-10, rel=1e-4)


def test_angular_distribution_monotone_nonincreasing():
    thetas = np.linspace(0.0, math.pi / 2, 50)
    values = [angular_distribution(t, 30.0) for t in thetas]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("theta", [-0.1, math.pi / 2 + 0.01, 3.0])
def test_angular_distribution_domain(theta):
    with pytest.raises(DomainError):
        angular_distribution(theta, 30.0)


def test_incident_intensity_on_axis_inverse_square():
    assert incident_intensity(100.0, 0.0, 2.0, 30.0) == pytest.approx(25.0, rel=1e-12)


def test_incident_intensity_dark_unit():
    assert incident_intensity(0.0, 0.3, 1.0, 30.0) == 0.0


def test_incident_intensity_oblique():
    got = incident_intensity(100.0, math.pi / 3, 1.0, 30.0)
    assert got == pytest.approx(100.0 * math.cos(math.pi / 3) ** 30, rel=1e-12)
    assert got == pytest.approx(9.3132e-8, rel=1e-4)


def test_incident_intensity_per_channel():
    got = incident_intensity([100.0, 50.0, 0.0], 0.0, 2.0, 30.0)
    assert np.allclose(got, [25.0, 12.5, 0.0])


def test_incident_intensity_bad_distance():
    with pytest.raises(GeometryError):
        incident_intensity(1.0, 0.0, 0.0, 30.0)


def test_mirror_head_on():
    got = mirror_direction(vec3(0, 0, -1), vec3(0, 0, 1))
    assert np.allclose(got, [0, 0, 1], atol=1e-12)


def test_mirror_grazing_unchanged():
    got = mirror_direction(vec3(1, 0, 0), vec3(0, 0, 1))
    assert np.allclose(got, [1, 0, 0], atol=1e-12)


def test_mirror_forty_five_degrees():
    s = math.sqrt(2) / 2
    got = mirror_direction(vec3(s, 0, -s), vec3(0, 0, 1))
    assert np.allclose(got, [s, 0, s], atol=1e-12)


def test_mirror_rejects_non_unit():
    with pytest.raises(DomainError):
        mirror_direction(vec3(2, 0, 0), vec3(0, 0, 1))
    with pytest.raises(DomainError):
        mirror_direction(vec3(1, 0, 0), vec3(0, 0, 0.5))


def test_unit_of_huge_and_tiny_vectors():
    # the length is taken without squaring each component, which would over- or underflow
    assert unit([1e200, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0]
    assert unit([0.0, 0.0, 1e-310]).tolist() == [0.0, 0.0, 1.0]
    assert unit([3e200, 0.0, 4e200]) == pytest.approx([0.6, 0.0, 0.8], abs=1e-15)
    for bad, length in (([0.0, 0.0, 0.0], "0.0"), ([1.5e308, 1.5e308, 0.0], "inf"), ([math.nan, 0.0, 1.0], "nan")):
        with pytest.raises(GeometryError, match=f"^cannot normalize a vector of length {length}$"):
            unit(bad)


@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_mirror_involution_and_angle(d_raw, n_raw):
    d = np.asarray(d_raw)
    n = np.asarray(n_raw)
    if np.linalg.norm(d) < 1e-3 or np.linalg.norm(n) < 1e-3:
        return
    d, n = unit(d), unit(n)
    m = mirror_direction(d, n)
    assert abs(np.linalg.norm(m) - 1.0) < 1e-9
    # reflecting twice restores the incident direction
    assert np.allclose(mirror_direction(m, n), d, atol=1e-12)
    # incidence and reflection angles match about the normal
    assert float(-d @ n) == pytest.approx(float(m @ n), abs=1e-9)


def test_diffuse_weight_peak():
    assert diffuse_weight(0.0, 0.0, 30.0) == 1.0


def test_diffuse_weight_grazing_emitter():
    assert diffuse_weight(math.pi / 2, 0.0, 30.0) == pytest.approx(0.0, abs=1e-30)


def test_diffuse_weight_oblique():
    got = diffuse_weight(math.pi / 4, math.pi / 3, 30.0)
    assert got == pytest.approx(math.cos(math.pi / 4) ** 32 * 0.5, rel=1e-12)
    assert got == pytest.approx(7.6294e-6, rel=1e-4)


def test_specular_weight_peak():
    assert specular_weight(0.0, 0.0, 30.0, 2.0) == 1.0


def test_specular_weight_perpendicular_view():
    assert specular_weight(0.0, math.pi / 2, 30.0, 2.0) == pytest.approx(0.0, abs=1e-30)


def test_specular_weight_oblique():
    got = specular_weight(math.pi / 4, math.pi / 4, 30.0, 2.0)
    assert got == pytest.approx(math.cos(math.pi / 4) ** 32 * 0.5, rel=1e-12)
    assert got == pytest.approx(7.6294e-6, rel=1e-4)


def test_specular_weight_backfacing_clamped():
    assert specular_weight(0.0, 3 * math.pi / 4, 30.0, 2.0) == 0.0


@given(st.floats(0, math.pi / 2), st.floats(0, math.pi / 2))
@settings(max_examples=50)
def test_weights_maximized_head_on(te, tr):
    assert diffuse_weight(te, tr, 30.0) <= diffuse_weight(0.0, 0.0, 30.0) + 1e-12
    assert specular_weight(te, tr, 30.0, 2.0) <= specular_weight(0.0, 0.0, 30.0, 2.0) + 1e-12


def _ambient_only_point():
    return FacePoint(vec3(0, 0, 1), vec3(0, 0, -1), k_d=0.5, k_s=0.5, k_a=0.5)


def test_reflected_intensity_ambient_only():
    cfg = OpticsConfig(g=30.0, ambient=vec3(10, 10, 10))
    got = reflected_intensity(_ambient_only_point(), [], vec3(0, 0, 1), vec3(0, 0.2, 2), cfg)
    assert np.allclose(got, [5, 5, 5])


def test_reflected_intensity_single_facing_emitter():
    # emitter straight below a point looking straight down; the camera sits at
    # the emitter so the mirror direction points exactly at it: all angles zero
    fp = FacePoint(vec3(0, 0, 1), vec3(0, 0, -1), k_d=0.5, k_s=0.5, k_a=0.0)
    em = EmitterUnit(vec3(0, 0, 0), vec3(100, 0, 0))
    cfg = OpticsConfig(g=30.0, ambient=vec3(0, 0, 0))
    got = reflected_intensity(fp, [em], vec3(0, 0, 1), vec3(0, 0, 0), cfg)
    # diffuse 100*0.5 plus specular 100*0.5
    assert np.allclose(got, [100, 0, 0], rtol=1e-12)


def test_reflected_intensity_requires_light():
    cfg = OpticsConfig(g=30.0, ambient=vec3(0, 0, 0))
    with pytest.raises(DomainError):
        reflected_intensity(_ambient_only_point(), [], vec3(0, 0, 1), vec3(0, 0, 3), cfg)


def _random_planar_setup(rng):
    cfg = OpticsConfig(g=rng.uniform(1, 40), ambient=rng.uniform(0, 5, size=3))
    n_e = np.array([0.0, 0.0, 1.0])
    emitters = [
        EmitterUnit(
            np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3), 0.0]),
            rng.uniform(0, 100, size=3),
        )
        for _ in range(rng.integers(1, 6))
    ]
    normal = unit(np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), -1.0]))
    fp = FacePoint(
        np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(0.2, 1.0)]),
        normal,
        k_d=rng.uniform(0, 1),
        k_s=rng.uniform(0, 1),
        k_a=rng.uniform(0, 1),
        n_s=rng.uniform(1, 5),
    )
    camera = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.01, 0.2)])
    return fp, emitters, n_e, camera, cfg


def test_formulations_agree_on_random_planar_scenes():
    rng = np.random.default_rng(1234)
    origin = np.zeros(3)
    for _ in range(200):
        fp, emitters, n_e, camera, cfg = _random_planar_setup(rng)
        a = reflected_intensity(fp, emitters, n_e, camera, cfg)
        b = reflected_intensity_planar(fp, emitters, n_e, origin, camera, cfg)
        assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.abs(b), 1e-30))


def test_linear_in_emitter_radiance():
    rng = np.random.default_rng(7)
    fp, emitters, n_e, camera, cfg = _random_planar_setup(rng)
    dark_cfg = OpticsConfig(g=cfg.g, ambient=np.zeros(3))
    base = reflected_intensity(fp, emitters, n_e, camera, dark_cfg)
    doubled = [EmitterUnit(e.position, 2.0 * e.radiance) for e in emitters]
    got = reflected_intensity(fp, doubled, n_e, camera, dark_cfg)
    assert np.allclose(got, 2.0 * base, rtol=1e-12)


def test_inverse_square_falloff():
    # single emitter, fixed angles: scale the whole geometry by 2 -> 1/4 intensity
    cfg = OpticsConfig(g=5.0, ambient=np.zeros(3))
    em = EmitterUnit(vec3(0, 0, 0), vec3(90, 10, 30))
    n_e = vec3(0, 0, 1)
    near = FacePoint(vec3(0, 0, 0.5), vec3(0, 0, -1), k_d=0.6, k_s=0.2, k_a=0.0)
    far = FacePoint(vec3(0, 0, 1.0), vec3(0, 0, -1), k_d=0.6, k_s=0.2, k_a=0.0)
    a = reflected_intensity(near, [em], n_e, vec3(0, 0, 2.0), cfg)
    b = reflected_intensity(far, [em], n_e, vec3(0, 0, 4.0), cfg)
    assert np.allclose(a, 4.0 * b, rtol=1e-12)


def test_face_point_validation():
    with pytest.raises(DomainError):
        FacePoint(vec3(0, 0, 0), vec3(0, 0, 1), k_d=1.5)
    with pytest.raises(DomainError):
        FacePoint(vec3(0, 0, 0), vec3(0, 0, 1), n_s=0.5)
    with pytest.raises(DomainError):
        FacePoint(vec3(0, 0, 0), vec3(0, 0, 2))


def test_emitter_validation():
    with pytest.raises(DomainError):
        EmitterUnit(vec3(0, 0, 0), vec3(-1, 0, 0))


def test_camera_on_face_point_rejected():
    fp = _ambient_only_point()
    cfg = OpticsConfig(ambient=vec3(1, 1, 1))
    with pytest.raises(GeometryError):
        reflected_intensity(fp, [], vec3(0, 0, 1), fp.position, cfg)


# --- the reflection-geometry kernel against the per-emitter loop oracle -----

def _random_tilted_setup(rng):
    """Random planar setup with a tilted screen, emitters on its plane, off-axis camera."""
    fp, _, _, _, cfg = _random_planar_setup(rng)
    n_e = unit(np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0]))
    u = unit(np.cross([0.0, 1.0, 0.0], n_e))
    v = np.cross(n_e, u)
    emitters = [
        EmitterUnit(rng.uniform(-0.5, 0.5) * u + rng.uniform(-0.3, 0.3) * v, rng.uniform(0, 100, size=3))
        for _ in range(rng.integers(1, 9))
    ]
    camera = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), rng.uniform(0.01, 0.15)])
    return fp, emitters, n_e, camera, cfg


def test_reflection_cosines_match_scalar_helpers():
    rng = np.random.default_rng(3)
    n_e = unit(np.array([0.2, -0.1, 1.0]))
    fpos = rng.uniform(-0.3, 0.3, (7, 3)) + [0.0, 0.0, 0.6]
    fnrm = np.array([unit(n) for n in rng.uniform(-0.5, 0.5, (7, 3)) + [0.0, 0.0, -1.0]])
    epos = rng.uniform(-0.4, 0.4, (5, 3)) * [1.0, 1.0, 0.0]
    camera = np.array([0.25, -0.1, 0.05])
    cos_e, cos_r, cos_m, d2 = reflection_cosines(fpos, fnrm, epos, n_e, camera)
    assert cos_e.shape == cos_r.shape == cos_m.shape == d2.shape == (7, 5)
    for p in range(7):
        v_hat = unit(camera - fpos[p])
        for e in range(5):
            ef = fpos[p] - epos[e]
            e_hat = unit(ef)
            expect = [
                oracle._cos_clamped(e_hat, n_e),
                oracle._cos_clamped(-e_hat, fnrm[p]),
                oracle._cos_clamped(mirror_direction(e_hat, fnrm[p]), v_hat),
                float(ef @ ef),
            ]
            got = [cos_e[p, e], cos_r[p, e], cos_m[p, e], d2[p, e]]
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)


def test_intensity_forms_match_loop_oracle():
    rng = np.random.default_rng(99)
    origin = np.zeros(3)
    for _ in range(200):
        fp, emitters, n_e, camera, cfg = _random_tilted_setup(rng)
        np.testing.assert_allclose(
            reflected_intensity(fp, emitters, n_e, camera, cfg),
            oracle.reflected_intensity(fp, emitters, n_e, camera, cfg),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            reflected_intensity_planar(fp, emitters, n_e, origin, camera, cfg),
            oracle.reflected_intensity_planar(fp, emitters, n_e, origin, camera, cfg),
            rtol=1e-12,
        )


@pytest.mark.parametrize("where", ["emitter", "camera"])
def test_coincident_points_raise_like_the_oracle(where):
    fp = FacePoint(vec3(0.1, 0.0, 0.5), vec3(0, 0, -1))
    n_e = vec3(0, 0, 1)
    emitter_pos = fp.position if where == "emitter" else vec3(0, 0, 0)
    camera = fp.position if where == "camera" else vec3(0, 0.1, 0.1)
    emitters = [EmitterUnit(emitter_pos, vec3(10, 10, 10))]
    cfg = OpticsConfig(ambient=vec3(1, 1, 1))
    calls = [
        lambda: reflection_cosines(fp.position[None], fp.normal[None], emitter_pos[None], n_e, camera),
        lambda: reflected_intensity(fp, emitters, n_e, camera, cfg),
        lambda: oracle.reflected_intensity(fp, emitters, n_e, camera, cfg),
        lambda: reflected_intensity_planar(fp, emitters, n_e, np.zeros(3), camera, cfg),
        lambda: oracle.reflected_intensity_planar(fp, emitters, n_e, np.zeros(3), camera, cfg),
    ]
    for call in calls:
        with pytest.raises(GeometryError):
            call()
