import math
import tracemalloc

import numpy as np
import pytest

import oracle_optics as oracle

from facelight import scene as scene_module
from facelight.config import config_from_dict
from facelight.errors import DomainError, GeometryError
from facelight.optics import OpticsConfig, unit, vec3
from facelight.scene import (
    FaceModel,
    Scene,
    count_local_maxima,
    face_screen_weights,
    fwhm,
    peak_location,
    quantize,
    render_face,
    render_linear,
    resolve_exposure,
    screen_from_image,
    simulate_weight_curves,
    write_weight_curves_csv,
)


def _solid(h, w, rgb):
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[:, :] = rgb
    return img


def make_scene(content=None, rows=6, cols=8, ambient=(5.0, 5.0, 5.0), exposure="auto",
               face_grid=(8, 8), k_s=0.25):
    if content is None:
        content = _solid(rows, cols, (0, 0, 0))
    screen = screen_from_image(content, (0.6, 0.34), (rows, cols), (0, 0, 0), (0, 0, 1))
    face = FaceModel((0, 0, 0.45), (0.08, 0.10, 0.09), face_grid, k_s=k_s)
    return Scene(screen, face, vec3(0, 0.12, 0.02), OpticsConfig(30.0, vec3(ambient)), exposure)


# --- screen_from_image -----------------------------------------------------

def test_black_image_gives_dark_units():
    screen = screen_from_image(_solid(4, 4, (0, 0, 0)), (0.6, 0.34), (2, 2), (0, 0, 0), (0, 0, 1))
    assert np.all(screen.radiance == 0.0)


def test_half_red_half_blue_cell_means():
    content = np.zeros((4, 4, 3), dtype=np.uint8)
    content[:, :2, 0] = 255
    content[:, 2:, 2] = 255
    screen = screen_from_image(content, (0.6, 0.34), (2, 2), (0, 0, 0), (0, 0, 1), radiance_scale=80.0)
    expect = np.zeros((2, 2, 3))
    expect[:, 0, 0] = 80.0
    expect[:, 1, 2] = 80.0
    assert np.allclose(screen.radiance, expect)


def test_uniform_gray_single_unit():
    screen = screen_from_image(_solid(3, 3, (128, 128, 128)), (0.6, 0.34), (1, 1), (0, 0, 0), (0, 0, 1))
    assert np.allclose(screen.radiance, 128.0 / 255.0 * 100.0)


def test_grid_exceeding_content_rejected():
    with pytest.raises(DomainError):
        screen_from_image(_solid(2, 2, (1, 1, 1)), (0.6, 0.34), (4, 4), (0, 0, 0), (0, 0, 1))


def test_screen_geometry_left_column_at_negative_x():
    content = np.zeros((2, 4, 3), dtype=np.uint8)
    screen = screen_from_image(content, (0.6, 0.34), (2, 4), (0, 0, 0), (0, 0, 1))
    xs = screen.positions[:, :, 0]
    assert np.all(np.diff(xs, axis=1) > 0)  # columns run -x -> +x
    assert xs[0, 0] == pytest.approx(-0.6 / 2 + 0.6 / 8)
    ys = screen.positions[:, :, 1]
    assert np.all(np.diff(ys, axis=0) < 0)  # row 0 is the top


# --- FaceModel -------------------------------------------------------------

def test_sphere_normals_are_radial():
    face = FaceModel((0.5, -0.2, 1.0), (0.1, 0.1, 0.1), (5, 5))
    radial = face.positions - np.array([0.5, -0.2, 1.0])
    radial /= np.linalg.norm(radial, axis=2, keepdims=True)
    assert np.allclose(face.normals, radial, atol=1e-9)


def test_grid_cardinality():
    face = FaceModel((0, 0, 0.5), (0.08, 0.1, 0.12), (2, 2))
    assert face.positions.shape == (2, 2, 3)


def test_ellipsoid_normals_unit_and_outward():
    face = FaceModel((0, 0, 0.5), (0.08, 0.10, 0.12), (7, 9))
    norms = np.linalg.norm(face.normals, axis=2)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    outward = np.einsum("uvq,uvq->uv", face.normals, face.positions - np.array([0, 0, 0.5]))
    assert np.all(outward > 0)


def test_degenerate_axes_rejected():
    with pytest.raises(DomainError):
        FaceModel((0, 0, 0.5), (0.0, 0.1, 0.1), (4, 4))
    with pytest.raises(DomainError):
        FaceModel((0, 0, 0.5), (0.1, 0.1, 0.1), (1, 4))


# --- render_face -----------------------------------------------------------



@pytest.mark.parametrize("semi_axes", [(1e-300, 1e-300, 1e-300), (1e200, 1e200, 1e200)])
def test_axes_without_finite_normals_rejected(semi_axes):
    # each squared axis under- or overflows, so the normals would be NaN
    named = r"^face\.semi_axes \[.+\] give non-finite surface normals$"
    with pytest.raises(GeometryError, match=named):
        FaceModel((0, 0, 0.5), semi_axes, (4, 4))
    with pytest.raises(GeometryError, match=named):
        config_from_dict({"face": {"semi_axes": list(semi_axes)}}).build_scene()


def test_screen_normal_of_huge_or_tiny_length_builds_the_default_scene():
    default = config_from_dict({}).build_scene()
    for normal in ([0.0, 0.0, 1e200], [0.0, 0.0, 1e-310]):
        scene = config_from_dict({"screen": {"normal": normal}}).build_scene()
        assert scene.screen.normal.tolist() == [0.0, 0.0, 1.0]
        assert np.array_equal(scene.weights, default.weights)
def test_dark_scene_renders_black():
    scene = make_scene(ambient=(0, 0, 0), exposure=2.0)
    assert np.all(render_face(scene) == 0)


def test_dark_scene_auto_exposure_rejected():
    scene = make_scene(ambient=(0, 0, 0), exposure="auto")
    with pytest.raises(DomainError):
        render_face(scene)


def test_blue_half_reflects_more_blue():
    content = np.zeros((6, 8, 3), dtype=np.uint8)
    content[:, :4, 0] = 255  # red on -x
    content[:, 4:, 2] = 255  # blue on +x
    img = render_face(make_scene(content))
    w = img.shape[1]
    near_blue = img[:, w // 2 :, 2].astype(float).mean()
    near_red = img[:, : w // 2, 2].astype(float).mean()
    assert near_blue > near_red


def test_uniform_screen_symmetric_image():
    # camera on the x = 0 plane keeps the whole scene mirror-symmetric
    img = render_face(make_scene(_solid(6, 8, (200, 200, 200))))
    mirrored = img[:, ::-1, :]
    assert np.max(np.abs(img.astype(int) - mirrored.astype(int))) <= 1


def test_render_deterministic():
    content = _solid(6, 8, (120, 30, 200))
    a = render_face(make_scene(content))
    b = render_face(make_scene(content))
    assert np.array_equal(a, b)


def test_fixed_exposure_monotone():
    content = _solid(6, 8, (90, 120, 10))
    screen = screen_from_image(content, (0.6, 0.34), (6, 8), (0, 0, 0), (0, 0, 1))
    face = FaceModel((0, 0, 0.45), (0.08, 0.10, 0.09), (8, 8))
    cam = vec3(0, 0.12, 0.02)
    optics = OpticsConfig(30.0, vec3(3, 3, 3))
    low = render_face(Scene(screen, face, cam, optics, 1.0))
    high = render_face(Scene(screen, face, cam, optics, 1.7))
    assert np.all(high.astype(int) >= low.astype(int))


def test_ambient_floor():
    scene = make_scene(_solid(6, 8, (10, 10, 10)), ambient=(4.0, 2.0, 1.0), exposure=3.0)
    img = render_face(scene)
    floor = quantize(3.0 * scene.face.k_a * np.array([4.0, 2.0, 1.0]))
    assert np.all(img >= floor[None, None, :])


def test_render_matches_per_point_operation():
    content = np.zeros((6, 8, 3), dtype=np.uint8)
    content[:, :4, 0] = 210
    content[:, 4:, 2] = 170
    scene = make_scene(content, exposure=1.0)
    linear = render_linear(scene)
    emitters = oracle.emitter_units(scene.screen)
    for u, v in [(0, 0), (3, 5), (7, 2)]:
        expect = oracle.reflected_intensity(
            oracle.face_point(scene.face, u, v), emitters, scene.screen.normal, scene.camera, scene.optics
        )
        assert np.allclose(linear[u, v], expect, rtol=1e-9)


def test_weights_match_loop_oracle_on_random_scenes():
    # tilted screen normal, off-axis camera: every face point's row of the
    # weight matrix, applied to the radiance, is the oracle's per-emitter sum
    rng = np.random.default_rng(31)
    for _ in range(4):
        normal = unit(np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0]))
        content = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        screen = screen_from_image(content, (0.6, 0.34), (5, 7), (0, 0, 0), normal)
        face = FaceModel((rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 0.45), (0.08, 0.10, 0.09),
                          (5, 6), k_s=rng.uniform(0.1, 0.5), n_s=rng.uniform(1, 5))
        camera = vec3(rng.uniform(-0.2, 0.2), rng.uniform(0.12, 0.2), rng.uniform(0.0, 0.1))
        scene = Scene(screen, face, camera, OpticsConfig(rng.uniform(5, 40), rng.uniform(0, 5, size=3)))
        linear = face_screen_weights(scene) @ screen.radiance.reshape(-1, 3) + face.k_a * scene.optics.ambient
        emitters = oracle.emitter_units(screen)
        for p in range(linear.shape[0]):
            u, v = divmod(p, face.grid[1])
            expect = oracle.reflected_intensity(
                oracle.face_point(face, u, v), emitters, screen.normal, camera, scene.optics
            )
            np.testing.assert_allclose(linear[p], expect, rtol=1e-12)


def test_scene_weights_computed_once():
    scene = make_scene(_solid(6, 8, (90, 40, 200)))
    assert scene.weights is scene.weights
    assert np.array_equal(scene.weights, face_screen_weights(scene))
    radiance = np.full((6, 8, 3), 7.0)
    expect = scene.weights @ radiance.reshape(-1, 3) + scene.face.k_a * scene.optics.ambient
    assert np.array_equal(render_linear(scene, radiance), expect.reshape(8, 8, 3))


# --- blocked weights against the whole-array oracle -------------------------

def _config_scene(face=(24, 24), screen=(18, 32)):
    return config_from_dict(
        {"face": {"rows": face[0], "cols": face[1]}, "screen": {"rows": screen[0], "cols": screen[1]}}
    ).build_scene()


def _assert_weights_match_oracle(scene):
    got = face_screen_weights(scene)
    assert got.tobytes() == oracle.face_screen_weights(scene).tobytes()
    return got


def test_weights_bits_match_oracle_on_default_scene():
    scene = _config_scene()
    assert 1 < scene_module.BLOCK_BYTES // (24 * 18 * 32) < 24 * 24  # several blocks
    _assert_weights_match_oracle(scene)


def test_weights_bits_match_oracle_on_tilted_scenes():
    rng = np.random.default_rng(7)
    for _ in range(3):
        normal = unit(np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0]))
        content = rng.integers(0, 256, size=(29, 29, 3)).astype(np.uint8)
        screen = screen_from_image(content, (0.6, 0.34), (29, 29), (0, 0, 0), normal)
        face = FaceModel((rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), 0.45), (0.08, 0.10, 0.09),
                         (9, 11), k_s=rng.uniform(0.1, 0.5), n_s=rng.uniform(1, 5))
        camera = vec3(rng.uniform(-0.2, 0.2), rng.uniform(0.12, 0.2), rng.uniform(0.0, 0.1))
        _assert_weights_match_oracle(Scene(screen, face, camera, OpticsConfig(rng.uniform(5, 40))))


@pytest.mark.parametrize("face_grid", [(4, 6), (5, 5), (2, 13)])
def test_weights_bits_match_oracle_around_one_block(face_grid):
    # a 29x29 screen gives 25-point blocks; the face has 24, 25 and 26 points
    scene = _config_scene(face_grid, (29, 29))
    assert scene_module.BLOCK_BYTES // (24 * 29 * 29) == 25
    _assert_weights_match_oracle(scene)


def test_weights_bits_match_oracle_with_one_point_blocks():
    scene = _config_scene((2, 3), (150, 150))
    assert scene_module.BLOCK_BYTES // (24 * 150 * 150) == 0  # so every block holds one point
    assert _assert_weights_match_oracle(scene).shape == (6, 150 * 150)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "face_grid, screen_grid, bound",
    [
        ((24, 24), (18, 32), 24 * 24 * 18 * 32 * 8 + 4 * 2**20),  # the whole-array form reached 38 MiB
        ((48, 48), (36, 64), 64 * 2**20),  # the whole-array form reached 608 MiB
    ],
    ids=["default", "face48x48-screen36x64"],
)
def test_weights_peak_memory_stays_near_the_output(face_grid, screen_grid, bound):
    scene = _config_scene(face_grid, screen_grid)
    assert _traced_peak(lambda: face_screen_weights(scene)) < bound


# --- cell means against the per-cell oracle --------------------------------

@pytest.mark.parametrize("size, grid", [((7, 10), (3, 4)), ((9, 5), (1, 1)), ((6, 8), (6, 8)), ((13, 1), (5, 1))])
def test_cell_means_bits_match_oracle_on_edge_grids(size, grid):
    content = np.random.default_rng(size[0] * 100 + size[1]).integers(0, 256, size=(*size, 3)).astype(np.uint8)
    assert scene_module._cell_means(content, *grid).tobytes() == oracle.cell_means(content, *grid).tobytes()


def test_cell_means_bits_match_oracle_on_random_grids():
    rng = np.random.default_rng(5)
    for _ in range(60):
        h, w = rng.integers(1, 50, size=2)
        rows, cols = rng.integers(1, h + 1), rng.integers(1, w + 1)
        content = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        got = scene_module._cell_means(content, rows, cols)
        assert got.tobytes() == oracle.cell_means(content, rows, cols).tobytes()


def test_quantize_rounds_half_up_and_clamps():
    assert np.array_equal(quantize(np.array([-3.0, 0.49, 0.5, 254.5, 300.0])),
                          np.array([0, 0, 1, 255, 255], dtype=np.uint8))


def test_auto_exposure_anchors_p99():
    scene = make_scene(_solid(6, 8, (200, 200, 200)))
    linear = render_linear(scene)
    scale = resolve_exposure(scene, linear)
    assert scale * np.percentile(linear, 99.0) == pytest.approx(240.0)


def test_camera_inside_face_rejected():
    screen = screen_from_image(_solid(2, 2, (9, 9, 9)), (0.6, 0.34), (2, 2), (0, 0, 0), (0, 0, 1))
    face = FaceModel((0, 0, 0.45), (0.08, 0.10, 0.09), (4, 4))
    with pytest.raises(GeometryError):
        Scene(screen, face, vec3(0, 0, 0.45), OpticsConfig(), "auto")


def test_face_behind_screen_rejected():
    screen = screen_from_image(_solid(2, 2, (9, 9, 9)), (0.6, 0.34), (2, 2), (0, 0, 0), (0, 0, 1))
    face = FaceModel((0, 0, -0.45), (0.08, 0.10, 0.09), (4, 4))
    with pytest.raises(GeometryError):
        Scene(screen, face, vec3(0, 0.12, 0.02), OpticsConfig(), "auto")


# --- weight curves ---------------------------------------------------------

def _default_curves():
    xs = np.linspace(-0.3, 0.3, 61)
    points = [((0.0, 0.50), (0.0, -1.0)), ((0.0, 0.25), (0.0, -1.0)), ((0.2, 0.50), (0.0, -1.0))]
    return simulate_weight_curves(xs, points, camera_x=0.0)


def test_curves_peak_opposite_each_point():
    curves = _default_curves()
    feet = [0.0, 0.0, 0.2]
    spacing = 0.6 / 60
    for curve, foot in zip(curves, feet):
        assert abs(peak_location(curve) - foot) <= 2 * spacing + 1e-12


def test_nearer_point_has_sharper_curve():
    curves = _default_curves()
    assert fwhm(curves[1]) < fwhm(curves[0])


def test_curve_unimodal():
    for curve in _default_curves():
        assert count_local_maxima(curve.g_d) == 1


def test_normal_parallel_to_screen_kills_diffuse():
    # out-of-plane normal: every receive direction is perpendicular to it
    xs = np.linspace(-0.3, 0.3, 31)
    curves = simulate_weight_curves(xs, [((0.0, 0.4, 0.0), (0.0, 0.0, 1.0))], camera_x=0.0)
    assert np.all(curves[0].g_d == 0.0)


def test_curves_match_scalar_weight_oracle():
    xs = np.linspace(-0.3, 0.3, 31)
    points = [((0.0, 0.25), (0.0, -1.0)), ((0.15, 0.4), (-0.3, -1.0)), ((-0.1, 0.3, 0.05), (0.2, -1.0, 0.3))]
    g, n_s, camera_x = 30.0, 3.0, 0.05
    curves = simulate_weight_curves(xs, points, camera_x, g, n_s)
    cam = vec3(camera_x, 0, 0)
    for curve, (pos, nrm) in zip(curves, points):
        p = vec3(np.pad(pos, (0, 3 - len(pos))))
        n = unit(np.pad(nrm, (0, 3 - len(nrm))))
        v_hat = unit(cam - p)
        for x, g_d, g_s in zip(xs, curve.g_d, curve.g_s):
            e_hat = unit(p - vec3(x, 0, 0))
            theta_e = math.acos(oracle._cos_clamped(e_hat, vec3(0, 1, 0)))
            theta_r = math.acos(oracle._cos_clamped(-e_hat, n))
            m_hat = oracle.mirror_direction(e_hat, n)
            theta_m = math.acos(min(max(float(m_hat @ v_hat), -1.0), 1.0))
            assert g_d == pytest.approx(oracle.diffuse_weight(theta_e, theta_r, g), rel=1e-12, abs=0)
            assert g_s == pytest.approx(oracle.specular_weight(theta_e, theta_m, g, n_s), rel=1e-12, abs=0)


def test_point_on_screen_line_rejected():
    with pytest.raises(GeometryError):
        simulate_weight_curves(np.linspace(-1, 1, 5), [((0.0, 0.0), (0.0, -1.0))], 0.0)


def test_curve_csv_blocks(tmp_path):
    path = tmp_path / "curves.csv"
    write_weight_curves_csv(path, _default_curves())
    text = path.read_text()
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        lines = block.splitlines()
        assert lines[0] == "unit_x,G_d,G_s"
        assert len(lines) == 62


def test_count_local_maxima_shapes():
    assert count_local_maxima([0, 1, 2, 1, 0]) == 1
    assert count_local_maxima([2, 1, 0]) == 1
    assert count_local_maxima([0, 1, 2]) == 1
    assert count_local_maxima([0, 1, 0, 1, 0]) == 2
    assert count_local_maxima([1, 1, 1]) == 1


def test_curve_csv_values_parse_as_floats(tmp_path):
    path = tmp_path / "curves.csv"
    write_weight_curves_csv(path, _default_curves())
    first_data = path.read_text().splitlines()[1]
    parts = first_data.split(",")
    assert len(parts) == 3
    for token in parts:
        float(token)  # plain decimal text, no wrapper reprs
