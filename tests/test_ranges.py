"""One range per config key: the config and the library give the same error.

Every key of `errors.RANGES` has at least one out-of-range row below.  Each
row loads the value through `config_from_dict` and passes it to every
library function or constructor that takes the same value; all of them must
raise the same `<key> must <phrase>, got <value>` message.
"""

import numpy as np
import pytest

from facelight.analysis import add_pixel_noise, half_ratio_samples, mdc_search, probe_content
from facelight.config import ExperimentConfig, config_from_dict
from facelight.dataset import app_palette
from facelight.errors import RANGES, DomainError, GeometryError
from facelight.features import block_frames
from facelight.hlc import HlcParams, LabelSequence, param_grid
from facelight.optics import FacePoint, OpticsConfig
from facelight.ppm import write_ppm
from facelight.preprocess import resize
from facelight.scene import FaceModel, Scene, ScreenModel, render_linear, screen_from_image, simulate_weight_curves

NAN = float("nan")
INF = float("inf")
CONTENT = np.zeros((4, 4, 3), dtype=np.uint8)
NORMAL = (0.0, 0.0, 1.0)
POINT = ((0.0, 0.5), (0.0, -1.0))


def _scene(exposure="auto"):
    scene = ExperimentConfig().build_scene()
    return Scene(scene.screen, scene.face, scene.camera, scene.optics, exposure)


def _screen(grid=(2, 2), physical=(0.6, 0.34), scale=100.0):
    return screen_from_image(CONTENT, physical, grid, (0, 0, 0), NORMAL, scale)


def _screen_model(radiance=np.zeros((2, 2, 3)), width=0.6, height=0.34, origin=(0, 0, 0), normal=NORMAL):
    return ScreenModel(radiance, width, height, origin, normal)


def _face_model(center=(0, 0, 0.45), semi_axes=(0.08, 0.10, 0.09), grid=(4, 4), **kwargs):
    return FaceModel(center, semi_axes, grid, **kwargs)


def _face_point(**kwargs):
    return FacePoint((0, 0, 1), (0, 0, -1), **kwargs)


def _weight_curves(camera_x=0.0, points=((0.0, 0.5, 0.0, -1.0),)):
    return simulate_weight_curves(np.linspace(-0.3, 0.3, 5), [((p[0], p[1]), (p[2], p[3])) for p in points], camera_x)


# (config key, out-of-range value, library calls that take the value)
CASES = [
    ("seed", -1, []),
    ("frames_per_app", 0, []),
    ("delta", 0.0, [lambda v: LabelSequence((0,), v)]),
    ("delta", NAN, [lambda v: LabelSequence((0,), v)]),
    ("l_size", 0, [lambda v: resize(CONTENT, v), lambda v: block_frames(v, 4, 4)]),
    ("exposure", -1.0, [lambda v: _scene(exposure=v)]),
    ("camera", [0.0, NAN, 0.02], [lambda v: Scene(_scene().screen, _scene().face, v)]),
    ("screen.center", [0.0, INF, 0.0], [
        lambda v: screen_from_image(CONTENT, (0.6, 0.34), (2, 2), v, NORMAL),
        lambda v: _screen_model(origin=v),
    ]),
    ("screen.normal", [0.0, NAN, 1.0], [
        lambda v: screen_from_image(CONTENT, (0.6, 0.34), (2, 2), (0, 0, 0), v),
        lambda v: _screen_model(normal=v),
    ]),
    ("screen.rows", 0, [
        lambda v: _screen(grid=(v, 2)),
        lambda v: _screen_model(radiance=np.zeros((v, 2, 3))),
        lambda v: app_palette(0, 0, v, 2, 0),
    ]),
    ("screen.cols", -2, [lambda v: _screen(grid=(2, v)), lambda v: app_palette(0, 0, 2, v, 0)]),
    ("screen.width", 0.0, [lambda v: _screen(physical=(v, 0.34)), lambda v: _screen_model(width=v)]),
    ("screen.width", NAN, [lambda v: _screen(physical=(v, 0.34)), lambda v: _screen_model(width=v)]),
    ("screen.height", -0.1, [lambda v: _screen(physical=(0.6, v)), lambda v: _screen_model(height=v)]),
    ("screen.radiance_scale", -1.0, [
        lambda v: _screen(scale=v),
        lambda v: mdc_search(_scene(), [1.0], radiance_scale=v),
    ]),
    ("face.center", [NAN, 0.0, 0.45], [lambda v: _face_model(center=v)]),
    ("face.rows", 1, [lambda v: _face_model(grid=(v, 4))]),
    ("face.cols", 0, [lambda v: _face_model(grid=(4, v))]),
    ("face.k_d", -1.0, [lambda v: _face_model(k_d=v), lambda v: _face_point(k_d=v)]),
    ("face.k_d", NAN, [lambda v: _face_model(k_d=v), lambda v: _face_point(k_d=v)]),
    ("face.k_s", 1.5, [lambda v: _face_model(k_s=v), lambda v: _face_point(k_s=v)]),
    ("face.k_a", -0.5, [lambda v: _face_model(k_a=v), lambda v: _face_point(k_a=v)]),
    ("face.n_s", 0.25, [lambda v: _face_model(n_s=v), lambda v: _face_point(n_s=v)]),
    ("face.semi_axes", [0.08, 0.0, 0.09], [lambda v: _face_model(semi_axes=v)]),
    ("face.patch_degrees", 400.0, [lambda v: _face_model(patch_degrees=v)]),
    ("optics.g", -5.0, [lambda v: OpticsConfig(v)]),
    ("optics.g", NAN, [lambda v: OpticsConfig(v)]),
    ("optics.ambient", [6.0, -1.0, 6.0], [lambda v: OpticsConfig(30.0, np.asarray(v))]),
    ("noise.pixel_sigma", -1.0, []),
    ("noise.ambient_jitter", 1.5, []),
    ("train.epochs", 0, []),
    ("train.batch_size", 0, []),
    ("train.learning_rate", 0.0, []),
    ("hlc.sigma_s", 0.4, [lambda v: HlcParams(sigma_s=v), lambda v: param_grid([v], [10], [0.1], [10])]),
    ("hlc.sigma_s", 1.0, [lambda v: HlcParams(sigma_s=v)]),
    ("hlc.t_s", 0, [lambda v: HlcParams(t_s=v), lambda v: param_grid([0.9], [v], [0.1], [10])]),
    ("hlc.sigma_e", 0.0, [lambda v: HlcParams(sigma_e=v)]),
    ("hlc.sigma_e", NAN, [lambda v: HlcParams(sigma_e=v)]),
    ("hlc.t_e", -1, [lambda v: HlcParams(t_e=v)]),
    ("weight_sim.x_min", NAN, []),
    ("weight_sim.x_max", INF, []),
    ("weight_sim.units", 1, [lambda v: simulate_weight_curves(np.linspace(-0.3, 0.3, v), [POINT], 0.0)]),
    ("weight_sim.camera_x", -INF, [lambda v: _weight_curves(camera_x=v)]),
    ("weight_sim.points", [[0.0, NAN, 0.0, -1.0]], [lambda v: _weight_curves(points=v)]),
    ("mdc.fractions", [], [lambda v: mdc_search(_scene(), v)]),
    ("mdc.fractions", [2.0], [lambda v: mdc_search(_scene(), v), lambda v: probe_content(4, 4, v[0])]),
]


def test_every_range_has_a_case():
    assert {key for key, _, _ in CASES} == set(RANGES)


@pytest.mark.parametrize("key, value, calls", CASES, ids=[f"{k}={v}" for k, v, _ in CASES])
def test_out_of_range_reads_the_same_in_config_and_library(key, value, calls):
    section, _, name = key.rpartition(".")
    with pytest.raises(DomainError) as info:
        config_from_dict({section: {name: value}} if section else {name: value})
    message = str(info.value)
    assert message.startswith(f"{key} must {RANGES[key][0]}, got ")
    for call in calls:
        with pytest.raises(DomainError) as info:
            call(value)
        assert str(info.value) == message


def test_face_coefficients_rejected_by_face_model():
    with pytest.raises(DomainError, match=r"face\.k_d must lie in \[0, 1\], got -1"):
        FaceModel((0, 0, 0.45), (0.08, 0.10, 0.09), (4, 4), -1, 0.25, 0.35, 2.0)
    with pytest.raises(DomainError, match=r"face\.n_s must be >= 1, got 0.25"):
        FaceModel((0, 0, 0.45), (0.08, 0.10, 0.09), (4, 4), n_s=0.25)
    with pytest.raises(DomainError, match=r"face\.k_d must lie in \[0, 1\], got -1"):
        _face_model(k_d=-1)
    with pytest.raises(DomainError, match=r"face\.n_s must be >= 1, got 0.25"):
        _face_model(n_s=0.25)


# --- radiance grids --------------------------------------------------------

RADIANCE_USERS = [lambda rad: _screen_model(radiance=rad), lambda rad: render_linear(_scene(), rad)]


@pytest.mark.parametrize("bad", [NAN, -1.0])
@pytest.mark.parametrize("use", RADIANCE_USERS, ids=["ScreenModel", "render_linear"])
def test_nan_or_negative_radiance_rejected(use, bad):
    rad = np.zeros((18, 32, 3))  # the default screen's grid
    rad[1, 2, 0] = bad
    with pytest.raises(DomainError, match=r"^unit radiance must be >= 0$"):
        use(rad)


def test_radiance_grid_of_another_shape_rejected():
    with pytest.raises(DomainError, match=r"radiance must be \(rows, cols, 3\), got shape \(2, 2\)$"):
        _screen_model(radiance=np.zeros((2, 2)))
    with pytest.raises(DomainError, match=r"radiance must be \(18, 32, 3\), got shape \(2, 2, 3\)$"):
        render_linear(_scene(), np.zeros((2, 2, 3)))


# --- 8-bit images ----------------------------------------------------------

IMAGE_USERS = [
    lambda img, tmp: screen_from_image(img, (0.6, 0.34), (2, 2), (0, 0, 0), NORMAL),
    lambda img, tmp: write_ppm(tmp / "x.ppm", img),
    lambda img, tmp: add_pixel_noise(img, 0.05, np.random.default_rng(0)),
    lambda img, tmp: half_ratio_samples(img),
]


@pytest.mark.parametrize("bad", [1.5, NAN, 256.0, -1.0])
@pytest.mark.parametrize(
    "use", IMAGE_USERS, ids=["screen_from_image", "write_ppm", "add_pixel_noise", "half_ratio_samples"]
)
def test_non_8bit_image_values_rejected(tmp_path, use, bad):
    img = np.full((4, 4, 3), 0.0)
    img[1, 2, 0] = bad
    with pytest.raises(DomainError, match=r"integers in \[0, 255\]"):
        use(img, tmp_path)


def test_8bit_values_of_any_dtype_keep_their_bytes(tmp_path):
    img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3) * 5
    write_ppm(tmp_path / "a.ppm", img)
    for i, same in enumerate((img.astype(float), img.astype(np.int64))):
        write_ppm(tmp_path / f"{i}.ppm", same)
        assert (tmp_path / f"{i}.ppm").read_bytes() == (tmp_path / "a.ppm").read_bytes()


# --- weight-curve points ---------------------------------------------------


def test_non_finite_points_of_mixed_dimension_rejected():
    points = [((0.0, 0.5), (0.0, -1.0)), ((0.0, NAN, 0.0), (0.0, -1.0, 0.0))]
    with pytest.raises(DomainError, match=r"weight_sim\.points must be finite, got \[\[0\.0, 0\.5, 0\.0, -1\.0\], \[0\.0, nan"):
        simulate_weight_curves(np.linspace(-0.3, 0.3, 5), points, 0.0)


def test_non_finite_unit_positions_rejected():
    with pytest.raises(DomainError, match="screen unit positions must be finite"):
        simulate_weight_curves([-0.3, NAN, 0.3], [POINT], 0.0)


def test_zero_length_normal_is_a_geometry_error():
    with pytest.raises(GeometryError, match="zero-length"):
        simulate_weight_curves(np.linspace(-0.3, 0.3, 5), [((0.0, 0.5), (0.0, 0.0))], 0.0)
