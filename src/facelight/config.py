"""Experiment configuration: dataclass sections with JSON load/dump.

A config file is a single JSON document mirroring `ExperimentConfig`; any
subset of keys may be given and the rest fall back to defaults.  The seed has
no default; it must come from the file or the command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import List, Optional, Tuple, Union

from .errors import DomainError, check_section
from .hlc import HlcParams
from .labels import LabelLayout
from .optics import OpticsConfig
from .scene import FaceModel, Scene, screen_from_image

import numpy as np


@dataclass
class ScreenSection:
    width: float = 0.60
    height: float = 0.34
    rows: int = 18
    cols: int = 32
    center: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    normal: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    radiance_scale: float = 100.0

    def __post_init__(self):
        check_section(self, "screen")


@dataclass
class FaceSection:
    center: Tuple[float, float, float] = (0.0, 0.0, 0.45)
    semi_axes: Tuple[float, float, float] = (0.08, 0.10, 0.09)
    rows: int = 24
    cols: int = 24
    k_d: float = 0.55
    k_s: float = 0.25
    k_a: float = 0.35
    n_s: float = 2.0
    patch_degrees: float = 80.0

    def __post_init__(self):
        check_section(self, "face")


@dataclass
class OpticsSection:
    g: float = 30.0
    ambient: Tuple[float, float, float] = (6.0, 6.0, 6.0)

    def __post_init__(self):
        check_section(self, "optics")


@dataclass
class NoiseSection:
    pixel_sigma: float = 0.05  # Gaussian std as a fraction of full scale
    ambient_jitter: float = 0.0  # per-frame uniform scale in [1 - j, 1 + j]

    def __post_init__(self):
        check_section(self, "noise")


@dataclass
class TrainSection:
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 1e-4

    def __post_init__(self):
        check_section(self, "train")


@dataclass
class CategorySection:
    name: str
    apps: List[str]


@dataclass
class WeightSimSection:
    x_min: float = -0.30
    x_max: float = 0.30
    units: int = 61
    camera_x: float = 0.0
    # (x, y, nx, ny) per face point; y > 0 is in front of the screen line
    points: List[Tuple[float, float, float, float]] = field(
        default_factory=lambda: [
            (0.0, 0.50, 0.0, -1.0),
            (0.0, 0.25, 0.0, -1.0),
            (0.20, 0.50, 0.0, -1.0),
        ]
    )

    def __post_init__(self):
        check_section(self, "weight_sim")
        for i, (_, y, nx, ny) in enumerate(self.points):
            if not math.hypot(nx, ny) > 0.0:
                raise DomainError(f"weight_sim.points[{i}] needs a non-zero normal, got ({nx}, {ny})")
            if y == 0.0:
                raise DomainError(f"weight_sim.points[{i}] needs y != 0 (off the screen line), got {y}")


@dataclass
class MdcSection:
    fractions: List[float] = field(default_factory=lambda: [1 / 64, 1 / 25, 1 / 16, 1 / 4, 1.0])

    def __post_init__(self):
        check_section(self, "mdc")


def default_categories() -> List[CategorySection]:
    """Six synthetic content categories; counts (6, 6, 6, 8, 2, 1)."""
    return [
        CategorySection("web", [f"web-{n}" for n in ("news", "search", "shop", "mail", "social", "sports")]),
        CategorySection("office", [f"office-{n}" for n in ("writer", "sheets", "slides", "diagram", "notes", "pdf")]),
        CategorySection("coding", [f"code-{n}" for n in ("ide-a", "ide-b", "ide-c", "ide-d", "editor-a", "editor-b")]),
        CategorySection("media", [f"media-{n}" for n in ("video-a", "video-b", "video-c", "music-a", "music-b", "stream-a", "stream-b", "radio")]),
        CategorySection("system", ["sys-files", "sys-settings"]),
        CategorySection("conferencing", ["conferencing"]),
    ]


@dataclass
class ExperimentConfig:
    seed: Optional[int] = None
    screen: ScreenSection = field(default_factory=ScreenSection)
    face: FaceSection = field(default_factory=FaceSection)
    camera: Tuple[float, float, float] = (0.0, 0.12, 0.02)
    optics: OpticsSection = field(default_factory=OpticsSection)
    exposure: Union[float, str] = "auto"
    categories: List[CategorySection] = field(default_factory=default_categories)
    noise: NoiseSection = field(default_factory=NoiseSection)
    delta: float = 0.5
    frames_per_app: int = 120
    hlc: HlcParams = field(default_factory=HlcParams)
    train: TrainSection = field(default_factory=TrainSection)
    l_size: int = 64
    p_grid: int = 4
    weight_sim: WeightSimSection = field(default_factory=WeightSimSection)
    mdc: MdcSection = field(default_factory=MdcSection)

    def __post_init__(self):
        check_section(self)
        if not 1 <= self.p_grid <= self.l_size:
            raise DomainError(f"p_grid must lie in [1, l_size = {self.l_size}], got {self.p_grid}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise DomainError("a seed is required (config key 'seed' or --seed)")
        return int(self.seed)

    def label_layout(self) -> LabelLayout:
        return LabelLayout(
            tuple(len(c.apps) for c in self.categories),
            tuple(c.name for c in self.categories),
            tuple(tuple(c.apps) for c in self.categories),
        )

    def optics_config(self) -> OpticsConfig:
        return OpticsConfig(self.optics.g, np.asarray(self.optics.ambient, dtype=float))

    def build_scene(self, content=None) -> Scene:
        """Scene with the given screen content (dark screen when omitted)."""
        s = self.screen
        if content is None:
            content = np.zeros((s.rows, s.cols, 3), dtype=np.uint8)
        screen = screen_from_image(
            content, (s.width, s.height), (s.rows, s.cols), s.center, s.normal, s.radiance_scale
        )
        f = self.face
        face = FaceModel(
            f.center, f.semi_axes, (f.rows, f.cols), f.k_d, f.k_s, f.k_a, f.n_s, f.patch_degrees
        )
        return Scene(screen, face, np.asarray(self.camera, dtype=float), self.optics_config(), self.exposure)


_SECTION_TYPES = {
    "screen": ScreenSection,
    "face": FaceSection,
    "optics": OpticsSection,
    "noise": NoiseSection,
    "train": TrainSection,
    "hlc": HlcParams,
    "weight_sim": WeightSimSection,
    "mdc": MdcSection,
}


_DEFAULTS = ExperimentConfig()

# keys whose default is not of their value type: (the one literal also allowed, a typed default)
_SPECIAL_KEYS = {"seed": (None, 0), "exposure": ("auto", 1.0)}


def _matches(value, default) -> bool:
    """Does the JSON value have the type of `default`?

    An int passes for a float but a bool never for a number; a list passes
    for a tuple of the same length, element by element.
    """
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, tuple):
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(default)
            and all(map(_matches, value, default))
        )
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(_matches(v, default[0]) for v in value)
    return type(value) is type(default)


def _check_type(template, key: str, value, where: str) -> None:
    default = getattr(template, key)
    if key in _SPECIAL_KEYS:
        literal, default = _SPECIAL_KEYS[key]
        if value == literal:
            return
    if not _matches(value, default):
        if isinstance(default, (list, tuple)):
            expected = f"a list like {json.dumps(default)}"
        else:
            expected = {float: "a number", int: "an integer", str: "a string"}[type(default)]
        raise DomainError(f"config key '{where}' must be {expected}, got {json.dumps(value)}")


def _build_section(cls, data, path, template):
    if not isinstance(data, dict):
        raise DomainError(f"config section '{path}' must be an object")
    valid = {f.name for f in fields(cls)}
    unknown = set(data) - valid
    if unknown:
        raise DomainError(f"unknown config key(s) in '{path}': {sorted(unknown)}")
    for key, value in data.items():
        _check_type(template, key, value, f"{path}.{key}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise DomainError(f"bad config section '{path}': {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise DomainError("config document must be a JSON object")
    valid = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - valid
    if unknown:
        raise DomainError(f"unknown config key(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key, getattr(_DEFAULTS, key))
        elif key == "categories":
            if not isinstance(value, list):
                raise DomainError("config key 'categories' must be a list")
            kwargs[key] = [
                _build_section(CategorySection, c, f"categories[{i}]", _DEFAULTS.categories[0])
                for i, c in enumerate(value)
            ]
        else:
            _check_type(_DEFAULTS, key, value, key)
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    # normalize through JSON so tuples and lists compare equal after a round trip
    return json.loads(json.dumps(asdict(cfg)))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def default_config_json() -> str:
    return json.dumps(config_to_dict(ExperimentConfig()), indent=2)
