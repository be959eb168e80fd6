"""Experiment configuration: dataclass sections with JSON load/dump.

A config file is a single JSON document mirroring `ExperimentConfig`; any
subset of keys may be given and the rest fall back to defaults.  The seed has
no default; it must come from the file or the command line.

The sections are plain dataclasses.  `_build` reads the document and checks
each value's type; `ExperimentConfig.__post_init__` then checks every value's
range in one walk over `errors.RANGES`, so a type error anywhere in the
document is reported before any range error (`hlc` aside: `HlcParams`, a
library type, checks itself as it is built).  A section added to
`ExperimentConfig` needs only its field and its `RANGES` keys.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from operator import attrgetter
from typing import List, Optional, Tuple, Union

from .errors import RANGES, DomainError, check, check_p_grid, decoding
from .hlc import HlcParams
from .labels import LabelLayout
from .optics import OpticsConfig
from .scene import FaceModel, Scene, screen_from_image, weight_points

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


@dataclass
class OpticsSection:
    g: float = 30.0
    ambient: Tuple[float, float, float] = (6.0, 6.0, 6.0)


@dataclass
class NoiseSection:
    pixel_sigma: float = 0.05  # Gaussian std as a fraction of full scale
    ambient_jitter: float = 0.0  # per-frame uniform scale in [1 - j, 1 + j]


@dataclass
class TrainSection:
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 1e-4


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


@dataclass
class MdcSection:
    fractions: List[float] = field(default_factory=lambda: [1 / 64, 1 / 25, 1 / 16, 1 / 4, 1.0])


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
        """The one check of a config: every `RANGES` key by its path, then the rules that span keys."""
        for key in RANGES:
            check(key, attrgetter(key)(self))
        check_p_grid(self.l_size, self.p_grid)
        w = self.weight_sim
        if not w.x_min < w.x_max:
            raise DomainError(f"weight_sim.x_min must be < weight_sim.x_max, got {w.x_min} >= {w.x_max}")
        weight_points([((x, y), (nx, ny)) for x, y, nx, ny in w.points])

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
        return Scene(screen, face, self.camera, OpticsConfig(self.optics.g, self.optics.ambient), self.exposure)


_DEFAULTS = ExperimentConfig()

# keys whose default is not of their value type: (the one literal also allowed, a typed default)
_SPECIAL_KEYS = {"seed": (None, 0), "exposure": ("auto", 1.0)}


def _matches(value, default) -> bool:
    """Does the JSON value have the type of `default`?

    An int within the float range passes for a float, but a bool never for a
    number; a list passes for a tuple of the same length, element by element.
    """
    if isinstance(default, float):
        return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max
    if isinstance(default, tuple):
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(default)
            and all(map(_matches, value, default))
        )
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(_matches(v, default[0]) for v in value)
    return type(value) is type(default)


def _check_type(key: str, default, value, where: str) -> None:
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


def _build(cls, data, where: str, template):
    """`cls` from the JSON object `data` at config path `where` ("" for the document).

    Each key must be a field of `cls`; its value is type-checked against
    `template`'s, and built the same way where that value is a section.
    """
    if not isinstance(data, dict):
        raise DomainError(f"config section '{where}' must be an object" if where else "config document must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise DomainError(f"unknown config key(s){f' in {where!r}' if where else ''}: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        path = f"{where}.{key}" if where else key
        default = getattr(template, key)
        if is_dataclass(default):
            kwargs[key] = _build(type(default), value, path, default)
        elif key == "categories":
            if not isinstance(value, list):
                raise DomainError("config key 'categories' must be a list")
            kwargs[key] = [_build(CategorySection, c, f"categories[{i}]", default[0]) for i, c in enumerate(value)]
        else:
            _check_type(key, default, value, path)
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise DomainError(f"bad config section '{where}': {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "", _DEFAULTS)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    # normalize through JSON so tuples and lists compare equal after a round trip
    return json.loads(json.dumps(asdict(cfg)))


def load_config(path) -> ExperimentConfig:
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def default_config_json() -> str:
    return json.dumps(config_to_dict(ExperimentConfig()), indent=2)
