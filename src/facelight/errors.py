"""Exception types shared across the package, and the range of every
config-settable value.

The CLI maps DomainError (and subclasses) to exit code 1 and I/O or usage
problems to exit code 2, so library code should raise these rather than
bare ValueError where the distinction matters.

`RANGES` maps a config key (`face.k_d`, `delta`, ...) to its range.  The
config sections and every library function that takes the same value call
`check`, so an out-of-range value reads `<key> must <phrase>, got <value>`
through the CLI and the library alike.  NaN fails every predicate.
"""

import math

import numpy as np


class DomainError(ValueError):
    """An argument violates a documented precondition or value range."""


class GeometryError(DomainError):
    """Degenerate scene geometry (zero distances, points on the screen plane, ...)."""


def _at_least(low):
    return f"be >= {low}", lambda v: v >= low


_POSITIVE = ("be > 0", lambda v: v > 0)
_UNIT_INTERVAL = ("lie in [0, 1]", lambda v: 0 <= v <= 1)
_FINITE = ("be finite", math.isfinite)
_FINITE_VECTOR = ("be finite", lambda v: all(map(math.isfinite, v)))

# config key -> (phrase after "must", predicate)
RANGES = {
    "seed": ("be >= 0", lambda v: v is None or v >= 0),
    "frames_per_app": _at_least(1),
    "delta": ("be finite and > 0", lambda v: 0 < v < math.inf),
    "l_size": _at_least(1),
    "exposure": ("be > 0 or 'auto'", lambda v: v == "auto" if isinstance(v, str) else v > 0),
    "camera": _FINITE_VECTOR,
    "screen.center": _FINITE_VECTOR,
    "screen.normal": _FINITE_VECTOR,
    "screen.rows": _at_least(1),
    "screen.cols": _at_least(1),
    "screen.width": _POSITIVE,
    "screen.height": _POSITIVE,
    "screen.radiance_scale": _at_least(0),
    "face.center": _FINITE_VECTOR,
    "face.rows": _at_least(2),
    "face.cols": _at_least(2),
    "face.k_d": _UNIT_INTERVAL,
    "face.k_s": _UNIT_INTERVAL,
    "face.k_a": _UNIT_INTERVAL,
    "face.n_s": _at_least(1),
    "face.semi_axes": ("be > 0 on every axis", lambda v: all(x > 0 for x in v)),
    "face.patch_degrees": ("lie in (0, 90]", lambda v: 0 < v <= 90),
    "optics.g": _at_least(0),
    "optics.ambient": ("be >= 0 in every channel", lambda v: all(x >= 0 for x in v)),
    "noise.pixel_sigma": _UNIT_INTERVAL,
    "noise.ambient_jitter": _UNIT_INTERVAL,
    "train.epochs": _at_least(1),
    "train.batch_size": _at_least(1),
    "train.learning_rate": _POSITIVE,
    "hlc.sigma_s": ("lie in [0.5, 1)", lambda v: 0.5 <= v < 1),
    "hlc.t_s": _at_least(1),
    "hlc.sigma_e": ("lie in (0, 0.5]", lambda v: 0 < v <= 0.5),
    "hlc.t_e": _at_least(0),
    "weight_sim.x_min": _FINITE,
    "weight_sim.x_max": _FINITE,
    "weight_sim.units": _at_least(2),
    "weight_sim.camera_x": _FINITE,
    "weight_sim.points": ("be finite", lambda v: all(math.isfinite(x) for point in v for x in point)),
    "mdc.fractions": ("be a non-empty list of values in (0, 1]", lambda v: len(v) > 0 and all(0 < f <= 1 for f in v)),
}


def check(key: str, value):
    """`value` if it lies in the range of config key `key`; DomainError naming the key otherwise."""
    phrase, ok = RANGES[key]
    if not ok(value):
        try:
            shown = repr(value) if isinstance(value, str) else np.asarray(value).tolist()
        except ValueError:  # a ragged list, such as weight-curve points of mixed dimension
            shown = value
        raise DomainError(f"{key} must {phrase}, got {shown}")
    return value


def check_section(obj, section: str = "") -> None:
    """Check every `RANGES` key of one config section (top-level keys for "") on `obj`'s attributes."""
    for key in RANGES:
        prefix, _, name = key.rpartition(".")
        if prefix == section:
            check(key, getattr(obj, name))
