"""Synthetic labeled face-image datasets.

Every application gets a deterministic screen palette (a solid, split, banded
or quadrant color field derived from its index and the seed).  A sequence of
frames per application is rendered once through the scene geometry and then
perturbed per frame with ambient jitter and Gaussian pixel noise, emulating a
subject dwelling on one application while a webcam watches their face.

Train and test splits use disjoint sequence ids and independent noise
streams.
"""

from __future__ import annotations

import colorsys
import csv
import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .analysis import add_pixel_noise
from .config import ExperimentConfig
from .errors import DomainError, check
from .labels import split_label
from .ppm import read_ppm, write_ppm
from .scene import quantize, resolve_exposure

SPLITS = ("train", "test")

_GOLDEN = 0.381966  # hue step, irrational enough to spread palette colors


def _hsv255(h: float, s: float = 1.0, v: float = 1.0) -> np.ndarray:
    return np.array([round(255 * c) for c in colorsys.hsv_to_rgb(h % 1.0, s, v)], dtype=np.uint8)


def app_palette(category: int, app: int, rows: int, cols: int, seed: int) -> np.ndarray:
    """Deterministic content image for one (category, app) pair.

    Apps of one category share a geometric layout family (split, banded,
    quadrant, ... fields) the way applications of one kind share a UI layout;
    the app picks the colorway by walking a golden-ratio hue wheel offset by
    the seed.  Layouts are multi-region on purpose: per-channel z-scoring
    later erases global color casts, so identity has to live in per-channel
    spatial structure.
    """
    check("screen.rows", rows)
    check("screen.cols", cols)
    hue = (seed % 97) / 97.0 + (category * 11 + app) * _GOLDEN
    c1 = _hsv255(hue)
    c2 = _hsv255(hue + 0.35)
    c3 = _hsv255(hue + 0.70, 0.85, 0.90)
    content = np.zeros((rows, cols, 3), dtype=np.uint8)
    kind = category % 6
    if kind == 0:  # vertical halves
        content[:, : cols // 2] = c1
        content[:, cols // 2 :] = c2
    elif kind == 1:  # horizontal halves
        content[: rows // 2] = c1
        content[rows // 2 :] = c2
    elif kind == 2:  # vertical thirds
        content[:, : cols // 3] = c1
        content[:, cols // 3 : 2 * cols // 3] = c2
        content[:, 2 * cols // 3 :] = c3
    elif kind == 3:  # quadrants
        content[: rows // 2, : cols // 2] = c1
        content[: rows // 2, cols // 2 :] = c2
        content[rows // 2 :, : cols // 2] = c3
        content[rows // 2 :, cols // 2 :] = c1
    elif kind == 4:  # horizontal thirds
        content[: rows // 3] = c1
        content[rows // 3 : 2 * rows // 3] = c2
        content[2 * rows // 3 :] = c3
    else:  # center block on a contrasting background
        content[:, :] = c2
        content[rows // 4 : rows - rows // 4, cols // 4 : cols - cols // 4] = c1
    return content


@dataclass(frozen=True)
class FrameRecord:
    image: np.ndarray
    label: int
    sequence_id: str
    t: int


def generate_split(config: ExperimentConfig, split: str) -> List[FrameRecord]:
    """Render `frames_per_app` noisy frames for every application of one split."""
    if split not in SPLITS:
        raise DomainError(f"split must be one of {SPLITS}, got {split!r}")
    seed = config.require_seed()
    split_code = SPLITS.index(split)
    layout = config.label_layout()
    s = config.screen

    scene = config.build_scene()
    u, v = scene.face.grid
    ambient_part = (scene.face.k_a * scene.optics.ambient)[None, None, :]

    records: List[FrameRecord] = []
    for label in range(layout.num_labels):
        j, k = split_label(label, layout)
        content = app_palette(j, k, s.rows, s.cols, seed)
        radiance = content.astype(float) / 255.0 * s.radiance_scale
        screen_part = (scene.weights @ radiance.reshape(-1, 3)).reshape(u, v, 3)
        exposure = resolve_exposure(scene, screen_part + ambient_part)
        rng = np.random.default_rng([seed, split_code, label])
        jit = config.noise.ambient_jitter
        sequence_id = f"{split}-{label:02d}"
        for t in range(1, config.frames_per_app + 1):
            scale = rng.uniform(1.0 - jit, 1.0 + jit)
            frame = quantize(exposure * (screen_part + scale * ambient_part))
            frame = add_pixel_noise(frame, config.noise.pixel_sigma, rng)
            records.append(FrameRecord(frame, label, sequence_id, t))
    return records


def generate_dataset(config: ExperimentConfig) -> dict:
    return {split: generate_split(config, split) for split in SPLITS}


def ordered(records: Sequence[FrameRecord]) -> List[FrameRecord]:
    """Deterministic playback order: by sequence id, then time."""
    return sorted(records, key=lambda r: (r.sequence_id, r.t))


def images_and_labels(records: Sequence[FrameRecord]) -> Tuple[np.ndarray, np.ndarray]:
    recs = ordered(records)
    return np.stack([r.image for r in recs]), np.array([r.label for r in recs], dtype=int)


MANIFEST_HEADER = ["path", "label_index", "sequence_id", "t"]


def write_split(records: Sequence[FrameRecord], out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for rec in ordered(records):
        name = f"{rec.sequence_id}_{rec.t:04d}.ppm"
        write_ppm(os.path.join(out_dir, name), rec.image)
        rows.append([name, rec.label, rec.sequence_id, rec.t])
    with open(os.path.join(out_dir, "manifest.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)


def write_dataset(dataset: dict, out_dir) -> None:
    for split, records in dataset.items():
        write_split(records, os.path.join(out_dir, split))


def read_split(split_dir) -> List[FrameRecord]:
    """The frame records a split directory's manifest lists; every frame has the first one's size."""
    manifest = os.path.join(split_dir, "manifest.csv")
    if not os.path.isfile(manifest):
        raise FileNotFoundError(f"no manifest.csv under {split_dir}")
    records = []
    seen = {}  # (sequence_id, t) -> the manifest line that listed it
    with open(manifest, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise DomainError(f"{manifest}: expected header {','.join(MANIFEST_HEADER)}")
        for row in reader:
            if not row:
                continue
            try:
                path, label, sequence_id, t = row
                label, t = int(label), int(t)
            except ValueError:
                raise DomainError(
                    f"{manifest}:{reader.line_num}: expected {','.join(MANIFEST_HEADER)} "
                    f"with integer label_index and t, got {row}"
                ) from None
            where = f"{manifest}:{reader.line_num}"
            if label < 0:
                raise DomainError(f"{where}: label_index must be >= 0, got {label}")
            if t < 1:
                raise DomainError(f"{where}: t must be >= 1, got {t}")
            first = seen.setdefault((sequence_id, t), reader.line_num)
            if first != reader.line_num:
                raise DomainError(f"{where}: sequence_id {sequence_id} and t {t} repeat line {first}")
            image = read_ppm(os.path.join(split_dir, path))
            if records and image.shape != records[0].image.shape:
                raise DomainError(
                    f"{where}: frame {path} is {image.shape[0]}x{image.shape[1]}, "
                    f"but the first frame is {records[0].image.shape[0]}x{records[0].image.shape[1]}"
                )
            records.append(FrameRecord(image, label, sequence_id, t))
    if not records:
        raise DomainError(f"{manifest}: no frames listed")
    return records
