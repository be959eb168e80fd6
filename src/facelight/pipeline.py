"""The attack pipeline: where an `ExperimentConfig` becomes library calls.

Profile (features from the seeded extractor, then the two-tier classifier),
eavesdrop on held-out frames, correct the labels with HLC; plus the two
config-driven analyses, the weight curves and the MDC search.  The CLI
commands and the experiment scripts are front ends over these functions: they
parse arguments, write files and print.  Nothing here writes files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import analysis, scene
from .classifier import TwoTierModel, predict_images, train_two_tier
from .config import ExperimentConfig
from .dataset import FrameRecord, images_and_labels
from .features import FeatureParams, extract_features
from .hlc import LabelSequence, correct_labels
from .labels import accuracy


@dataclass(frozen=True)
class AttackResult:
    model: TwoTierModel
    log: List[dict]
    raw: LabelSequence  # predicted labels, one per held-out frame in playback order
    corrected: LabelSequence
    truth: np.ndarray
    pre_accuracy: float
    post_accuracy: float


def train(cfg: ExperimentConfig, records: Sequence[FrameRecord]) -> Tuple[TwoTierModel, List[dict]]:
    """Train the two-tier classifier on labeled frames; returns (model, loss log)."""
    images, labels = images_and_labels(records)
    seed = cfg.require_seed()
    feats = extract_features(images, FeatureParams.from_seed(seed), cfg.l_size, cfg.p_grid)
    return train_two_tier(
        feats, labels, cfg.label_layout(),
        epochs=cfg.train.epochs, batch_size=cfg.train.batch_size, lr=cfg.train.learning_rate,
        seed=seed, l_size=cfg.l_size, p_grid=cfg.p_grid,
    )


def eavesdrop(cfg: ExperimentConfig, model: TwoTierModel, images) -> Tuple[LabelSequence, LabelSequence]:
    """Predict each frame's label, then correct the sequence with `cfg.hlc`; returns (raw, corrected)."""
    raw = LabelSequence(tuple(int(v) for v in predict_images(model, images)), cfg.delta)
    return raw, correct_labels(raw, cfg.hlc)


def run_attack(cfg: ExperimentConfig, data: dict) -> AttackResult:
    """Train on `data["train"]`, then eavesdrop on `data["test"]`.

    `data` is the split dict `dataset.generate_dataset` returns.
    """
    model, log = train(cfg, data["train"])
    images, truth = images_and_labels(data["test"])
    raw, corrected = eavesdrop(cfg, model, images)
    return AttackResult(
        model, log, raw, corrected, truth, accuracy(raw.labels, truth), accuracy(corrected.labels, truth)
    )


def weight_curves(cfg: ExperimentConfig) -> List[scene.WeightCurve]:
    """The per-unit weight curves of the `weight_sim` face points."""
    ws = cfg.weight_sim
    xs = np.linspace(ws.x_min, ws.x_max, ws.units)
    points = [((p[0], p[1]), (p[2], p[3])) for p in ws.points]
    return scene.simulate_weight_curves(xs, points, ws.camera_x, cfg.optics.g, cfg.face.n_s)


def mdc(cfg: ExperimentConfig) -> analysis.MdcResult:
    """The MDC search over `cfg.mdc.fractions` on the config's dark-screen scene."""
    return mdc_seeds(cfg, [cfg.require_seed()])[0]


def mdc_seeds(cfg: ExperimentConfig, seeds: Sequence[int]) -> List[analysis.MdcResult]:
    """`mdc` for each of `seeds`, all on one scene: the seed sets only the pixel noise."""
    template = cfg.build_scene()
    return [
        analysis.mdc_search(
            template,
            cfg.mdc.fractions,
            seed=seed,
            noise_sigma=cfg.noise.pixel_sigma,
            radiance_scale=cfg.screen.radiance_scale,
        )
        for seed in seeds
    ]
