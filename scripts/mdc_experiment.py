#!/usr/bin/env python3
"""Minimally-differentiable-content sweep over multiple seeds.

For each screen-area fraction, renders the shrunk red/blue probe on a dark
screen and reports the per-seed minimum KS p-value between the face halves
plus the across-seed median, i.e. how small the probe can get before the
reflection asymmetry disappears into the noise.

    python scripts/mdc_experiment.py --seeds 10
"""

import argparse

import numpy as np

from facelight.config import ExperimentConfig, load_config
from facelight.pipeline import mdc_seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")

    cfg = load_config(args.config) if args.config else ExperimentConfig()
    table = [result.min_p for result in mdc_seeds(cfg, range(args.seeds))]
    medians = np.median(table, axis=0)
    print("fraction  median_min_p")
    for fraction, p in zip(cfg.mdc.fractions, medians):
        marker = "quiet" if p >= 0.05 else "detected"
        print(f"{fraction:8.4f}  {p:12.4g}  {marker}")


if __name__ == "__main__":
    main()
