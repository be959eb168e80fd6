#!/usr/bin/env python3
"""End-to-end synthetic attack experiment, fully in memory.

Renders the labeled dataset, trains the two-tier classifier, predicts the
held-out sequences and reports per-frame accuracy before and after label
correction, per seed and as medians.

    python scripts/run_attack_experiment.py --seeds 0 1 2 3 4
"""

import argparse
import dataclasses
import time

import numpy as np

from facelight.config import ExperimentConfig, load_config
from facelight.dataset import generate_dataset
from facelight.pipeline import run_attack


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--l-size", dest="l_size", type=int, default=None)
    args = parser.parse_args()

    pres, posts = [], []
    for seed in args.seeds:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        l_size = cfg.l_size if args.l_size is None else args.l_size
        cfg = dataclasses.replace(cfg, seed=seed, l_size=l_size)  # re-runs the config's range checks
        t0 = time.perf_counter()
        result = run_attack(cfg, generate_dataset(cfg))
        pres.append(result.pre_accuracy)
        posts.append(result.post_accuracy)
        print(f"seed {seed}: pre {pres[-1]:.4f}  post {posts[-1]:.4f}  ({time.perf_counter() - t0:.0f}s)")
    print(f"median over {len(args.seeds)} seeds: pre {np.median(pres):.4f}  post {np.median(posts):.4f}")


if __name__ == "__main__":
    main()
