#!/usr/bin/env python3
"""Correction-parameter sweep on noisy synthetic step sequences.

Builds step sequences with uniform label flips, runs the correction over a
grid of (sigma_s, T_s, sigma_e, T_e) settings and writes the accuracy table,
averaged over seeds.

    python scripts/hlc_param_sweep.py --out sweep.csv
"""

import argparse

import numpy as np

from facelight.hlc import param_grid, sweep_params, write_sweep_csv


def noisy_steps(rng, n_labels=29, step_len=60, flip=0.05):
    truth = []
    for label in range(n_labels):
        truth += [label] * step_len
    noisy = list(truth)
    for i in np.flatnonzero(rng.random(len(noisy)) < flip):
        noisy[i] = int((noisy[i] + 1 + rng.integers(0, n_labels - 1)) % n_labels)
    return noisy, truth


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="hlc_sweep.csv")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--flip", type=float, default=0.05)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if not 0.0 <= args.flip <= 1.0:
        parser.error(f"--flip must be in [0, 1], got {args.flip}")

    grid = param_grid([0.5, 0.6, 0.7, 0.8, 0.9], [5, 10, 15], [0.1, 0.2, 0.3], [5, 10])
    totals = np.zeros(len(grid))
    for seed in range(args.seeds):
        noisy, truth = noisy_steps(np.random.default_rng(seed), flip=args.flip)
        totals += [acc for _, acc in sweep_params(noisy, truth, grid)]
    totals /= args.seeds

    write_sweep_csv(args.out, [(params, float(acc)) for params, acc in zip(grid, totals)])

    best = int(np.argmax(totals))
    print(f"best mean accuracy {totals[best]:.4f} at {grid[best]}")
    print(f"table written to {args.out}")


if __name__ == "__main__":
    main()
