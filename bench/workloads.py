"""The benchmark's workloads, run one per process by bench/run.py.

Each workload maps the attack's two phases onto the benchmark: the set-up
phase profiles applications (render, features, train) and prepares victim
sessions; the measured phase repeats the workload's operations on those
sessions for a fixed time.  After the measured phase every output is checked.

    python3 bench/workloads.py --workload eavesdrop-l64 --seed 1 --seconds 8 --trace 0

prints one JSON line: the set-up times, the measured items and seconds, the
operation counts, the verdict of the checks, a digest of the first cycle's
outputs and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from facelight import analysis, classifier, dataset, hlc, scene  # noqa: E402
from facelight.config import ExperimentConfig, config_to_dict  # noqa: E402
from facelight.features import (  # noqa: E402
    FeatureParams,
    cbam_forward,
    extract_features,
    pooled_features,
    resblock_forward,
)
from facelight.labels import UNKNOWN, accuracy  # noqa: E402
from facelight.preprocess import preprocess  # noqa: E402

from hlc_reference import reference_correct, step_violations  # noqa: E402
from sessions import build_sessions, max_dwell, session_arrays  # noqa: E402
from spans import Tracer  # noqa: E402

FEATURE_CHUNK = 256  # the chunk length extract_features uses
FEATURE_RTOL = 1e-9
MIN_PRE_ACCURACY = 0.90  # criterion 09's thresholds, per session
MIN_POST_ACCURACY = 0.99
CHILD_TIMEOUT_S = 150


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input make-up of one workload; tests shrink it."""

    l_size: int
    profile_frames: int  # frames per app in the profiling (train) split
    epochs: int
    learning_rate: float
    pixel_sigma: float
    sessions: int
    session_frames: int
    apps_per_session: int
    min_dwell: int
    setup_repeats: int


SIZES = {
    "eavesdrop-l64": Sizes(64, 40, 6, 2e-3, 0.05, 3, 160, 4, 25, 3),
    "cli-l32": Sizes(32, 40, 6, 2e-3, 0.05, 3, 160, 4, 25, 3),
    # two sessions, each visiting all 29 apps for 30 frames: every run
    # corrects the same mix of apps, since HLC's cost per label depends on it
    "hlc-sweep": Sizes(16, 40, 2, 1e-3, 0.35, 2, 29 * 30, 29, 30, 3),
}

# hlc-sweep's grid: window lengths from half to twice the default T_s.
SWEEP_GRID = hlc.param_grid([0.6, 0.9], [5, 10, 20], [0.1], [5, 20])
REFERENCE_EVERY = 3  # grid points compared against the reference HLC
SWEEP_PROFILE_SEED = 0
MAX_SWEEP_PRE_ACCURACY = 0.95  # the weak attacker must leave HLC errors to correct


def make_config(seed: int, sizes: Sizes) -> ExperimentConfig:
    cfg = ExperimentConfig(seed=seed, l_size=sizes.l_size, frames_per_app=sizes.profile_frames)
    cfg.train.epochs = sizes.epochs
    cfg.train.learning_rate = sizes.learning_rate
    cfg.noise.pixel_sigma = sizes.pixel_sigma
    return cfg


def render_split(cfg: ExperimentConfig, split: str, tracer: Tracer):
    frames = cfg.frames_per_app * cfg.label_layout().num_labels
    with tracer.span("render.split", frames):
        return dataset.generate_split(cfg, split)


def render_weights(cfg: ExperimentConfig, tracer: Tracer) -> None:
    """Time the geometry generate_split computes once per split (traced runs only)."""
    if tracer.enabled:
        with tracer.span("render.weights"):
            scene.face_screen_weights(cfg.build_scene())


def staged_features(images, params, l_size: int, p_grid: int, tracer: Tracer) -> np.ndarray:
    """extract_features stage by stage, chunk by chunk, one span per stage."""
    chunks = []
    for start in range(0, len(images), FEATURE_CHUNK):
        block = images[start : start + FEATURE_CHUNK]
        n = len(block)
        with tracer.span("features.preprocess", n):
            t = preprocess(block, l_size)
        with tracer.span("features.resblock", n):
            t = resblock_forward(t, params)
        with tracer.span("features.cbam", n):
            t = cbam_forward(t, params)
        with tracer.span("features.pool", n):
            chunks.append(pooled_features(t, p_grid))
    return np.concatenate(chunks, axis=0)


def features(images, params, cfg: ExperimentConfig, tracer: Tracer) -> np.ndarray:
    if tracer.enabled:
        return staged_features(images, params, cfg.l_size, cfg.p_grid, tracer)
    return extract_features(images, params, cfg.l_size, cfg.p_grid)


def predict(model, images, tracer: Tracer) -> np.ndarray:
    """predict_images untraced; stage-timed features + predict_features traced."""
    if not tracer.enabled:
        return classifier.predict_images(model, images)
    feats = staged_features(images, model.feature_params, model.l_size, model.p_grid, tracer)
    with tracer.span("classifier.predict", len(images)):
        return classifier.predict_features(model, feats)


def correct(labels, cfg: ExperimentConfig, tracer: Tracer) -> hlc.LabelSequence:
    with tracer.span("hlc.correct", len(labels)):
        return hlc.correct_labels(hlc.LabelSequence(tuple(int(v) for v in labels), cfg.delta), cfg.hlc)


def profile(cfg: ExperimentConfig, tracer: Tracer):
    """The attacker's offline phase: render, features, two-tier training."""
    render_weights(cfg, tracer)
    images, labels = dataset.images_and_labels(render_split(cfg, "train", tracer))
    seed = cfg.require_seed()
    params = FeatureParams.from_seed(seed)
    feats = features(images, params, cfg, tracer)
    with tracer.span("classifier.train"):
        model, log = classifier.train_two_tier(
            feats, labels, cfg.label_layout(),
            epochs=cfg.train.epochs, batch_size=cfg.train.batch_size, lr=cfg.train.learning_rate,
            seed=seed, feature_params=params, l_size=cfg.l_size, p_grid=cfg.p_grid,
        )
    tracer.add_items("classifier.train_batches", len(log))
    return model


def victim_sessions(cfg: ExperimentConfig, sizes: Sizes, tracer: Tracer, seed: int):
    """Render held-out frames and cut them into victim sessions drawn from `seed`."""
    vcfg = dataclasses.replace(
        cfg, frames_per_app=max_dwell(sizes.session_frames, sizes.apps_per_session, sizes.min_dwell)
    )
    held_out = render_split(vcfg, "test", tracer)
    return build_sessions(
        held_out, cfg.label_layout().num_labels, sizes.sessions, sizes.session_frames,
        sizes.apps_per_session, sizes.min_dwell, np.random.default_rng([seed, 7]),
    )


class Checks:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self):
        self.failures: List[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def check_labels(checks: Checks, where: str, labels, truth, num_labels: int, lowest: int, min_acc: float):
    labels = [int(v) for v in labels]
    checks.require(len(labels) == len(truth), f"{where}: {len(labels)} labels for {len(truth)} frames")
    if len(labels) != len(truth):
        return
    checks.require(all(lowest <= v < num_labels for v in labels), f"{where}: label out of range")
    acc = accuracy(labels, truth)
    checks.require(acc >= min_acc, f"{where}: accuracy {acc:.4f} < {min_acc}")
    print(f"{where} accuracy {acc:.4f}", file=sys.stderr)


def check_staged_features(checks: Checks, images, params, cfg: ExperimentConfig) -> None:
    staged = staged_features(images, params, cfg.l_size, cfg.p_grid, Tracer(False))
    whole = extract_features(images, params, cfg.l_size, cfg.p_grid)
    checks.require(
        staged.shape == whole.shape and np.allclose(staged, whole, rtol=FEATURE_RTOL, atol=FEATURE_RTOL),
        "stage-by-stage features differ from extract_features",
    )


# ---------------------------------------------------------------------------


class Eavesdrop:
    """Library path in process: predict_images + correct_labels per session."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer, workdir: Path):
        self.cfg = make_config(seed, sizes)
        self.sizes = sizes
        self.tracer = tracer

    def setup(self):
        self.model = profile(self.cfg, self.tracer)
        sessions = victim_sessions(self.cfg, self.sizes, self.tracer, self.cfg.require_seed())
        self.sessions = [session_arrays(s) for s in sessions]

    def fingerprint(self):
        return hashlib.sha256(self.model.discriminator.w3.tobytes()).hexdigest()

    def operations(self):
        return [functools.partial(self.eavesdrop, i) for i in range(len(self.sessions))]

    def eavesdrop(self, i: int):
        images, _ = self.sessions[i]
        predicted = predict(self.model, images, self.tracer)
        corrected = correct(predicted, self.cfg, self.tracer)
        return [[int(v) for v in predicted], list(corrected.labels)], len(images), 0

    def check(self, checks: Checks, output) -> None:
        k = self.cfg.label_layout().num_labels
        for i, ((_, truth), (pre, post)) in enumerate(zip(self.sessions, output)):
            check_labels(checks, f"session {i} pre", pre, truth, k, 0, MIN_PRE_ACCURACY)
            check_labels(checks, f"session {i} post", post, truth, k, UNKNOWN, MIN_POST_ACCURACY)
        check_staged_features(checks, self.sessions[0][0], self.model.feature_params, self.cfg)


class CliFlow:
    """The documented CLI flow, one subprocess per command."""

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer, workdir: Path):
        self.cfg = make_config(seed, sizes)
        self.sizes = sizes
        self.tracer = tracer
        self.dir = workdir
        self.config_path = workdir / "config.json"
        self.model_path = workdir / "model.json"
        self.calls_failed: List[str] = []

    def cli(self, span: str, *args, items: int = 0):
        """Run one facelight command; returns its stdout, or None if it failed."""
        with self.tracer.span(span, items):
            proc = subprocess.run(
                [sys.executable, "-m", "facelight", *map(str, args)],
                cwd=self.dir, env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        if proc.returncode != 0:
            self.calls_failed.append(f"facelight {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
            return None
        return proc.stdout

    def setup(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.config_path.write_text(json.dumps(config_to_dict(self.cfg)), encoding="ascii")
        self.cli("cli.gen_dataset", "gen-dataset", "--config", self.config_path, "--out", "data")
        self.cli("cli.train", "train", "data", self.model_path, "--config", self.config_path)
        self.sessions = victim_sessions(self.cfg, self.sizes, self.tracer, self.cfg.require_seed())
        self.session_dirs = []
        for i, session in enumerate(self.sessions):
            path = self.dir / f"session-{i:02d}"
            with self.tracer.span("dataset.write", len(session)):
                dataset.write_split(session, path)
            self.session_dirs.append(path)

    def fingerprint(self):
        return hashlib.sha256(self.model_path.read_bytes()).hexdigest()

    def operations(self):
        attacks = [functools.partial(self.attack, i) for i in range(len(self.session_dirs))]
        return attacks + [self.mdc, self.simulate_weights]

    def attack(self, i: int):
        csv_path = self.dir / f"corrected-{i:02d}.csv"
        stdout = self.cli(
            "cli.attack", "attack", self.model_path, self.session_dirs[i], "--hlc",
            "--config", self.config_path, "--out", csv_path, items=len(self.sessions[i]),
        )
        if stdout is None:
            return None, 0, 1
        return list(hlc.read_label_sequence(csv_path).labels), len(self.sessions[i]), 0

    def mdc(self):
        stdout = self.cli("cli.mdc", "mdc", "--config", self.config_path, "--out", "mdc.csv")
        if stdout is None:
            return None, 0, 1
        return [stdout, read_csv_rows(self.dir / "mdc.csv")], 0, 0

    def simulate_weights(self):
        stdout = self.cli(
            "cli.simulate_weights", "simulate-weights", "--config", self.config_path, "--out", "curves.csv"
        )
        if stdout is None:
            return None, 0, 1
        return read_csv_rows(self.dir / "curves.csv"), 0, 0

    def check(self, checks: Checks, output) -> None:
        k = self.cfg.label_layout().num_labels
        for i, (session, post) in enumerate(zip(self.sessions, output)):
            if post is None:
                continue
            truth = [r.label for r in session]
            raw_csv = self.dir / f"predicted-{i:02d}.csv"
            if self.cli("check.attack", "attack", self.model_path, self.session_dirs[i], "--out", raw_csv) is None:
                continue
            pre = hlc.read_label_sequence(raw_csv).labels
            check_labels(checks, f"session {i} pre", pre, truth, k, 0, MIN_PRE_ACCURACY)
            check_labels(checks, f"session {i} post", post, truth, k, UNKNOWN, MIN_POST_ACCURACY)
            checks.require(
                tuple(post) == hlc.correct_labels(pre, self.cfg.hlc).labels,
                f"session {i}: attack --hlc differs from correct_labels on attack's raw labels",
            )
        images = session_arrays(self.sessions[0])[0]
        check_staged_features(checks, images, FeatureParams.from_seed(self.cfg.require_seed()), self.cfg)
        if output[-2] is not None:
            check_mdc(checks, *output[-2])
        if output[-1] is not None:
            check_curves(checks, output[-1], len(self.cfg.weight_sim.points), self.cfg.weight_sim.units)
        checks.failures.extend(self.calls_failed)

    def probe_layers(self, checks: Checks, output) -> None:
        """Traced runs only: time in process the layers the CLI children run.

        The in-process pipeline, trained from the CLI's own dataset, must
        reproduce the labels `attack --hlc` wrote.
        """
        t = self.tracer
        with t.span("classifier.load"):
            model = classifier.load_model(self.model_path)
        with t.span("classifier.save"):
            classifier.save_model(model, self.dir / "model-probe.json")
        read = [self.dir / "data" / "train", *self.session_dirs]
        records = []
        for path in read:
            with t.span("dataset.read"):
                records.append(dataset.read_split(path))
        images, labels = dataset.images_and_labels(records[0])
        profile_feats = features(images, model.feature_params, self.cfg, t)
        with t.span("classifier.train"):
            trained, log = classifier.train_two_tier(
                profile_feats, labels, self.cfg.label_layout(),
                epochs=self.cfg.train.epochs, batch_size=self.cfg.train.batch_size,
                lr=self.cfg.train.learning_rate, seed=self.cfg.require_seed(),
                feature_params=model.feature_params, l_size=self.cfg.l_size, p_grid=self.cfg.p_grid,
            )
        t.add_items("classifier.train_batches", len(log))
        for i, session in enumerate(records[1:]):
            labels = correct(predict(trained, dataset.images_and_labels(session)[0], t), self.cfg, t).labels
            checks.require(list(labels) == output[i], f"session {i}: in-process labels differ from attack --hlc")
        with t.span("analysis.mdc"):
            analysis.mdc_search(
                self.cfg.build_scene(), self.cfg.mdc.fractions, seed=self.cfg.require_seed(),
                noise_sigma=self.cfg.noise.pixel_sigma, radiance_scale=self.cfg.screen.radiance_scale,
            )
        ws = self.cfg.weight_sim
        with t.span("scene.weight_curves"):
            scene.simulate_weight_curves(
                np.linspace(ws.x_min, ws.x_max, ws.units),
                [((p[0], p[1]), (p[2], p[3])) for p in ws.points], ws.camera_x,
                self.cfg.optics.g, self.cfg.face.n_s,
            )
        render_weights(self.cfg, t)
        render_split(self.cfg, "train", t)
        ppm_bytes = sum(f.stat().st_size for d in [self.dir / "data", *self.session_dirs] for f in d.rglob("*.ppm"))
        t.add_items("dataset.bytes", ppm_bytes)
        t.add_items("classifier.model_bytes", self.model_path.stat().st_size)


def read_csv_rows(path: Path):
    with open(path, newline="", encoding="ascii") as fh:
        return [row for row in csv.reader(fh)]


def check_mdc(checks: Checks, stdout: str, rows) -> None:
    """p-values in [0, 1]; the boundary is the largest fraction with p >= 0.05."""
    checks.require(rows[0] == ["fraction", "min_p"], "mdc.csv header")
    pairs = sorted((float(f), float(p)) for f, p in rows[1:])
    checks.require(bool(pairs) and all(0.0 <= p <= 1.0 for _, p in pairs), "mdc p-value outside [0, 1]")
    expected = None
    for f, p in pairs:
        if p >= analysis.P_SIGNIFICANT:
            expected = f
    printed = stdout.split()[-1]
    got = None if printed == "none" else float(printed)
    checks.require(got == expected, f"mdc boundary {got} != {expected} from its own table")


def check_curves(checks: Checks, rows, points: int, units: int) -> None:
    """One block of `units` rows per face point; weights finite and >= 0."""
    data = [r for r in rows if r and r[0] != "unit_x"]
    values = np.array(data, dtype=float) if data else np.zeros((0, 3))
    checks.require(values.shape == (points * units, 3), f"weight curves shape {values.shape}")
    checks.require(
        bool(np.all(np.isfinite(values))) and bool(np.all(values[:, 1:] >= 0.0)),
        "weight curves not finite and >= 0",
    )


class HlcSweep:
    """A researcher tuning HLC on a weak attacker's noisy predictions.

    The attacker's profile uses one fixed seed, so every run faces the same
    attacker: how much HLC work a label costs depends on how noisy the
    predictions are, and a freshly seeded weak attacker's accuracy varies by
    tens of percent.  The run's seed draws the victim sessions.
    """

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer, workdir: Path):
        self.cfg = make_config(SWEEP_PROFILE_SEED, sizes)
        self.session_seed = seed
        self.sizes = sizes
        self.tracer = tracer

    def setup(self):
        model = profile(self.cfg, self.tracer)
        self.sessions = []
        for session in victim_sessions(self.cfg, self.sizes, self.tracer, self.session_seed):
            images, truth = session_arrays(session)
            self.sessions.append(([int(v) for v in predict(model, images, self.tracer)], truth))
        self.model_hash = hashlib.sha256(model.discriminator.w3.tobytes()).hexdigest()

    def fingerprint(self):
        return self.model_hash

    def operations(self):
        return [functools.partial(self.sweep, i) for i in range(len(self.sessions))]

    def sweep(self, i: int):
        predicted, truth = self.sessions[i]
        labels = len(predicted) * len(SWEEP_GRID)
        with self.tracer.span("hlc.correct", labels):
            rows = hlc.sweep_params(predicted, truth, SWEEP_GRID)
        return [predicted, [acc for _, acc in rows]], labels, 0

    def check(self, checks: Checks, output) -> None:
        k = self.cfg.label_layout().num_labels
        pre = accuracy(
            [v for p, _ in self.sessions for v in p], [v for _, t in self.sessions for v in t]
        )
        checks.require(pre < MAX_SWEEP_PRE_ACCURACY, f"pre-correction accuracy {pre:.4f} leaves HLC no work")
        print(f"pre-correction accuracy {pre:.4f}", file=sys.stderr)
        for i, ((predicted, truth), (_, accs)) in enumerate(zip(self.sessions, output)):
            checks.require(all(0 <= v < k for v in predicted), f"session {i}: label out of range")
            print(f"session {i} best swept accuracy {max(accs):.4f}", file=sys.stderr)
            for j, (params, acc) in enumerate(zip(SWEEP_GRID, accs)):
                corrected = hlc.correct_labels(predicted, params).labels
                where = f"session {i} grid {j}"
                checks.require(acc == accuracy(corrected, truth), f"{where}: sweep accuracy != correct_labels")
                for problem in step_violations(corrected, predicted, params.sigma_s, params.t_s):
                    checks.require(False, f"{where}: {problem}")
                if j % REFERENCE_EVERY == 0:
                    ref = reference_correct(predicted, params.sigma_s, params.t_s, params.sigma_e, params.t_e)
                    checks.require(ref == corrected, f"{where}: correct_labels != reference")
                    checks.require(acc == accuracy(ref, truth), f"{where}: sweep accuracy != reference")


WORKLOADS = {"eavesdrop-l64": Eavesdrop, "cli-l32": CliFlow, "hlc-sweep": HlcSweep}


def layer_figures(tracer: Tracer) -> dict:
    """Per-layer totals over the traced run, keyed by BENCHMARK.json name."""
    seconds = [
        "render.split", "render.weights", "features.preprocess", "features.resblock",
        "features.cbam", "features.pool", "classifier.train", "classifier.predict",
        "classifier.save", "classifier.load", "dataset.write", "dataset.read", "hlc.correct",
        "analysis.mdc", "scene.weight_curves", "cli.gen_dataset", "cli.train", "cli.attack",
        "cli.mdc", "cli.simulate_weights",
    ]
    figures = {f"{name}_s": tracer.total(name) for name in seconds}
    figures["render.frames"] = tracer.items("render.split")
    figures["features.frames"] = tracer.items("features.preprocess")
    figures["classifier.train_batches"] = tracer.items("classifier.train_batches")
    figures["hlc.labels"] = tracer.items("hlc.correct")
    figures["classifier.model_mb"] = tracer.items("classifier.model_bytes") / 2**20
    figures["dataset.mb"] = tracer.items("dataset.bytes") / 2**20
    return figures


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path, sizes: Sizes = None) -> dict:
    tracer = Tracer(traced)
    workload = WORKLOADS[name](seed, sizes or SIZES[name], tracer, workdir)
    checks = Checks()

    setup_s, fingerprints = [], []
    for _ in range(workload.sizes.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        fingerprints.append(workload.fingerprint())
    checks.require(len(set(fingerprints)) == 1, "repeated set-ups trained different models")

    # The measured phase cycles through the operations in a fixed order and
    # stops at the first cycle boundary past the deadline, so every run
    # attempts whole cycles; short cycles keep that overshoot small.  Each
    # operation that processes items contributes one throughput sample.
    operations = workload.operations()
    first, rates = [], []
    items = attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        t_op = time.perf_counter()
        output, n_items, n_failed = operations[attempted % len(operations)]()
        if n_items:
            rates.append(n_items / (time.perf_counter() - t_op))
        if attempted < len(operations):
            first.append(output)
        else:
            checks.require(
                output == first[attempted % len(operations)], "an operation's output changed between cycles"
            )
        attempted += 1
        items += n_items
        failed += n_failed
        work_s = time.perf_counter() - t0
        if work_s >= seconds and attempted % len(operations) == 0:
            break

    workload.check(checks, first)
    if traced and isinstance(workload, CliFlow):
        workload.probe_layers(checks, first)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "items": items,
        "work_s": work_s,
        "rates": rates,
        "attempted": attempted,
        "failed": failed,
        "correct": not checks.failures,
        "labels_digest": hashlib.sha256(json.dumps(first).encode("ascii")).hexdigest(),
    }
    if traced:
        result["layers"] = layer_figures(tracer)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir / "cli")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
