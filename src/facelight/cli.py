"""Command-line front end.

Subcommands cover the pipeline stages: simulate-weights, gen-dataset, train
(on gen-dataset's directory), attack (on one split directory), hlc (on a label
CSV), mdc, plus run-all chaining gen-dataset -> train -> attack -> hlc.  The
commands are front ends over `pipeline`: they turn flags into the config,
read and write files, and print.  Every flag that sets a config value goes
through `_OVERRIDES`, so it passes the same checks as its key.  Every command
is deterministic under a fixed --seed.

Exit codes: 0 success, 1 domain/value errors, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from . import analysis, classifier, dataset, hlc, pipeline, scene
from .config import ExperimentConfig, default_config_json, load_config
from .errors import DomainError
from .labels import accuracy


# (flag dest, config section or None for a top-level key, config key); each
# flag goes through dataclasses.replace, so it passes its key's range checks
_OVERRIDES = (
    ("seed", None, "seed"), ("l_size", None, "l_size"),
    ("epochs", "train", "epochs"), ("batch", "train", "batch_size"), ("lr", "train", "learning_rate"),
    ("sigma_s", "hlc", "sigma_s"), ("t_s", "hlc", "t_s"), ("sigma_e", "hlc", "sigma_e"), ("t_e", "hlc", "t_e"),
    ("fractions", "mdc", "fractions"),
)


def _load_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    top, sections = {}, {}
    for dest, section, key in _OVERRIDES:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if dest == "fractions":
            value = [eval_fraction(tok) for tok in value.split(",")] if value else []
        (top if section is None else sections.setdefault(section, {}))[key] = value
    for section, keys in sections.items():
        top[section] = dataclasses.replace(getattr(cfg, section), **keys)
    return dataclasses.replace(cfg, **top)


def _read_labels(path, cfg: ExperimentConfig) -> hlc.LabelSequence:
    """A label CSV whose labels all lie below the config's label count."""
    seq = hlc.read_label_sequence(path)
    num_labels = cfg.label_layout().num_labels
    if max(seq.labels) >= num_labels:
        raise DomainError(f"{path}: label {max(seq.labels)} out of range for {num_labels} labels")
    return seq


def _read_split(directory, num_labels: int, whose: str):
    """A split directory's frame records, whose labels all lie below `num_labels`."""
    records = dataset.read_split(directory)
    top = max(r.label for r in records)
    if top >= num_labels:
        manifest = os.path.join(directory, "manifest.csv")
        raise DomainError(f"{manifest}: label {top} out of range for the {whose}'s {num_labels} labels")
    return records


def cmd_simulate_weights(args) -> int:
    curves = pipeline.weight_curves(_load_config(args))
    scene.write_weight_curves_csv(args.out, curves)
    for i, curve in enumerate(curves):
        print(f"point {i} g_d_peak_x {scene.peak_location(curve, 'g_d')!r}")
    return 0


def cmd_gen_dataset(args) -> int:
    cfg = _load_config(args)
    data = dataset.generate_dataset(cfg)
    dataset.write_dataset(data, args.out)
    for split in dataset.SPLITS:
        print(f"{split} frames {len(data[split])}")
    return 0


def _write_model(model, log, model_path, losses_path) -> None:
    classifier.save_model(model, model_path)
    with open(losses_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["head", "epoch", "batch", "loss"])
        for row in log:
            writer.writerow([row["head"], row["epoch"], row["batch"], repr(row["loss"])])


def cmd_train(args) -> int:
    cfg = _load_config(args)
    records = _read_split(os.path.join(args.dataset_dir, "train"), cfg.label_layout().num_labels, "config")
    model, log = pipeline.train(cfg, records)
    _write_model(model, log, args.model_out, args.losses or args.model_out + ".losses.csv")
    print(f"trained heads {1 + len(model.predictors)} batches {len(log)}")
    return 0


def cmd_attack(args) -> int:
    cfg = _load_config(args)
    model = classifier.load_model(args.model)
    images, truth = dataset.images_and_labels(_read_split(args.frames, model.layout.num_labels, "model"))
    raw, corrected = pipeline.eavesdrop(cfg, model, images)
    seq = corrected if args.use_hlc else raw
    if args.out:
        hlc.write_label_sequence(args.out, seq)
    print(f"accuracy {accuracy(seq.labels, truth)!r}")
    return 0


def cmd_hlc(args) -> int:
    cfg = _load_config(args)
    seq = _read_labels(args.sequence, cfg)
    truth = _read_labels(args.truth, cfg) if args.truth else None
    if truth is not None and len(truth.labels) != len(seq.labels):
        raise DomainError(f"{args.truth}: expected {len(seq.labels)} labels like {args.sequence}, got {len(truth.labels)}")
    corrected = hlc.correct_labels(seq, cfg.hlc)
    hlc.write_label_sequence(args.out, corrected)
    if truth is not None:
        print(f"accuracy {accuracy(corrected.labels, truth.labels)!r}")
    return 0


def cmd_mdc(args) -> int:
    result = pipeline.mdc(_load_config(args))
    analysis.write_mdc_csv(args.out, result)
    print(f"mdc_boundary {result.boundary if result.boundary is not None else 'none'}")
    return 0


def eval_fraction(token: str) -> float:
    """Parse '1/16' or '0.0625' into a float."""
    token = token.strip()
    num, slash, den = token.partition("/")
    try:
        num, den = float(num), float(den) if slash else 1.0
    except ValueError:
        raise DomainError(f"--fractions: expected a number or a ratio a/b, got {token!r}") from None
    if den == 0.0:
        raise DomainError(f"fraction {token!r} has a zero denominator")
    return num / den


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    data = dataset.generate_dataset(cfg)
    dataset.write_dataset(data, os.path.join(args.out, "dataset"))
    result = pipeline.run_attack(cfg, data)
    _write_model(
        result.model, result.log, os.path.join(args.out, "model.bin"), os.path.join(args.out, "losses.csv")
    )
    hlc.write_label_sequence(os.path.join(args.out, "predicted.csv"), result.raw)
    hlc.write_label_sequence(os.path.join(args.out, "corrected.csv"), result.corrected)
    print(f"pre_hlc_accuracy {result.pre_accuracy!r}")
    print(f"post_hlc_accuracy {result.post_accuracy!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facelight",
        description="Screen-to-face illumination simulator and content-inference pipeline.",
        epilog="Default configuration (JSON; override any subset via --config):\n"
        + default_config_json(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers: each shared flag is declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None)
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--batch", type=int, default=None)
    training.add_argument("--lr", type=float, default=None)
    training.add_argument("--l-size", dest="l_size", type=int, default=None)
    correction = argparse.ArgumentParser(add_help=False)
    correction.add_argument("--sigma-s", dest="sigma_s", type=float, default=None)
    correction.add_argument("--t-s", dest="t_s", type=int, default=None)
    correction.add_argument("--sigma-e", dest="sigma_e", type=float, default=None)
    correction.add_argument("--t-e", dest="t_e", type=int, default=None)

    p = sub.add_parser("simulate-weights", parents=[config], help="per-unit importance-weight curves")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_weights)

    p = sub.add_parser("gen-dataset", parents=[config, seed], help="render a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("train", parents=[config, seed, training], help="train the two-tier classifier")
    p.add_argument("dataset_dir")
    p.add_argument("model_out")
    p.add_argument("--losses", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", parents=[config, correction], help="predict a label sequence from frames")
    p.add_argument("model")
    p.add_argument("frames")
    p.add_argument("--out", default=None)
    p.add_argument("--hlc", dest="use_hlc", action="store_true")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("hlc", parents=[config, correction], help="correct a predicted label sequence")
    p.add_argument("sequence")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=cmd_hlc)

    p = sub.add_parser("mdc", parents=[config, seed], help="minimally differentiable content search")
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", default=None, help="comma list, e.g. 1/16,1/4,1")
    p.set_defaults(func=cmd_mdc)

    p = sub.add_parser(
        "run-all", parents=[config, seed, training], help="gen-dataset, train, attack and hlc in one go"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 2


if __name__ == "__main__":
    sys.exit(main())
