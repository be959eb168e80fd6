import base64
import contextlib
import dataclasses
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from facelight import analysis, scene
from facelight.classifier import _head_shapes, load_model
from facelight.cli import error_boundary, main
from facelight.config import config_from_dict
from facelight.dataset import generate_dataset, read_split
from facelight.features import PARAM_SHAPES, feature_length
from facelight.hlc import HlcParams, sweep_params
from facelight.pipeline import mdc, run_attack

TINY = {
    "seed": 11,
    "frames_per_app": 24,
    "screen": {"rows": 6, "cols": 8},
    "face": {"rows": 8, "cols": 8},
    "l_size": 16,
    "p_grid": 2,
    "train": {"epochs": 3, "batch_size": 8, "learning_rate": 1e-3},
    "categories": [
        {"name": "alpha", "apps": ["a0", "a1"]},
        {"name": "beta", "apps": ["b0", "b1"]},
    ],
    "mdc": {"fractions": [0.25, 1.0]},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(*argv):
    return main(list(argv))


def test_simulate_weights_writes_curves(tmp_path, tiny_config, capsys):
    out = tmp_path / "curves.csv"
    assert run("simulate-weights", "--config", tiny_config, "--out", str(out)) == 0
    text = out.read_text()
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 3
    assert all(b.splitlines()[0] == "unit_x,G_d,G_s" for b in blocks)
    printed = capsys.readouterr().out
    assert printed.count("g_d_peak_x") == 3


def test_simulate_weights_matches_library(tmp_path, tiny_config, capsys):
    out = tmp_path / "cli.csv"
    run("simulate-weights", "--config", tiny_config, "--out", str(out))
    cfg = config_from_dict(json.loads(open(tiny_config).read()))
    ws = cfg.weight_sim
    xs = np.linspace(ws.x_min, ws.x_max, ws.units)
    curves = scene.simulate_weight_curves(
        xs, [((p[0], p[1]), (p[2], p[3])) for p in ws.points], ws.camera_x, cfg.optics.g, cfg.face.n_s
    )
    lib_out = tmp_path / "lib.csv"
    scene.write_weight_curves_csv(lib_out, curves)
    assert out.read_bytes() == lib_out.read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" g_d_fwhm ")[1] for line in lines] == [repr(scene.fwhm(curve)) for curve in curves]


def test_gen_dataset_manifest_and_determinism(tmp_path, tiny_config):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    assert run("gen-dataset", "--config", tiny_config, "--out", str(out1)) == 0
    assert run("gen-dataset", "--config", tiny_config, "--out", str(out2)) == 0
    m1 = (out1 / "train" / "manifest.csv").read_bytes()
    m2 = (out2 / "train" / "manifest.csv").read_bytes()
    assert m1 == m2
    recs = read_split(out1 / "train")
    assert len(recs) == 4 * 24
    for split in ("train", "test"):
        names = sorted(os.listdir(out1 / split))
        assert names == sorted(os.listdir(out2 / split))
        for name in names:
            assert (out1 / split / name).read_bytes() == (out2 / split / name).read_bytes()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-dataset + train once; several tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TINY))
    data_dir = root / "data"
    model_path = root / "model.json"
    assert run("gen-dataset", "--config", str(config_path), "--out", str(data_dir)) == 0
    assert (
        run("train", str(data_dir), str(model_path), "--config", str(config_path)) == 0
    )
    return {"root": root, "config": str(config_path), "data": data_dir, "model": model_path}


def test_train_outputs_model_and_losses(pipeline):
    assert pipeline["model"].exists()
    losses = pipeline["root"] / "model.json.losses.csv"
    assert losses.exists()
    lines = losses.read_text().splitlines()
    assert lines[0] == "head,epoch,batch,loss"
    # discriminator: 96 samples / batch 8 = 12 batches x 3 epochs; predictors: 6 x 3 each
    assert len(lines) - 1 == 36 + 2 * 18


def test_trained_model_round_trips(pipeline, tmp_path):
    from facelight.classifier import load_model, save_model

    model = load_model(pipeline["model"])
    copy = tmp_path / "copy.json"
    save_model(model, copy)
    assert copy.read_bytes() == pipeline["model"].read_bytes()


def test_attack_prints_accuracy_and_is_deterministic(pipeline, tmp_path, capsys):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    test_dir = str(pipeline["data"] / "test")
    assert run("attack", str(pipeline["model"]), test_dir, "--out", str(out1)) == 0
    first = capsys.readouterr().out
    assert first.startswith("accuracy ")
    assert run("attack", str(pipeline["model"]), test_dir, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,label_index"
    assert len(lines) == 1 + 4 * 24


def test_attack_hlc_equals_attack_then_hlc(pipeline, tmp_path):
    test_dir = str(pipeline["data"] / "test")
    raw = tmp_path / "raw.csv"
    corrected_inline = tmp_path / "inline.csv"
    corrected_apart = tmp_path / "apart.csv"
    assert run("attack", str(pipeline["model"]), test_dir, "--out", str(raw)) == 0
    assert (
        run("attack", str(pipeline["model"]), test_dir, "--out", str(corrected_inline), "--hlc")
        == 0
    )
    assert run("hlc", str(raw), "--out", str(corrected_apart)) == 0
    assert corrected_inline.read_bytes() == corrected_apart.read_bytes()


def test_attack_missing_model_exits_2(pipeline, tmp_path):
    missing = tmp_path / "nope.json"
    assert run("attack", str(missing), str(pipeline["data"] / "test")) == 2


def test_attack_invalid_model_exits_1(pipeline, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "something-else"}))
    assert run("attack", str(bad), str(pipeline["data"] / "test")) == 1


def _assert_one_error_line(capsys, code, expected=1):
    assert code == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


HEAD_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def _model_parts(path):
    """(header dict, weight bytes) of a model file."""
    line, weights = Path(path).read_bytes().split(b"\n", 1)
    return json.loads(line), weights


def _earlier_version(path, as_lists):
    """The model as earlier versions wrote it: one JSON document with its feature
    arrays, each array base64 of its float64 bytes or a nested list."""
    model = load_model(path)

    def arrays(obj, names):
        out = {}
        for name in names:
            arr = np.asarray(getattr(obj, name), "<f8")
            out[name] = arr.tolist() if as_lists else {
                "shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        return out

    header, _ = _model_parts(path)
    return json.dumps({
        **header,
        "kind": "facelight-two-tier",
        "feature_params": {**arrays(model.feature_params, PARAM_SHAPES), "seed": model.seed},
        "discriminator": arrays(model.discriminator, HEAD_NAMES),
        "predictors": [arrays(p, HEAD_NAMES) for p in model.predictors],
    }).encode("ascii")


@pytest.mark.parametrize(
    "path, value, named",
    [
        (None, None, "'layout'"),  # a bare {"kind": ...} header
        (("l_size",), "32", "'l_size'"),
        (("layout", "counts"), None, "'counts'"),
        (("layout",), {"counts": [2, 3]}, "holds 3397680 weight bytes, the header's layout needs 3399736"),
        (("p_grid",), TINY["l_size"] + 1, "p_grid must lie in [1, l_size = 16], got 17"),
        (("p_grid",), 0, "p_grid must lie in [1, l_size = 16], got 0"),
        (("seed",), -1, "seed must be >= 0, got -1"),
        (("kind",), "facelight-model", "not a two-tier model file"),
        pytest.param(("p_grid",), 4, "holds 3397680 weight bytes, the header's layout needs 3840048",
                     id="p_grid-4-w1-shape-differs"),
        pytest.param(("layout",), {"counts": [2, 2, 2]}, "holds 3397680 weight bytes, the header's layout needs 4532296",
                     id="layout-one-category-more"),
    ],
)
def test_attack_malformed_model_one_error_line(pipeline, tmp_path, capsys, path, value, named):
    header, weights = _model_parts(pipeline["model"])
    if path is None:
        header = {"kind": header["kind"]}
    else:
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode("ascii") + b"\n" + weights)
    line = _assert_one_error_line(capsys, run("attack", str(bad), str(pipeline["data"] / "test")))
    assert str(bad) in line and named in line


def _with_weight(data, index, value):
    """Model file bytes `data` with weight number `index` (negative: from the end) set to `value`."""
    start = data.index(b"\n") + 1 + 8 * index if index >= 0 else len(data) + 8 * index
    return data[:start] + np.array([value], "<f8").tobytes() + data[start + 8 :]


def _cut_array(data, head, name, keep=0):
    """Model file bytes `data` with all but the first `keep` values of array `name`
    of head number `head` (0 the discriminator) cut out; every head of the TINY model
    has 2 outputs."""
    shapes = _head_shapes(feature_length(TINY["p_grid"]), 2)
    sizes = [int(np.prod(shape)) for shape in shapes.values()]
    start = head * sum(sizes) + sum(sizes[: list(shapes).index(name)])
    end = start + sizes[list(shapes).index(name)]
    body = data.index(b"\n") + 1
    return data[: body + 8 * (start + keep)] + data[body + 8 * end :]


# (edit of a good model file's bytes, the words the error line must hold)
BAD_MODEL_BYTES = {
    "empty": (lambda data: b"", "first line is not a JSON header"),
    "header-not-json": (lambda data: b"P6\n8 8\n255\n" + bytes(192), "first line is not a JSON header"),
    "header-not-ascii": (lambda data: b"\xff" + data, "first line is not a JSON header"),
    "weights-8-bytes-short": (lambda data: data[:-8], "holds 3397672 weight bytes, the header's layout needs 3397680"),
    "discriminator-b1-one-value": (lambda data: _cut_array(data, 0, "b1", keep=1),
                                   "holds 3393592 weight bytes, the header's layout needs 3397680"),
    "predictor-1-w2-missing": (lambda data: _cut_array(data, 2, "w2"),
                               "holds 2349104 weight bytes, the header's layout needs 3397680"),
    "weights-8-bytes-extra": (lambda data: data + bytes(8), "holds 3397688 weight bytes, the header's layout needs 3397680"),
    "nan-weight": (lambda data: _with_weight(data, -100, np.nan), "holds non-finite weights"),
    "inf-first-weight": (lambda data: _with_weight(data, 0, -np.inf), "holds non-finite weights"),
}


@pytest.mark.parametrize("edit, named", BAD_MODEL_BYTES.values(), ids=BAD_MODEL_BYTES.keys())
def test_attack_malformed_model_bytes_one_error_line(pipeline, tmp_path, capsys, edit, named):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(edit(pipeline["model"].read_bytes()))
    line = _assert_one_error_line(capsys, run("attack", str(bad), str(pipeline["data"] / "test")))
    assert str(bad) in line and named in line


def _assert_earlier_version_rejected(pipeline, tmp_path, capsys, as_lists):
    bad = tmp_path / "old.json"
    bad.write_bytes(_earlier_version(pipeline["model"], as_lists))
    line = _assert_one_error_line(capsys, run("attack", str(bad), str(pipeline["data"] / "test")))
    assert line == f"error: {bad}: a model file from an earlier version (facelight-two-tier); it must be retrained"


def test_attack_base64_model_one_error_line(pipeline, tmp_path, capsys):
    _assert_earlier_version_rejected(pipeline, tmp_path, capsys, as_lists=False)


def test_attack_list_form_model_one_error_line(pipeline, tmp_path, capsys):
    _assert_earlier_version_rejected(pipeline, tmp_path, capsys, as_lists=True)


@pytest.mark.parametrize(
    "header, label, named",
    [
        (b"P6\n8 8\n255\n", 4, "manifest.csv: label 4 out of range for the model's 4 labels"),
        (b"P6\n-4 8\n255\n", 0, "frame.ppm: PPM width and height must be positive, got -4x8"),
        (b"P6\n8 0\n255\n", 0, "frame.ppm: PPM width and height must be positive, got 8x0"),
        (b"P6\nab 8\n255\n", 0, "frame.ppm: PPM width must be an integer, got 'ab'"),
        (b"P6\n8 8.0\n255\n", 0, "frame.ppm: PPM height must be an integer, got '8.0'"),
        (b"P6\n8 8\nff\n", 0, "frame.ppm: PPM maxval must be an integer, got 'ff'"),
        (b"P6\n2 2\n255\n", 0, "manifest.csv:3: frame frame.ppm is 2x2, but the first frame is 8x8"),
    ],
)
def test_attack_bad_split_one_error_line(pipeline, tmp_path, capsys, header, label, named):
    # a well-formed 8x8 frame, then the frame under test
    split = tmp_path / "split"
    split.mkdir()
    (split / "first.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(8 * 8 * 3))
    (split / "frame.ppm").write_bytes(header + bytes(8 * 8 * 3))
    (split / "manifest.csv").write_text(
        f"path,label_index,sequence_id,t\nfirst.ppm,{label},test-00,1\nframe.ppm,{label},test-00,2\n"
    )
    line = _assert_one_error_line(capsys, run("attack", str(pipeline["model"]), str(split)))
    assert f"{split / named}" in line


@pytest.mark.parametrize(
    "rows, named",
    [
        ("frame.ppm,0,test-00\n", "manifest.csv:2: expected path,label_index,sequence_id,t"),
        ("frame.ppm,0,test-00,1,9\n", "manifest.csv:2: expected path,label_index,sequence_id,t"),
        ("frame.ppm,x,test-00,1\n", "manifest.csv:2: expected path,label_index,sequence_id,t"),
        ("frame.ppm,0,test-00,1.5\n", "manifest.csv:2: expected path,label_index,sequence_id,t"),
        ("frame.ppm,-1,test-00,1\n", "manifest.csv:2: label_index must be >= 0, got -1"),
        ("frame.ppm,0,test-00,1\nframe.ppm,,test-00,2\n", "manifest.csv:3: expected"),
        ("frame.ppm,0,test-00,-3\n", "manifest.csv:2: t must be >= 1, got -3"),
        ("frame.ppm,0,test-00,0\n", "manifest.csv:2: t must be >= 1, got 0"),
        ("frame.ppm,0,s,1\nframe.ppm,0,s,1\n", "manifest.csv:3: sequence_id s and t 1 repeat line 2"),
        ("frame.ppm,0,test-\u00e9,1\n", "manifest.csv: 'ascii' codec can't decode byte 0xc3"),
    ],
)
def test_attack_bad_manifest_row_one_error_line(pipeline, tmp_path, capsys, rows, named):
    split = tmp_path / "split"
    split.mkdir()
    (split / "frame.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(8 * 8 * 3))
    (split / "manifest.csv").write_text("path,label_index,sequence_id,t\n" + rows, encoding="utf-8")
    line = _assert_one_error_line(capsys, run("attack", str(pipeline["model"]), str(split)))
    assert f"{split / named}" in line


@pytest.mark.parametrize(
    "row, named",
    [
        ("2\n", "seq.csv:3"),
        ("2,x\n", "seq.csv:3"),
        ("2,-5\n", "-5"),
        ("2,29\n", "seq.csv: label 29"),
        ("abc,3\n", "seq.csv:3: expected t,label_index"),
        ("9,1\n9,1\n", "seq.csv:3: expected t 2, got 9"),
        ("1,1\n", "seq.csv:3: expected t 2, got 1"),
        ("2,\u00e9\n", "seq.csv: 'ascii' codec can't decode byte 0xc3"),
    ],
)
def test_hlc_malformed_label_csv_one_error_line(tmp_path, capsys, row, named):
    seq = tmp_path / "seq.csv"
    seq.write_text("t,label_index\n1,0\n" + row, encoding="utf-8")
    line = _assert_one_error_line(capsys, run("hlc", str(seq), "--out", str(tmp_path / "z.csv")))
    assert named in line
    assert not (tmp_path / "z.csv").exists()


def test_hlc_command_with_truth(pipeline, tmp_path, capsys):
    from facelight.hlc import LabelSequence, write_label_sequence

    seq = tmp_path / "seq.csv"
    truth = tmp_path / "truth.csv"
    write_label_sequence(seq, LabelSequence(tuple([1] * 9 + [2] + [1] * 10)))
    write_label_sequence(truth, LabelSequence(tuple([1] * 20)))
    out = tmp_path / "z.csv"
    assert run("hlc", str(seq), "--out", str(out), "--truth", str(truth)) == 0
    printed = capsys.readouterr().out
    assert printed.strip() == "accuracy 1.0"


def test_hlc_param_flags_respected(tmp_path):
    from facelight.hlc import LabelSequence, read_label_sequence, write_label_sequence

    seq = tmp_path / "seq.csv"
    write_label_sequence(seq, LabelSequence(tuple([1, 1, 1, 2, 2, 2])))
    out = tmp_path / "z.csv"
    assert run("hlc", str(seq), "--out", str(out), "--sigma-s", "0.5", "--t-s", "3",
               "--sigma-e", "0.5", "--t-e", "0") == 0
    assert read_label_sequence(out).labels == (1, 1, 1, 2, 2, 2)


def test_mdc_csv_and_boundary_line(tmp_path, tiny_config, capsys):
    out = tmp_path / "mdc.csv"
    assert run("mdc", "--config", tiny_config, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("mdc_boundary ")
    lines = out.read_text().splitlines()
    assert lines[0] == "fraction,min_p"
    assert len(lines) == 3


def test_mdc_matches_library(tmp_path, tiny_config):
    out = tmp_path / "mdc.csv"
    run("mdc", "--config", tiny_config, "--out", str(out), "--fractions", "1/4,1")
    cfg = config_from_dict(json.loads(open(tiny_config).read()))
    result = analysis.mdc_search(
        cfg.build_scene(),
        [0.25, 1.0],
        seed=11,
        noise_sigma=cfg.noise.pixel_sigma,
        radiance_scale=cfg.screen.radiance_scale,
    )
    lib_out = tmp_path / "lib.csv"
    analysis.write_mdc_csv(lib_out, result)
    assert out.read_bytes() == lib_out.read_bytes()


def test_seed_flag_overrides_config(tmp_path, tiny_config):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run("gen-dataset", "--config", tiny_config, "--seed", "77", "--out", str(a))
    run("gen-dataset", "--config", tiny_config, "--out", str(b))
    assert (a / "train" / "manifest.csv").read_text() == (b / "train" / "manifest.csv").read_text()
    names = sorted(os.listdir(a / "train"))
    diff = any(
        (a / "train" / n).read_bytes() != (b / "train" / n).read_bytes()
        for n in names
        if n.endswith(".ppm")
    )
    assert diff  # different seed, different noise/palettes


def test_missing_seed_exits_1(tmp_path):
    cfg = dict(TINY)
    del cfg["seed"]
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps(cfg))
    assert run("gen-dataset", "--config", str(path), "--out", str(tmp_path / "x")) == 1


def test_bad_config_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "nonsense": True}))
    assert run("gen-dataset", "--config", str(path), "--out", str(tmp_path / "x")) == 1


def test_run_all_end_to_end(tmp_path, tiny_config, capsys):
    out = tmp_path / "runall"
    assert run("run-all", "--config", tiny_config, "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "pre_hlc_accuracy " in printed
    assert "post_hlc_accuracy " in printed
    for name in ("model.bin", "losses.csv", "predicted.csv", "corrected.csv"):
        assert (out / name).exists()
    assert (out / "dataset" / "train" / "manifest.csv").exists()


def test_mdc_single_fraction_single_row(tmp_path, tiny_config):
    out = tmp_path / "one.csv"
    assert run("mdc", "--config", tiny_config, "--out", str(out), "--fractions", "1/2") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fraction,min_p"
    assert len(lines) == 2


def test_attack_accuracy_line_is_plain_decimal(pipeline, tmp_path, capsys):
    test_dir = str(pipeline["data"] / "test")
    assert run("attack", str(pipeline["model"]), test_dir) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accuracy ")
    float(line.split()[1])
    assert "np." not in line


@pytest.mark.parametrize(
    "fractions, named",
    [("1/0", "fraction '1/0' has a zero denominator"), ("abc", "--fractions"), ("1/x", "--fractions")],
)
def test_mdc_bad_fraction_one_error_line(tmp_path, tiny_config, capsys, fractions, named):
    code = run("mdc", "--config", tiny_config, "--out", str(tmp_path / "x.csv"), "--fractions", fractions)
    assert named in _assert_one_error_line(capsys, code)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "section, key, value, named",
    [
        ("screen", "rows", "x", "'screen.rows'"),
        ("noise", "pixel_sigma", "a", "'noise.pixel_sigma'"),
        (None, "frames_per_app", 0, "frames_per_app"),
        ("train", "epochs", True, "'train.epochs'"),
        ("face", "center", [0.0, 0.45], "'face.center'"),
        (None, "seed", "1", "'seed'"),
        (None, "exposure", "bright", "'exposure'"),
        ("train", "batch_size", 0, "train.batch_size"),
        ("train", "learning_rate", 0, "train.learning_rate"),
        ("categories", 0, {"name": "alpha"}, "categories[0]"),
        ("mdc", "fractions", [], "mdc.fractions"),
        (None, "delta", 0, "delta"),
        (None, "delta", -1, "delta"),
        (None, "delta", float("nan"), "delta"),
        ("noise", "pixel_sigma", -1, "noise.pixel_sigma"),
        ("noise", "pixel_sigma", float("nan"), "noise.pixel_sigma"),
        ("noise", "ambient_jitter", 1.5, "noise.ambient_jitter"),
        ("weight_sim", "points", [[0.0, 0.5, 0.0, 0.0]], "weight_sim.points[0]"),
        (None, "p_grid", 17, "p_grid must lie in [1, l_size = 16]"),
        (None, "p_grid", 0, "p_grid must lie in [1, l_size = 16]"),
        (None, "seed", -1, "seed must be >= 0, got -1"),
        ("optics", "g", -5, "optics.g must be >= 0, got -5"),
        ("optics", "ambient", [6.0, -1.0, 6.0], "optics.ambient must be >= 0"),
        ("face", "k_d", -1, "face.k_d must lie in [0, 1], got -1"),
        ("face", "k_s", 1.5, "face.k_s must lie in [0, 1], got 1.5"),
        ("face", "n_s", 0.5, "face.n_s must be >= 1, got 0.5"),
        ("face", "rows", 1, "face.rows must be >= 2, got 1"),
        ("screen", "rows", 0, "screen.rows must be >= 1, got 0"),
        ("screen", "cols", -2, "screen.cols must be >= 1, got -2"),
        ("screen", "width", 0, "screen.width must be > 0, got 0"),
        ("screen", "radiance_scale", -1, "screen.radiance_scale must be >= 0, got -1"),
        ("face", "semi_axes", [0.08, 0.0, 0.09], "face.semi_axes must be > 0"),
        ("face", "patch_degrees", 400, "face.patch_degrees must lie in (0, 90], got 400"),
        ("mdc", "fractions", [2.0], "mdc.fractions must be a non-empty list of values in (0, 1], got [2.0]"),
        (None, "exposure", -1, "exposure must be > 0 or 'auto', got -1"),
        ("weight_sim", "units", 1, "weight_sim.units must be >= 2, got 1"),
        ("weight_sim", "points", [[0.0, 0.0, 0.0, -1.0]], "weight_sim.points[0] needs y != 0"),
        ("hlc", "sigma_s", 0.4, "hlc.sigma_s must lie in [0.5, 1), got 0.4"),
        ("hlc", "t_s", 0, "hlc.t_s must be >= 1, got 0"),
        ("hlc", "sigma_e", 0.6, "hlc.sigma_e must lie in (0, 0.5], got 0.6"),
        ("hlc", "t_e", -1, "hlc.t_e must be >= 0, got -1"),
        ("screen", "center", [0.0, float("nan"), 0.0], "screen.center must be finite, got [0.0, nan, 0.0]"),
        ("screen", "normal", [0.0, 0.0, float("inf")], "screen.normal must be finite and non-zero, got [0.0, 0.0, inf]"),
        ("face", "center", [float("nan"), 0.0, 0.45], "face.center must be finite, got [nan, 0.0, 0.45]"),
        (None, "camera", [0.0, float("nan"), 0.02], "camera must be finite, got [0.0, nan, 0.02]"),
        ("weight_sim", "x_min", float("nan"), "weight_sim.x_min must be finite, got nan"),
        ("weight_sim", "x_max", float("inf"), "weight_sim.x_max must be finite, got inf"),
        ("weight_sim", "camera_x", float("-inf"), "weight_sim.camera_x must be finite, got -inf"),
        ("weight_sim", "points", [[0.0, float("nan"), 0.0, -1.0]], "weight_sim.points must be finite"),
        ("weight_sim", "x_min", 0.5, "weight_sim.x_min must be < weight_sim.x_max, got 0.5 >= 0.3"),
        ("screen", "normal", [0, 0, 0], "screen.normal must be finite and non-zero, got [0, 0, 0]"),
    ],
)
def test_bad_config_value_one_error_line(tmp_path, capsys, section, key, value, named):
    doc = json.loads(json.dumps(TINY))
    parent = doc if section is None else doc.setdefault(section, {})
    parent[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    # every command that reads the config rejects it, whether or not it builds the scene
    for command in ("gen-dataset", "simulate-weights", "mdc"):
        code = run(command, "--config", str(path), "--out", str(tmp_path / "x"))
        assert named in _assert_one_error_line(capsys, code)
        assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("error")  # an overflow warning would escape as an exception
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("face", "semi_axes", [1e-160, 1e-160, 1e-160]),
        ("face", "center", [0, 0, 1e200]),
        (None, "camera", [0, 0.12, 1e200]),
    ],
)
def test_camera_distance_that_overflows_one_error_line(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(TINY))
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    # the config loads; the scene it builds is rejected
    for command in ("gen-dataset", "mdc"):
        code = run(command, "--config", str(path), "--out", str(tmp_path / "x"))
        line = _assert_one_error_line(capsys, code)
        assert line == "error: camera, face.center and face.semi_axes give a camera distance that overflows"
        assert not (tmp_path / "x").exists()


def test_config_file_not_utf8_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"seed": "\xff"}')
    line = _assert_one_error_line(capsys, run("mdc", "--config", str(path), "--out", str(tmp_path / "x.csv")))
    assert line.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "lr, named",
    [
        ("inf", "error: train.learning_rate must be > 0, got inf"),
        ("1e300", "error: training diverged: the discriminator head's weights are not finite at train.learning_rate 1e+300"),
    ],
)
def test_train_learning_rate_that_cannot_give_a_finite_model(pipeline, tmp_path, capsys, lr, named):
    # such a model used to save, and then fail to load
    model = tmp_path / "model.bin"
    argv = ("train", str(pipeline["data"]), str(model), "--config", pipeline["config"], "--lr", lr)
    assert _assert_one_error_line(capsys, run(*argv)) == named
    assert not model.exists()


def test_train_flag_out_of_range_one_error_line(tmp_path, tiny_config, capsys):
    code = run("run-all", "--config", tiny_config, "--out", str(tmp_path / "r"), "--epochs", "0")
    assert "train.epochs" in _assert_one_error_line(capsys, code)


def test_l_size_flag_below_p_grid_one_error_line(tmp_path, tiny_config, capsys):
    code = run("run-all", "--config", tiny_config, "--out", str(tmp_path / "r"), "--l-size", "1")
    assert "p_grid must lie in [1, l_size = 1]" in _assert_one_error_line(capsys, code)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["hlc-truth", "hlc-truth-length", "train"])
def test_label_beyond_layout_one_error_line(tmp_path, tiny_config, capsys, command):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    out = tmp_path / "z.csv"
    good.write_text("t,label_index\n1,0\n2,3\n")
    if command == "train":
        split = tmp_path / "data" / "train"
        split.mkdir(parents=True)
        (split / "frame.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(8 * 8 * 3))
        (split / "manifest.csv").write_text("path,label_index,sequence_id,t\nframe.ppm,4,train-04,1\n")
        argv = ("train", str(tmp_path / "data"), str(out), "--config", tiny_config)
        named = f"{split / 'manifest.csv'}: label 4 out of range for the config's 4 labels"
    elif command == "hlc-truth-length":
        bad.write_text("t,label_index\n1,0\n")
        argv = ("hlc", str(good), "--truth", str(bad), "--config", tiny_config, "--out", str(out))
        named = f"{bad}: expected 2 labels like {good}, got 1"
    else:
        bad.write_text("t,label_index\n1,0\n2,4\n")  # TINY has 4 labels
        argv = ("hlc", str(good), "--truth", str(bad), "--config", tiny_config, "--out", str(out))
        named = f"{bad}: label 4"
    line = _assert_one_error_line(capsys, run(*argv))
    assert named in line
    assert not out.exists()


def test_attack_and_train_read_only_their_documented_layout(pipeline, tmp_path, capsys):
    """attack takes a split directory (label CSVs go through hlc); train takes gen-dataset's directory."""
    labels = tmp_path / "labels.csv"
    labels.write_text("t,label_index\n1,0\n")
    line = _assert_one_error_line(capsys, run("attack", str(pipeline["model"]), str(labels)), 2)
    assert line == f"error: no manifest.csv under {labels}"
    split = pipeline["data"] / "train"
    model = tmp_path / "model.json"
    line = _assert_one_error_line(capsys, run("train", str(split), str(model), "--config", pipeline["config"]), 2)
    assert line == f"error: no manifest.csv under {split / 'train'}"
    assert not model.exists()


# (command, flag, value, config section or None, key, the key's value, an out-of-range flag value)
OVERRIDES = [
    ("mdc", "--seed", "5", None, "seed", 5, "-1"),
    ("train", "--l-size", "8", None, "l_size", 8, "1"),
    ("train", "--epochs", "1", "train", "epochs", 1, "0"),
    ("train", "--batch", "5", "train", "batch_size", 5, "0"),
    ("train", "--lr", "0.01", "train", "learning_rate", 0.01, "-1"),
    ("hlc", "--sigma-s", "0.6", "hlc", "sigma_s", 0.6, "0.4"),
    ("hlc", "--t-s", "3", "hlc", "t_s", 3, "0"),
    ("hlc", "--sigma-e", "0.5", "hlc", "sigma_e", 0.5, "0"),
    ("hlc", "--t-e", "1", "hlc", "t_e", 1, "-1"),
    ("mdc", "--fractions", "1/2", "mdc", "fractions", [0.5], ""),
]

# labels that a step-function corrector splits differently for each HLC override above
HLC_INPUT = [3, 3, 3, 1, 3, 3] + [1] * 12 + [0, 2, 1, 0, 0, 3]


def _override_argv(command, pipeline, out):
    """argv of `command` writing to `out` (and, for train, its losses beside it)."""
    if command == "train":
        return ("train", str(pipeline["data"]), str(out), "--losses", str(out) + ".losses")
    if command == "hlc":
        labels = out.parent / "labels.csv"
        labels.write_text("t,label_index\n" + "".join(f"{t},{v}\n" for t, v in enumerate(HLC_INPUT, 1)))
        return ("hlc", str(labels), "--out", str(out))
    return (command, "--out", str(out))


@pytest.mark.parametrize("command, flag, value, section, key, config_value, bad", OVERRIDES)
def test_flag_equals_config_key(pipeline, tmp_path, capsys, command, flag, value, section, key, config_value, bad):
    keyed = json.loads(json.dumps(TINY))
    (keyed if section is None else keyed.setdefault(section, {}))[key] = config_value

    def call(name, doc, *flags):
        """(exit code, captured output, output files) of one run in its own directory."""
        out = tmp_path / name / "out"
        out.parent.mkdir()
        (out.parent / "config.json").write_text(json.dumps(doc))
        code = run(*_override_argv(command, pipeline, out), "--config", str(out.parent / "config.json"), *flags)
        files = [p.read_bytes() for p in sorted(out.parent.glob("out*"))]
        return code, capsys.readouterr(), files

    base, by_flag, by_key = call("base", TINY), call("flag", TINY, flag, value), call("key", keyed)
    assert base[0] == by_flag[0] == by_key[0] == 0
    assert (by_flag[1].out, by_flag[2]) == (by_key[1].out, by_key[2])
    assert (by_flag[1].out, by_flag[2]) != (base[1].out, base[2])  # the key matters on this input

    code, printed, files = call("bad", TINY, flag, bad)
    lines = printed.err.strip().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")
    assert files == []


NOISY = {**TINY, "noise": {"pixel_sigma": 0.3}}  # pre-correction accuracy below 1.0


@pytest.fixture(scope="module")
def run_all_noisy(tmp_path_factory):
    """run-all once on NOISY; returns its directory, config and printed accuracies."""
    root = tmp_path_factory.mktemp("run_all")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(NOISY))
    out = root / "out"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run("run-all", "--config", str(config_path), "--out", str(out)) == 0
    acc = dict(line.split() for line in printed.getvalue().splitlines())
    return {
        "root": root, "config": str(config_path), "out": out,
        "pre": float(acc["pre_hlc_accuracy"]), "post": float(acc["post_hlc_accuracy"]),
    }


def test_run_all_equals_train_attack_hlc(run_all_noisy):
    r = run_all_noisy
    out, root, config = r["out"], r["root"], r["config"]
    assert r["pre"] < 1.0
    model = root / "model.json"
    assert run("train", str(out / "dataset"), str(model), "--config", config,
               "--losses", str(root / "losses.csv")) == 0
    assert model.read_bytes() == (out / "model.bin").read_bytes()
    assert (root / "losses.csv").read_bytes() == (out / "losses.csv").read_bytes()
    predicted = root / "predicted.csv"
    assert run("attack", str(model), str(out / "dataset" / "test"), "--out", str(predicted)) == 0
    assert predicted.read_bytes() == (out / "predicted.csv").read_bytes()
    corrected = root / "corrected.csv"
    assert run("hlc", str(predicted), "--config", config, "--out", str(corrected)) == 0
    assert corrected.read_bytes() == (out / "corrected.csv").read_bytes()


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _env():
    src = str(SCRIPTS.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_script(name, *argv, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, argv)],
        capture_output=True, text=True, env=_env(), cwd=cwd, timeout=300,
    )


def _script(name, *argv, cwd):
    proc = _run_script(name, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_attack_script_matches_run_all(run_all_noisy, tmp_path):
    r = run_all_noisy
    lines = _script("run_attack_experiment.py", "--config", r["config"], "--seeds", NOISY["seed"], cwd=tmp_path)
    expected = f"seed {NOISY['seed']}: pre {r['pre']:.4f}  post {r['post']:.4f}  "
    assert lines[0].startswith(expected)


def test_attack_script_l_size_flag_overrides_config(tmp_path, capsys, monkeypatch):
    # the script runs in this process; its --l-size differs from the file's l_size
    doc = {**NOISY, "l_size": 8}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    cfg = dataclasses.replace(config_from_dict(doc), seed=5, l_size=16)
    result = run_attack(cfg, generate_dataset(cfg))
    argv = ["run_attack_experiment.py", "--config", str(config_path), "--l-size", "16", "--seeds", "5"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / "run_attack_experiment.py"), run_name="__main__")
    assert not stop.value.code  # exit status 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"seed 5: pre {result.pre_accuracy:.4f}  post {result.post_accuracy:.4f}  ")
    assert lines[1] == f"median over 1 seeds: pre {result.pre_accuracy:.4f}  post {result.post_accuracy:.4f}"


def test_mdc_script_matches_cli(tmp_path, tiny_config):
    assert run("mdc", "--config", tiny_config, "--seed", "0", "--out", str(tmp_path / "mdc.csv")) == 0
    rows = [line.split(",") for line in (tmp_path / "mdc.csv").read_text().splitlines()[1:]]
    expected = ["fraction  median_min_p"] + [
        f"{float(f):8.4f}  {float(p):12.4g}  {'quiet' if float(p) >= 0.05 else 'detected'}" for f, p in rows
    ]
    assert _script("mdc_experiment.py", "--config", tiny_config, "--seeds", 1, cwd=tmp_path) == expected


def test_mdc_script_median_over_per_seed_searches(tmp_path, tiny_config):
    # one scene for every seed gives each seed's own `pipeline.mdc` result
    cfg = config_from_dict(TINY)
    table = [mdc(dataclasses.replace(cfg, seed=seed)).min_p for seed in range(3)]
    expected = ["fraction  median_min_p"] + [
        f"{f:8.4f}  {p:12.4g}  {'quiet' if p >= 0.05 else 'detected'}"
        for f, p in zip(TINY["mdc"]["fractions"], np.median(table, axis=0))
    ]
    assert _script("mdc_experiment.py", "--config", tiny_config, "--seeds", 3, cwd=tmp_path) == expected


@pytest.mark.parametrize("value", [0, -2])
def test_mdc_script_rejects_empty_sweep(tmp_path, value):
    proc = _run_script("mdc_experiment.py", "--seeds", value, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"mdc_experiment.py: error: --seeds must be >= 1, got {value}"


def test_hlc_sweep_script_table_and_best_line(tmp_path):
    lines = _script("hlc_param_sweep.py", "--seeds", 1, "--out", "sweep.csv", cwd=tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "sigma_s,T_s,sigma_e,T_e,accuracy"
    assert len(rows) == 1 + 90
    best = max(float(row.split(",")[-1]) for row in rows[1:])
    assert lines[0].startswith(f"best mean accuracy {best:.4f} at ")


def test_hlc_sweep_script_means_the_library_sweep(tmp_path, monkeypatch):
    # the script runs in this process; each row's accuracy is the mean over the
    # seeds of `hlc.sweep_params` on the script's own noisy sequences
    script = str(SCRIPTS / "hlc_param_sweep.py")
    noisy_steps = runpy.run_path(script)["noisy_steps"]
    out = tmp_path / "sweep.csv"
    monkeypatch.setattr(sys, "argv", ["hlc_param_sweep.py", "--seeds", "3", "--flip", "0.2", "--out", str(out)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(script, run_name="__main__")
    assert not stop.value.code  # exit status 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    grid = [HlcParams(float(ss), int(ts), float(se), int(te)) for ss, ts, se, te, _ in rows]
    sequences = [noisy_steps(np.random.default_rng(seed), flip=0.2) for seed in range(3)]
    per_seed = [[acc for _, acc in sweep_params(noisy, truth, grid)] for noisy, truth in sequences]
    assert [float(row[-1]) for row in rows] == [sum(accs) / 3 for accs in zip(*per_seed)]
    assert len(set(float(row[-1]) for row in rows)) > 1  # the grid points differ at this flip rate


@pytest.mark.parametrize("flag, value", [("--seeds", 0), ("--seeds", -2), ("--flip", 1.5), ("--flip", -0.1), ("--flip", "nan")])
def test_hlc_sweep_script_rejects_out_of_range(tmp_path, flag, value):
    proc = _run_script("hlc_param_sweep.py", flag, value, "--out", "sweep.csv", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("hlc_param_sweep.py: error: " + flag)
    assert not (tmp_path / "sweep.csv").exists()


# --- the error boundary that the commands and the scripts share -----------------

@pytest.mark.parametrize(
    "name, argv",
    [
        ("mdc_experiment.py", ["--config", "missing.json"]),
        ("run_attack_experiment.py", ["--config", "missing.json"]),
        # this script takes no config: its output file is the one it cannot open
        ("hlc_param_sweep.py", ["--seeds", 1, "--out", "missing/sweep.csv"]),
    ],
)
def test_script_missing_file_one_error_line(tmp_path, name, argv):
    proc = _run_script(name, *argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "missing" in line


def test_attack_script_bad_l_size_one_error_line(tmp_path):
    proc = _run_script("run_attack_experiment.py", "--seeds", 0, "--l-size", 0, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: l_size must be >= 1, got 0"]


NO_MEMORY = "Unable to allocate 7.15 TiB for an array with shape (1000000000, 32, 3, 8192)"


def _out_of_memory(*args, **kwargs):
    raise MemoryError(NO_MEMORY)  # numpy's message for a failed allocation; nothing is allocated here


def test_command_out_of_memory_one_error_line(tmp_path, tiny_config, capsys, monkeypatch):
    monkeypatch.setattr("facelight.pipeline.mdc", _out_of_memory)
    assert run("mdc", "--config", tiny_config, "--seed", "0", "--out", str(tmp_path / "mdc.csv")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {NO_MEMORY}"]
    assert not (tmp_path / "mdc.csv").exists()


def test_error_boundary_names_a_bare_memory_error(capsys):
    def command():
        raise MemoryError

    assert error_boundary(command) == 1
    assert capsys.readouterr().err.splitlines() == ["error: MemoryError"]


def test_script_out_of_memory_one_error_line(tmp_path, tiny_config, capsys, monkeypatch):
    # the script runs in this process, so that its library call can be replaced
    monkeypatch.setattr("facelight.pipeline.mdc_seeds", _out_of_memory)
    monkeypatch.setattr(sys, "argv", ["mdc_experiment.py", "--config", tiny_config, "--seeds", "1"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / "mdc_experiment.py"), run_name="__main__")
    assert stop.value.code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {NO_MEMORY}"]
