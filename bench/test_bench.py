"""Tests of the benchmark's own parts: run with `python3 -m pytest bench -q`."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from facelight import hlc  # noqa: E402
from facelight.config import ExperimentConfig  # noqa: E402
from facelight.dataset import FrameRecord, generate_split, ordered  # noqa: E402
from facelight.labels import UNKNOWN  # noqa: E402

import workloads  # noqa: E402
from hlc_reference import reference_correct, step_violations  # noqa: E402
from sessions import build_sessions, max_dwell  # noqa: E402

params = st.builds(
    hlc.HlcParams,
    sigma_s=st.floats(0.5, 0.99),
    t_s=st.integers(1, 12),
    sigma_e=st.floats(0.01, 0.5),
    t_e=st.integers(0, 12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-1, 4), min_size=1, max_size=60), params)
def test_reference_matches_correct_labels(labels, p):
    expected = hlc.correct_labels(labels, p).labels
    assert reference_correct(labels, p.sigma_s, p.t_s, p.sigma_e, p.t_e) == expected
    assert step_violations(expected, labels, p.sigma_s, p.t_s) == []


def test_reference_keeps_clean_steps_and_fixes_a_flip():
    truth = [3] * 20 + [1] * 15 + [4] * 12
    assert reference_correct(truth, 0.9, 10, 0.1, 10) == tuple(truth)
    noisy = list(truth)
    noisy[25] = 0
    assert reference_correct(noisy, 0.9, 10, 0.1, 10) == tuple(truth)


def test_reference_marks_unsteady_labels_unknown():
    assert reference_correct([0, 1, 2, 3], 0.9, 4, 0.1, 2) == (UNKNOWN, UNKNOWN, UNKNOWN, 3)


def test_step_violations_flags_bad_outputs():
    labels = [0, 0, 0, 1, 1, 1]
    assert step_violations((0, 0, 0, 1, 1), labels, 0.9, 3) == ["length 5 != 6"]
    assert step_violations((0, 0, 0, 7, 7, 7), labels, 0.9, 3)[0].startswith("labels [7]")
    # a step of 1 cannot start at position 3, where the input holds 0
    assert step_violations((0, 0, 1, 1, 1, 1), labels, 0.9, 3) == ["step of 1 at 3 has no valid start"]


def held_out(num_labels=5, frames=30):
    return [
        FrameRecord(np.full((2, 2, 3), label * 40 + t, dtype=np.uint8), label, f"test-{label:02d}", t)
        for label in range(num_labels)
        for t in range(1, frames + 1)
    ]


def test_sessions_have_playback_order_and_dwells():
    records = held_out()
    sessions = build_sessions(records, 5, 3, 40, 3, 10, np.random.default_rng(4))
    assert len(sessions) == 3
    visited = []
    for i, session in enumerate(sessions):
        assert len(session) == 40
        assert {r.sequence_id for r in session} == {f"session-{i:02d}"}
        assert [r.t for r in session] == list(range(1, 41))
        assert ordered(session) == session
        runs = []
        for r in session:
            if runs and runs[-1][0] == r.label:
                runs[-1][1] += 1
            else:
                runs.append([r.label, 1])
        assert len(runs) == 3 and min(n for _, n in runs) >= 10
        visited += [label for label, _ in runs]
        for r in session:  # each frame is a held-out frame of its own label
            assert int(r.image[0, 0, 0]) // 40 == r.label
    assert set(visited[:5]) == set(range(5))  # one permutation before any repeats


def test_sessions_are_deterministic_and_checked():
    records = held_out()
    a = build_sessions(records, 5, 2, 40, 3, 10, np.random.default_rng(9))
    b = build_sessions(records, 5, 2, 40, 3, 10, np.random.default_rng(9))
    assert [[(r.label, r.t, r.image.tobytes()) for r in s] for s in a] == [
        [(r.label, r.t, r.image.tobytes()) for r in s] for s in b
    ]
    with pytest.raises(ValueError):
        build_sessions(records, 5, 1, 20, 3, 10, np.random.default_rng(0))
    with pytest.raises(ValueError):  # 30 held-out frames cannot cover a 40-frame dwell
        build_sessions(records, 5, 1, 90, 2, 10, np.random.default_rng(0))
    assert max_dwell(90, 2, 10) == 80


def test_staged_features_equal_extract_features():
    cfg = ExperimentConfig(seed=2, l_size=16, frames_per_app=10)
    images = np.stack([r.image for r in generate_split(cfg, "test")])  # 290 frames: two chunks
    checks = workloads.Checks()
    params = workloads.FeatureParams.from_seed(2)
    workloads.check_staged_features(checks, images, params, cfg)
    assert checks.failures == []


TINY = {
    "eavesdrop-l64": workloads.Sizes(16, 6, 1, 2e-3, 0.05, 2, 60, 2, 25, 1),
    "cli-l32": workloads.Sizes(16, 6, 1, 2e-3, 0.05, 1, 60, 2, 25, 1),
    "hlc-sweep": workloads.Sizes(16, 6, 1, 1e-3, 0.35, 1, 120, 4, 25, 1),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_give_identical_labels(name, tmp_path):
    untraced = workloads.run(name, 5, 0.0, False, tmp_path / "a", TINY[name])
    traced = workloads.run(name, 5, 0.0, True, tmp_path / "b", TINY[name])
    assert untraced["labels_digest"] == traced["labels_digest"]
    assert untraced["attempted"] == traced["attempted"] and untraced["failed"] == 0
    layers = traced["layers"]
    assert layers["features.frames"] > 0 and layers["render.frames"] > 0
    assert layers["hlc.labels"] > 0 and layers["classifier.train_batches"] > 0
    if name == "cli-l32":
        assert layers["classifier.model_mb"] > 1 and layers["cli.attack_s"] > 0


def test_tiny_run_reports_its_setup_repeats(tmp_path):
    sizes = dataclasses.replace(TINY["hlc-sweep"], setup_repeats=2)
    result = workloads.run("hlc-sweep", 1, 0.0, False, tmp_path, sizes)
    assert len(result["setup_s"]) == 2 and result["items"] > 0
