import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_hlc
from oracle_hlc import count_label, end_of_step, start_of_step

from facelight.errors import DomainError
from facelight.hlc import (
    HlcParams,
    LabelSequence,
    correct_labels,
    param_grid,
    read_label_sequence,
    sweep_params,
    write_label_sequence,
    write_sweep_csv,
)
from facelight.labels import UNKNOWN, accuracy

DEFAULTS = HlcParams()  # sigma_s=0.90, T_s=10, sigma_e=0.10, T_e=10
A, B, C = 0, 1, 2


def test_default_params_values():
    assert (DEFAULTS.sigma_s, DEFAULTS.t_s, DEFAULTS.sigma_e, DEFAULTS.t_e) == (0.90, 10, 0.10, 10)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma_s": 0.4},
        {"sigma_s": 1.0},
        {"t_s": 0},
        {"sigma_e": 0.0},
        {"sigma_e": 0.6},
        {"t_e": -1},
    ],
)
def test_param_ranges_enforced(kwargs):
    with pytest.raises(DomainError):
        HlcParams(**kwargs)


def test_count_label_basics():
    assert count_label(A, [A, A, B]) == 2
    assert count_label(A, []) == 0
    assert count_label(UNKNOWN, [UNKNOWN, A]) == 1


def test_start_pure_run():
    assert start_of_step([A] * 10, 1, DEFAULTS)


def test_start_alternating_false_while_window_holds_two():
    # truncated tail windows use their actual length, so the single-element
    # window at t = T trivially reaches any threshold; every earlier position
    # stays below it (max proportion 5/9)
    y = [A, B] * 10
    assert not any(start_of_step(y, t, DEFAULTS) for t in range(1, 20))
    assert start_of_step(y, 20, DEFAULTS)


def test_start_nine_of_ten():
    y = [A] * 9 + [B]
    assert start_of_step(y, 1, DEFAULTS)


def test_start_unknown_never_opens():
    assert not start_of_step([UNKNOWN] * 10, 1, DEFAULTS)


def test_start_index_validation():
    with pytest.raises(DomainError):
        start_of_step([A], 2, DEFAULTS)
    with pytest.raises(DomainError):
        start_of_step([A], 0, DEFAULTS)


def test_end_false_when_current_matches():
    assert not end_of_step([A, B, B], A, 1, DEFAULTS)


def test_end_true_when_label_gone():
    y = [B] * 11
    assert end_of_step(y, A, 1, DEFAULTS)


def test_end_false_for_distant_single_hit():
    y = [B] * 9 + [A] + [B] * 5
    # tau = 9: one hit in ten positions reaches sigma_e = 0.10
    assert not end_of_step(y, A, 1, DEFAULTS)


def test_end_true_when_hit_beyond_window():
    y = [B] * 11 + [A]
    assert end_of_step(y, A, 1, DEFAULTS)


# --- one pass against the loop ---------------------------------------------

ORACLE_GRID = param_grid([0.5, 0.9], [1, 3, 10], [0.1, 0.5], [0, 2, 10])


@given(
    st.lists(st.integers(-1, 4), min_size=1, max_size=120),
    st.sampled_from(ORACLE_GRID),
)
@settings(max_examples=400, deadline=None)
def test_one_pass_matches_loop(y, params):
    assert correct_labels(y, params).labels == oracle_hlc.correct_labels(y, params).labels


def test_one_pass_matches_loop_on_noisy_steps():
    rng = np.random.default_rng(11)
    for _ in range(100):
        y = []
        while len(y) < 200:
            y += [int(rng.integers(-1, 5))] * int(rng.integers(1, 30))
        y = [int(rng.integers(-1, 5)) if rng.random() < 0.15 else v for v in y]
        params = ORACLE_GRID[int(rng.integers(len(ORACLE_GRID)))]
        assert correct_labels(y, params).labels == oracle_hlc.correct_labels(y, params).labels


def _oracle_rows(y, truth, grid):
    return [(params, accuracy(oracle_hlc.correct_labels(y, params).labels, truth)) for params in grid]


@given(
    st.integers(1, 120).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-1, 4), min_size=n, max_size=n),
            st.lists(st.integers(-1, 4), min_size=n, max_size=n),
        )
    ),
    st.lists(st.sampled_from(ORACLE_GRID), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_loop_and_accuracy(sequences, grid):
    # truth holds UNKNOWN too, which matches only a corrected UNKNOWN
    y, truth = sequences
    assert sweep_params(y, truth, grid) == _oracle_rows(y, truth, grid)


def _sparse_noise(rng, n):
    # long runs with rare single flips: the scan spends most of a step skipping runs
    y = []
    while len(y) < n:
        y += [int(rng.integers(0, 5))] * int(rng.integers(20, 80))
    return [int(rng.integers(-1, 5)) if rng.random() < 0.03 else v for v in y[:n]]


def _dense_noise(rng, n):
    # short runs and frequent flips: the end test runs at most positions
    y = []
    while len(y) < n:
        y += [int(rng.integers(-1, 3))] * int(rng.integers(1, 6))
    return [int(rng.integers(-1, 5)) if rng.random() < 0.4 else v for v in y[:n]]


@pytest.mark.parametrize("make", [_sparse_noise, _dense_noise], ids=["sparse", "dense"])
def test_sweep_and_correction_match_loop_on_noise(make):
    grid = param_grid([0.5, 0.9], [1, 4, 25], [0.1, 0.5], [0, 1, 3, 30])
    rng = np.random.default_rng(23)
    for _ in range(3):
        y = make(rng, 200)
        truth = make(rng, 200)
        rows = sweep_params(y, truth, grid)
        assert rows == _oracle_rows(y, truth, grid)
        for params in grid[::5]:
            assert correct_labels(y, params).labels == oracle_hlc.correct_labels(y, params).labels


def test_sweep_matches_loop_on_long_sparse_sequence():
    y = _sparse_noise(np.random.default_rng(5), 1200)
    grid = [HlcParams(0.9, 10, 0.1, 0), HlcParams(0.6, 5, 0.5, 0), DEFAULTS, HlcParams(0.5, 30, 0.05, 40)]
    assert sweep_params(y, y, grid) == _oracle_rows(y, y, grid)


def test_forty_thousand_labels_within_five_seconds():
    rng = np.random.default_rng(0)
    truth = [label for label in range(29) for _ in range(1380)][:40000]
    noisy = list(truth)
    for i in np.flatnonzero(rng.random(len(noisy)) < 0.05):
        noisy[i] = int((noisy[i] + 1 + rng.integers(0, 28)) % 29)
    start = time.perf_counter()
    z = correct_labels(noisy, DEFAULTS)
    assert time.perf_counter() - start < 5.0
    assert accuracy(z.labels, truth) >= 0.99


@pytest.mark.parametrize("timestep", [0.0, -1.0, math.nan, math.inf])
def test_timestep_must_be_finite_and_positive(timestep):
    with pytest.raises(DomainError):
        LabelSequence((A,), timestep)


def test_correct_pure_run_unchanged():
    z = correct_labels(LabelSequence(tuple([A] * 30)), DEFAULTS)
    assert z.labels == tuple([A] * 30)


def test_correct_single_flip_in_long_run():
    y = [A, A, A, A, B, A, A, A, A, A, A, A, A, A, A, A, A, A, A, A]
    z = correct_labels(y, DEFAULTS)
    assert z.labels == tuple([A] * 20)


def test_correct_all_noise_becomes_unknown():
    y = [A, B, C, A, B, C, A, B, C, A, B, C]
    z = correct_labels(y, DEFAULTS)
    # all positions are off-step except the last, whose length-1 tail window
    # opens a trivial step
    assert z.labels == tuple([UNKNOWN] * 11 + [C])


def test_correct_two_steps_with_boundary():
    y = [A] * 30 + [B] * 30
    z = correct_labels(y, DEFAULTS)
    assert z.labels == tuple([A] * 30 + [B] * 30)


def test_correct_preserves_timestep():
    z = correct_labels(LabelSequence((A,) * 12, timestep=0.25), DEFAULTS)
    assert z.timestep == 0.25


def test_relaxed_parameter_setting_still_steps():
    # the illustrative relaxed setting: lower thresholds, shorter windows
    params = HlcParams(0.6, 8, 0.4, 6)
    y = [A] * 6 + [B] + [A] * 5 + [C] * 12
    z = correct_labels(y, params)
    assert z.labels[:12] == tuple([A] * 12)
    assert z.labels[12:] == tuple([C] * 12)


def test_length_preserved_on_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        y = rng.integers(-1, 4, size=n).tolist()
        z = correct_labels(y, DEFAULTS)
        assert len(z.labels) == n


@given(st.lists(st.integers(-1, 3), min_size=1, max_size=60))
@settings(max_examples=200)
def test_step_value_always_from_input(y):
    z = correct_labels(y, DEFAULTS)
    assert len(z.labels) == len(y)
    for v in z.labels:
        assert v == UNKNOWN or v in y


def test_step_purity_and_openings():
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = []
        for _ in range(rng.integers(1, 5)):
            y += [int(rng.integers(0, 3))] * int(rng.integers(1, 40))
        z = list(correct_labels(y, DEFAULTS).labels)
        # each maximal non-UNKNOWN run must be constant
        i = 0
        while i < len(z):
            if z[i] == UNKNOWN:
                i += 1
                continue
            j = i
            while j < len(z) and z[j] == z[i]:
                j += 1
            assert all(v == z[i] for v in z[i:j])
            i = j


def test_fixed_point_on_clean_steps():
    rng = np.random.default_rng(7)
    for trial in range(20):
        labels = []
        for step in range(rng.integers(1, 6)):
            labels += [int(rng.integers(0, 5))] * int(rng.integers(11, 40))
        z = correct_labels(labels, DEFAULTS)
        assert z.labels == tuple(labels)


def test_noise_robustness_recovery():
    # one 60-frame step per application label; 5% of frames flipped uniformly
    accs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        truth = []
        for step_label in range(29):
            truth += [step_label] * 60
        noisy = list(truth)
        flips = rng.random(len(noisy)) < 0.05
        for i in np.flatnonzero(flips):
            noisy[i] = int((noisy[i] + 1 + rng.integers(0, 28)) % 29)
        z = correct_labels(noisy, DEFAULTS)
        accs.append(accuracy(z.labels, truth))
    assert np.median(accs) >= 0.99


def test_determinism():
    y = np.random.default_rng(5).integers(0, 3, size=100).tolist()
    assert correct_labels(y, DEFAULTS) == correct_labels(y, DEFAULTS)


def test_sweep_single_point():
    y = [A] * 30
    rows = sweep_params(y, y, [DEFAULTS])
    assert len(rows) == 1
    assert rows[0][1] == 1.0


def test_sweep_perfect_sequence_tops_grid():
    y = [A] * 40 + [B] * 40
    grid = param_grid([0.6, 0.9], [5, 10], [0.1, 0.4], [5, 10])
    rows = sweep_params(y, y, grid)
    assert len(rows) == 16
    assert all(acc == 1.0 for _, acc in rows)


def test_sweep_length_mismatch():
    with pytest.raises(DomainError):
        sweep_params([A] * 3, [A] * 4, [DEFAULTS])


BAD_LABELS = [
    ([-5] + [A] * 12, "-5"),
    ([-5] * 20, "-5"),
    ([A] * 5 + [1.5] + [A] * 5, "1.5"),
    ([A, math.nan, A], "nan"),
    ([A, math.inf], "inf"),
    ([A, "1", A], "1"),
    ([A, None], "None"),
    (np.array([0.0, 2.5]), "2.5"),
    (np.array([[A, B], [B, A]]), "shape"),
    ([], "at least one label"),
]


@pytest.mark.parametrize("bad, shown", BAD_LABELS)
def test_correct_labels_rejects_bad_labels_at_entry(bad, shown):
    with pytest.raises(DomainError, match=rf"^y: .*{shown}"):
        correct_labels(bad, DEFAULTS)


@pytest.mark.parametrize("bad, shown", BAD_LABELS)
@pytest.mark.parametrize("argument", ["y", "truth"])
def test_sweep_rejects_bad_labels_at_entry(bad, shown, argument):
    good = [A] * max(len(bad), 1)
    y, truth = (bad, good) if argument == "y" else (good, bad)
    with pytest.raises(DomainError, match=rf"^{argument}: .*{shown}"):
        sweep_params(y, truth, [DEFAULTS])


@pytest.mark.parametrize(
    "good", [[A, B, UNKNOWN], (2, 2), np.array([1, 0, -1]), np.array([1.0, 0.0]), [np.int64(3), True]]
)
def test_integer_labels_of_any_type_accepted(good):
    values = [int(v) for v in good]
    want = oracle_hlc.correct_labels(values, DEFAULTS).labels
    assert correct_labels(good, DEFAULTS).labels == want
    assert correct_labels(iter(good), DEFAULTS).labels == want
    assert sweep_params(good, good, [DEFAULTS]) == [(DEFAULTS, accuracy(want, values))]


def test_label_sequence_rejects_non_integers():
    with pytest.raises(DomainError, match="1.5"):
        LabelSequence((A, 1.5))
    with pytest.raises(DomainError, match="-2"):
        LabelSequence((A, -2))


def test_sequence_csv_round_trip(tmp_path):
    seq = LabelSequence((2, UNKNOWN, 1, 1))
    path = tmp_path / "seq.csv"
    write_label_sequence(path, seq)
    text = path.read_text().splitlines()
    assert text[0] == "t,label_index"
    assert text[1] == "1,2"
    assert text[2] == "2,-1"
    back = read_label_sequence(path)
    assert back.labels == seq.labels


def test_sweep_csv_header(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [(DEFAULTS, 0.875)])
    lines = path.read_text().splitlines()
    assert lines[0] == "sigma_s,T_s,sigma_e,T_e,accuracy"
    assert lines[1].startswith("0.9,10,0.1,10,")


def test_sweep_default_setting_near_grid_best():
    # at 5% uniform flips every reasonable setting corrects nearly all frames;
    # the default setting stays within one accuracy point of the grid best
    # (mean over 10 seeds, corners of the tested ranges plus the default)
    grid = param_grid([0.5, 0.9], [5, 15], [0.1, 0.3], [5, 10]) + [DEFAULTS]
    totals = np.zeros(len(grid))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        truth = []
        for label in range(29):
            truth += [label] * 60
        noisy = list(truth)
        for i in np.flatnonzero(rng.random(len(noisy)) < 0.05):
            noisy[i] = int((noisy[i] + 1 + rng.integers(0, 28)) % 29)
        for i, params in enumerate(grid):
            totals[i] += accuracy(correct_labels(noisy, params).labels, truth)
    totals /= 10
    assert totals.max() - totals[-1] <= 0.01
