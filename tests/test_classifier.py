import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_nets import AdamState, adam_step, cross_entropy, one_hot, train_two_tier_reference

from facelight import classifier, threads
from facelight.classifier import (
    ADAM_BLOCK,
    MlpHead,
    TwoTierModel,
    adam_update,
    load_model,
    predict_features,
    save_model,
    softmax,
    train_two_tier,
)
from facelight.errors import DomainError
from facelight.features import FeatureParams, feature_length
from facelight.labels import UNKNOWN, LabelLayout, accuracy, split_label
from facelight.threads import MAX_THREADS

TABLE_LAYOUT = LabelLayout((6, 6, 6, 8, 2, 1))


# --- labels ------------------------------------------------------------------

def test_unify_split_round_trip_table_counts():
    seen = set()
    for j, count in enumerate(TABLE_LAYOUT.counts):
        for k in range(count):
            idx = TABLE_LAYOUT.offsets[j] + k
            assert split_label(idx, TABLE_LAYOUT) == (j, k)
            seen.add(idx)
    assert seen == set(range(TABLE_LAYOUT.num_labels))
    assert TABLE_LAYOUT.num_labels == 29


def test_one_hot_unknown_is_zero_vector():
    assert np.array_equal(one_hot(UNKNOWN, 4), np.zeros(4))
    assert np.array_equal(one_hot(2, 4), np.array([0.0, 0.0, 1.0, 0.0]))


def test_accuracy_basics():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2], [3, 4]) == 0.0
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75
    assert accuracy([UNKNOWN, 1], [UNKNOWN, 1]) == 1.0
    assert accuracy([UNKNOWN], [0]) == 0.0
    with pytest.raises(DomainError):
        accuracy([1], [1, 2])


# --- softmax / cross entropy ---------------------------------------------------

def test_softmax_pair():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_uniform():
    assert np.allclose(softmax([3.0, 3.0, 3.0]), [1 / 3] * 3)


def test_softmax_one_two_three():
    got = softmax([1.0, 2.0, 3.0])
    assert np.allclose(got, [0.090031, 0.244728, 0.665241], atol=1e-6)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-30, 30))
@settings(max_examples=100)
def test_softmax_shift_invariance(logits, shift):
    a = softmax(np.array(logits))
    b = softmax(np.array(logits) + shift)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_cross_entropy_confident():
    assert cross_entropy([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_even():
    assert cross_entropy([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-12)


def test_cross_entropy_wrong_confident():
    assert cross_entropy([0.1, 0.9], [1.0, 0.0]) == pytest.approx(2.302585, abs=1e-6)


def test_cross_entropy_rejects_non_one_hot():
    with pytest.raises(DomainError):
        cross_entropy([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        cross_entropy([0.5, 0.5], [1.0, 1.0])


# --- Adam ---------------------------------------------------------------------

def test_adam_zero_grad_no_move():
    p, m, v = np.array([1.0, -2.0]), np.zeros(2), np.zeros(2)
    adam_update(p, np.zeros(2), m, v, 1, lr=0.1)
    assert np.array_equal(p, [1.0, -2.0])
    assert np.array_equal(m, [0.0, 0.0]) and np.array_equal(v, [0.0, 0.0])


def test_adam_first_step_magnitude():
    p = np.array([1.0])
    adam_update(p, np.array([1.0]), np.zeros(1), np.zeros(1), 1, lr=0.1)
    assert p[0] == pytest.approx(0.9, abs=1e-8)


def test_adam_two_steps_match_hand_oracle():
    # spreadsheet-style evaluation of the update formulas with plain floats
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = 1.0
    m = v = 0.0
    for t, g in ((1, 1.0), (2, 0.5)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)

    param, m_arr, v_arr = np.array([1.0]), np.zeros(1), np.zeros(1)
    adam_update(param, np.array([1.0]), m_arr, v_arr, 1, lr=lr)
    adam_update(param, np.array([0.5]), m_arr, v_arr, 2, lr=lr)
    assert abs(param[0] - p) <= 1e-12


def test_adam_shape_mismatch():
    with pytest.raises(DomainError):
        adam_update(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 1, lr=0.1)


def test_adam_rejects_non_contiguous_param():
    # reshape(-1) of a strided view copies, so the update would be lost
    param = np.zeros((4, 4))[:, ::2]
    with pytest.raises(DomainError, match="C-contiguous"):
        adam_update(param, np.ones((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)), 1, lr=0.1)


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 3 * ADAM_BLOCK + 7]),
    t=st.integers(1, 40),
    lr=st.sampled_from([1e-4, 1e-2, 0.5]),
    specials=st.lists(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e3, -1e3]), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_adam_update_matches_whole_array_oracle_bits(size, t, lr, specials, seed):
    rng = np.random.default_rng(seed)
    grad = rng.normal(0.0, 1e-2, size)
    at = rng.integers(0, size, len(specials))
    grad[at] = specials
    param = rng.normal(0.0, 0.1, size)
    m = rng.normal(0.0, 1e-3, size)
    v = rng.exponential(1e-4, size)
    if t == 1:  # the first step starts from zero moments
        m[:], v[:] = 0.0, 0.0
    want_param, want = adam_step(param, grad, AdamState(m, v, t - 1), lr)
    adam_update(param, grad, m, v, t, lr)
    assert param.tobytes() == want_param.tobytes()
    assert m.tobytes() == want.m.tobytes()
    assert v.tobytes() == want.v.tobytes()


def test_adam_update_memory_stays_block_sized():
    # one step over a 54 -> 512 -> 256 -> 7 head (w2 alone is 1 MiB) allocates
    # at most a block-sized scratch; the whole-array update peaks at several w2s
    head = MlpHead.init(54, 7, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    params = head.params()
    grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    tracemalloc.start()
    try:
        for name, p in params.items():
            adam_update(p, grads[name], *moments[name], 1, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert params["w2"].nbytes == 2**20
    assert peak < 2**20


# --- gradients ------------------------------------------------------------------

def _numeric_grad(head, x, y, name, index, h=1e-5):
    arr = getattr(head, name)
    flat = arr.ravel()
    orig = flat[index]
    flat[index] = orig + h
    up, _ = head.loss_and_gradients(x, y)
    flat[index] = orig - h
    down, _ = head.loss_and_gradients(x, y)
    flat[index] = orig
    return (up - down) / (2 * h)


def test_head_gradients_match_central_differences():
    rng = np.random.default_rng(123)
    for trial in range(3):
        head = MlpHead.init(5, 4, rng)
        x = rng.normal(size=(3, 5))
        y = rng.integers(0, 4, size=3)
        _, grads = head.loss_and_gradients(x, y)
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            arr = getattr(head, name)
            for index in rng.choice(arr.size, size=min(5, arr.size), replace=False):
                numeric = _numeric_grad(head, x, y, name, int(index))
                analytic = grads[name].ravel()[int(index)]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)


# --- training -------------------------------------------------------------------

def _toy_features(rng, n_per, centers, spread=0.05):
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(center + rng.normal(0, spread, size=(n_per, len(center))))
        ys.extend([label] * n_per)
    return np.concatenate(xs), np.array(ys)


def _padded_centers(layout, p_grid=1):
    dim = feature_length(p_grid)
    rng = np.random.default_rng(99)
    return rng.normal(0, 1.0, size=(layout.num_labels, dim))


def test_train_deterministic_same_seed():
    layout = LabelLayout((2, 2))
    rng = np.random.default_rng(0)
    x, y = _toy_features(rng, 12, _padded_centers(layout))
    kwargs = dict(epochs=2, batch_size=8, lr=1e-3, seed=5, p_grid=1)
    m1, log1 = train_two_tier(x, y, layout, **kwargs)
    m2, log2 = train_two_tier(x, y, layout, **kwargs)
    assert log1 == log2
    assert np.array_equal(m1.discriminator.w1, m2.discriminator.w1)
    assert all(
        np.array_equal(a.w3, b.w3) for a, b in zip(m1.predictors, m2.predictors)
    )


def test_train_zero_epochs_is_seeded_init():
    layout = LabelLayout((2, 2))
    rng = np.random.default_rng(0)
    x, y = _toy_features(rng, 6, _padded_centers(layout))
    model, log = train_two_tier(x, y, layout, epochs=0, seed=7, p_grid=1)
    assert log == []
    init_rng = np.random.default_rng(7)
    fresh = MlpHead.init(x.shape[1], 2, init_rng)
    assert np.array_equal(model.discriminator.w1, fresh.w1)


def test_train_separable_reaches_full_accuracy():
    layout = LabelLayout((2, 2))
    rng = np.random.default_rng(1)
    x, y = _toy_features(rng, 40, _padded_centers(layout), spread=0.02)
    model, _ = train_two_tier(x, y, layout, epochs=30, batch_size=16, lr=1e-2, seed=3, p_grid=1)
    pred = predict_features(model, x)
    assert accuracy(pred, y) == 1.0


def test_train_missing_category_named():
    layout = LabelLayout((2, 2), ("alpha", "beta"))
    x = np.zeros((4, feature_length(1)))
    y = np.array([0, 1, 0, 1])  # only category alpha present
    with pytest.raises(DomainError, match="beta"):
        train_two_tier(x, y, layout, p_grid=1)


def test_training_loss_log_shape():
    layout = LabelLayout((2, 2))
    rng = np.random.default_rng(2)
    x, y = _toy_features(rng, 8, _padded_centers(layout))
    model, log = train_two_tier(x, y, layout, epochs=2, batch_size=8, seed=1, p_grid=1)
    heads = {row["head"] for row in log}
    assert heads == {"discriminator", "category-0", "category-1"}
    disc_rows = [r for r in log if r["head"] == "discriminator"]
    assert len(disc_rows) == 2 * math.ceil(32 / 8)


def test_training_loss_decreases_across_seeds():
    layout = LabelLayout((2, 2))
    deltas = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x, y = _toy_features(rng, 20, _padded_centers(layout), spread=0.1)
        _, log = train_two_tier(x, y, layout, epochs=5, batch_size=16, lr=1e-3, seed=seed, p_grid=1)
        disc = [r for r in log if r["head"] == "discriminator"]
        ep1 = np.mean([r["loss"] for r in disc if r["epoch"] == 1])
        ep5 = np.mean([r["loss"] for r in disc if r["epoch"] == 5])
        deltas.append(ep1 - ep5)
    assert np.mean(deltas) > 0


def test_train_matches_whole_array_reference_bits():
    layout = LabelLayout((3, 2))
    rng = np.random.default_rng(4)
    x, y = _toy_features(rng, 9, _padded_centers(layout, p_grid=2), spread=0.3)
    model, log = train_two_tier(x, y, layout, epochs=3, batch_size=8, lr=1e-2, seed=6, p_grid=2)
    heads, want_log = train_two_tier_reference(x, y, layout, epochs=3, batch_size=8, lr=1e-2, seed=6)
    assert log == want_log
    for got, want in zip([model.discriminator] + model.predictors, heads, strict=True):
        for name, arr in got.params().items():
            assert arr.tobytes() == getattr(want, name).tobytes(), name


def test_train_one_app_head_matches_reference_bits():
    # the middle category has one app: its head logs -0.0 for every batch and
    # keeps its initial weights, as full training of it does
    layout = LabelLayout((3, 1, 2))
    rng = np.random.default_rng(5)
    x, y = _toy_features(rng, 9, _padded_centers(layout, p_grid=2), spread=0.3)
    model, log = train_two_tier(x, y, layout, epochs=3, batch_size=4, lr=1e-2, seed=7, p_grid=2)
    heads, want_log = train_two_tier_reference(x, y, layout, epochs=3, batch_size=4, lr=1e-2, seed=7)
    assert log == want_log
    one_app = [row["loss"] for row in log if row["head"] == layout.category_name(1)]
    assert len(one_app) == 3 * 3 and all(math.copysign(1.0, v) == -1.0 and v == 0.0 for v in one_app)
    for got, want in zip([model.discriminator] + model.predictors, heads, strict=True):
        for name, arr in got.params().items():
            assert arr.tobytes() == getattr(want, name).tobytes(), name


# --- training on threads ----------------------------------------------------------

# (3, 2) and (3, 1, 2) as above, and more categories than MAX_THREADS
THREAD_LAYOUTS = [(3, 2), (3, 1, 2), (2, 3, 1, 2, 3, 2)]


def _cpus(monkeypatch, cpus):
    """Training sees `cpus` CPUs and a BLAS that runs on one thread."""
    monkeypatch.setattr(classifier, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(classifier, "_blas_threads", lambda: 1)


@pytest.mark.parametrize("counts", THREAD_LAYOUTS)
@pytest.mark.parametrize("cpus", [1, 2, MAX_THREADS])
def test_threaded_training_matches_reference_bits(counts, cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    layout = LabelLayout(counts)
    rng = np.random.default_rng(len(counts))
    x, y = _toy_features(rng, 7, _padded_centers(layout, p_grid=2), spread=0.3)
    # switching often, so that the heads interleave inside every step
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        model, log = train_two_tier(x, y, layout, epochs=2, batch_size=4, lr=1e-2, seed=8, p_grid=2)
    finally:
        sys.setswitchinterval(switch)
    heads, want_log = train_two_tier_reference(x, y, layout, epochs=2, batch_size=4, lr=1e-2, seed=8)
    assert log == want_log
    for got, want in zip([model.discriminator] + model.predictors, heads, strict=True):
        for name, arr in got.params().items():
            assert arr.tobytes() == getattr(want, name).tobytes(), name


def _spy_heads(monkeypatch, fail=()):
    """Record the thread that trains each head; the heads named in `fail` raise."""
    seen = {}
    train_head = classifier._train_head

    def spy(head, x, y, orders, batch_size, lr, workspace, head_name):
        seen[head_name] = threading.current_thread()
        if head_name in fail:
            raise DomainError(f"failed {head_name}")
        return train_head(head, x, y, orders, batch_size, lr, workspace, head_name)

    monkeypatch.setattr(classifier, "_train_head", spy)
    return seen


def test_training_threads_per_call(monkeypatch):
    # the discriminator and the one-output head on the caller, the other
    # predictors striped over min(CPUs, MAX_THREADS, trained heads) - 1 helpers
    layout = LabelLayout((2, 3, 1, 2, 3, 2))
    x, y = _toy_features(np.random.default_rng(9), 3, _padded_centers(layout))
    names = [layout.category_name(j) for j in range(6)]
    for cpus, want in [(1, 1), (2, 2), (3, 3), (64, MAX_THREADS)]:
        _cpus(monkeypatch, cpus)
        seen = _spy_heads(monkeypatch)
        train_two_tier(x, y, layout, epochs=1, seed=2, p_grid=1)
        assert set(seen) == {"discriminator", *names}
        assert len(set(seen.values())) == want
        assert seen["discriminator"] is seen[names[2]] is threading.current_thread()
        striped = [n for j, n in enumerate(names) if j != 2]  # category-2 has one app
        for j, name in enumerate(striped):
            assert seen[name] is seen[striped[j % (want - 1)] if want > 1 else "discriminator"]
    # two heads with more than one output: never more than two threads
    _cpus(monkeypatch, 64)
    layout = LabelLayout((1, 2))
    x, y = _toy_features(np.random.default_rng(9), 3, _padded_centers(layout))
    seen = _spy_heads(monkeypatch)
    train_two_tier(x, y, layout, epochs=1, seed=2, p_grid=1)
    assert len(set(seen.values())) == 2


def test_training_on_one_thread_beside_a_threaded_blas(monkeypatch):
    # a BLAS on several threads already fills the CPUs: every head on the caller
    _cpus(monkeypatch, 64)
    monkeypatch.setattr(classifier, "_blas_threads", lambda: 2)
    layout = LabelLayout((2, 3, 1, 2, 3, 2))
    x, y = _toy_features(np.random.default_rng(9), 3, _padded_centers(layout))
    seen = _spy_heads(monkeypatch)
    train_two_tier(x, y, layout, epochs=1, seed=2, p_grid=1)
    assert set(seen.values()) == {threading.current_thread()}


@pytest.mark.parametrize(
    "env, want",
    [
        ({}, 6),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "3"}, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 6),
    ],
)
def test_blas_threads_as_openblas_reads_them(env, want, monkeypatch):
    monkeypatch.setattr(threads, "cpu_count", lambda: 6)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert threads.blas_threads() == want


@pytest.mark.parametrize("cpus", [1, 2, MAX_THREADS])
def test_failing_head_raises_in_caller(cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    layout = LabelLayout((2, 3, 1, 2, 3, 2))
    x, y = _toy_features(np.random.default_rng(10), 3, _padded_centers(layout))
    before = threading.active_count()
    # one predictor fails, on a helper once there are two threads or more
    seen = _spy_heads(monkeypatch, fail={"category-4"})
    with pytest.raises(DomainError, match="failed category-4"):
        train_two_tier(x, y, layout, epochs=1, seed=2, p_grid=1)
    assert threading.active_count() == before
    assert (seen["category-4"] is threading.current_thread()) == (cpus == 1)
    # two heads fail, on different helpers at MAX_THREADS: the lower index wins
    _spy_heads(monkeypatch, fail={"category-4", "category-3"})
    with pytest.raises(DomainError, match="failed category-3"):
        train_two_tier(x, y, layout, epochs=1, seed=2, p_grid=1)
    assert threading.active_count() == before
    # and the discriminator, on the caller, before any predictor
    _spy_heads(monkeypatch, fail={"category-0", "discriminator"})
    with pytest.raises(DomainError, match="failed discriminator"):
        train_two_tier(x, y, layout, epochs=1, seed=2, p_grid=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_training_workspaces_allocated_once_by_the_caller(cpus, monkeypatch):
    # 54 -> 512 -> 256 -> 7 heads: each thread's gradient, m and v buffers
    # and Adam scratch exist before any head trains, and nothing else the
    # size of a weight is allocated; m, v or gradients allocated per head or
    # per step would either be missing at the start or raise the peak
    _cpus(monkeypatch, cpus)
    layout = LabelLayout((7, 7))
    x, y = _toy_features(np.random.default_rng(11), 4, _padded_centers(layout, p_grid=4))
    n_threads = min(cpus, MAX_THREADS, 3)

    def head_bytes(out_dim):
        return 8 * (512 * 54 + 512 + 256 * 512 + 256 + out_dim * 256 + out_dim)

    model_bytes = head_bytes(2) + 2 * head_bytes(7)
    workspaces = n_threads * (3 * head_bytes(7) + 2 * 8 * ADAM_BLOCK)
    at_start = []
    run_shares = classifier.run_shares

    def spy(task, shares):
        at_start.append(tracemalloc.get_traced_memory()[0])
        return run_shares(task, shares)

    monkeypatch.setattr(classifier, "run_shares", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_two_tier(x, y, layout, epochs=2, batch_size=8, lr=1e-3, seed=3, p_grid=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at_start[0] - before >= model_bytes + workspaces
    assert peak - before <= model_bytes + workspaces + 2**20


# --- prediction ------------------------------------------------------------------

def _tiny_model(layout, seed=0):
    dim = feature_length(1)
    rng = np.random.default_rng(seed)
    return TwoTierModel(
        layout=layout,
        discriminator=MlpHead.init(dim, layout.num_categories, rng),
        predictors=[MlpHead.init(dim, c, rng) for c in layout.counts],
        l_size=8,
        p_grid=1,
        seed=seed,
    )


@pytest.mark.parametrize(
    "in_dim, out_dim, named",
    [
        (feature_length(1), 2, r"predictor 1 output dim 2 must match its 3 apps"),
        (feature_length(2), 3, rf"predictor 1 input dim {feature_length(2)} must match the discriminator's"),
    ],
)
def test_mismatched_predictor_rejected_when_built(in_dim, out_dim, named):
    # prediction offsets each predictor's argmax by its category's first label,
    # so the model is checked once, when it is built
    good = _tiny_model(LabelLayout((2, 3)))
    bad = MlpHead.init(in_dim, out_dim, np.random.default_rng(1))
    with pytest.raises(DomainError, match=named):
        TwoTierModel(good.layout, good.discriminator, [good.predictors[0], bad], 8, 1, 0)


def test_predict_images_does_not_import_numpy_ma():
    # numpy 2.4 imports numpy.ma on the first np.unique call, about 16 ms that
    # every attack process would pay; prediction must not be what imports it
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        from facelight.classifier import MlpHead, TwoTierModel, predict_images
        from facelight.features import feature_length
        from facelight.labels import LabelLayout

        layout = LabelLayout((3, 2))
        rng = np.random.default_rng(0)
        dim = feature_length(1)
        model = TwoTierModel(
            layout, MlpHead.init(dim, 2, rng),
            [MlpHead.init(dim, c, rng) for c in layout.counts], 8, 1, 0,
        )
        images = rng.integers(0, 256, size=(12, 6, 6, 3), dtype=np.uint8)
        before = "numpy.ma" in sys.modules
        predict_images(model, images)
        print(before, "numpy.ma" in sys.modules)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma eagerly")
    assert after == "False"


def test_forced_category_routes_to_its_predictor():
    layout = LabelLayout((3, 2))
    model = _tiny_model(layout)
    # freeze the discriminator to always choose category 0
    model.discriminator.w3[...] = 0.0
    model.discriminator.b3[...] = [5.0, -5.0]
    feats = np.random.default_rng(4).normal(size=(20, feature_length(1)))
    pred = predict_features(model, feats)
    assert np.all(pred < layout.counts[0])


def test_argmax_tie_takes_lowest_index():
    layout = LabelLayout((2, 2))
    model = _tiny_model(layout)
    for head in [model.discriminator] + model.predictors:
        head.flat[...] = 0.0
    feats = np.ones((3, feature_length(1)))
    pred = predict_features(model, feats)
    assert np.all(pred == 0)


def test_routing_invariant_to_discriminator_rescaling():
    layout = LabelLayout((2, 3))
    model = _tiny_model(layout, seed=6)
    feats = np.random.default_rng(5).normal(size=(40, feature_length(1)))
    base = predict_features(model, feats)
    model.discriminator.w3[...] *= 3.0
    model.discriminator.b3[...] *= 3.0
    assert np.array_equal(predict_features(model, feats), base)


def test_model_round_trip_preserves_predictions(tmp_path):
    layout = LabelLayout((2, 3), ("a", "b"), (("a0", "a1"), ("b0", "b1", "b2")))
    model = _tiny_model(layout, seed=9)
    feats = np.random.default_rng(8).normal(size=(25, feature_length(1)))
    before = predict_features(model, feats)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(predict_features(back, feats), before)
    assert np.array_equal(back.discriminator.w1, model.discriminator.w1)
    assert back.layout == model.layout
    probs_a = model.discriminator.forward(feats)
    probs_b = back.discriminator.forward(feats)
    assert np.array_equal(probs_a, probs_b)  # bit-exact weights after the file round trip


_F8 = np.finfo(np.float64)
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, _F8.smallest_subnormal, -_F8.smallest_subnormal, _F8.tiny, _F8.max, -_F8.max])


# (array index, flat index, value) edits of a model's head weights
_WEIGHT_EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS),
    min_size=1,
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(_WEIGHT_EDITS)
def test_array_encoding_round_trips_bit_exactly(tmp_path_factory, edits):
    model = _tiny_model(LabelLayout((2, 3)), seed=1)
    heads = [model.discriminator, *model.predictors]
    arrays = [arr for head in heads for arr in head.params().values()]
    for which, index, value in edits:
        arr = arrays[which % len(arrays)]
        arr.flat[index % arr.size] = value
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(model, path)
    back = load_model(path)
    for got, want in zip([back.discriminator, *back.predictors], heads, strict=True):
        for name, arr in got.params().items():
            assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable
            assert arr.tobytes() == getattr(want, name).tobytes(), name  # -0.0 and subnormals keep their bits


def _default_model(seed=2):
    """The default layout's 7 heads at p_grid 4 (D = 54)."""
    dim = feature_length(4)
    rng = np.random.default_rng(seed)
    return TwoTierModel(
        layout=TABLE_LAYOUT,
        discriminator=MlpHead.init(dim, TABLE_LAYOUT.num_categories, rng),
        predictors=[MlpHead.init(dim, c, rng) for c in TABLE_LAYOUT.counts],
        l_size=64,
        p_grid=4,
        seed=seed,
    )


def test_loaded_default_model_gives_identical_probabilities(tmp_path):
    model = _default_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    feats = np.random.default_rng(4).normal(size=(300, feature_length(4)))
    for got, want in zip([back.discriminator, *back.predictors], [model.discriminator, *model.predictors], strict=True):
        assert got.forward(feats).tobytes() == want.forward(feats).tobytes()
    assert np.array_equal(predict_features(back, feats), predict_features(model, feats))
    assert back.layout == model.layout and (back.l_size, back.p_grid, back.seed) == (64, 4, 2)
    for name in ("conv1", "spatial"):
        assert np.array_equal(getattr(back.feature_params, name), getattr(model.feature_params, name))


def test_training_rejects_feature_params_not_from_the_seed():
    # a model holds only the seed of its extractor, so training with another one is an error
    layout = LabelLayout((2, 3))
    x, y = _toy_features(np.random.default_rng(3), 4, _padded_centers(layout))
    with pytest.raises(DomainError, match=r"feature_params must be FeatureParams\.from_seed\(1\)"):
        train_two_tier(x, y, layout, epochs=1, seed=1, feature_params=FeatureParams.from_seed(2), p_grid=1)
    model, log = train_two_tier(x, y, layout, epochs=1, seed=1, feature_params=FeatureParams.from_seed(1), p_grid=1)
    assert (model.seed, log) == (1, train_two_tier(x, y, layout, epochs=1, seed=1, p_grid=1)[1])


def test_extractor_and_head_arrays_cannot_be_rebound():
    model = _tiny_model(LabelLayout((2, 3)), seed=1)
    with pytest.raises(AttributeError):
        model.feature_params = FeatureParams.from_seed(2)
    head = model.discriminator
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        head.w1 = np.zeros_like(head.w1)
    # every array stays a view of the head's one buffer
    assert all(np.shares_memory(arr, head.flat) for arr in head.params().values())
    assert sum(arr.size for arr in head.params().values()) == head.flat.size


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"p_grid": 0}, "p_grid must lie in [1, l_size = 64], got 0"),
        ({"l_size": 0}, "l_size must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": None}, "seed must be an integer, got None"),
    ],
)
def test_training_checks_the_model_header_rules(kwargs, named):
    # a model that trains must also load: the header's rules hold before the first draw
    layout = LabelLayout((2, 3))
    x, y = _toy_features(np.random.default_rng(3), 4, _padded_centers(layout))
    with pytest.raises(DomainError) as info:
        train_two_tier(x, y, layout, epochs=1, **kwargs)
    assert str(info.value) == named
    model = _tiny_model(layout)
    with pytest.raises(DomainError, match=re.escape(named)):
        header = {"l_size": 64, "p_grid": 4, "seed": 0, **kwargs}
        TwoTierModel(model.layout, model.discriminator, model.predictors, **header)


@pytest.mark.parametrize("key, value", [("seed", -1), ("p_grid", 0), ("p_grid", 65), ("l_size", 0)])
def test_header_keys_read_as_in_the_config(tmp_path, key, value):
    # the config, training and a model file's header share one rule per key
    from facelight.config import config_from_dict

    with pytest.raises(DomainError) as info:
        config_from_dict({key: value})
    message = str(info.value)
    layout = LabelLayout((2, 3))
    x, y = _toy_features(np.random.default_rng(3), 4, _padded_centers(layout))
    with pytest.raises(DomainError) as info:
        train_two_tier(x, y, layout, epochs=1, **{key: value})
    assert str(info.value) == message
    path = tmp_path / "model.bin"
    save_model(_tiny_model(layout), path)
    line, weights = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(line), "l_size": 64, "p_grid": 4, "seed": 0, key: value}
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + weights)
    with pytest.raises(DomainError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"


def test_training_that_leaves_the_finite_range_is_an_error():
    # such a model would save, then fail to load on its non-finite weights
    layout = LabelLayout((2, 3), ("a", "b"))
    x, y = _toy_features(np.random.default_rng(3), 4, _padded_centers(layout))
    with pytest.raises(DomainError) as info:
        train_two_tier(x, y, layout, epochs=2, lr=1e300, p_grid=1)
    assert str(info.value) == "training diverged: the discriminator head's weights are not finite at train.learning_rate 1e+300"


def test_trained_model_saves_identical_bytes(tmp_path):
    layout = LabelLayout((2, 3), ("a", "b"), (("a0", "a1"), ("b0", "b1", "b2")))
    x, y = _toy_features(np.random.default_rng(3), 8, _padded_centers(layout))
    model, _ = train_two_tier(x, y, layout, epochs=2, batch_size=8, lr=1e-3, seed=3, p_grid=1)
    first, second, again = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "again.json"
    save_model(model, first)
    save_model(model, second)
    save_model(load_model(first), again)
    assert first.read_bytes() == second.read_bytes() == again.read_bytes()


def test_load_model_memory_is_a_few_times_the_weights(tmp_path):
    # the default layout's 7 heads at D = 54: 1.1 M parameters, 8.9 MB of float64.
    # Loading peaks near 1.0x the weights: each head is read straight into its own buffer.
    model = _default_model()
    weight_bytes = sum(p.nbytes for h in [model.discriminator] + model.predictors for p in h.params().values())
    assert weight_bytes > 8.5e6
    path = tmp_path / "model.json"
    save_model(model, path)
    tracemalloc.start()
    try:
        back = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.predictors[3].w2, model.predictors[3].w2)
    assert peak <= 4 * weight_bytes


def test_end_to_end_two_disjoint_color_apps():
    # two applications with disjoint palettes: held-out frames of both classes
    # classify correctly after training
    from facelight.config import config_from_dict
    from facelight.dataset import generate_split, images_and_labels
    from facelight.features import extract_features

    cfg = config_from_dict(
        {
            "seed": 4,
            "frames_per_app": 20,
            "screen": {"rows": 6, "cols": 8},
            "face": {"rows": 8, "cols": 8},
            "l_size": 16,
            "p_grid": 2,
            "train": {"epochs": 4, "batch_size": 8, "learning_rate": 1e-3},
            "categories": [{"name": "solo", "apps": ["app-red", "app-blue"]}],
        }
    )
    layout = cfg.label_layout()
    x_train, y_train = images_and_labels(generate_split(cfg, "train"))
    x_test, y_test = images_and_labels(generate_split(cfg, "test"))
    params = FeatureParams.from_seed(4)
    f_train = extract_features(x_train, params, cfg.l_size, cfg.p_grid)
    f_test = extract_features(x_test, params, cfg.l_size, cfg.p_grid)
    model, _ = train_two_tier(
        f_train, y_train, layout,
        epochs=4, batch_size=8, lr=1e-3,
        seed=4, feature_params=params, l_size=cfg.l_size, p_grid=cfg.p_grid,
    )
    pred = predict_features(model, f_test)
    for label in (0, 1):
        sel = y_test == label
        assert np.all(pred[sel] == label)
