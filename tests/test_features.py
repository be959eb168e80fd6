import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracle_nets import (
    cbam_loops,
    conv2d_einsum,
    conv2d_loops,
    conv2d_zero_fill,
    pooled_loops,
    resblock_loops,
    sigmoid_masked,
)

from facelight import features
from facelight.errors import DomainError
from facelight.features import (
    MAX_THREADS,
    FeatureParams,
    block_frames,
    cbam_forward,
    conv2d_same,
    extract_features,
    feature_length,
    pooled_features,
    resblock_forward,
)
from facelight.preprocess import bilinear_resize, preprocess


def zero_params():
    z33 = np.zeros((3, 3, 3, 3))
    return FeatureParams(
        conv1=z33, conv2=z33, conv3=z33,
        scale1=np.ones(3), shift1=np.zeros(3),
        scale2=np.ones(3), shift2=np.zeros(3),
        scale3=np.ones(3), shift3=np.zeros(3),
        mlp_w1=np.zeros((3, 3)), mlp_b1=np.zeros(3),
        mlp_w2=np.zeros((3, 3)), mlp_b2=np.zeros(3),
        spatial=np.zeros((1, 2, 7, 7)),
    )


def test_params_reproducible_from_seed():
    a = FeatureParams.from_seed(42)
    b = FeatureParams.from_seed(42)
    assert np.array_equal(a.conv1, b.conv1)
    assert np.array_equal(a.spatial, b.spatial)
    c = FeatureParams.from_seed(43)
    assert not np.array_equal(a.conv1, c.conv1)


def test_params_shape_validation():
    with pytest.raises(DomainError):
        dataclasses.replace(FeatureParams.from_seed(0), conv1=np.zeros((1, 1)))


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 6, 5))
    k = rng.normal(size=(4, 3, 3, 3))
    fast = conv2d_same(x[None], k)[0]
    slow = conv2d_loops(x, k)
    assert np.allclose(fast, slow, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("cin, cout, ksize", [(3, 3, 3), (2, 1, 7)])
@pytest.mark.parametrize("n, h, w", [(1, 9, 9), (5, 11, 6), (3, 4, 13)])
def test_conv_matches_einsum_oracle(cin, cout, ksize, n, h, w):
    rng = np.random.default_rng([ksize, n, h, w])
    x = rng.normal(size=(n, cin, h, w))
    k = rng.normal(size=(cout, cin, ksize, ksize))
    fast = conv2d_same(x, k)
    assert fast.shape == (n, cout, h, w)
    assert np.allclose(fast, conv2d_einsum(x, k), rtol=1e-12, atol=1e-13)


def test_conv_channel_mismatch():
    with pytest.raises(DomainError):
        conv2d_same(np.zeros((1, 2, 4, 4)), np.zeros((3, 3, 3, 3)))


def test_resblock_zero_everything():
    x = np.zeros((3, 4, 4))
    assert np.array_equal(resblock_forward(x, zero_params()), x)


def test_resblock_zero_main_path_is_relu_shortcut():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 5, 5))
    out = resblock_forward(x, zero_params())
    assert np.array_equal(out, np.maximum(x, 0.0))


def test_resblock_matches_loop_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 6, 6))
    params = FeatureParams.from_seed(42)
    fast = resblock_forward(x, params)
    slow = resblock_loops(x, params)
    assert np.allclose(fast, slow, rtol=1e-6, atol=1e-12)


def test_resblock_channel_mismatch():
    with pytest.raises(DomainError):
        resblock_forward(np.zeros((2, 4, 4)), zero_params())


def test_resblock_preserves_shape():
    x = np.random.default_rng(1).normal(size=(3, 9, 7))
    assert resblock_forward(x, FeatureParams.from_seed(1)).shape == x.shape


def test_cbam_zero_input_zero_output():
    out = cbam_forward(np.zeros((3, 4, 4)), FeatureParams.from_seed(3))
    assert np.array_equal(out, np.zeros((3, 4, 4)))


def test_cbam_attenuates_elementwise():
    rng = np.random.default_rng(9)
    for trial in range(10):
        x = rng.normal(size=(3, 5, 5)) * rng.uniform(0.1, 10)
        params = FeatureParams.from_seed(trial)
        out = cbam_forward(x, params)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-15)


def test_cbam_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 6, 6))
    params = FeatureParams.from_seed(7)
    fast = cbam_forward(x, params)
    slow = cbam_loops(x, params)
    assert np.allclose(fast, slow, rtol=1e-6, atol=1e-12)


def test_cbam_preserves_shape():
    x = np.random.default_rng(2).normal(size=(3, 8, 6))
    assert cbam_forward(x, FeatureParams.from_seed(2)).shape == x.shape


def test_pooled_constant_tensor():
    s = np.full((3, 8, 8), 2.5)
    vec = pooled_features(s, 2)
    per = 2 + 4
    for c in range(3):
        assert vec[c * per] == pytest.approx(2.5)       # mean
        assert vec[c * per + 1] == pytest.approx(0.0)   # std
        assert np.allclose(vec[c * per + 2 : (c + 1) * per], 2.5)


def test_pooled_p1_length():
    assert pooled_features(np.zeros((3, 4, 4)), 1).shape == (9,)
    assert feature_length(1) == 9


def test_pooled_matches_loop_oracle():
    rng = np.random.default_rng(21)
    s = rng.normal(size=(3, 7, 9))
    assert np.array_equal(pooled_features(s, 3), pooled_loops(s, 3))


def test_pooled_grid_too_large():
    with pytest.raises(DomainError):
        pooled_features(np.zeros((3, 4, 4)), 5)


def test_forward_passes_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 6, 6))
    params = FeatureParams.from_seed(8)
    a = cbam_forward(resblock_forward(x, params), params)
    b = cbam_forward(resblock_forward(x, params), params)
    assert np.array_equal(a, b)


def test_extract_features_batch_matches_single():
    rng = np.random.default_rng(10)
    imgs = rng.integers(0, 256, size=(4, 10, 10, 3), dtype=np.uint8)
    params = FeatureParams.from_seed(10)
    batch = extract_features(imgs, params, 12, 2)
    singles = np.stack([extract_features(im, params, 12, 2) for im in imgs])
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-15)
    assert batch.shape == (4, feature_length(2))


def test_extract_features_memory_bounded():
    # 256 frames is one chunk; a per-pixel window copy of the 7x7 gate alone
    # would be 256 * 2 * 64 * 64 * 49 float64 = 822 MB
    imgs = np.random.default_rng(12).integers(0, 256, size=(256, 24, 24, 3), dtype=np.uint8)
    params = FeatureParams.from_seed(12)
    tracemalloc.start()
    try:
        extract_features(imgs, params, 64, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**20


def test_extract_features_independent_of_chunking():
    imgs = np.random.default_rng(13).integers(0, 256, size=(300, 10, 10, 3), dtype=np.uint8)
    params = FeatureParams.from_seed(13)
    whole = extract_features(imgs, params, 16, 2)
    parts = np.concatenate([extract_features(imgs[:137], params, 16, 2), extract_features(imgs[137:], params, 16, 2)])
    assert np.allclose(whole, parts, rtol=1e-12, atol=0)


def test_block_frames_rule():
    # the largest per-frame array sets the count: the (3, L, L) float64 tensor
    # at L=64, the resize column pass's (48, L, 3) float64 at L=32 and L=16
    assert [block_frames(l, 24, 24) for l in (64, 32, 16)] == [5, 14, 28]
    assert block_frames(16, 8, 8) == 85
    assert block_frames(1024, 24, 24) == 1
    assert block_frames(16, 1024, 1024) == 1
    assert all(block_frames(l, 24, 24) >= 1 for l in range(1, 2048, 7))


def test_extract_features_rejects_size_below_one():
    imgs = np.zeros((2, 10, 10, 3), dtype=np.uint8)
    with pytest.raises(DomainError):
        extract_features(imgs, FeatureParams.from_seed(0), 0, 1)


@pytest.mark.parametrize("l_size", [16, 32, 64])
def test_blocked_features_equal_whole_batch(l_size, monkeypatch):
    params = FeatureParams.from_seed(14)
    b = block_frames(l_size, 9, 11)
    rng = np.random.default_rng(l_size)
    switch = sys.getswitchinterval()
    for n in sorted({1, max(1, b - 1), b, b + 1, 3 * b + 2}):
        imgs = rng.integers(0, 256, size=(n, 9, 11, 3), dtype=np.uint8)
        whole = pooled_features(cbam_forward(resblock_forward(preprocess(imgs, l_size), params), params), 2)
        # one thread, two, and more threads than this host may have cores,
        # switching often so that the threads interleave inside every block
        for cpus in (1, 2, MAX_THREADS):
            monkeypatch.setattr(features, "_cpu_count", lambda: cpus)
            sys.setswitchinterval(1e-5)
            try:
                got = extract_features(imgs, params, l_size, 2)
            finally:
                sys.setswitchinterval(switch)
            assert got.tobytes() == whole.tobytes(), (n, cpus)
    single = extract_features(imgs[0], params, l_size, 2)
    assert single.shape == (feature_length(2),)
    assert np.array_equal(single, whole[0])


@pytest.mark.parametrize("l_size", [16, 32, 40, 64])
def test_features_equal_earlier_stage_forms(l_size, monkeypatch):
    # the zero-filled convolution, the masked sigmoid and the float 2x resample
    # give the same feature bytes as the stages that replaced them
    imgs = np.random.default_rng([l_size, 3]).integers(0, 256, size=(23, 24, 24, 3), dtype=np.uint8)
    params = FeatureParams.from_seed(l_size)
    got = extract_features(imgs, params, l_size, 4)
    monkeypatch.setattr(features, "conv2d_same", conv2d_zero_fill)
    monkeypatch.setattr(features, "_sigmoid", sigmoid_masked)
    monkeypatch.setattr(
        sys.modules[preprocess.__module__],
        "upscale2x",
        lambda im: bilinear_resize(im, 2 * im.shape[1], 2 * im.shape[2]),
    )
    want = pooled_features(cbam_forward(resblock_forward(preprocess(imgs, l_size), params), params), 4)
    assert got.tobytes() == want.tobytes()


def test_sigmoid_matches_masked_form_bits():
    rng = np.random.default_rng(16)
    edges = [0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, 710.0, -710.0, 1e308, -1e308, 36.0, -36.0]
    x = np.concatenate([rng.normal(0, 10, size=100_000), rng.normal(0, 1e-3, size=1000), edges])
    assert features._sigmoid(x).tobytes() == sigmoid_masked(x).tobytes()
    grid = x[:1200].reshape(3, 20, 20)
    assert features._sigmoid(grid).tobytes() == sigmoid_masked(grid).tobytes()


@pytest.mark.parametrize("cpus", [1, 2, MAX_THREADS])
def test_bad_image_in_later_block_raises_in_caller(cpus, monkeypatch):
    monkeypatch.setattr(features, "_cpu_count", lambda: cpus)
    params = FeatureParams.from_seed(17)
    step = block_frames(16, 9, 11)
    imgs = np.random.default_rng(17).integers(0, 256, size=(6 * step, 9, 11, 3))
    imgs[3 * step + 2, 4, 5, 1] = 256  # block 3: a helper's block once there are threads
    before = threading.active_count()
    with pytest.raises(DomainError, match=r"integers in \[0, 255\]"):
        extract_features(imgs, params, 16, 2)
    assert threading.active_count() == before
    imgs[3 * step + 2, 4, 5, 1] = 255
    assert extract_features(imgs, params, 16, 2).shape == (6 * step, feature_length(2))

    # blocks 2 and 5 both fail, on different threads once there are two or
    # more: the first failing block's error is the one raised
    def marked(block, l_size):
        if block[:, 0, 0, 0].max() > 250:
            raise DomainError(f"marked frame {block[:, 0, 0, 0].max()}")
        return preprocess(block, l_size)

    monkeypatch.setattr(features, "preprocess", marked)
    imgs[:, 0, 0, 0] = 0
    imgs[5 * step, 0, 0, 0] = 252
    imgs[2 * step + 1, 0, 0, 0] = 251
    with pytest.raises(DomainError, match="marked frame 251"):
        extract_features(imgs, params, 16, 2)
    assert threading.active_count() == before


def test_extract_features_threads_per_call(monkeypatch):
    # one thread per CPU up to MAX_THREADS and never more than the blocks,
    # the caller among them, and every block run exactly once
    seen = []

    def spy(block, l_size):
        seen.append(threading.current_thread())
        return preprocess(block, l_size)

    monkeypatch.setattr(features, "preprocess", spy)
    params = FeatureParams.from_seed(19)
    step = block_frames(16, 9, 11)
    imgs = np.zeros((12 * step, 9, 11, 3), dtype=np.uint8)
    for cpus, blocks, want in [(64, 12, MAX_THREADS), (2, 12, 2), (1, 12, 1), (64, 3, 3), (64, 1, 1)]:
        monkeypatch.setattr(features, "_cpu_count", lambda: cpus)
        seen.clear()
        extract_features(imgs[: blocks * step], params, 16, 2)
        assert len(seen) == blocks
        assert len(set(seen)) == want
        assert threading.current_thread() in seen


def test_extract_features_rejects_empty_batch():
    with pytest.raises(DomainError, match="at least one image"):
        extract_features(np.zeros((0, 9, 9, 3), dtype=np.uint8), FeatureParams.from_seed(0), 16, 2)


def test_extract_features_threads_peak_bounded(monkeypatch):
    # every thread's allocations count; one thread on 85-frame blocks (the
    # (3, L, L) rule) peaked at 16.6 MiB here, MAX_THREADS threads on the
    # per-array rule's 28-frame blocks at about 5 MiB
    monkeypatch.setattr(features, "_cpu_count", lambda: MAX_THREADS)
    imgs = np.random.default_rng(18).integers(0, 256, size=(1024, 24, 24, 3), dtype=np.uint8)
    params = FeatureParams.from_seed(18)
    tracemalloc.start()
    try:
        extract_features(imgs, params, 16, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_extract_features_peak_independent_of_batch():
    # blocks of 5 frames at L=64: the peak is a few block-sized tensors, where
    # 256-frame chunks peaked at about 141 MiB
    imgs = np.random.default_rng(15).integers(0, 256, size=(1024, 24, 24, 3), dtype=np.uint8)
    params = FeatureParams.from_seed(15)
    tracemalloc.start()
    try:
        extract_features(imgs, params, 64, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
