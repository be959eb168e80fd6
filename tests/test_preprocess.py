import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracle_nets import bilinear_resize_rows_first

from facelight.errors import DomainError
from facelight.preprocess import bilinear_resize, preprocess, resize, upscale2x, znorm


def _gray(h, w, v):
    return np.full((h, w, 3), v, dtype=np.uint8)


def test_upscale_constant_image():
    out = upscale2x(_gray(3, 5, 77))
    assert out.shape == (6, 10, 3)
    assert np.all(out == 77)


def test_upscale_doubles_dims():
    assert upscale2x(_gray(4, 7, 0)).shape == (8, 14, 3)


def test_upscale_1x2_monotone_rows():
    img = np.zeros((1, 2, 3), dtype=np.uint8)
    img[0, 1] = 255
    out = upscale2x(img)
    assert out.shape == (2, 4, 3)
    row = out[0, :, 0].astype(int)
    assert list(row) == sorted(row)
    assert row[0] == 0 and row[-1] == 255
    # half-pixel bilinear taps: 0, 0.25, 0.75, 1.0 of the span
    assert list(row) == [0, 64, 191, 255]


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.uint8,
        st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.just(3)),
        elements=st.integers(0, 255),
    )
)
def test_upscale_equals_float_bilinear(imgs):
    # the integer 2x path against the float resample it replaces, 1-pixel sides included
    want = bilinear_resize(imgs, 2 * imgs.shape[1], 2 * imgs.shape[2])
    assert np.array_equal(upscale2x(imgs), want)
    assert np.array_equal(upscale2x(imgs[0]), want[0])


def test_upscale_accepts_8bit_values_of_any_dtype():
    img = np.random.default_rng(1).integers(0, 256, size=(5, 4, 3))
    want = upscale2x(img.astype(np.uint8))
    assert np.array_equal(upscale2x(img), want)
    assert np.array_equal(upscale2x(img.astype(float)), want)


@pytest.mark.parametrize("bad", [256, -1, 1.5, np.nan, np.inf])
def test_upscale_rejects_values_outside_8bit(bad):
    img = np.zeros((3, 4, 3))
    img[1, 2, 0] = bad
    with pytest.raises(DomainError, match=r"integers in \[0, 255\]"):
        upscale2x(img)


@pytest.mark.parametrize("bad", [300, 256, -1, 1.5, np.nan, np.inf])
@pytest.mark.parametrize(
    "resample",
    [lambda im: resize(im, 4), lambda im: bilinear_resize(im, 3, 5)],
    ids=["resize", "bilinear_resize"],
)
def test_resize_rejects_values_outside_8bit(resample, bad):
    # clamping used to turn 300 into 255 and NaN into 0 with only a cast warning
    img = np.full((2, 3, 3), 7.0)
    img[1, 2, 0] = bad
    with pytest.raises(DomainError, match=r"integers in \[0, 255\]"):
        resample(img)
    with pytest.raises(DomainError, match=r"integers in \[0, 255\]"):
        resample(img[None])


def test_resize_accepts_8bit_values_of_any_dtype():
    img = np.random.default_rng(2).integers(0, 256, size=(2, 5, 4, 3))
    want = bilinear_resize(img.astype(np.uint8), 7, 3)
    assert want.dtype == np.uint8
    assert np.array_equal(bilinear_resize(img, 7, 3), want)
    assert np.array_equal(bilinear_resize(img.astype(float), 7, 3), want)


def test_resize_identity():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(9, 9, 3), dtype=np.uint8)
    assert np.array_equal(resize(img, 9), img)


def test_resize_uniform():
    out = resize(_gray(5, 7, 123), 4)
    assert out.shape == (4, 4, 3)
    assert np.all(out == 123)


def test_resize_checkerboard_corners():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[0, 0] = 255
    img[1, 1] = 255
    out = resize(img, 8)
    assert abs(int(out[0, 0, 0]) - 255) <= 1
    assert abs(int(out[0, -1, 0]) - 0) <= 1
    assert abs(int(out[-1, 0, 0]) - 0) <= 1
    assert abs(int(out[-1, -1, 0]) - 255) <= 1


def test_resize_validates_target():
    with pytest.raises(DomainError):
        resize(_gray(2, 2, 0), 0)


def test_batch_resize_matches_single():
    rng = np.random.default_rng(3)
    imgs = rng.integers(0, 256, size=(5, 6, 7, 3), dtype=np.uint8)
    batch = bilinear_resize(imgs, 4, 9)
    single = np.stack([bilinear_resize(im, 4, 9) for im in imgs])
    assert np.array_equal(batch, single)


@pytest.mark.parametrize(
    "in_hw, out_hw",
    [
        ((24, 24), (48, 48)),  # upscale2x at L=64's source size
        ((48, 48), (64, 64)),
        ((48, 48), (32, 32)),
        ((48, 48), (16, 16)),
        ((7, 13), (11, 5)),
        ((10, 3), (3, 17)),
        ((1, 1), (5, 4)),
        ((9, 6), (1, 1)),
        ((1, 7), (3, 1)),
    ],
)
def test_resize_matches_rows_first_oracle(in_hw, out_hw):
    rng = np.random.default_rng([*in_hw, *out_hw])
    imgs = rng.integers(0, 256, size=(4, *in_hw, 3), dtype=np.uint8)
    batch = bilinear_resize(imgs, *out_hw)
    assert batch.dtype == np.uint8
    assert np.array_equal(batch, bilinear_resize_rows_first(imgs, *out_hw))
    for img, got in zip(imgs, batch):
        assert np.array_equal(bilinear_resize(img, *out_hw), got)


def test_znorm_three_values():
    img = np.zeros((1, 3, 3), dtype=np.uint8)
    img[0, :, 0] = [1, 2, 3]
    out = znorm(img)
    assert out.shape == (3, 1, 3)
    assert np.allclose(out[0, 0], [-1.224745, 0.0, 1.224745], atol=1e-6)


def test_znorm_constant_channel_zeroed():
    out = znorm(_gray(4, 4, 200))
    assert np.all(out == 0.0)


def test_znorm_contract():
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, size=(12, 10, 3), dtype=np.uint8)
    out = znorm(img)
    for c in range(3):
        assert out[c].mean() == pytest.approx(0.0, abs=1e-9)
        assert out[c].std() == pytest.approx(1.0, abs=1e-9)


def test_znorm_requantized_nearly_idempotent():
    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    t = znorm(img)
    # map the normalized tensor back into 8-bit intensities, then re-normalize
    lo, hi = t.min(), t.max()
    requant = np.clip(np.floor((t - lo) / (hi - lo) * 255.0 + 0.5), 0, 255).astype(np.uint8)
    t2 = znorm(requant.transpose(1, 2, 0))
    for c in range(3):
        assert abs(t2[c].mean()) < 1e-2
        assert abs(t2[c].std() - 1.0) < 1e-2


def test_preprocess_chain_shapes():
    out = preprocess(_gray(10, 14, 50), 16)
    assert out.shape == (3, 16, 16)

