import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelight.analysis import (
    RATIO_THRESHOLDS,
    half_ratio_samples,
    ks_pvalue,
    ks_statistic,
    mdc_search,
    probe_content,
    write_mdc_csv,
)
from facelight.config import ExperimentConfig
from facelight.errors import DomainError


def brute_force_ks(x, y):
    """Independent oracle: evaluate |ECDF difference| at every pooled point."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    best = 0.0
    for v in x + y:
        fx = sum(1 for s in x if s <= v) / len(x)
        fy = sum(1 for s in y if s <= v) / len(y)
        best = max(best, abs(fx - fy))
    return best


def series_pvalue_30(d, n, m):
    """Independent 30-term evaluation of the survival series."""
    n_e = n * m / (n + m)
    lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * d
    total = sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 31))
    return min(max(2.0 * total, 0.0), 1.0)


# --- KS statistic ----------------------------------------------------------

def test_ks_identical_samples():
    assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0


def test_ks_disjoint_supports():
    assert ks_statistic([0, 1], [2, 3]) == 1.0


def test_ks_shifted_triples():
    assert ks_statistic([1, 2, 3], [2, 3, 4]) == pytest.approx(1 / 3, abs=1e-12)


def test_ks_empty_rejected():
    with pytest.raises(DomainError):
        ks_statistic([], [1.0])


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=8),
    st.lists(st.integers(0, 9), min_size=1, max_size=8),
)
@settings(max_examples=200)
def test_ks_matches_brute_force_with_ties(x, y):
    assert ks_statistic(x, y) == brute_force_ks(x, y)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
)
@settings(max_examples=200)
def test_ks_symmetry(x, y):
    assert ks_statistic(x, y) == ks_statistic(y, x)


# --- KS p-value ------------------------------------------------------------

def test_pvalue_zero_statistic():
    assert ks_pvalue(0.0, 10, 10) == 1.0


def test_pvalue_full_statistic_large_samples():
    assert ks_pvalue(1.0, 1000, 1000) < 1e-12


def test_pvalue_matches_series_oracle():
    assert ks_pvalue(0.5, 20, 20) == pytest.approx(series_pvalue_30(0.5, 20, 20), abs=1e-10)


def test_pvalue_strictly_decreasing_in_d():
    ds = np.linspace(0.05, 1.0, 40)
    ps = [ks_pvalue(d, 30, 25) for d in ds]
    clipped = [p for p in ps if 1e-300 < p < 1.0]
    assert all(a > b for a, b in zip(clipped, clipped[1:]))


# --- half samples and MDC --------------------------------------------------

def test_half_samples_split_and_infinities():
    img = np.zeros((1, 4, 3), dtype=np.uint8)
    img[0, 0] = (100, 0, 50)   # left: ratio 0.5
    img[0, 1] = (0, 0, 0)      # left: excluded
    img[0, 2] = (0, 0, 9)      # right: +inf
    img[0, 3] = (50, 0, 100)   # right: ratio 2.0
    left, right = half_ratio_samples(img)
    assert list(left) == [0.5]
    assert np.isinf(right[0]) and right[1] == 2.0


def test_probe_content_balanced_and_centered():
    content = probe_content(18, 32, 1 / 16)
    red = (content[:, :, 0] == 255).sum()
    blue = (content[:, :, 2] == 255).sum()
    assert red == blue > 0
    assert content[0, 0].tolist() == [0, 0, 0]
    full = probe_content(18, 32, 1.0)
    assert (full[:, :16, 0] == 255).all() and (full[:, 16:, 2] == 255).all()


def test_probe_fraction_validation():
    with pytest.raises(DomainError):
        probe_content(4, 4, 0.0)
    with pytest.raises(DomainError):
        probe_content(4, 4, 1.5)


@pytest.fixture(scope="module")
def template_scene():
    return ExperimentConfig(seed=0).build_scene()


def test_mdc_full_screen_strongly_detected(template_scene):
    res = mdc_search(template_scene, [1.0], seed=1)
    assert res.min_p[0] < 1e-6


def test_mdc_vanishing_fraction_not_detected(template_scene):
    # tiniest representable probe on an otherwise dark screen: halves look alike
    res = mdc_search(template_scene, [1e-4], seed=1)
    assert res.min_p[0] > 0.05
    assert res.boundary == pytest.approx(1e-4)


def test_mdc_boundary_none_when_everything_detected(template_scene):
    res = mdc_search(template_scene, [0.5, 1.0], seed=1)
    assert res.boundary is None


@pytest.mark.parametrize("fractions", [[], [0.0], [1.5]])
def test_mdc_rejects_bad_fractions(template_scene, fractions):
    with pytest.raises(DomainError):
        mdc_search(template_scene, fractions)


def test_mdc_deterministic(template_scene):
    a = mdc_search(template_scene, [1 / 16, 1.0], seed=5)
    b = mdc_search(template_scene, [1 / 16, 1.0], seed=5)
    assert a == b


def test_mdc_csv_layout(tmp_path, template_scene):
    res = mdc_search(template_scene, [1 / 16, 1.0], seed=2)
    path = tmp_path / "mdc.csv"
    write_mdc_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "fraction,min_p"
    assert len(lines) == 3


def test_ratio_sweep_covers_percent_grid():
    sweep = RATIO_THRESHOLDS
    assert sweep[0] == pytest.approx(0.01)
    assert sweep[-1] == pytest.approx(0.99)
    assert len(sweep) == 99
