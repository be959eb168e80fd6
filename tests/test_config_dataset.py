import json

import numpy as np
import pytest

from facelight.config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    default_config_json,
    load_config,
)
from facelight.dataset import (
    FrameRecord,
    app_palette,
    generate_split,
    images_and_labels,
    ordered,
    read_split,
    write_split,
)
from facelight.errors import DomainError


def small_config(seed=0):
    return config_from_dict(
        {
            "seed": seed,
            "frames_per_app": 6,
            "screen": {"rows": 6, "cols": 8},
            "face": {"rows": 8, "cols": 8},
            "l_size": 16,
            "categories": [
                {"name": "alpha", "apps": ["a0", "a1"]},
                {"name": "beta", "apps": ["b0"]},
            ],
        }
    )


def test_defaults_have_table_structure():
    layout = ExperimentConfig(seed=0).label_layout()
    assert layout.counts == (6, 6, 6, 8, 2, 1)
    assert layout.num_labels == 29
    assert layout.num_categories == 6


def test_seed_required():
    with pytest.raises(DomainError):
        ExperimentConfig().require_seed()


def test_unknown_keys_rejected():
    with pytest.raises(DomainError):
        config_from_dict({"seed": 1, "bogus": 2})
    with pytest.raises(DomainError):
        config_from_dict({"seed": 1, "screen": {"rows": 2, "teeth": 3}})


@pytest.mark.parametrize("doc", [{"camera": [0, 10**400, 0]}, {"screen": {"width": 10**400}}])
def test_integer_beyond_the_float_range_is_not_a_number(doc):
    # a JSON integer is exact, so it may not fit the float the value becomes
    with pytest.raises(DomainError, match=r"^config key '(camera|screen\.width)' must be (a list like|a number)"):
        config_from_dict(doc)


def test_config_round_trip(tmp_path):
    cfg = small_config(seed=9)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    back = load_config(path)
    assert config_to_dict(back) == config_to_dict(cfg)


def test_default_config_json_parses():
    data = json.loads(default_config_json())
    assert data["seed"] is None
    assert data["hlc"]["sigma_s"] == 0.90


def test_bad_json_is_domain_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(DomainError):
        load_config(path)


# --- palettes ---------------------------------------------------------------

def test_palettes_deterministic_and_seed_sensitive():
    a = app_palette(1, 2, 6, 8, seed=5)
    b = app_palette(1, 2, 6, 8, seed=5)
    c = app_palette(1, 2, 6, 8, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_palettes_distinct_across_apps():
    layout = ExperimentConfig(seed=0).label_layout()
    seen = []
    for j, count in enumerate(layout.counts):
        for k in range(count):
            seen.append(app_palette(j, k, 18, 32, seed=0).tobytes())
    assert len(set(seen)) == len(seen)


def test_palettes_share_layout_within_category():
    # same category, different apps: equal geometry, different colors
    p0 = app_palette(0, 0, 6, 8, seed=1)
    p1 = app_palette(0, 1, 6, 8, seed=1)
    # region boundary structure identical: compare maps of "pixel equals its left neighbor"
    same0 = (p0[:, 1:] == p0[:, :-1]).all(axis=2)
    same1 = (p1[:, 1:] == p1[:, :-1]).all(axis=2)
    assert np.array_equal(same0, same1)
    assert not np.array_equal(p0, p1)


# --- dataset generation -------------------------------------------------------

def test_generate_split_shape_and_determinism():
    cfg = small_config()
    recs = generate_split(cfg, "train")
    assert len(recs) == 3 * 6  # apps x frames
    assert recs[0].image.shape == (8, 8, 3)
    again = generate_split(cfg, "train")
    assert all(np.array_equal(a.image, b.image) for a, b in zip(recs, again))
    assert [r.sequence_id for r in recs] == [r.sequence_id for r in again]


def test_splits_use_disjoint_sequence_ids_and_noise():
    cfg = small_config()
    train = generate_split(cfg, "train")
    test = generate_split(cfg, "test")
    assert {r.sequence_id for r in train}.isdisjoint({r.sequence_id for r in test})
    assert not np.array_equal(train[0].image, test[0].image)


def test_mean_color_tracks_palette():
    cfg = small_config()
    recs = generate_split(cfg, "train")
    per_label = {}
    for r in recs:
        per_label.setdefault(r.label, []).append(r.image.astype(float))
    means = {k: np.mean(v, axis=(0, 1, 2)) for k, v in per_label.items()}
    pal_means = {}
    for label in means:
        j, k = (0, label) if label < 2 else (1, label - 2)
        pal_means[label] = app_palette(j, k, 6, 8, seed=0).astype(float).mean(axis=(0, 1))
    # rendered color balance should follow the palette color balance
    for label in means:
        a = means[label] - means[label].mean()
        b = pal_means[label] - pal_means[label].mean()
        cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos > 0.7


def test_write_and_read_split_round_trip(tmp_path):
    cfg = small_config()
    recs = generate_split(cfg, "test")
    out = tmp_path / "test"
    write_split(recs, out)
    assert (out / "manifest.csv").exists()
    back = read_split(out)
    a = ordered(recs)
    b = ordered(back)
    assert len(a) == len(b)
    assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))
    assert all((x.label, x.sequence_id, x.t) == (y.label, y.sequence_id, y.t) for x, y in zip(a, b))


def test_images_and_labels_ordering():
    recs = [
        FrameRecord(np.zeros((2, 2, 3), np.uint8), 1, "test-01", 2),
        FrameRecord(np.ones((2, 2, 3), np.uint8), 0, "test-00", 1),
        FrameRecord(np.zeros((2, 2, 3), np.uint8), 1, "test-01", 1),
    ]
    imgs, labels = images_and_labels(recs)
    assert labels.tolist() == [0, 1, 1]
    assert imgs[0, 0, 0, 0] == 1
