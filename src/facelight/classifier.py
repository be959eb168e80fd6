"""Two-tier classification: a category discriminator routing to per-category
application predictors.

Every head is the same architecture: three dense layers (in -> 512 -> 256 ->
out) with ReLU between them and a softmax output.  Heads are trained with
manual backpropagation and Adam on the cross-entropy loss; the convolutional
feature extractor underneath stays frozen.  Prediction takes the
discriminator argmax (ties break to the lowest index), then the argmax of the
selected category's predictor, and fuses the pair into a unified label.

Training updates each head's arrays in place with `adam_update`, which runs
all of Adam's elementwise passes over one L2-sized block of a parameter
before the next, in the whole-array update's evaluation order, so the
trained weights and the loss log keep the same bits.

A model file is laid out like a PPM: one ASCII line of JSON header (kind,
seed, grid sizes, label layout), then the raw little-endian float64 weights
of the discriminator and of each predictor in category order, each head's
arrays in `_PARAM_NAMES` order and C order.  Shapes follow from the layout,
`p_grid` and `HIDDEN`, and the frozen extractor is `FeatureParams.from_seed`
of the seed, so neither is stored.  Loading checks the header, that the
weight bytes number exactly what it implies, and that every weight is
finite; it reads each array straight into its own C-contiguous buffer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .features import PARAM_SHAPES, FeatureParams, extract_features, feature_length
from .labels import LabelLayout, split_label, unify_label

HIDDEN = (512, 256)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PROB_FLOOR = 1e-12
MODEL_KIND = "facelight-two-tier-2"  # an earlier version's files say "facelight-two-tier"


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis (max subtraction before exp)."""
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise DomainError("softmax input must be non-empty")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


ADAM_BLOCK = 32768  # float64 elements: a block's param, grad, m, v and scratch (6 x 256 KiB) fit a 2 MiB L2


def adam_update(param, grad, m, v, t: int, lr: float, scratch: np.ndarray = None) -> None:
    """Bias-corrected Adam step number `t` (1-based), in place, block by block.

    `param`, `m` and `v` are C-contiguous float arrays of `grad`'s shape;
    `scratch` is a (2, >= min(size, ADAM_BLOCK)) float buffer.  Evaluates
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, then
    param -= (lr*(m/c1)) / (sqrt(v/c2) + eps) with c = 1 - b**t.
    """
    grad = np.asarray(grad, dtype=float)
    if param.shape != grad.shape:
        raise DomainError(f"shape mismatch: param {param.shape} vs grad {grad.shape}")
    if not all(a.flags.c_contiguous for a in (param, m, v)):  # a flat view of them would be a copy
        raise DomainError("adam_update needs C-contiguous param, m and v arrays")
    if scratch is None:
        scratch = np.empty((2, min(param.size, ADAM_BLOCK)))
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    p, g, m, v = param.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1)
    for start in range(0, p.size, ADAM_BLOCK):
        blk = slice(start, start + ADAM_BLOCK)
        pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
        s1, s2 = scratch[0, : pb.size], scratch[1, : pb.size]
        np.multiply(mb, ADAM_BETA1, out=mb)
        np.add(mb, np.multiply(gb, 1.0 - ADAM_BETA1, out=s1), out=mb)
        np.multiply(vb, ADAM_BETA2, out=vb)
        np.multiply(gb, 1.0 - ADAM_BETA2, out=s1)
        np.add(vb, np.multiply(s1, gb, out=s1), out=vb)
        np.multiply(np.divide(mb, c1, out=s1), lr, out=s1)
        np.add(np.sqrt(np.divide(vb, c2, out=s2), out=s2), ADAM_EPS, out=s2)
        np.subtract(pb, np.divide(s1, s2, out=s1), out=pb)


@dataclass(frozen=True)
class AdamState:
    """Moments and step count for the functional `adam_step`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param, dtype=float), np.zeros_like(param, dtype=float), 0)


def adam_step(param, grad, state: AdamState, lr: float) -> Tuple[np.ndarray, AdamState]:
    """Functional form of `adam_update`: the updated copy of `param` and the next state."""
    param, m, v = (np.array(a, dtype=float) for a in (param, state.m, state.v))
    adam_update(param, grad, m, v, state.t + 1, lr)
    return param, AdamState(m, v, state.t + 1)


_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def _head_shapes(in_dim: int, out_dim: int) -> Dict[str, Tuple[int, ...]]:
    """The shape of each head parameter, in `_PARAM_NAMES` order."""
    h1, h2 = HIDDEN
    return {"w1": (h1, in_dim), "b1": (h1,), "w2": (h2, h1), "b2": (h2,), "w3": (out_dim, h2), "b3": (out_dim,)}


@dataclass
class MlpHead:
    """Dense in -> 512 -> 256 -> out head with ReLU activations and softmax output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "MlpHead":
        """He-style init: Gaussian with std sqrt(2 / fan_in), zero biases.

        The weights are drawn in w1, w2, w3 order; a weight's fan_in is its
        column count.
        """
        return cls(**{
            name: rng.normal(0.0, np.sqrt(2.0 / shape[1]), size=shape) if len(shape) == 2 else np.zeros(shape)
            for name, shape in _head_shapes(in_dim, out_dim).items()
        })

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w3.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a (N, in_dim) batch or a single vector."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise DomainError(f"feature dim {x.shape[1]} does not match head input {self.in_dim}")
        a1 = np.maximum(x @ self.w1.T + self.b1, 0.0)
        a2 = np.maximum(a1 @ self.w2.T + self.b2, 0.0)
        return softmax(a2 @ self.w3.T + self.b3)

    def loss_and_gradients(
        self, x: np.ndarray, target_idx: np.ndarray
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Mean cross-entropy over the batch and its analytic parameter gradients."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        target_idx = np.asarray(target_idx, dtype=int)
        n = x.shape[0]
        z1 = x @ self.w1.T + self.b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ self.w2.T + self.b2
        a2 = np.maximum(z2, 0.0)
        probs = softmax(a2 @ self.w3.T + self.b3)
        picked = np.maximum(probs[np.arange(n), target_idx], PROB_FLOOR)
        loss = float(-np.mean(np.log(picked)))

        dlogits = probs.copy()
        dlogits[np.arange(n), target_idx] -= 1.0
        dlogits /= n
        grads = {"w3": dlogits.T @ a2, "b3": dlogits.sum(axis=0)}
        da2 = dlogits @ self.w3
        dz2 = da2 * (z2 > 0.0)  # ReLU subgradient 0 at 0
        grads["w2"] = dz2.T @ a1
        grads["b2"] = dz2.sum(axis=0)
        da1 = dz2 @ self.w2
        dz1 = da1 * (z1 > 0.0)
        grads["w1"] = dz1.T @ x
        grads["b1"] = dz1.sum(axis=0)
        return loss, grads

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}


@dataclass
class TwoTierModel:
    """Frozen feature extractor plus trained discriminator/predictor heads."""

    layout: LabelLayout
    feature_params: FeatureParams
    discriminator: MlpHead
    predictors: List[MlpHead]
    l_size: int
    p_grid: int
    seed: int

    def __post_init__(self):
        if len(self.predictors) != self.layout.num_categories:
            raise DomainError("predictor count must match the category count")
        if self.discriminator.out_dim != self.layout.num_categories:
            raise DomainError("discriminator output dim must match the category count")


def _train_head(
    head: MlpHead,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    log: List[dict],
    head_name: str,
) -> None:
    # a one-output softmax is exactly 1, so its loss is -0.0 and every gradient
    # and Adam step is exactly zero: such a head only draws its batch orders
    fixed = head.out_dim == 1
    params = head.params()
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    scratch = np.empty((2, ADAM_BLOCK))
    t = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(x.shape[0])
        for b, start in enumerate(range(0, x.shape[0], batch_size)):
            loss = -0.0
            if not fixed:
                idx = order[start : start + batch_size]
                loss, grads = head.loss_and_gradients(x[idx], y[idx])
                t += 1
                for name, p in params.items():
                    adam_update(p, grads[name], *moments[name], t, lr, scratch)
            log.append({"head": head_name, "epoch": epoch, "batch": b, "loss": loss})


def train_two_tier(
    features: np.ndarray,
    unified_labels: Sequence[int],
    layout: LabelLayout,
    epochs: int = 5,
    batch_size: int = 16,
    lr: float = 1e-4,
    seed: int = 0,
    feature_params: FeatureParams = None,
    l_size: int = 64,
    p_grid: int = 4,
) -> Tuple[TwoTierModel, List[dict]]:
    """Train the discriminator and one predictor per category.

    `features` are extracted feature vectors, (N, D); `unified_labels` their
    unified application labels.  The discriminator trains on the category part
    of every sample; each predictor trains only on its own category's samples.
    Deterministic for a fixed seed.  Returns the model and the per-batch loss
    log (head, epoch, batch, loss).
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DomainError("features must be a non-empty (N, D) array")
    y = np.asarray(list(unified_labels), dtype=int)
    if y.shape[0] != x.shape[0]:
        raise DomainError("feature/label counts differ")
    pairs = [split_label(int(v), layout) for v in y]
    cats = np.array([j for j, _ in pairs], dtype=int)
    apps = np.array([k for _, k in pairs], dtype=int)

    if feature_params is None:
        feature_params = FeatureParams.from_seed(seed)
    if x.shape[1] != feature_length(p_grid):
        raise DomainError(
            f"feature dim {x.shape[1]} does not match pooling grid {p_grid} "
            f"(expected {feature_length(p_grid)})"
        )
    for j in range(layout.num_categories):
        if not np.any(cats == j):
            raise DomainError(f"category '{layout.category_name(j)}' has no training samples")

    rng = np.random.default_rng(seed)
    discriminator = MlpHead.init(x.shape[1], layout.num_categories, rng)
    predictors = [MlpHead.init(x.shape[1], layout.counts[j], rng) for j in range(layout.num_categories)]

    log: List[dict] = []
    _train_head(discriminator, x, cats, epochs, batch_size, lr, rng, log, "discriminator")
    for j, predictor in enumerate(predictors):
        sel = cats == j
        _train_head(
            predictor, x[sel], apps[sel], epochs, batch_size, lr, rng, log, layout.category_name(j)
        )
    model = TwoTierModel(layout, feature_params, discriminator, predictors, l_size, p_grid, seed)
    return model, log


def predict_features(model: TwoTierModel, features: np.ndarray) -> np.ndarray:
    """Unified labels for already-extracted feature vectors, (N,) ints."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    cat_probs = model.discriminator.forward(x)
    cats = np.argmax(cat_probs, axis=1)  # ties resolve to the lowest index
    out = np.empty(x.shape[0], dtype=int)
    # np.unique would import numpy.ma on first use, a cost on every attack's start-up
    for j in np.flatnonzero(np.bincount(cats)):
        sel = cats == j
        app_probs = model.predictors[j].forward(x[sel])
        ks = np.argmax(app_probs, axis=1)
        out[sel] = [unify_label(int(j), int(k), model.layout) for k in ks]
    return out


def predict_images(model: TwoTierModel, images) -> np.ndarray:
    """Unified labels for a batch of face images."""
    feats = extract_features(np.asarray(images), model.feature_params, model.l_size, model.p_grid)
    return predict_features(model, feats)


def save_model(model: TwoTierModel, path) -> None:
    """Write `model` as one JSON header line, then its raw little-endian float64 weights."""
    reference = FeatureParams.from_seed(model.seed)
    if any(getattr(model.feature_params, n).tobytes() != getattr(reference, n).tobytes() for n in PARAM_SHAPES):
        raise DomainError(
            f"a model file stores only the feature seed, so feature_params must be "
            f"FeatureParams.from_seed({model.seed})"
        )
    header = {
        "kind": MODEL_KIND,
        "seed": model.seed,
        "l_size": model.l_size,
        "p_grid": model.p_grid,
        "layout": {
            "counts": list(model.layout.counts),
            "category_names": list(model.layout.category_names or []) or None,
            "app_names": [list(a) for a in model.layout.app_names] if model.layout.app_names else None,
        },
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        for head in [model.discriminator, *model.predictors]:
            for name in _PARAM_NAMES:
                fh.write(np.asarray(getattr(head, name), dtype="<f8").tobytes())


def _field(doc, key: str, kind: type, where: str):
    """doc[key], after checking that it is present and of JSON type `kind`."""
    if not isinstance(doc, dict) or key not in doc:
        raise DomainError(f"{where}: missing key '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(f"{where}: key '{key}' must be {kind.__name__}, got {type(value).__name__}")
    return value


def load_model(path) -> TwoTierModel:
    """Read a `save_model` file; malformed input raises a DomainError naming the file."""
    with open(path, "rb") as fh:
        return _read_model(fh, path)


def _read_model(fh, path) -> TwoTierModel:
    try:
        doc = json.loads(fh.readline().decode("ascii"))
    except ValueError as exc:  # not JSON, or not ASCII
        raise DomainError(f"{path}: not a model file, its first line is not a JSON header ({exc})") from exc
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "facelight-two-tier":
        raise DomainError(f"{path}: a model file from an earlier version ({kind}); it must be retrained")
    if kind != MODEL_KIND:
        raise DomainError(f"{path}: not a two-tier model file")
    lay = _field(doc, "layout", dict, path)
    where = f"{path}: layout"
    counts = _field(lay, "counts", list, where)
    if not all(type(c) is int for c in counts):
        raise DomainError(f"{where}: key 'counts' must be a list of integers")
    category_names = lay.get("category_names") and _field(lay, "category_names", list, where)
    app_names = lay.get("app_names") and _field(lay, "app_names", list, where)
    if app_names and not all(isinstance(a, list) for a in app_names):
        raise DomainError(f"{where}: key 'app_names' must be a list of lists")
    try:
        layout = LabelLayout(
            tuple(counts),
            tuple(category_names) if category_names else None,
            tuple(tuple(a) for a in app_names) if app_names else None,
        )
    except DomainError as exc:
        raise DomainError(f"{where}: {exc}") from exc
    l_size = _field(doc, "l_size", int, path)
    p_grid = _field(doc, "p_grid", int, path)
    if not 1 <= p_grid <= l_size:
        raise DomainError(f"{path}: key 'p_grid' must lie in [1, l_size = {l_size}], got {p_grid}")
    seed = _field(doc, "seed", int, path)
    if seed < 0:
        raise DomainError(f"{path}: key 'seed' must be >= 0, got {seed}")
    shapes = [_head_shapes(feature_length(p_grid), n) for n in (layout.num_categories, *layout.counts)]
    expected = 8 * sum(math.prod(shape) for head in shapes for shape in head.values())
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != expected:
        raise DomainError(f"{path}: holds {size} weight bytes, the header's layout needs {expected}")
    heads = []
    for head in shapes:
        arrays = {name: np.empty(shape, dtype="<f8") for name, shape in head.items()}
        for arr in arrays.values():  # each array its own C-contiguous buffer, read in place
            if fh.readinto(arr) != arr.nbytes:  # the file shrank after the size check
                raise DomainError(f"{path}: ended inside the weights")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{path}: holds non-finite weights")
        heads.append(MlpHead(**arrays))
    return TwoTierModel(layout, FeatureParams.from_seed(seed), heads[0], heads[1:], l_size, p_grid, seed)
