"""Two-tier classification: a category discriminator routing to per-category
application predictors.

Every head is the same architecture: three dense layers (in -> 512 -> 256 ->
out) with ReLU between them and a softmax output.  Heads are trained with
manual backpropagation and Adam on the cross-entropy loss; the convolutional
feature extractor underneath stays frozen.  Prediction takes the
discriminator argmax (ties break to the lowest index), then the argmax of the
selected category's predictor, and fuses the pair into a unified label.

A head's six arrays are views of one flat float64 buffer, `MlpHead.flat`,
end to end in `_PARAM_NAMES` order; training, its gradients and the model
file all use this layout.  `MlpHead.backward` writes the gradients with
`out=` into a gradient head's views, and each step makes one `adam_update`
call over the flat buffers.  `adam_update` runs all of
Adam's elementwise passes over one L2-sized block before the next, in the
whole-array update's evaluation order; Adam is elementwise, so where the
blocks start changes no bit, and the trained weights and the loss log equal
a whole-array update of each array in turn.

`train_two_tier` draws every head's weights and then every head's batch
orders up front, in the order a sequential trainer draws them (the
discriminator's epochs, then each predictor's), so the heads need no shared
generator and can train at once.  The discriminator and the one-output
heads train on the calling thread and the other predictors on helper
threads, striped in category order, through `threads.run_shares`: one
thread per CPU the process may use, at most `MAX_THREADS` and at most the
heads with more than one output.  When the BLAS runs a matrix product on
several threads (`threads.blas_threads`), every head trains on the calling
thread instead: OpenBLAS then runs one threaded product at a time and its
waiting workers spin, so two training threads beside them were slower than
one.  Each head logs into its own list, and the lists are joined in head
order, so neither the weights nor the log depend on the thread count.  The
caller allocates each thread's workspace (a gradient, m and v buffer sized
for the largest head, plus the Adam scratch) before any helper starts, each
head zeroes its moments in it, and the caller frees them all after the
join: buffers allocated per head on a helper would stay in that thread's
malloc arena after they are freed.

A model holds only the seed of its frozen extractor, which is
`FeatureParams.from_seed` of it.  A model file is laid out like a PPM: one
ASCII line of JSON header (kind, seed, grid sizes, label layout), then the
flat buffer of the discriminator and of each predictor in category order,
as raw little-endian float64.  Shapes follow from the layout, `p_grid` and
`HIDDEN`, so they are not stored.  Loading checks the header, that the
weight bytes number exactly what it implies, and that every weight is
finite; it reads each head straight into its own buffer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DomainError, check, check_p_grid
from .features import PARAM_SHAPES, FeatureParams, extract_features, feature_length
from .labels import LabelLayout, split_label
from .threads import MAX_THREADS, run_shares
# names of this module, so that a test can set them
from .threads import blas_threads as _blas_threads, cpu_count as _cpu_count

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


def _head_size(in_dim: int, out_dim: int) -> int:
    """Floats in one head's parameters."""
    return sum(math.prod(shape) for shape in _head_shapes(in_dim, out_dim).values())


@dataclass(frozen=True)
class MlpHead:
    """Dense in -> 512 -> 256 -> out head with ReLU activations and softmax output.

    `flat` is a C-contiguous buffer of `_head_size(in_dim, out_dim)` floats;
    `w1 ... b3` are views of it, consecutive in `_PARAM_NAMES` order.
    """

    flat: np.ndarray
    in_dim: int
    out_dim: int
    w1: np.ndarray = field(init=False)
    b1: np.ndarray = field(init=False)
    w2: np.ndarray = field(init=False)
    b2: np.ndarray = field(init=False)
    w3: np.ndarray = field(init=False)
    b3: np.ndarray = field(init=False)

    def __post_init__(self):
        shapes = _head_shapes(self.in_dim, self.out_dim)
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
        if self.flat.shape != (ends[-1],) or not self.flat.flags.c_contiguous:
            raise DomainError(f"a {self.in_dim} -> {self.out_dim} head needs a C-contiguous buffer of {ends[-1]} floats")
        for (name, shape), part in zip(shapes.items(), np.split(self.flat, ends[:-1])):
            object.__setattr__(self, name, part.reshape(shape))

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "MlpHead":
        """He-style init: Gaussian with std sqrt(2 / fan_in), zero biases.

        The weights are drawn in w1, w2, w3 order; a weight's fan_in is its
        column count.
        """
        head = cls(np.empty(_head_size(in_dim, out_dim)), in_dim, out_dim)
        for arr in head.params().values():
            arr[...] = rng.normal(0.0, np.sqrt(2.0 / arr.shape[1]), size=arr.shape) if arr.ndim == 2 else 0.0
        return head

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
        grads = MlpHead(np.empty_like(self.flat), self.in_dim, self.out_dim).params()
        return self.backward(x, target_idx, grads), grads

    def backward(self, x: np.ndarray, target_idx: np.ndarray, grads: Dict[str, np.ndarray]) -> float:
        """Mean cross-entropy over the batch; writes each parameter's gradient into `grads[name]`."""
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
        np.matmul(dlogits.T, a2, out=grads["w3"])
        np.sum(dlogits, axis=0, out=grads["b3"])
        da2 = dlogits @ self.w3
        dz2 = da2 * (z2 > 0.0)  # ReLU subgradient 0 at 0
        np.matmul(dz2.T, a1, out=grads["w2"])
        np.sum(dz2, axis=0, out=grads["b2"])
        da1 = dz2 @ self.w2
        dz1 = da1 * (z1 > 0.0)
        np.matmul(dz1.T, x, out=grads["w1"])
        np.sum(dz1, axis=0, out=grads["b1"])
        return loss

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_NAMES}


def _check_header(l_size: int, p_grid: int, seed: int) -> None:
    """The model header's sizes and seed, under the config's rules for the same keys."""
    check_p_grid(l_size, p_grid)
    if seed is None:  # a config's "no seed yet", which a model file cannot hold
        raise DomainError("seed must be an integer, got None")
    check("seed", seed)


@dataclass
class TwoTierModel:
    """Trained discriminator/predictor heads over the frozen extractor of `seed`."""

    layout: LabelLayout
    discriminator: MlpHead
    predictors: List[MlpHead]
    l_size: int
    p_grid: int
    seed: int

    def __post_init__(self):
        _check_header(self.l_size, self.p_grid, self.seed)
        if len(self.predictors) != self.layout.num_categories:
            raise DomainError("predictor count must match the category count")
        if self.discriminator.out_dim != self.layout.num_categories:
            raise DomainError("discriminator output dim must match the category count")
        # prediction adds a predictor's argmax to its category's offset, so each
        # predictor's outputs must be exactly its category's applications
        counts, in_dim = self.layout.counts, self.discriminator.in_dim
        for j, head in enumerate(self.predictors):
            if head.out_dim != counts[j]:
                raise DomainError(f"predictor {j} output dim {head.out_dim} must match its {counts[j]} apps")
            if head.in_dim != in_dim:
                raise DomainError(f"predictor {j} input dim {head.in_dim} must match the discriminator's {in_dim}")

    @property
    def feature_params(self) -> FeatureParams:
        """The frozen feature extractor, drawn from the seed on each read."""
        return FeatureParams.from_seed(self.seed)


def _train_head(
    head: MlpHead, x: np.ndarray, y: np.ndarray, orders: List[np.ndarray], batch_size: int, lr: float,
    workspace: Tuple[np.ndarray, np.ndarray], head_name: str,
) -> List[dict]:
    """Train `head` on the rows of `x` and `y` in each epoch's order; returns its loss rows.

    `workspace` is a (3, >= head.flat.size) gradient, m and v buffer and the
    Adam scratch; the moments start at zero, and nothing the size of a weight
    is allocated.
    """
    buffers, scratch = workspace
    grad, m, v = buffers[:, : head.flat.size]
    m.fill(0.0)
    v.fill(0.0)
    grads = MlpHead(grad, head.in_dim, head.out_dim).params()
    # a one-output softmax is exactly 1, so its loss is -0.0 and every gradient
    # and Adam step is exactly zero: such a head only logs its batches
    fixed = head.out_dim == 1
    log: List[dict] = []
    t = 0
    # a step size that overflows the weights is one error, below, not a warning per step
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, order in enumerate(orders, 1):
            for b, start in enumerate(range(0, order.size, batch_size)):
                loss = -0.0
                if not fixed:
                    idx = order[start : start + batch_size]
                    loss = head.backward(x[idx], y[idx], grads)
                    t += 1
                    adam_update(head.flat, grad, m, v, t, lr, scratch)
                log.append({"head": head_name, "epoch": epoch, "batch": b, "loss": loss})
    if not -math.inf < head.flat.min() <= head.flat.max() < math.inf:  # NaN fails too
        raise DomainError(f"training diverged: the {head_name} head's weights are not finite at train.learning_rate {lr}")
    return log


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
    Deterministic for a fixed seed, and the same for any thread count (see the
    module notes).  The model's extractor is `FeatureParams.from_seed(seed)`;
    a `feature_params` that differs from it is an error.  Returns the model and
    the per-batch loss log (head, epoch, batch, loss), the discriminator's rows
    first, then each predictor's.
    """
    _check_header(l_size, p_grid, seed)
    if feature_params is not None:
        seeded = FeatureParams.from_seed(seed)
        if any(getattr(feature_params, n).tobytes() != getattr(seeded, n).tobytes() for n in PARAM_SHAPES):
            raise DomainError(f"a model stores only its seed, so feature_params must be FeatureParams.from_seed({seed})")
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DomainError("features must be a non-empty (N, D) array")
    y = np.asarray(list(unified_labels), dtype=int)
    if y.shape[0] != x.shape[0]:
        raise DomainError("feature/label counts differ")
    pairs = [split_label(int(v), layout) for v in y]
    cats = np.array([j for j, _ in pairs], dtype=int)
    apps = np.array([k for _, k in pairs], dtype=int)

    if x.shape[1] != feature_length(p_grid):
        raise DomainError(
            f"feature dim {x.shape[1]} does not match pooling grid {p_grid} "
            f"(expected {feature_length(p_grid)})"
        )
    for j in range(layout.num_categories):
        if not np.any(cats == j):
            raise DomainError(f"category '{layout.category_name(j)}' has no training samples")

    # the generator's draws in sequential order: every head's weights, then
    # the discriminator's batch orders, then each predictor's
    rng = np.random.default_rng(seed)
    outs = [layout.num_categories, *layout.counts]
    heads = [MlpHead.init(x.shape[1], n, rng) for n in outs]
    rows = [np.arange(x.shape[0])] + [np.flatnonzero(cats == j) for j in range(layout.num_categories)]
    orders = [[r[rng.permutation(r.size)] for _ in range(epochs)] for r in rows]
    targets = [cats] + [apps] * layout.num_categories
    names = ["discriminator"] + [layout.category_name(j) for j in range(layout.num_categories)]

    # the discriminator and the one-output heads on the calling thread, the
    # other predictors striped over the helpers; a BLAS that runs its matrix
    # products on several threads already keeps the CPUs busy
    trained = [i for i, head in enumerate(heads) if head.out_dim > 1]
    threads = max(1, min(_cpu_count(), MAX_THREADS, len(trained))) if _blas_threads() == 1 else 1
    helped = [i for i in trained if i > 0] if threads > 1 else []
    shares = [[i for i in range(len(heads)) if i not in helped]]
    shares += [helped[k :: threads - 1] for k in range(threads - 1)]
    # allocated here, not per head on the helpers, whose malloc arenas would
    # keep the freed buffers; freed when this call returns
    largest = max(head.flat.size for head in heads)
    workspaces = [(np.empty((3, largest)), np.empty((2, min(largest, ADAM_BLOCK)))) for _ in range(threads)]
    logs = run_shares(
        lambda k, i: _train_head(heads[i], x, targets[i], orders[i], batch_size, lr, workspaces[k], names[i]),
        shares,
    )
    model = TwoTierModel(layout, heads[0], heads[1:], l_size, p_grid, seed)
    return model, [row for log in logs for row in log]


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
        out[sel] = model.layout.offsets[j] + ks
    return out


def predict_images(model: TwoTierModel, images) -> np.ndarray:
    """Unified labels for a batch of face images."""
    feats = extract_features(np.asarray(images), model.feature_params, model.l_size, model.p_grid)
    return predict_features(model, feats)


def save_model(model: TwoTierModel, path) -> None:
    """Write `model` as one JSON header line, then its raw little-endian float64 weights."""
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
            fh.write(head.flat.astype("<f8", copy=False))


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
    seed = _field(doc, "seed", int, path)
    try:
        _check_header(l_size, p_grid, seed)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    in_dim, outs = feature_length(p_grid), (layout.num_categories, *layout.counts)
    expected = 8 * sum(_head_size(in_dim, n) for n in outs)
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != expected:
        raise DomainError(f"{path}: holds {size} weight bytes, the header's layout needs {expected}")
    heads = []
    for n in outs:
        flat = np.empty(_head_size(in_dim, n), dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:  # the file shrank after the size check
            raise DomainError(f"{path}: ended inside the weights")
        if not np.all(np.isfinite(flat)):
            raise DomainError(f"{path}: holds non-finite weights")
        heads.append(MlpHead(flat, in_dim, n))
    return TwoTierModel(layout, heads[0], heads[1:], l_size, p_grid, seed)
