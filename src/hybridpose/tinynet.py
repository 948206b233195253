"""A small ReLU MLP with one classification head per angle and level.

The trunk maps features to a shared hidden representation; 3 angles x
hierarchy-depth linear heads emit the per-level logits.  Forward, backward
and the Adam updates are written out explicitly on numpy arrays, so the
gradient path (including the expectation-decode regression term) is fully
visible and testable against finite differences.

Training is deterministic given the config seed: initialization draws from
one seeded generator, and each epoch's shuffle is reseeded from the master
seed and the epoch index.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angles import MaeReport, PoseAngles, mae
from .binning import BinHierarchy, _check_in_range, decode_positions, expect_decode, make_hierarchy
from .loss import LossWeights, _angle_terms, _check_loss_args, softmax
from .synth import Dataset

__all__ = [
    "NetConfig",
    "HeadOutputs",
    "TinyNet",
    "TrainReport",
    "init_net",
    "train",
    "checkpoint_text",
    "load_checkpoint",
]

N_ANGLES = 3

CHECKPOINT_FORMAT = "hybridpose-checkpoint"
CHECKPOINT_VERSION = 1

# predict_batch decodes rows in blocks of this many.  BLAS results can depend
# on the matrix shape, so one fixed split makes every caller decode a row to
# the same bits: training's validation pass (500 rows by default, one block)
# and eval agree exactly.  It also bounds the working memory of a large eval.
PREDICT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class NetConfig:
    """Architecture plus the master seed for init and shuffling."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    hierarchy: BinHierarchy = field(default_factory=make_hierarchy)
    seed: int = 0
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        dims = tuple(int(d) for d in self.hidden_dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"hidden dims must all be positive, got {self.hidden_dims!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        object.__setattr__(self, "hidden_dims", dims)


@dataclass(frozen=True, eq=False)
class HeadOutputs:
    """Per-level logit vectors for each angle, finest level first."""

    yaw: tuple[np.ndarray, ...]
    pitch: tuple[np.ndarray, ...]
    roll: tuple[np.ndarray, ...]

    def per_angle(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return (self.yaw, self.pitch, self.roll)


class TinyNet:
    """Weights for the trunk and heads; see module docstring for layout."""

    def __init__(self, config, trunk_weights, trunk_biases, head_weights, head_biases):
        self.config = config
        self.trunk_weights = [np.asarray(w, dtype=float) for w in trunk_weights]
        self.trunk_biases = [np.asarray(b, dtype=float) for b in trunk_biases]
        self.head_weights = [
            [np.asarray(w, dtype=float) for w in per_angle] for per_angle in head_weights
        ]
        self.head_biases = [
            [np.asarray(b, dtype=float) for b in per_angle] for per_angle in head_biases
        ]
        self._validate_shapes()
        self._flatten()
        if not np.isfinite(self.flat).all():
            raise ValueError("parameters contain non-finite values")

    def _flatten(self) -> None:
        """Copy the parameters into one buffer, ``flat``, in parameters() order.

        Every trunk and head array is then rebound to a reshaped view of that
        buffer, so Adam and the finiteness guard each run as one pass over it.
        """
        params = self.parameters()
        self.flat = np.empty(sum(p.size for p in params))
        views = self._views(self.flat)
        for view, p in zip(views, params):
            view[...] = p
        n = 2 * len(self.trunk_weights)
        self.trunk_weights, self.trunk_biases = views[0:n:2], views[1:n:2]
        per_angle = 2 * self.config.hierarchy.depth
        heads = [views[n + a * per_angle : n + (a + 1) * per_angle] for a in range(N_ANGLES)]
        self.head_weights = [h[0::2] for h in heads]
        self.head_biases = [h[1::2] for h in heads]

    def _views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Views of a buffer the size of ``flat``, shaped like parameters() and in its order."""
        views, offset = [], 0
        for p in self.parameters():
            views.append(buffer[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        return views

    def _validate_shapes(self) -> None:
        cfg = self.config
        dims = (cfg.input_dim, *cfg.hidden_dims)
        if len(self.trunk_weights) != len(dims) - 1 or len(self.trunk_biases) != len(dims) - 1:
            raise ValueError("trunk layer count does not match config")
        for i, (w, b) in enumerate(zip(self.trunk_weights, self.trunk_biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(f"trunk layer {i} has shape {w.shape}, expected {(dims[i], dims[i+1])}")
        hidden = dims[-1]
        if len(self.head_weights) != N_ANGLES or len(self.head_biases) != N_ANGLES:
            raise ValueError(f"expected heads for {N_ANGLES} angles")
        for per_angle_w, per_angle_b in zip(self.head_weights, self.head_biases):
            if len(per_angle_w) != cfg.hierarchy.depth:
                raise ValueError("head level count does not match hierarchy depth")
            for scheme, w, b in zip(cfg.hierarchy.levels, per_angle_w, per_angle_b):
                if w.shape != (hidden, scheme.n_bins) or b.shape != (scheme.n_bins,):
                    raise ValueError(
                        f"head for {scheme.n_bins} bins has shape {w.shape}, "
                        f"expected {(hidden, scheme.n_bins)}"
                    )

    def parameters(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (trunk, then heads by angle)."""
        params = []
        for w, b in zip(self.trunk_weights, self.trunk_biases):
            params.append(w)
            params.append(b)
        for per_angle_w, per_angle_b in zip(self.head_weights, self.head_biases):
            for w, b in zip(per_angle_w, per_angle_b):
                params.append(w)
                params.append(b)
        return params

    @property
    def param_count(self) -> int:
        return self.flat.size

    def _forward_batch(self, x: np.ndarray, depth: int | None = None):
        """Trunk pre-activations, activations and head logits for a batch.

        ``depth`` limits the heads to that many levels per angle, finest first.
        """
        pre_acts = []
        acts = [x]
        a = x
        for w, b in zip(self.trunk_weights, self.trunk_biases):
            z = a @ w + b
            a = np.maximum(z, 0.0)
            pre_acts.append(z)
            acts.append(a)
        logits = [
            [a @ w + b for w, b in zip(per_angle_w[:depth], per_angle_b[:depth])]
            for per_angle_w, per_angle_b in zip(self.head_weights, self.head_biases)
        ]
        return pre_acts, acts, logits

    def _check_features(self, features, ndim: int = 1) -> np.ndarray:
        """One feature vector (ndim 1) or an (n, input_dim) array of them (ndim 2)."""
        f = np.asarray(features, dtype=float)
        if f.ndim != ndim or f.shape[-1] != self.config.input_dim:
            raise ValueError(
                f"expected feature vector of length {self.config.input_dim}, got shape {f.shape}"
            )
        if not np.isfinite(f).all():
            raise ValueError("features contain non-finite values")
        return f

    def forward(self, features) -> HeadOutputs:
        """Logits for one feature vector."""
        f = self._check_features(features)
        _, _, logits = self._forward_batch(f[None, :])
        per_angle = tuple(tuple(level[0] for level in angle) for angle in logits)
        return HeadOutputs(*per_angle)

    def predict(self, features, convention: str = "center") -> PoseAngles:
        """Expectation-decoded angles from the finest heads."""
        out = self.forward(features)
        finest = self.config.hierarchy.finest
        return PoseAngles(
            *(
                expect_decode(softmax(levels[0]), finest, convention=convention)
                for levels in out.per_angle()
            )
        )

    def predict_batch(self, x, convention: str = "center") -> np.ndarray:
        """Decoded (n, 3) angle array for an (n, input_dim) feature array.

        Runs the trunk and the finest heads only, in blocks of
        PREDICT_BLOCK_ROWS rows; the coarse heads do not affect the decode.
        """
        x = self._check_features(x, ndim=2)
        positions = decode_positions(self.config.hierarchy.finest, convention)
        out = np.empty((x.shape[0], N_ANGLES))
        for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
            hi = lo + PREDICT_BLOCK_ROWS
            out[lo:hi] = self._decode_block(x[lo:hi], positions)
        return out

    def _decode_block(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        # A separate frame, so one block's arrays are freed before the next
        # block's are made; the softmax runs in place on the logits.
        _, _, logits = self._forward_batch(x, depth=1)
        cols = []
        for (s,) in logits:
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=1, keepdims=True)
            cols.append(s @ positions)
        return np.stack(cols, axis=1)


def init_net(config: NetConfig) -> TinyNet:
    """He-scaled Gaussian weights, zero biases, drawn from the config seed."""
    rng = np.random.default_rng(config.seed)
    dims = (config.input_dim, *config.hidden_dims)
    trunk_w, trunk_b = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        trunk_w.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in))
        trunk_b.append(np.zeros(fan_out))
    hidden = dims[-1]
    head_w, head_b = [], []
    for _ in range(N_ANGLES):
        per_w, per_b = [], []
        for scheme in config.hierarchy.levels:
            per_w.append(rng.standard_normal((hidden, scheme.n_bins)) * math.sqrt(2.0 / hidden))
            per_b.append(np.zeros(scheme.n_bins))
        head_w.append(per_w)
        head_b.append(per_b)
    return TinyNet(config, trunk_w, trunk_b, head_w, head_b)


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter array.

    ``for_net`` makes an ``m`` and a ``v`` of ``net.flat``'s size, so a
    training step updates the whole net as the single array ``net.flat``.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # Two work arrays, kept across steps: allocating them anew each step
    # costs about as much as the arithmetic.
    _scratch: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {b!r}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")

    @classmethod
    def for_net(cls, net: TinyNet, learning_rate: float = 1e-3, **kwargs) -> "AdamState":
        return cls(
            learning_rate=learning_rate,
            m=np.zeros_like(net.flat),
            v=np.zeros_like(net.flat),
            **kwargs,
        )


def adam_update(p: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam step, applied to the parameter array in place.

    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` is computed as in-place
    passes over two scratch arrays kept in ``state``.  The passes perform the
    same IEEE operations in the same order as that expression, so the result
    is bit-identical to it, without a temporary per operation.
    """
    m, v = state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ValueError(
            f"parameter, gradient and moment shapes must align, got "
            f"{p.shape}, {g.shape}, {m.shape}, {v.shape}"
        )
    if state._scratch is None or state._scratch[0].shape != m.shape:
        state._scratch = (np.empty_like(m), np.empty_like(m))
    s1, s2 = state._scratch
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1 ** state.step
    correction2 = 1.0 - b2 ** state.step
    np.multiply(g, 1.0 - b1, out=s1)
    m *= b1
    m += s1
    np.multiply(g, g, out=s1)
    s1 *= 1.0 - b2
    v *= b2
    v += s1
    np.divide(m, correction1, out=s1)
    s1 *= state.learning_rate
    np.divide(v, correction2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += state.epsilon
    s1 /= s2
    p -= s1


@dataclass(frozen=True)
class LossStats:
    """Batch means of the loss and its unweighted terms, summed over angles."""

    total: float
    regression_term: float
    ce_terms: tuple[float, ...]


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch training means and validation errors."""

    epoch_total: tuple[float, ...]
    epoch_regression: tuple[float, ...]
    epoch_ce_terms: tuple[tuple[float, ...], ...]
    val_reports: tuple[MaeReport, ...]
    wall_seconds: float

    @property
    def epochs(self) -> int:
        return len(self.epoch_total)

    @property
    def final_val(self) -> MaeReport | None:
        return self.val_reports[-1] if self.val_reports else None


def _batch_loss_and_grads(
    net: TinyNet,
    x: np.ndarray,
    targets: np.ndarray,
    weights: LossWeights,
    mse_scale: str = "degrees",
    convention: str = "center",
    out: list[np.ndarray] | None = None,
):
    """Mean loss over the batch and its gradient in parameters() order.

    The loss per sample is the three-angle sum of the per-angle hybrid loss;
    stats and gradients are means over the batch.  ``loss._angle_terms`` gives
    each angle's loss terms and logit gradients; this runs the forward pass
    and backpropagates those gradients through the heads and the trunk.
    Each gradient is written into its array of ``out`` (``net._views`` of a
    flat buffer, so training fills its gradient buffer without a copy), or
    into a new such list if ``out`` is None; the list is returned.
    """
    hierarchy = net.config.hierarchy
    scale = _check_loss_args(weights, hierarchy, mse_scale)
    positions = decode_positions(hierarchy.finest, convention)
    n = x.shape[0]
    grads = net._views(np.empty_like(net.flat)) if out is None else out
    n_trunk = 2 * len(net.trunk_weights)

    pre_acts, acts, logits = net._forward_batch(x)
    hidden = acts[-1]

    d_hidden = np.zeros_like(hidden)
    reg_sum = 0.0
    ce_sums = np.zeros(hierarchy.depth)
    for ai in range(N_ANGLES):
        reg, ce, logit_grads = _angle_terms(
            logits[ai], targets[:, ai], weights, hierarchy, scale, positions
        )
        reg_sum += reg
        ce_sums += ce
        first = n_trunk + 2 * hierarchy.depth * ai
        for level, (g, w) in enumerate(zip(logit_grads, net.head_weights[ai])):
            np.matmul(hidden.T, g, out=grads[first + 2 * level])
            g.sum(axis=0, out=grads[first + 2 * level + 1])
            d_hidden += g @ w.T

    d = d_hidden
    for i in reversed(range(len(net.trunk_weights))):
        dz = d * (pre_acts[i] > 0.0)
        np.matmul(acts[i].T, dz, out=grads[2 * i])
        dz.sum(axis=0, out=grads[2 * i + 1])
        if i > 0:
            d = dz @ net.trunk_weights[i].T

    stats = LossStats(
        total=(weights.alpha * reg_sum + float(np.dot(weights.betas, ce_sums))) / n,
        regression_term=reg_sum / n,
        ce_terms=tuple((ce_sums / n).tolist()),
    )
    return stats, grads


def _batch_arrays(data: Dataset, hierarchy: BinHierarchy) -> tuple[np.ndarray, np.ndarray]:
    """A dataset's features and targets; the targets must lie in the hierarchy's bin range."""
    _check_in_range(data.angles, hierarchy.finest)
    return data.features, data.angles


def _assert_finite_params(net: TinyNet, optimizer: AdamState, loss: float) -> None:
    """Raise FloatingPointError if the step's loss, parameters or moments are not finite.

    ``m`` is a convex combination of gradients and cannot overflow on its
    own; a non-finite gradient reaches ``net.flat`` or, through ``g * g``,
    the second moment ``v``, where an overflow would otherwise only turn the
    updates silently to zero.
    """
    if not math.isfinite(loss):
        what = "loss"
    elif not np.isfinite(net.flat).all():
        what = "parameters"
    elif not np.isfinite(optimizer.v).all():
        what = "Adam second moment"
    else:
        return
    raise FloatingPointError(f"training diverged: non-finite {what} at update {optimizer.step}")


def _step(
    net: TinyNet,
    optimizer: AdamState,
    grad: np.ndarray,
    grad_views: list[np.ndarray],
    x: np.ndarray,
    targets: np.ndarray,
    weights: LossWeights,
    mse_scale: str,
    convention: str,
) -> LossStats:
    """Loss and gradient, written into the flat ``grad`` through ``grad_views``;
    then Adam and the guard."""
    stats, _ = _batch_loss_and_grads(
        net, x, targets, weights, mse_scale, convention, grad_views
    )
    adam_update(net.flat, grad, optimizer)
    _assert_finite_params(net, optimizer, stats.total)
    return stats


def _evaluate(net: TinyNet, x: np.ndarray, targets: np.ndarray, convention: str) -> MaeReport:
    return mae(net.predict_batch(x, convention), targets)


def train(
    config: NetConfig,
    train_samples: Dataset,
    val_samples: Dataset,
    weights: LossWeights,
    epochs: int = 30,
    learning_rate: float = 1e-3,
    batch_size: int = 64,
    mse_scale: str = "degrees",
    convention: str = "center",
) -> tuple[TinyNet, TrainReport]:
    """Train a fresh net from the config seed; fully deterministic.

    Each epoch shuffles the training set with a generator reseeded from
    (config.seed, epoch).  Recorded epoch losses are means over samples as
    visited (pre-update), and every epoch ends with a validation MAE pass.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be nonnegative, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    x_train, t_train = _batch_arrays(train_samples, config.hierarchy)
    x_val, t_val = _batch_arrays(val_samples, config.hierarchy)
    for arr in (x_train, x_val):
        if arr.shape[1] != config.input_dim:
            raise ValueError(
                f"data features have dim {arr.shape[1]}, config expects {config.input_dim}"
            )

    net = init_net(config)
    optimizer = AdamState.for_net(net, learning_rate)
    grad = np.empty_like(net.flat)
    grad_views = net._views(grad)
    n = x_train.shape[0]

    start = time.perf_counter()
    epoch_total, epoch_regression, epoch_ce, val_reports = [], [], [], []
    for epoch in range(epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        total_sum = 0.0
        reg_sum = 0.0
        ce_sum = np.zeros(config.hierarchy.depth)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            stats = _step(
                net, optimizer, grad, grad_views, x_train[idx], t_train[idx], weights,
                mse_scale, convention,
            )
            total_sum += stats.total * len(idx)
            reg_sum += stats.regression_term * len(idx)
            ce_sum += np.array(stats.ce_terms) * len(idx)
        epoch_total.append(total_sum / n)
        epoch_regression.append(reg_sum / n)
        epoch_ce.append(tuple((ce_sum / n).tolist()))
        val_reports.append(_evaluate(net, x_val, t_val, convention))
    report = TrainReport(
        epoch_total=tuple(epoch_total),
        epoch_regression=tuple(epoch_regression),
        epoch_ce_terms=tuple(epoch_ce),
        val_reports=tuple(val_reports),
        wall_seconds=time.perf_counter() - start,
    )
    return net, report


def checkpoint_text(net: TinyNet) -> str:
    """Serialize config, seed and all parameters to a JSON document.

    Floats round-trip exactly through their shortest decimal representation,
    so save followed by load reproduces every parameter bit for bit.
    """
    cfg = net.config
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {
            "input_dim": cfg.input_dim,
            "hidden_dims": list(cfg.hidden_dims),
            "seed": cfg.seed,
            "activation": cfg.activation,
            "hierarchy": {
                "min_angle": cfg.hierarchy.finest.min_angle,
                "max_angle": cfg.hierarchy.finest.max_angle,
                "bin_counts": [s.n_bins for s in cfg.hierarchy.levels],
            },
        },
        "trunk": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(net.trunk_weights, net.trunk_biases)
        ],
        "heads": [
            [
                {"weight": w.tolist(), "bias": b.tolist()}
                for w, b in zip(per_w, per_b)
            ]
            for per_w, per_b in zip(net.head_weights, net.head_biases)
        ],
    }
    return json.dumps(doc, allow_nan=False, separators=(",", ":")) + "\n"


def _config_int(name: str, value) -> int:
    """A checkpoint config integer as parsed from JSON: a float or a bool is an error."""
    if type(value) is not int:
        raise ValueError(f"config {name} must be an integer, got {json.dumps(value)}")
    return value


def _config_ints(name: str, values) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise ValueError(f"config {name} must be a list of integers, got {json.dumps(values)}")
    return tuple(_config_int(f"{name}[{i}]", v) for i, v in enumerate(values))


def load_checkpoint(path) -> TinyNet:
    """Rebuild a TinyNet from a checkpoint file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {doc.get('version')!r}"
        )
    try:
        c = doc["config"]
        h = c["hierarchy"]
        config = NetConfig(
            input_dim=_config_int("input_dim", c["input_dim"]),
            hidden_dims=_config_ints("hidden_dims", c["hidden_dims"]),
            hierarchy=make_hierarchy(
                _config_ints("hierarchy.bin_counts", h["bin_counts"]),
                float(h["min_angle"]),
                float(h["max_angle"]),
            ),
            seed=_config_int("seed", c["seed"]),
            activation=str(c["activation"]),
        )
        trunk_w = [np.array(layer["weight"], dtype=float) for layer in doc["trunk"]]
        trunk_b = [np.array(layer["bias"], dtype=float) for layer in doc["trunk"]]
        head_w = [
            [np.array(level["weight"], dtype=float) for level in per_angle]
            for per_angle in doc["heads"]
        ]
        head_b = [
            [np.array(level["bias"], dtype=float) for level in per_angle]
            for per_angle in doc["heads"]
        ]
        return TinyNet(config, trunk_w, trunk_b, head_w, head_b)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
