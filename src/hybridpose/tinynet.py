"""A small ReLU MLP with one classification head per angle and level.

The trunk maps features to a shared hidden representation; 3 angles x
hierarchy-depth linear heads emit the per-level logits.  Forward, backward
and the Adam updates are written out explicitly on numpy arrays, so the
gradient path (including the expectation-decode regression term) is fully
visible and testable against finite differences.

All parameters live in one buffer, ``TinyNet.flat``: each trunk layer's
weight and bias, then the heads level by level, finest first.  A level
holds the three angles' (hidden, n_bins) weights, then their three biases,
so it is one (3, hidden, n_bins) weight block and one (3, n_bins) bias
block, and the training step runs the three angles of a level as one
stacked operation; the batched decode runs the finest heads one angle at a
time, so that one angle's logits exist at once.  ``head_weights[angle][level]``
and ``head_biases[angle][level]`` are views of single heads in those blocks.
The training step's gradient is itself a TinyNet of the same config, so
``TinyNet.__init__`` alone lays out parameters and gradients alike.

The config also fixes the net's decode convention, the bin positions its
expectation decode integrates over; training and prediction both read it
from there, and the checkpoint stores it.  The checkpoint is serialized one
parameter array at a time, so its whole text need never exist at once, and
each array is decoded straight to a float array as the file is parsed.

Training is deterministic given the config seed: initialization draws from
one seeded generator, and each epoch's shuffle is reseeded from the master
seed and the epoch index.

With ``jobs=2``, ``train`` shares each step with a forked helper process,
for the same bits (see ``_helper``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .angles import MaeReport, PoseAngles, mae
from .binning import (
    DECODE_CONVENTIONS,
    MAX_ANGLE,
    MIN_ANGLE,
    BinHierarchy,
    _check_in_range,
    _check_int,
    _check_real,
    _shown,
    decode_positions,
    make_hierarchy,
)
from .binning import expect_decode  # unused here; the benchmark's tracer wraps it by this name
from .loss import LossWeights, _angle_terms, _check_loss_args, _softmax_inplace
from .loss import softmax  # unused here; the benchmark's tracer wraps it by this name
from .synth import Dataset

__all__ = [
    "NetConfig",
    "TinyNet",
    "init_net",
    "train",
    "load_checkpoint",
]

N_ANGLES = 3

CHECKPOINT_FORMAT = "hybridpose-checkpoint"
CHECKPOINT_VERSION = 2

# predict_batch decodes rows in blocks of this many.  BLAS results can depend
# on the matrix shape, so one fixed split makes every caller decode a row to
# the same bits: training's validation pass (500 rows by default, one block)
# and eval agree exactly.  It also bounds the working memory of a large eval.
PREDICT_BLOCK_ROWS = 512

# Adam's moment decay rates and denominator offset, at the values of Kingma & Ba.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class NetConfig:
    """Architecture, the master seed for init and shuffling, and the decode convention."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    hierarchy: BinHierarchy = field(default_factory=make_hierarchy)
    seed: int = 0
    decode_convention: str = "center"

    def __post_init__(self) -> None:
        _check_int("input_dim", self.input_dim, 1)
        if not isinstance(self.hidden_dims, (list, tuple)):
            raise ValueError(f"hidden_dims must be a list or tuple, got {self.hidden_dims!r}")
        for i, d in enumerate(self.hidden_dims):
            _check_int(f"hidden_dims[{i}]", d, 1)
        if not isinstance(self.hierarchy, BinHierarchy):
            raise ValueError(f"hierarchy must be a BinHierarchy, got {self.hierarchy!r}")
        _check_int("seed", self.seed, 0)
        if self.decode_convention not in DECODE_CONVENTIONS:
            raise ValueError(
                f"unknown decode convention {self.decode_convention!r} "
                f"(choose from {', '.join(map(repr, DECODE_CONVENTIONS))})"
            )
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


@dataclass(frozen=True, eq=False)
class HeadOutputs:
    """Per-level logit vectors for each angle, finest level first."""

    yaw: tuple[np.ndarray, ...]
    pitch: tuple[np.ndarray, ...]
    roll: tuple[np.ndarray, ...]

    def per_angle(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return (self.yaw, self.pitch, self.roll)


def _param_shapes(config: NetConfig) -> list[tuple[int, ...]]:
    """The shapes of the blocks of a net's ``flat``, in order: each trunk
    layer's weight and bias, then each level's stacked head weights and biases."""
    dims = (config.input_dim, *config.hidden_dims)
    shapes = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    for scheme in config.hierarchy.levels:
        shapes += [(N_ANGLES, dims[-1], scheme.n_bins), (N_ANGLES, scheme.n_bins)]
    return shapes


class TinyNet:
    """Weights for the trunk and heads; see module docstring for layout.

    A new net's parameters are all zero (or ``flat``'s, a buffer of their
    size): ``init_net`` draws them, and ``load_checkpoint`` fills them from
    a file, through the views.
    """

    def __init__(self, config: NetConfig, flat: np.ndarray | None = None):
        self.config = config
        shapes = _param_shapes(config)
        sizes = [math.prod(shape) for shape in shapes]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        parts = np.split(self.flat, np.cumsum(sizes)[:-1])
        blocks = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        n = 2 * len(config.hidden_dims)
        self.trunk_weights, self.trunk_biases = blocks[0:n:2], blocks[1:n:2]
        self.head_blocks = list(zip(blocks[n::2], blocks[n + 1 :: 2]))
        # Each level holds six views: the three angles' weights, then their biases.
        self._params = blocks[:n] + [v for w, b in self.head_blocks for v in (*w, *b)]
        self.head_weights = [self._params[n + a :: 2 * N_ANGLES] for a in range(N_ANGLES)]
        self.head_biases = [self._params[n + N_ANGLES + a :: 2 * N_ANGLES] for a in range(N_ANGLES)]

    def parameters(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order: trunk, then heads by level.

        Per level, the three angles' weights, then their three biases.
        """
        return list(self._params)

    def _forward_batch(self, x: np.ndarray, levels=None):
        """Trunk pre-activations, activations and head logits for a batch.

        The logits are one (3, n, n_bins) array per level index in
        ``levels`` (finest 0), by default every level.
        """
        pre_acts = []
        acts = [x]
        a = x
        for w, b in zip(self.trunk_weights, self.trunk_biases):
            z = a @ w
            z += b
            a = np.maximum(z, 0.0)
            pre_acts.append(z)
            acts.append(a)
        levels = range(len(self.head_blocks)) if levels is None else levels
        return pre_acts, acts, self._head_logits(a, levels)

    def _head_logits(self, hidden: np.ndarray, levels) -> list[np.ndarray]:
        """The (3, n, n_bins) logits of each level of ``levels`` for the hidden layer."""
        logits = []
        for li in levels:
            w, b = self.head_blocks[li]
            s = hidden @ w
            s += b[:, None, :]
            logits.append(s)
        return logits

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
        per_angle = (tuple(level[a, 0] for level in logits) for a in range(N_ANGLES))
        return HeadOutputs(*per_angle)

    # Unused in the package; the benchmark's tracer wraps it by this name.
    def predict(self, features) -> PoseAngles:
        """Decoded angles for one feature vector: ``predict_batch``'s one-row case."""
        return PoseAngles(*self.predict_batch(self._check_features(features)[None])[0])

    def predict_batch(self, x) -> np.ndarray:
        """Decoded (n, 3) angle array for an (n, input_dim) feature array.

        Runs the trunk and the finest heads only, in blocks of
        PREDICT_BLOCK_ROWS rows; the coarse heads do not affect the decode.
        """
        x = self._check_features(x, ndim=2)
        positions = decode_positions(self.config.hierarchy.finest, self.config.decode_convention)
        out = np.empty((x.shape[0], N_ANGLES))
        for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
            hi = lo + PREDICT_BLOCK_ROWS
            out[lo:hi] = self._decode_block(x[lo:hi], positions)
        return out

    def _decode_block(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        # A separate frame, so one block's arrays are freed before the next block's
        # are made.  One angle at a time, so one (n, k) logit array exists at once,
        # each with the stacked form's matmul, in-place softmax and decode: the same bits.
        a = self._forward_batch(x, levels=())[1][-1]
        (w, b), out = self.head_blocks[0], np.empty((x.shape[0], N_ANGLES))
        for i in range(N_ANGLES):
            s = a @ w[i]
            s += b[i]
            _softmax_inplace(s)
            out[:, i] = s @ positions
        return out


def init_net(config: NetConfig) -> TinyNet:
    """He-scaled Gaussian weights, zero biases, drawn from the config seed.

    The trunk layers are drawn in order, then the heads angle by angle,
    each angle's levels finest first.
    """
    rng = np.random.default_rng(config.seed)
    net = TinyNet(config)
    for w in [*net.trunk_weights, *(w for per_angle in net.head_weights for w in per_angle)]:
        fan_in = w.shape[0]
        w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / fan_in)
    return net


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter array.

    ``for_net`` makes an ``m`` and a ``v`` of ``net.flat``'s size, so a
    training step updates the whole net as the single array ``net.flat``;
    an update changes its ``part`` slice only.
    """

    learning_rate: float
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    part: slice = field(default_factory=lambda: slice(None))
    # Two work arrays, kept across steps: allocating them anew each step
    # costs about as much as the arithmetic.
    _scratch: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_real("learning_rate", self.learning_rate)

    @classmethod
    def for_net(cls, net: TinyNet, learning_rate: float = 1e-3) -> "AdamState":
        return cls(learning_rate, m=np.zeros_like(net.flat), v=np.zeros_like(net.flat))


def adam_update(p: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam step, applied to the parameter array in place.

    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` is computed as in-place
    passes over two scratch arrays kept in ``state``.  The passes perform the
    same IEEE operations in the same order as that expression, so the result
    is bit-identical to it, without a temporary per operation.  It is
    elementwise, so updating ``p`` in ``state.part`` slices gives the same bits.
    """
    p, g, m, v = p[state.part], g[state.part], state.m[state.part], state.v[state.part]
    if not p.shape == g.shape == m.shape == v.shape:
        raise ValueError(
            f"parameter, gradient and moment shapes must align, got "
            f"{p.shape}, {g.shape}, {m.shape}, {v.shape}"
        )
    if state._scratch is None or state._scratch[0].shape != m.shape:
        state._scratch = (np.empty_like(m), np.empty_like(m))
    s1, s2 = state._scratch
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
    s2 += ADAM_EPSILON
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


def _level_terms(net, grads, hidden, truth, weights, levels, d_out=None):
    """A training step's work on head levels ``levels``, given the hidden layer
    and (3, n) true angles: forward, and weight and bias gradients into
    ``grads``.  Returns ``_angle_terms``' sums and each level's (3, n, hidden)
    gradient into the hidden layer (into ``d_out``'s arrays if given)."""
    config = net.config
    positions = decode_positions(config.hierarchy.finest, config.decode_convention)
    logits = net._head_logits(hidden, levels)
    reg, ce, logit_grads = _angle_terms(logits, truth, weights, config.hierarchy, positions, levels)
    d_heads = []
    for i, (li, g) in enumerate(zip(levels, logit_grads)):
        (w, _), (g_w, g_b) = net.head_blocks[li], grads.head_blocks[li]
        np.matmul(hidden.T, g, out=g_w)
        g.sum(axis=1, out=g_b)
        d_heads.append(np.matmul(g, w.transpose(0, 2, 1), out=None if d_out is None else d_out[i]))
    return reg, ce, d_heads


def _batch_loss_and_grads(
    net: TinyNet,
    x: np.ndarray,
    targets: np.ndarray,
    weights: LossWeights,
    out: TinyNet | None = None,
    helper=None,
):
    """Mean loss over the batch and its gradient in parameters() order.

    The loss per sample is the three-angle sum of the per-angle hybrid loss;
    stats and gradients are means over the batch.  ``loss._angle_terms`` gives
    each angle's loss terms and logit gradients; this runs the forward pass
    and backpropagates those gradients through the heads and the trunk, one
    stacked block of three heads per level.  The gradient is written into
    ``out``, a TinyNet of ``net``'s config (so training fills its gradient's
    ``flat`` without a copy), or into a new one if ``out`` is None; its
    ``parameters()`` are returned.  A ``_helper.Helper`` shares the coarse levels.
    """
    hierarchy = net.config.hierarchy
    _check_loss_args(weights, hierarchy)
    n = x.shape[0]
    grads = TinyNet(net.config) if out is None else out
    levels = range(hierarchy.depth if helper is None else helper.levels.start)

    pre_acts, acts, _ = net._forward_batch(x, levels=())
    hidden = acts[-1]
    if helper is not None:
        helper.start(hidden, targets)
    reg, ce, d_heads = _level_terms(net, grads, hidden, targets.T, weights, levels)
    if helper is not None:
        helper_ce, helper_d_heads = helper.terms()
        ce = np.concatenate([ce, helper_ce], axis=1)
        d_heads += helper_d_heads

    reg_sum = 0.0
    ce_sums = np.zeros(hierarchy.depth)
    for reg_angle, ce_angle in zip(reg.tolist(), ce):
        reg_sum += reg_angle
        ce_sums += ce_angle

    # Summed head by head, angle-major, as the per-head backward would.
    d_hidden = np.zeros_like(hidden)
    for ai in range(N_ANGLES):
        for d_level in d_heads:
            d_hidden += d_level[ai]

    d = d_hidden
    for i in reversed(range(len(net.trunk_weights))):
        dz = d * (pre_acts[i] > 0.0)
        np.matmul(acts[i].T, dz, out=grads.trunk_weights[i])
        dz.sum(axis=0, out=grads.trunk_biases[i])
        if i > 0:
            d = dz @ net.trunk_weights[i].T

    stats = LossStats(
        total=(weights.alpha * reg_sum + float(np.dot(weights.betas, ce_sums))) / n,
        regression_term=reg_sum / n,
        ce_terms=tuple((ce_sums / n).tolist()),
    )
    return stats, grads.parameters()


def _batch_arrays(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """A dataset's features and targets; the targets must lie in the bin range."""
    _check_in_range(data.angles)
    return data.features, data.angles


# What the finiteness guard checks, in its order.
_GUARDED = ("loss", "parameters", "Adam second moment")


def _first_nonfinite(loss: float, optimizer: AdamState, flat: np.ndarray) -> int:
    """The index in _GUARDED of the first of the loss, the optimizer's part of
    ``flat`` and its part of the second moment that is not finite, else len(_GUARDED)."""
    flat, v = flat[optimizer.part], optimizer.v[optimizer.part]
    return [math.isfinite(loss), np.isfinite(flat).all(), np.isfinite(v).all(), False].index(False)


def _assert_finite_params(
    net: TinyNet, optimizer: AdamState, loss: float, helper_found: int = len(_GUARDED)
) -> None:
    """Raise FloatingPointError if the step's loss, parameters or moments are not finite.

    This process checks its optimizer's part; ``helper_found`` is
    ``_first_nonfinite`` of a helper's part, and the first of the two is what
    a check of the whole would find.  ``m`` is a convex combination of
    gradients and cannot overflow on its own; a non-finite gradient reaches
    ``net.flat`` or, through ``g * g``, the second moment ``v``, where an
    overflow would otherwise only turn the updates silently to zero.
    """
    found = min(_first_nonfinite(loss, optimizer, net.flat), helper_found)
    if found < len(_GUARDED):
        raise FloatingPointError(
            f"training diverged: non-finite {_GUARDED[found]} at update {optimizer.step}"
        )


def _evaluate(net: TinyNet, x: np.ndarray, targets: np.ndarray) -> MaeReport:
    return mae(net.predict_batch(x), targets)


def train(
    config: NetConfig,
    train_samples: Dataset,
    val_samples: Dataset,
    weights: LossWeights,
    epochs: int = 30,
    learning_rate: float = 1e-3,
    batch_size: int = 64,
    jobs: int = 1,
) -> tuple[TinyNet, TrainReport]:
    """Train a fresh net from the config seed; fully deterministic.

    Each epoch shuffles the training set with a generator reseeded from
    (config.seed, epoch).  Recorded epoch losses are means over samples as
    visited (pre-update), and every epoch ends with a validation MAE pass.
    With ``jobs=2`` and two or more levels, a forked helper process shares
    each step (see ``_helper``), for the same net and report; a fork is safe
    only where this process runs one thread, as the CLI's does.
    """
    _check_int("epochs", epochs, 0)
    _check_int("batch_size", batch_size, 1)
    if type(jobs) is not int or jobs not in (1, 2):
        raise ValueError(f"jobs must be 1 or 2, got {_shown(jobs)}")
    x_train, t_train = _batch_arrays(train_samples)
    x_val, t_val = _batch_arrays(val_samples)
    for name, arr in (("train_samples", x_train), ("val_samples", x_val)):
        if arr.shape[1] != config.input_dim:
            raise ValueError(
                f"{name} features have dim {arr.shape[1]}, config expects {config.input_dim}"
            )

    net = init_net(config)
    n = x_train.shape[0]
    helper = None
    if jobs == 2 and config.hierarchy.depth > 1:
        from ._helper import Helper  # here: only a two-process run needs it

        helper = Helper(net, learning_rate, weights, min(batch_size, n))
        net, grad, optimizer = helper.net, helper.grad, helper.optimizer
    else:
        optimizer = AdamState.for_net(net, learning_rate)
        grad = TinyNet(config)

    start = time.perf_counter()
    epoch_total, epoch_regression, epoch_ce, val_reports = [], [], [], []
    try:
        for epoch in range(epochs):
            order = np.random.default_rng([config.seed, epoch]).permutation(n)
            total_sum = 0.0
            reg_sum = 0.0
            ce_sum = np.zeros(config.hierarchy.depth)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                # grad is a TinyNet: the step writes the gradient into ``grad.flat``'s views.
                stats, _ = _batch_loss_and_grads(
                    net, x_train[idx], t_train[idx], weights, grad, helper
                )
                adam_update(net.flat, grad.flat, optimizer)
                helper_found = len(_GUARDED) if helper is None else helper.updated()
                _assert_finite_params(net, optimizer, stats.total, helper_found)
                total_sum += stats.total * len(idx)
                reg_sum += stats.regression_term * len(idx)
                ce_sum += np.array(stats.ce_terms) * len(idx)
            epoch_total.append(total_sum / n)
            epoch_regression.append(reg_sum / n)
            epoch_ce.append(tuple((ce_sum / n).tolist()))
            val_reports.append(_evaluate(net, x_val, t_val))
    finally:
        if helper is not None:
            helper.close()
    if helper is not None:
        # A private copy: the shared mapping is freed, and no later fork shares the result.
        net = TinyNet(config, net.flat.copy())
    report = TrainReport(
        epoch_total=tuple(epoch_total),
        epoch_regression=tuple(epoch_regression),
        epoch_ce_terms=tuple(epoch_ce),
        val_reports=tuple(val_reports),
        wall_seconds=time.perf_counter() - start,
    )
    return net, report


def _stored_pairs(net: TinyNet) -> list:
    """The net's (weight, bias) views in the checkpoint's order, one group of
    pairs per stored list: the trunk's layers, then each angle's heads, finest first."""
    return [zip(net.trunk_weights, net.trunk_biases), *map(zip, net.head_weights, net.head_biases)]


def _checkpoint_chunks(net: TinyNet):
    """Serialize config, seed and all parameters to JSON, one array pair at a time.

    The pieces: the header (format, version, config), one per ``{"weight",
    "bias"}`` object with the separator before it, then the closing brackets.
    Floats round-trip exactly through their shortest decimal representation,
    so save followed by load reproduces every parameter bit for bit.
    """
    cfg = net.config
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {
            "input_dim": cfg.input_dim,
            "hidden_dims": list(cfg.hidden_dims),
            "seed": cfg.seed,
            "decode_convention": cfg.decode_convention,
            "hierarchy": {
                "min_angle": MIN_ANGLE,
                "max_angle": MAX_ANGLE,
                "bin_counts": [s.n_bins for s in cfg.hierarchy.levels],
            },
        },
    }
    dumps = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode
    yield dumps(header)[:-1] + ',"trunk":['
    for g, pairs in enumerate(_stored_pairs(net)):
        if g:
            yield '],"heads":[[' if g == 1 else "],["
        for i, (w, b) in enumerate(pairs):
            yield ("," if i else "") + dumps({"weight": w.tolist(), "bias": b.tolist()})
    yield "]]}\n"


def checkpoint_text(net: TinyNet) -> str:
    """The checkpoint as one JSON document: ``_checkpoint_chunks`` joined."""
    return "".join(_checkpoint_chunks(net))


def _check_keys(name: str, obj, keys: set[str]) -> None:
    """A checkpoint object must hold exactly ``keys``: any other is an error, not ignored."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed checkpoint: {name} must be an object, got {type(obj).__name__}")
    problems = [f"unexpected key {k!r}" for k in sorted(obj.keys() - keys)]
    problems += [f"missing key {k!r}" for k in sorted(keys - obj.keys())]
    if problems:
        raise ValueError(f"malformed checkpoint: {name}: {', '.join(problems)}")


def _only_numbers(value) -> bool:
    """Whether ``value`` is a JSON number, or a list of values that are."""
    if type(value) is not list:
        return type(value) in (int, float)
    if value and type(value[0]) is list:
        return all(map(_only_numbers, value))
    return set(map(type, value)) <= {int, float}


def _decode_arrays(pairs) -> dict:
    """``json.loads``' object hook: each value of a ``{"weight", "bias"}``
    object that is a rectangular array of JSON numbers becomes a float64
    array as soon as it is decoded, so the document never holds the net's
    parameters as Python floats.  Any other value is left as parsed, for
    ``_checked_array`` to report by name."""
    obj = dict(pairs)
    if obj.keys() == {"weight", "bias"}:
        for key in ("weight", "bias"):
            if _only_numbers(obj[key]):
                try:
                    obj[key] = np.array(obj[key], dtype=float)
                except (ValueError, OverflowError):  # ragged, or an int past a float's range
                    pass
    return obj


def _checked_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A checkpoint array as float64, which must have ``shape``: one that
    ``_decode_arrays`` made, or a value it left, which must still hold only
    JSON numbers (a string or a bool is an error) that a float can hold."""
    a = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if a.dtype == object and not set(map(type, a.ravel().tolist())) <= {int, float}:
        raise ValueError(f"{name} must hold JSON numbers")
    try:
        return a.astype(float, copy=False)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None


def load_checkpoint(path) -> TinyNet:
    """Rebuild a TinyNet from a checkpoint file."""
    try:
        doc = json.loads(
            Path(path).read_text(errors="surrogateescape"), object_pairs_hook=_decode_arrays
        )
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past 4,300 digits
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {version!r}; "
            f"retrain the net to write a version {CHECKPOINT_VERSION} checkpoint"
        )
    try:
        _check_keys("top level", doc, {"format", "version", "config", "trunk", "heads"})
        c = doc["config"]
        _check_keys("config", c, {
            "input_dim", "hidden_dims", "seed", "decode_convention", "hierarchy",
        })
        h = c["hierarchy"]
        _check_keys("config.hierarchy", h, {"min_angle", "max_angle", "bin_counts"})
        # The bin range is fixed; the file stores it to describe the net in full.
        for key, limit in (("min_angle", MIN_ANGLE), ("max_angle", MAX_ANGLE)):
            if h[key] != limit:
                raise ValueError(
                    f"config hierarchy.{key} must be a number equal to {limit}, "
                    f"got {json.dumps(h[key])}"
                )
        cfg = NetConfig(
            input_dim=c["input_dim"],
            hidden_dims=c["hidden_dims"],
            hierarchy=make_hierarchy(h["bin_counts"]),
            seed=c["seed"],
            decode_convention=c["decode_convention"],
        )
        trunk, heads = doc["trunk"], doc["heads"]
        depth = cfg.hierarchy.depth
        levels = [len(per_angle) for per_angle in heads]
        if len(trunk) != len(cfg.hidden_dims) or levels != [depth] * N_ANGLES:
            raise ValueError(
                f"expected {len(cfg.hidden_dims)} trunk layers and "
                f"{N_ANGLES} heads of {depth} levels"
            )
        # Every stored array is checked against the config before the net is
        # made, so a config too large to allocate fails naming an array.
        # A stored head is one angle's slice of its level's stacked arrays.
        shapes = _param_shapes(cfg)
        n = 2 * len(trunk)
        expected = iter(shapes[:n] + [s[1:] for s in shapes[n:]] * N_ANGLES)
        names = [f"trunk[{i}]" for i in range(len(trunk))]
        names += [f"heads[{a}][{level}]" for a in range(N_ANGLES) for level in range(depth)]
        arrays = []
        for name, stored in zip(names, [*trunk, *chain(*heads)]):
            _check_keys(name, stored, {"weight", "bias"})
            for key in ("weight", "bias"):
                arrays.append(_checked_array(f"{name}.{key}", stored[key], next(expected)))
        net = TinyNet(cfg)
        views = [v for pairs in _stored_pairs(net) for pair in pairs for v in pair]
        for view, a in zip(views, arrays):
            view[...] = a
        if not np.isfinite(net.flat).all():
            raise ValueError("parameters contain non-finite values")
        return net
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
