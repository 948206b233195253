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
is a view of one head's weight in those blocks.  The training step's
gradient is itself a TinyNet of the same config, so ``TinyNet.__init__``
alone lays out parameters and gradients alike.

The config also fixes the net's decode convention, the bin positions its
expectation decode integrates over; training and prediction both read it
from there, and the checkpoint stores it.  The checkpoint holds the config as
JSON and ``flat`` as one base64 string of its little-endian float64 bytes,
exact to the bit.  It is written a slice of ``flat`` at a time, so its whole
text need never exist at once.

Training is deterministic given the config seed: initialization draws from
one seeded generator, and each epoch's shuffle is reseeded from the master
seed and the epoch index.

With ``jobs=2``, ``train`` shares each step with a forked helper process,
for the same bits (see ``_helper``).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import re
import time
from dataclasses import dataclass, field
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
    _cut,
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
CHECKPOINT_VERSION = 3
# Bytes of ``flat`` per base64 piece of a checkpoint.  A multiple of 3, so
# the pieces' encodings join to exactly the encoding of the whole.
CHECKPOINT_PIECE_BYTES = 3 << 16
# What ``base64.b64decode(..., validate=True)`` accepts on Python 3.10.
_BASE64 = re.compile(r"[A-Za-z0-9+/]*={0,2}")

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
    """Architecture, the master seed for init and shuffling, and the decode convention.

    ``hidden_dims`` may be empty: a net with no hidden layer has heads that read the features.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    hierarchy: BinHierarchy = field(default_factory=make_hierarchy)
    seed: int = 0
    decode_convention: str = "center"

    def __post_init__(self) -> None:
        _check_int("input_dim", self.input_dim, 1)
        if not isinstance(self.hidden_dims, (list, tuple)):
            raise ValueError(f"hidden_dims must be a list or tuple, got {_shown(self.hidden_dims)}")
        for i, d in enumerate(self.hidden_dims):
            _check_int(f"hidden_dims[{i}]", d, 1)
        if not isinstance(self.hierarchy, BinHierarchy):
            raise ValueError(f"hierarchy must be a BinHierarchy, got {self.hierarchy!r}")
        _check_int("seed", self.seed, 0)
        if self.decode_convention not in DECODE_CONVENTIONS:
            raise ValueError(
                f"unknown decode convention {_shown(self.decode_convention)} "
                f"(choose from {', '.join(map(repr, DECODE_CONVENTIONS))})"
            )
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


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
        self.head_weights = [[w[a] for w, _ in self.head_blocks] for a in range(N_ANGLES)]

    def _forward_batch(self, x: np.ndarray):
        """Trunk pre-activations and activations for a batch; ``acts[-1]`` is the hidden layer."""
        pre_acts = []
        acts = [x]
        a = x
        for w, b in zip(self.trunk_weights, self.trunk_biases):
            z = a @ w
            z += b
            a = np.maximum(z, 0.0)
            pre_acts.append(z)
            acts.append(a)
        return pre_acts, acts

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
        # are made.  One angle at a time, in one (n, k) logit array, each with the
        # stacked form's matmul, in-place softmax and decode: the same bits.
        a = self._forward_batch(x)[1][-1]
        (w, b), out = self.head_blocks[0], np.empty((x.shape[0], N_ANGLES))
        s = np.empty((x.shape[0], w.shape[2]))
        for i in range(N_ANGLES):
            np.matmul(a, w[i], out=s)
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

    ``m`` and ``v`` hold Kingma and Ba's moments divided by ``1 - b1`` and
    ``1 - b2``: ``m = b1 * m + g`` and ``v = b2 * v + g * g``.  ``for_net``
    makes an ``m`` and a ``v`` of ``net.flat``'s size, so a training step
    updates the whole net as the single array ``net.flat``; an update
    changes its ``part`` slice only.
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

    With the textbook moments ``(1 - b1) * m`` and ``(1 - b2) * v`` and the
    bias corrections ``c1 = 1 - b1**t`` and ``c2 = 1 - b2**t``, Kingma and
    Ba's ``p -= lr * (m_hat / c1) / (sqrt(v_hat / c2) + eps)`` is, in exact
    arithmetic, ``p -= lr' * m / (sqrt(v) + eps')`` with
    ``k = sqrt((1 - b2) / c2)``, ``lr' = lr * (1 - b1) / (c1 * k)`` and
    ``eps' = eps / k`` (arXiv 1412.6980, section 2).  So the corrections
    fold into two scalars, and the step is ten in-place passes over ``m``,
    ``v``, ``p`` and two scratch arrays kept in ``state``, with one square
    root and one divide per element; ``g`` is left as it is.  It is
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
    k = math.sqrt((1.0 - b2) / (1.0 - b2 ** state.step))
    rate = state.learning_rate * (1.0 - b1) / ((1.0 - b1 ** state.step) * k)
    m *= b1
    m += g
    np.multiply(g, g, out=s1)
    v *= b2
    v += s1
    np.sqrt(v, out=s2)
    s2 += ADAM_EPSILON / k
    np.multiply(m, rate, out=s1)
    s1 /= s2
    p -= s1


@dataclass(frozen=True)
class LossStats:
    """Batch means of the loss and its unweighted terms, summed over angles; nan if not run."""

    total: float
    regression_term: float
    ce_terms: tuple[float, ...]


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch training means and validation errors; nan: a level not trained."""

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


def _trained_levels(weights: LossWeights) -> list[int]:
    """The levels a training step runs: the finest, which also carries the
    regression term, and each coarse level of nonzero beta.

    A coarse level of beta 0 would get a logit gradient of exactly +-0, so
    leaving it out changes no parameter bit.  The hidden layer's gradient is
    a sum that starts at +0, so no partial sum is -0, and adding +-0 to it
    changes nothing.  A gradient of +-0 from the first step keeps Adam's
    moments at +0 and the level's parameters as they are.  Skipping it hides
    no divergence either: an untrained head's cross-entropy is non-finite
    only when the hidden layer is, and then the finest level's is too.
    """
    return [li for li, beta in enumerate(weights.betas) if li == 0 or beta != 0.0]


def _trained_end(net: TinyNet, weights: LossWeights) -> int:
    """Where the last trained level's blocks end in ``flat``: Adam and the
    finiteness guard stop there, since no parameter after it ever changes."""
    last = _trained_levels(weights)[-1]
    return net.flat.size - sum(w.size + b.size for w, b in net.head_blocks[last + 1 :])


def _level_terms(net, grads, hidden, truth, weights, levels, d_out=None):
    """A training step's work on the trained head levels ``levels``, given the
    hidden layer and (3, n) true angles: forward, and their weight and bias
    gradients into ``grads``.  Returns ``_angle_terms``' sums and each level's
    (3, n, hidden) gradient into the hidden layer (into ``d_out``'s arrays if
    given); the levels left out keep their gradient blocks as they are."""
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
    grads: TinyNet,
    helper=None,
) -> LossStats:
    """Mean loss over the batch; its gradient goes into ``grads``.

    The loss per sample is the three-angle sum of the per-angle hybrid loss;
    stats and gradients are means over the batch.  ``loss._angle_terms`` gives
    each angle's loss terms and logit gradients; this runs the forward pass
    and backpropagates those gradients through the heads and the trunk, one
    stacked block of three heads per level, into the views of ``grads``, a
    TinyNet of ``net``'s config.  A ``_helper.Helper`` runs the trained coarse
    levels.  ``weights`` must hold one beta per level: ``train`` checks that
    once.  Only the levels of ``_trained_levels`` run: the others' gradient
    blocks keep what they held (zeros, in training); their ce means are nan.
    """
    hierarchy = net.config.hierarchy
    n, trained = x.shape[0], _trained_levels(weights)

    pre_acts, acts = net._forward_batch(x)
    hidden = acts[-1]
    if helper is not None:
        helper.start(hidden, targets)
    levels = trained if helper is None else trained[:1]
    reg, ce, d_heads = _level_terms(net, grads, hidden, targets.T, weights, levels)
    if helper is not None:
        helper_ce, helper_d_heads = helper.terms()
        ce = np.concatenate([ce, helper_ce], axis=1)
        d_heads += helper_d_heads

    reg_sum = 0.0
    ce_sums = np.zeros(len(trained))
    for reg_angle, ce_angle in zip(reg.tolist(), ce):
        reg_sum += reg_angle
        ce_sums += ce_angle
    # A skipped level's sum stays +0: 0 * 0 adds to the total the +0 that 0 * ce did.
    all_sums, ce_means = np.zeros(hierarchy.depth), np.full(hierarchy.depth, math.nan)
    all_sums[trained], ce_means[trained] = ce_sums, ce_sums / n

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

    return LossStats(
        total=(weights.alpha * reg_sum + float(np.dot(weights.betas, all_sums))) / n,
        regression_term=reg_sum / n,
        ce_terms=tuple(ce_means.tolist()),
    )


def _batch_arrays(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """A dataset's features and targets; the targets must lie in the bin range."""
    _check_in_range(data.angles)
    return data.features, data.angles


# What the finiteness guard checks, in its order.
_GUARDED = ("loss", "parameters", "Adam second moment")


def _first_nonfinite(loss: float, optimizer: AdamState, flat: np.ndarray) -> int:
    """The index in _GUARDED of the first of the loss, the optimizer's part of
    ``flat`` and its part of the second moment that is not finite, else len(_GUARDED).

    NaN propagates through ``max`` and ``min``, and ``v`` is never negative, so
    three reductions tell, with no boolean temporary; ``initial`` lets a part be empty.
    """
    flat, v = flat[optimizer.part], optimizer.v[optimizer.part]
    return [
        math.isfinite(loss),
        math.isfinite(flat.max(initial=0.0)) and math.isfinite(flat.min(initial=0.0)),
        math.isfinite(v.max(initial=0.0)),
        False,
    ].index(False)


def _assert_finite_params(
    net: TinyNet, optimizer: AdamState, loss: float, helper_found: int = len(_GUARDED)
) -> None:
    """Raise FloatingPointError if the step's loss, parameters or moments are not finite.

    This process checks its optimizer's part; ``helper_found`` is
    ``_first_nonfinite`` of a helper's part, and the first of the two is what
    a check of the whole would find.  ``m``, the first moment over
    ``1 - b1``, is at most ``1 / (1 - b1)`` = 10 times the largest gradient,
    so ``g * g`` overflows the second moment ``v`` long before ``m`` can
    overflow; a non-finite gradient reaches ``net.flat`` or ``v``, where an
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
    only where this process runs one thread, as the CLI's does.  Adam and the
    finiteness guard cover ``flat`` up to the end of the last trained level
    (``_trained_levels``): the coarse levels after it keep their initial bits.
    """
    _check_int("epochs", epochs, 0)
    _check_int("batch_size", batch_size, 1)
    if type(jobs) is not int or jobs not in (1, 2):
        raise ValueError(f"jobs must be 1 or 2, got {_shown(jobs)}")
    _check_loss_args(weights, config.hierarchy)
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
        optimizer.part = slice(_trained_end(net, weights))
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
                x, t = x_train[idx], t_train[idx]
                stats = _batch_loss_and_grads(net, x, t, weights, grad, helper)
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


def _checkpoint_chunks(net: TinyNet):
    """Serialize config, seed and all parameters to JSON, a piece at a time.

    The pieces: the header (format, version, config) up to the opening quote
    of ``flat``, the base64 of each ``CHECKPOINT_PIECE_BYTES`` of ``flat``'s
    little-endian float64 bytes, then the closing quote and brace.  Save
    followed by load reproduces every parameter bit for bit.
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
    yield json.dumps(header, separators=(",", ":"))[:-1] + ',"flat":"'
    raw = memoryview(net.flat.astype("<f8", copy=False)).cast("B")
    for lo in range(0, len(raw), CHECKPOINT_PIECE_BYTES):
        yield base64.b64encode(raw[lo : lo + CHECKPOINT_PIECE_BYTES]).decode("ascii")
    yield '"}\n'


def checkpoint_text(net: TinyNet) -> str:
    """The checkpoint as one JSON document: ``_checkpoint_chunks`` joined."""
    return "".join(_checkpoint_chunks(net))


def _check_keys(name: str, obj, keys: set[str]) -> None:
    """A checkpoint object must hold exactly ``keys``: any other is an error, not ignored."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed checkpoint: {name} must be an object, got {type(obj).__name__}")
    problems = [f"unexpected key {_shown(k)}" for k in sorted(obj.keys() - keys)]
    problems += [f"missing key {k!r}" for k in sorted(keys - obj.keys())]
    if problems:
        raise ValueError(f"malformed checkpoint: {name}: {', '.join(problems)}")


def load_checkpoint(path) -> TinyNet:
    """Rebuild a TinyNet from a checkpoint file."""
    try:
        doc = json.loads(Path(path).read_text(errors="surrogateescape"))
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past 4,300 digits
        raise ValueError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {_shown(version)}; "
            f"retrain the net to write a version {CHECKPOINT_VERSION} checkpoint"
        )
    try:
        _check_keys("top level", doc, {"format", "version", "config", "flat"})
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
                    f"got {_cut(json.dumps(h[key]))}"
                )
        cfg = NetConfig(
            input_dim=c["input_dim"],
            hidden_dims=c["hidden_dims"],
            hierarchy=make_hierarchy(h["bin_counts"]),
            seed=c["seed"],
            decode_convention=c["decode_convention"],
        )
        flat = doc["flat"]
        if not isinstance(flat, str):
            raise ValueError(f"flat must be a base64 string, got {type(flat).__name__}")
        # base64.b64decode(flat, validate=True), without its ASCII copy of flat
        if not _BASE64.fullmatch(flat):
            raise ValueError("flat is not valid base64: Only base64 data is allowed")
        try:
            raw = binascii.a2b_base64(flat)
        except binascii.Error as exc:
            raise ValueError(f"flat is not valid base64: {exc}") from None
        # Checked against the config before the net is made, so a config too
        # large to allocate fails here.
        size = 8 * sum(math.prod(shape) for shape in _param_shapes(cfg))
        if len(raw) != size:
            raise ValueError(f"flat holds {len(raw)} bytes, the config's parameters take {size}")
        net = TinyNet(cfg, np.frombuffer(raw, "<f8").astype(float))
        if not np.isfinite(net.flat).all():
            raise ValueError("parameters contain non-finite values")
        return net
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {_shown(exc)}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
