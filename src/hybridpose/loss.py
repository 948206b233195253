"""Combined regression/classification loss for one angle.

For a single angle the model emits one logit vector per hierarchy level.
The finest level is softmaxed and expectation-decoded into an angle, which
feeds a squared-error term against the truth; every level additionally pays
cross-entropy against its encoded truth bin.  With regression weight alpha
and per-level classification weights beta:

    total = alpha * (decoded - truth)^2 + sum_i beta_i * ce_i

with the squared error measured in degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binning import BinHierarchy, _bin_index, _check_real, decode_positions, encode, encode_all

__all__ = [
    "LossWeights",
    "DEFAULT_WEIGHTS",
    "FINE_ONLY_WEIGHTS",
    "hybrid_loss",
    "hybrid_loss_grad",
]

@dataclass(frozen=True)
class LossWeights:
    """Nonnegative weights: one for regression, one per hierarchy level."""

    alpha: float = 2.0
    betas: tuple[float, ...] = (7.0, 5.0, 3.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha))
        if not isinstance(self.betas, (list, tuple)):
            raise ValueError(f"betas must be a list or tuple, got {self.betas!r}")
        betas = tuple(_check_real(f"betas[{i}]", b) for i, b in enumerate(self.betas))
        object.__setattr__(self, "betas", betas)


DEFAULT_WEIGHTS = LossWeights()
FINE_ONLY_WEIGHTS = LossWeights(2.0, (1.0, 0.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class LossBreakdown:
    """Loss value split into its unweighted terms for one angle."""

    total: float
    regression_term: float
    ce_terms: tuple[float, ...]
    decoded_angle: float


def _softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a finite float vector."""
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _softmax_inplace(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite ``s`` with its softmax over the last axis; return the max it
    shifted by and the sum it divided by, both with the last axis kept."""
    m = s.max(axis=-1, keepdims=True)
    s -= m
    np.exp(s, out=s)
    z = s.sum(axis=-1, keepdims=True)
    s /= z
    return m, z


def _cross_entropy(z: np.ndarray, target: int) -> float:
    """Negative log softmax probability of the in-range ``target`` index of a
    checked float vector of logits."""
    m = z.max()
    return float(np.log(np.exp(z - m).sum()) - (z[target] - m))


def _check_heads(heads: Sequence, hierarchy: BinHierarchy) -> list[np.ndarray]:
    if len(heads) != hierarchy.depth:
        raise ValueError(
            f"expected {hierarchy.depth} logit vectors (one per level), got {len(heads)}"
        )
    out = []
    for scheme, logits in zip(hierarchy.levels, heads):
        z = np.asarray(logits, dtype=float)
        if z.ndim != 1 or z.shape[0] != scheme.n_bins:
            raise ValueError(f"level with {scheme.n_bins} bins got logits of shape {z.shape}")
        out.append(z)
    if not np.isfinite(np.concatenate(out)).all():
        raise ValueError("logits contain non-finite entries")
    return out


def _check_loss_args(weights: LossWeights, hierarchy: BinHierarchy) -> None:
    if len(weights.betas) != hierarchy.depth:
        raise ValueError(
            f"{len(weights.betas)} betas for a hierarchy of depth {hierarchy.depth}"
        )


def hybrid_loss(
    heads: Sequence,
    truth: float,
    weights: LossWeights,
    hierarchy: BinHierarchy,
    convention: str = "center",
) -> LossBreakdown:
    """Loss for one angle given per-level logits and the true angle in degrees.

    The one-row oracle that the batched ``_angle_terms`` is tested against.
    Its inputs are checked once here, so it runs the unchecked softmax and
    cross-entropy; the targets ``encode_all`` returns are in range.
    """
    _check_loss_args(weights, hierarchy)
    logits = _check_heads(heads, hierarchy)
    targets = encode_all(truth, hierarchy)

    finest = hierarchy.finest
    probs = _softmax(logits[0])
    decoded = float(probs @ decode_positions(finest, convention))
    diff = decoded - float(truth)
    regression = diff * diff

    ce_terms = tuple(_cross_entropy(z, t) for z, t in zip(logits, targets))
    total = weights.alpha * regression + float(np.dot(weights.betas, ce_terms))
    return LossBreakdown(total, regression, ce_terms, decoded)


def _angle_terms(
    logits: Sequence[np.ndarray],
    truth: np.ndarray,
    weights: LossWeights,
    hierarchy: BinHierarchy,
    positions: np.ndarray,
    levels: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Hybrid loss terms of ``a`` angles over a batch, and their logit gradients.

    ``logits`` holds one (a, n, n_bins) array per level of ``levels`` (by
    default every level), finest first, and ``truth`` the (a, n) true
    angles, already range-checked.  Returns, per angle, the batch sum of the
    squared-error term (zero unless ``levels`` holds the finest level) and
    the batch sum of each level's cross-entropy, shapes (a,) and
    (a, len(levels)), and the ``logits`` list, each array overwritten with
    the gradient of the batch-mean weighted loss with respect to it.  Each
    level's terms depend on its own logits only, so any split of the levels
    gives every level the same bits.  Labels are floored once at the finest
    level; each coarser label is the fine one coarsened by integer division.

    Per level the cross-entropy contributes beta * (softmax - onehot).  The
    finest level additionally receives the squared-error term through the
    expectation decode: with p = softmax(z) and positions c,

        d decoded / dz_k = p_k * (c_k - decoded)

    so the regression part adds 2 * alpha * (decoded - truth) * p * (c - decoded).
    The softmax and the gradient are in-place passes over the logits, in
    the order of those expressions, so each angle's result has the bits of
    a separate one-angle computation.
    """
    a, n = truth.shape
    angles, rows = np.arange(a)[:, None], np.arange(n)
    finest = hierarchy.finest
    fine = _bin_index(truth, finest)
    levels = range(hierarchy.depth) if levels is None else levels
    reg_sums = np.zeros(a)
    ce_sums = np.zeros((a, len(levels)))
    for col, (li, s) in enumerate(zip(levels, logits)):
        scheme = hierarchy.levels[li]
        # s becomes p = softmax(s), then the gradient.  The label's shifted
        # logit raw - m has the bits of (s - m)[label].
        label = (angles, rows, fine * scheme.n_bins // finest.n_bins)
        raw = s[label]
        m, z = _softmax_inplace(s)
        ce_sums[:, col] = (np.log(z[..., 0]) - (raw - m[..., 0])).sum(axis=1)

        reg_grad = None
        if li == 0:
            decoded = s @ positions
            diff = decoded - truth
            # One dot product per angle, as a stacked (1, n) @ (n, 1) matmul.
            reg_sums = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
            if weights.alpha != 0.0:
                coeff = (2.0 * weights.alpha / n) * diff
                reg_grad = coeff[..., None] * s
                reg_grad *= positions - decoded[..., None]
        s[label] -= 1.0
        s *= weights.betas[li] / n
        if reg_grad is not None:
            s += reg_grad
    return reg_sums, ce_sums, logits


def hybrid_loss_grad(
    heads: Sequence,
    truth: float,
    weights: LossWeights,
    hierarchy: BinHierarchy,
    convention: str = "center",
) -> list[np.ndarray]:
    """Gradient of ``hybrid_loss(...).total`` with respect to each logit vector.

    The one-row case of the batched core that training runs.
    """
    _check_loss_args(weights, hierarchy)
    logits = _check_heads(heads, hierarchy)
    encode(truth, hierarchy.finest)  # the truth must be finite and in range
    positions = decode_positions(hierarchy.finest, convention)
    _, _, grads = _angle_terms(
        [z[None, None].copy() for z in logits], np.array([[float(truth)]]), weights, hierarchy,
        positions,
    )
    return [g[0, 0] for g in grads]
