"""Shared numeric test utilities."""

from __future__ import annotations

import numpy as np


def fd_gradient(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up.flat[i] += step
        dn.flat[i] -= step
        grad.flat[i] = (f(up) - f(dn)) / (2.0 * step)
    return grad


def relative_error(approx, exact) -> float:
    """Norm of the difference over the norm of the exact value."""
    a = np.asarray(approx, dtype=float).ravel()
    b = np.asarray(exact, dtype=float).ravel()
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def row_logits(net, features) -> list[list[np.ndarray]]:
    """One feature vector's head logits, per angle, each angle's levels finest first.

    The row runs as a one-row batch through the trunk (``_forward_batch``) and
    every level's heads (``_head_logits``).
    """
    hidden = net._forward_batch(np.asarray(features, dtype=float)[None, :])[1][-1]
    logits = net._head_logits(hidden, range(len(net.head_blocks)))
    return [[level[a, 0] for level in logits] for a in range(len(logits[0]))]
