"""The stacked training step and decode against a per-head oracle, bit for bit.

The net runs each level's three angle heads as one stacked block.  The
oracle here runs the 3 x depth heads one at a time: a separate
``hidden @ w + b`` per head, a one-angle loss core and a per-head backward,
in the order the stacked code must keep.  Every comparison is ``==``: the
stacked code must give the same bits, not merely close values.
"""

from dataclasses import replace

import numpy as np
import pytest

from hybridpose.binning import MAX_ANGLE, MIN_ANGLE, _bin_index, decode_positions, make_hierarchy
from hybridpose.loss import LossWeights
from hybridpose.tinynet import NetConfig, TinyNet, _batch_loss_and_grads, init_net

TOY = NetConfig(input_dim=4, hidden_dims=(8,), hierarchy=make_hierarchy((6, 2)), seed=0)
CANONICAL = NetConfig(input_dim=24, hidden_dims=(64, 64), seed=3)


def oracle_angle_terms(logits, truth, weights, hierarchy, positions):
    """One angle's loss sums and (n, k) logit gradients, level by level."""
    n = truth.shape[0]
    rows = np.arange(n)
    finest = hierarchy.finest
    fine = _bin_index(truth, finest)
    reg_sum, ce_sums, grads = 0.0, [], []
    for li, (s, scheme) in enumerate(zip(logits, hierarchy.levels)):
        m = s.max(axis=1, keepdims=True)
        e = np.exp(s - m)
        z = e.sum(axis=1, keepdims=True)
        p = e / z
        tgt = fine * scheme.n_bins // finest.n_bins
        ce_sums.append(float((np.log(z[:, 0]) - (s[rows, tgt] - m[:, 0])).sum()))
        g = p.copy()
        g[rows, tgt] -= 1.0
        g *= weights.betas[li] / n
        if li == 0:
            decoded = p @ positions
            diff = decoded - truth
            reg_sum = float(diff @ diff)
            if weights.alpha != 0.0:
                coeff = (2.0 * weights.alpha / n) * diff
                g += coeff[:, None] * p * (positions[None, :] - decoded[:, None])
        grads.append(g)
    return reg_sum, ce_sums, grads


def oracle_step(net, x, targets, weights):
    """(total, regression, ce terms) and the gradient in ``flat``'s order, head by head."""
    hierarchy = net.config.hierarchy
    positions = decode_positions(hierarchy.finest, net.config.decode_convention)
    n = x.shape[0]
    pre_acts, acts = [], [x]
    for w, b in zip(net.trunk_weights, net.trunk_biases):
        pre_acts.append(acts[-1] @ w + b)
        acts.append(np.maximum(pre_acts[-1], 0.0))
    hidden = acts[-1]

    reg_sum, ce_sums = 0.0, np.zeros(hierarchy.depth)
    head_grads = {}
    d_hidden = np.zeros_like(hidden)
    for ai in range(3):
        biases = [b[ai] for _, b in net.head_blocks]
        logits = [hidden @ w + b for w, b in zip(net.head_weights[ai], biases)]
        reg, ce, grads = oracle_angle_terms(logits, targets[:, ai], weights, hierarchy, positions)
        reg_sum += reg
        ce_sums += ce
        for li, (g, w) in enumerate(zip(grads, net.head_weights[ai])):
            head_grads[ai, li] = (hidden.T @ g, g.sum(axis=0))
            d_hidden += g @ w.T

    trunk_grads = []
    d = d_hidden
    for i in reversed(range(len(net.trunk_weights))):
        dz = d * (pre_acts[i] > 0.0)
        trunk_grads[:0] = [acts[i].T @ dz, dz.sum(axis=0)]
        if i > 0:
            d = dz @ net.trunk_weights[i].T
    grads = trunk_grads + [
        head_grads[ai, li][part]
        for li in range(hierarchy.depth)
        for part in (0, 1)
        for ai in range(3)
    ]
    total = (weights.alpha * reg_sum + float(np.dot(weights.betas, ce_sums))) / n
    flat = np.concatenate([g.ravel() for g in grads])
    return (total, reg_sum / n, tuple((ce_sums / n).tolist())), flat


def oracle_predict(net, x):
    """Decoded (n, 3) angles from the finest heads, one angle at a time."""
    positions = decode_positions(net.config.hierarchy.finest, net.config.decode_convention)
    a = x
    for w, b in zip(net.trunk_weights, net.trunk_biases):
        a = np.maximum(a @ w + b, 0.0)
    cols = []
    w, b = net.head_blocks[0]
    for ai in range(3):
        s = a @ w[ai] + b[ai]
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=1, keepdims=True)
        cols.append(s @ positions)
    return np.stack(cols, axis=1)


def perturbed_net(config, seed):
    """An initialized net with every parameter, biases included, moved off its init."""
    net = init_net(config)
    net.flat += np.random.default_rng(seed).normal(scale=0.1, size=net.flat.size)
    return net


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("convention", ["center", "edge"])
@pytest.mark.parametrize("n", [1, 8, 13, 64])
@pytest.mark.parametrize("config", [TOY, CANONICAL], ids=["toy", "canonical"])
def test_stacked_step_and_decode_match_per_head_oracle(config, n, convention, alpha):
    net = perturbed_net(replace(config, decode_convention=convention), seed=n)
    rng = np.random.default_rng(100 + n)
    x = rng.normal(size=(n, config.input_dim))
    targets = rng.uniform(MIN_ANGLE, MAX_ANGLE, size=(n, 3))
    betas = np.linspace(3.0, 0.5, config.hierarchy.depth)
    weights = LossWeights(alpha, tuple(betas))

    grads = TinyNet(net.config)
    stats = _batch_loss_and_grads(net, x, targets, weights, grads)
    (total, regression, ce_terms), expected = oracle_step(net, x, targets, weights)
    assert (stats.total, stats.regression_term, stats.ce_terms) == (total, regression, ce_terms)
    assert grads.flat.shape == expected.shape and (grads.flat == expected).all()

    assert (net.predict_batch(x) == oracle_predict(net, x)).all()


def test_each_level_is_one_weight_block_and_one_bias_block_of_flat():
    net = init_net(CANONICAL)
    offset = sum(p.size for p in [*net.trunk_weights, *net.trunk_biases])
    for level, (w, b) in enumerate(net.head_blocks):
        k = net.config.hierarchy.levels[level].n_bins
        assert w.shape == (3, 64, k) and b.shape == (3, k)
        assert np.shares_memory(w, net.flat[offset : offset + w.size])
        offset += w.size
        assert np.shares_memory(b, net.flat[offset : offset + b.size])
        offset += b.size
        for a in range(3):
            head = net.head_weights[a][level]
            assert head.shape == (64, k)
            assert np.shares_memory(head, w[a]) and not np.shares_memory(head, w[a - 1])
    assert offset == net.flat.size
