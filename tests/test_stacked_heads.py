"""Each level's three angle heads as one stacked block: the step and decode
on two fixed nets against ``test_config_space``'s per-head oracle, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from hybridpose.binning import MAX_ANGLE, MIN_ANGLE, make_hierarchy
from hybridpose.loss import LossWeights
from hybridpose.tinynet import NetConfig, init_net

from test_config_space import CANONICAL, check_step_against_oracle

TOY = NetConfig(input_dim=4, hidden_dims=(8,), hierarchy=make_hierarchy((6, 2)), seed=0)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("convention", ["center", "edge"])
@pytest.mark.parametrize("n", [1, 8, 13, 64])
@pytest.mark.parametrize("config", [TOY, CANONICAL], ids=["toy", "canonical"])
def test_stacked_step_and_decode_match_per_head_oracle(config, n, convention, alpha):
    net = init_net(replace(config, decode_convention=convention))
    net.flat += np.random.default_rng(n).normal(scale=0.1, size=net.flat.size)
    rng = np.random.default_rng(100 + n)
    x = rng.normal(size=(n, config.input_dim))
    targets = rng.uniform(MIN_ANGLE, MAX_ANGLE, size=(n, 3))
    betas = np.linspace(3.0, 0.5, config.hierarchy.depth)
    check_step_against_oracle(net, x, targets, LossWeights(alpha, tuple(betas)))


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
