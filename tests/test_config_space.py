"""One derandomized property test over the configs that ``tinynet.train`` accepts.

Each example draws a net, loss weights (zeros allowed), data, a batch size
and an epoch count, and checks: a step and the decode against a per-head
oracle, bit for bit; ``train`` at one and two processes, and with every
level run, for the same bits; the checkpoint and the loaded net's val MAE;
and the gradient against central differences.  The oracle runs each head
alone (its own ``hidden @ w + b``, loss core and backward) in the order the
stacked code must keep.
"""

import base64
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridpose import tinynet
from hybridpose.angles import mae
from hybridpose.binning import DECODE_CONVENTIONS, MAX_ANGLE, MIN_ANGLE, _bin_index
from hybridpose.binning import decode_positions, make_hierarchy
from hybridpose.loss import LossWeights, hybrid_loss
from hybridpose.synth import Dataset
from hybridpose.tinynet import NetConfig, TinyNet, _batch_loss_and_grads, _checkpoint_chunks
from hybridpose.tinynet import _param_shapes, checkpoint_text, init_net, load_checkpoint, train

from helpers import fd_gradient, relative_error, row_logits

CANONICAL = NetConfig(input_dim=24, hidden_dims=(64, 64), seed=3)

# The central-difference check runs the scalar loss twice per parameter
# checked, row by row: on the first FD_ROWS rows (the fewest drawn), at
# FD_PER_BLOCK drawn parameters of each block of ``flat`` (all of a smaller one).
FD_ROWS = 5
FD_PER_BLOCK = 2


def oracle_angle_terms(logits, truth, weights, hierarchy, positions):
    """One angle's loss sums, (n, k) logit gradients, level by level, and decode."""
    n, finest = truth.shape[0], hierarchy.finest
    rows, fine = np.arange(n), _bin_index(truth, finest)
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
    return reg_sum, ce_sums, grads, decoded


def oracle_step(net, x, targets, weights):
    """(total, regression, ce terms), the gradient in ``flat``'s order, head
    by head, and the (n, 3) decoded angles."""
    hierarchy = net.config.hierarchy
    positions = decode_positions(hierarchy.finest, net.config.decode_convention)
    n = x.shape[0]
    pre_acts, acts = [], [x]
    for w, b in zip(net.trunk_weights, net.trunk_biases):
        pre_acts.append(acts[-1] @ w + b)
        acts.append(np.maximum(pre_acts[-1], 0.0))
    hidden = acts[-1]

    reg_sum, ce_sums = 0.0, np.zeros(hierarchy.depth)
    head_grads, decoded = {}, []
    d_hidden = np.zeros_like(hidden)
    for ai in range(3):
        biases = [b[ai] for _, b in net.head_blocks]
        logits = [hidden @ w + b for w, b in zip(net.head_weights[ai], biases)]
        reg, ce, grads, angle = oracle_angle_terms(
            logits, targets[:, ai], weights, hierarchy, positions
        )
        decoded.append(angle)
        reg_sum += reg
        ce_sums += ce
        for li, (g, w) in enumerate(zip(grads, net.head_weights[ai])):
            head_grads[ai, li] = (hidden.T @ g, g.sum(axis=0))
            d_hidden += g @ w.T

    trunk_grads, d = [], d_hidden
    for i in reversed(range(len(net.trunk_weights))):
        dz = d * (pre_acts[i] > 0.0)
        trunk_grads[:0] = [acts[i].T @ dz, dz.sum(axis=0)]
        if i > 0:
            d = dz @ net.trunk_weights[i].T
    levels = range(hierarchy.depth)
    grads = trunk_grads + [head_grads[ai, li][part] for li in levels for part in (0, 1)
                           for ai in range(3)]
    total = (weights.alpha * reg_sum + float(np.dot(weights.betas, ce_sums))) / n
    flat = np.concatenate([g.ravel() for g in grads])
    return (total, reg_sum / n, tuple((ce_sums / n).tolist())), flat, np.stack(decoded, axis=1)


def whole_checkpoint_text(net):
    """The checkpoint as one document, built whole and serialized in one call."""
    cfg = net.config
    counts = [s.n_bins for s in cfg.hierarchy.levels]
    config = {"input_dim": cfg.input_dim, "hidden_dims": list(cfg.hidden_dims), "seed": cfg.seed,
              "decode_convention": cfg.decode_convention,
              "hierarchy": {"min_angle": -99.0, "max_angle": 99.0, "bin_counts": counts}}
    flat = base64.b64encode(net.flat.astype("<f8").tobytes()).decode("ascii")
    doc = {"format": "hybridpose-checkpoint", "version": 3, "config": config, "flat": flat}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def kink_margin(net, x):
    """How near to its ReLU kink the batch brings the nearest trunk pre-activation."""
    return min((np.abs(z).min() for z in net._forward_batch(x)[0]), default=math.inf)


def check_gradient_by_finite_differences(net, weights, x, targets, coords):
    """The step's loss and its gradient in a fresh gradient net against the
    scalar loss over rows and its central differences at the elements
    ``coords`` of ``net.flat``, which it restores."""
    hierarchy, convention = net.config.hierarchy, net.config.decode_convention
    # keep every ReLU pre-activation away from its kink by more than the
    # largest pre-activation shift an FD step of 1e-4 can cause
    assert kink_margin(net, x) > 1e-3

    grads = TinyNet(net.config)
    stats = _batch_loss_and_grads(net, x, targets, weights, grads)
    base = net.flat.copy()

    def scalar_loss(values):
        net.flat[coords] = values
        total = 0.0
        for feats, truths in zip(x, targets):
            for heads, truth in zip(row_logits(net, feats), truths):
                total += hybrid_loss(heads, truth, weights, hierarchy, convention).total
        net.flat[...] = base
        return total / len(x)

    # The row-by-row and batched sums of the loss may differ by a few ulps
    # (up to 5 over 900 random nets of up to 40 rows).
    assert abs(scalar_loss(base[coords]) - stats.total) <= 8 * np.spacing(stats.total)
    numeric = fd_gradient(scalar_loss, base[coords], step=1e-4)
    assert relative_error(grads.flat[coords], numeric) < 1e-4


def check_step_against_oracle(net, x, targets, weights):
    """One step and the decode against the per-head oracle: equal on the
    trained levels; a skipped level's gradient is +0.0 and its ce mean nan."""
    grads = TinyNet(net.config)
    stats = _batch_loss_and_grads(net, x, targets, weights, grads)
    (total, regression, ce_terms), flat, decoded = oracle_step(net, x, targets, weights)
    expected = TinyNet(net.config, flat)
    assert (stats.total, stats.regression_term) == (total, regression)
    for level, beta in enumerate(weights.betas):
        if level > 0 and beta == 0.0:
            assert math.isnan(stats.ce_terms[level])
            for g, oracle in zip(grads.head_blocks[level], expected.head_blocks[level]):
                assert g.tobytes() == bytes(g.nbytes)  # +0.0 throughout
                oracle[...] = 0.0
        else:
            assert stats.ce_terms[level] == ce_terms[level]
    assert (grads.flat == expected.flat).all()
    assert (net.predict_batch(x) == decoded).all()


def check_train(config, train_samples, val_samples, weights, epochs, batch_size):
    """``train`` at one and at two processes, and with every level run, for
    the same bits; returns the one-process run."""
    def run(jobs=1):
        return train(config, train_samples, val_samples, weights, epochs=epochs,
                     batch_size=batch_size, jobs=jobs)

    forks, fork, depth = [], os.fork, config.hierarchy.depth
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        (net, report), (net_2, report_2) = run(1), run(2)
        patch.setattr(tinynet, "_trained_levels", lambda weights: [*range(depth)])
        every_net, every_report = run()
    # A one-level net has no coarse level for a helper to run.
    assert len(forks) == (depth > 1)
    with pytest.raises(ChildProcessError):  # the helper was reaped
        os.waitpid(-1, os.WNOHANG)
    assert net.flat.tobytes() == net_2.flat.tobytes() == every_net.flat.tobytes()
    # By repr, which shows a skipped level's nan cross-entropy, and nan != nan.
    assert repr(replace(report, wall_seconds=0.0)) == repr(replace(report_2, wall_seconds=0.0))

    # Run every level, and the report differs only in the skipped levels' ce,
    # which the skipping run leaves nan; their heads keep their initial bits.
    skipped = [level > 0 and beta == 0.0 for level, beta in enumerate(weights.betas)]
    for ce, every_ce in zip(report.epoch_ce_terms, every_report.epoch_ce_terms):
        for skip, cell, every_cell in zip(skipped, ce, every_ce):
            assert (math.isnan(cell) and math.isfinite(every_cell)) if skip else cell == every_cell
    untimed = dict(wall_seconds=0.0, epoch_ce_terms=())
    assert repr(replace(report, **untimed)) == repr(replace(every_report, **untimed))
    fresh = init_net(config)
    for level in np.flatnonzero(skipped):
        for trained, initial in zip(net.head_blocks[level], fresh.head_blocks[level]):
            assert trained.tobytes() == initial.tobytes()
    return net, report


def check_checkpoint(net, report, val_samples, path):
    """The streamed checkpoint is the whole document at any piece size, and
    loads back to the same net, which scores ``train``'s final val MAE."""
    # The header, one piece per slice of flat's bytes, and the closing quote
    # and brace; slices of 3 parameters exercise the joins at every size.
    for piece_bytes in (tinynet.CHECKPOINT_PIECE_BYTES, 24):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tinynet, "CHECKPOINT_PIECE_BYTES", piece_bytes)
            chunks = list(_checkpoint_chunks(net))
            assert len(chunks) == 1 + -(-net.flat.nbytes // piece_bytes) + 1
            assert "".join(chunks) == checkpoint_text(net) == whole_checkpoint_text(net)
    path.write_text(checkpoint_text(net))
    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    assert loaded.flat.tobytes() == net.flat.tobytes()
    assert checkpoint_text(loaded) == path.read_text()
    if report.final_val is not None:
        val_mae = mae(loaded.predict_batch(val_samples.features), val_samples.angles)
        assert val_mae == report.final_val


@st.composite
def cases(draw):
    """A net config, loss weights, a row count, a batch size and an epoch count."""
    depth = draw(st.integers(1, 4))
    divisors = {k: [d for d in range(1, k) if k % d == 0] for k in range(1, 37)}
    finest = draw(st.sampled_from([k for k, ds in divisors.items() if len(ds) >= depth - 1]))
    coarse = draw(st.lists(st.sampled_from(divisors[finest]), min_size=depth - 1,
                           max_size=depth - 1, unique=True)) if depth > 1 else []
    config = NetConfig(
        input_dim=draw(st.integers(1, 6)),
        hidden_dims=tuple(draw(st.integers(1, 8)) for _ in range(draw(st.integers(0, 3)))),
        hierarchy=make_hierarchy((finest, *sorted(coarse, reverse=True))),
        seed=draw(st.integers(0, 2**16)),
        decode_convention=draw(st.sampled_from(DECODE_CONVENTIONS)),
    )
    alpha = draw(st.sampled_from([2.0, 0.125, 0.0]))
    betas = tuple(draw(st.sampled_from([0.0, 0.5, 2.0])) for _ in range(depth))
    rows = draw(st.integers(5, 40))
    batch_size = draw(st.integers(1, rows) | st.just(rows + 1))
    return config, LossWeights(alpha, betas), rows, batch_size, draw(st.sampled_from([1, 2, 0]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=cases())
@example(case=(replace(CANONICAL, decode_convention="edge"),
               LossWeights(0.0, (3.0, 0.0, 2.0, 1.0, 0.5)), 1, 1, 2))
@example(case=(CANONICAL, LossWeights(), 64, 20, 1))
def test_every_config_steps_trains_and_round_trips_bit_for_bit(case, tmp_path_factory):
    config, weights, rows, batch_size, epochs = case
    rng = np.random.default_rng(config.seed)
    features = rng.normal(size=(rows + 6, config.input_dim))  # and 6 validation rows
    angles = rng.uniform(MIN_ANGLE, MAX_ANGLE, size=(rows + 6, 3))
    x, targets = features[:rows], angles[:rows]
    train_samples, val_samples = Dataset(x, targets), Dataset(features[rows:], angles[rows:])

    # Every parameter, biases included, moved off its init.
    net = init_net(config)
    net.flat += rng.normal(scale=0.1, size=net.flat.size)
    check_step_against_oracle(net, x, targets, weights)

    trained, report = check_train(config, train_samples, val_samples, weights, epochs, batch_size)
    check_checkpoint(trained, report, val_samples, tmp_path_factory.getbasetemp() / "net.json")

    # Last, as rows that bring a pre-activation near a kink skip only this check.
    assume(kink_margin(net, x[:FD_ROWS]) > 1e-3)
    sizes = [math.prod(shape) for shape in _param_shapes(config)]
    coords = [start + rng.choice(size, min(size, FD_PER_BLOCK), replace=False)
              for start, size in zip(np.cumsum([0, *sizes]), sizes)]
    check_gradient_by_finite_differences(net, weights, x[:FD_ROWS], targets[:FD_ROWS],
                                         np.concatenate(coords))
