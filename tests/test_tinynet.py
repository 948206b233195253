import base64
import json
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hybridpose import tinynet
from hybridpose.binning import decode_positions, expect_decode, make_hierarchy
from hybridpose.loss import DEFAULT_WEIGHTS, LossWeights, _softmax_inplace, hybrid_loss, softmax
from hybridpose.synth import Dataset, SynthConfig, make_dataset
from hybridpose.tinynet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    NetConfig,
    PREDICT_BLOCK_ROWS,
    TinyNet,
    adam_update,
    checkpoint_text,
    init_net,
    load_checkpoint,
    train,
    _GUARDED,
    _assert_finite_params,
    _first_nonfinite,
    _batch_loss_and_grads,
)

from helpers import row_logits

TOY = NetConfig(input_dim=4, hidden_dims=(8,), hierarchy=make_hierarchy((6, 2)), seed=0)


def toy_batch(seed=10, n=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, TOY.input_dim))
    return x, rng.uniform(-60.0, 60.0, size=(n, 3))


def test_net_config_validation():
    # Each field names itself; a float or a bool is rejected, not rounded.
    bad = [
        (dict(input_dim=0), "input_dim must be a positive integer, got 0"),
        (dict(input_dim=4.5), "input_dim must be a positive integer, got 4.5"),
        (dict(input_dim=4, hidden_dims=(16, 0)),
         "hidden_dims[1] must be a positive integer, got 0"),
        (dict(input_dim=4, hidden_dims=(3.7,)),
         "hidden_dims[0] must be a positive integer, got 3.7"),
        (dict(input_dim=4, hidden_dims=8), "hidden_dims must be a list or tuple, got 8"),
        (dict(input_dim=4, seed=-1), "seed must be a nonnegative integer, got -1"),
        (dict(input_dim=4, seed=1.5), "seed must be a nonnegative integer, got 1.5"),
        (dict(input_dim=4, seed=True), "seed must be a nonnegative integer, got True"),
        (dict(input_dim=4, hierarchy=(198, 66)), "hierarchy must be a BinHierarchy, got (198, 66)"),
        # An int too long to show whole shows its first 40 digits and its digit count.
        (dict(input_dim=-(10**5000)),
         f"input_dim must be a positive integer, got -1{'0' * 39}... (5001 digits)"),
        (dict(input_dim=4, seed=-(10**400)),
         f"seed must be a nonnegative integer, got -1{'0' * 39}... (401 digits)"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValueError) as info:
            NetConfig(**kwargs)
        assert str(info.value) == message
    assert NetConfig(input_dim=4, hidden_dims=[16, 8]).hidden_dims == (16, 8)
    message = r"unknown decode convention 'middle' \(choose from 'center', 'edge'\)"
    with pytest.raises(ValueError, match=message):
        NetConfig(input_dim=4, decode_convention="middle")
    assert NetConfig(input_dim=4).decode_convention == "center"


def test_init_is_deterministic_and_seed_sensitive():
    a = init_net(NetConfig(input_dim=24, seed=0))
    b = init_net(NetConfig(input_dim=24, seed=0))
    c = init_net(NetConfig(input_dim=24, seed=1))
    assert (a.flat == b.flat).all()
    assert (a.flat != c.flat).any()
    for bias in [*a.trunk_biases, *(b for _, b in a.head_blocks)]:
        assert (bias == 0.0).all()


def test_param_count_matches_formula():
    net = init_net(NetConfig(input_dim=24))
    dims = [24, 64, 64]
    expected = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(2))
    expected += 3 * sum(64 * n + n for n in (198, 66, 18, 6, 2))
    assert net.flat.size == expected == 62310


def test_zero_input_gives_zero_logits():
    net = init_net(NetConfig(input_dim=24))
    for angle in row_logits(net, np.zeros(24)):
        assert len(angle) == 5
        for logits, n in zip(angle, (198, 66, 18, 6, 2)):
            assert logits.shape == (n,)
            assert (logits == 0.0).all()


def test_uniform_heads_decode_to_zero():
    net = init_net(NetConfig(input_dim=24))
    pose = net.predict(np.zeros(24))
    assert abs(pose.yaw) < 1e-9
    assert abs(pose.pitch) < 1e-9
    assert abs(pose.roll) < 1e-9


def test_forced_bias_moves_expectation_to_that_bin():
    net = init_net(NetConfig(input_dim=24))
    net.head_blocks[0][1][0, 99] = 60.0  # yaw's finest bias
    pose = net.predict(np.zeros(24))
    # bin 99 of 198 has center -99 + 99.5 = 0.5 and holds ~all the mass
    assert abs(pose.yaw - 0.5) < 1e-9
    assert abs(pose.pitch) < 1e-9
    assert abs(pose.roll) < 1e-9


def test_predict_agrees_with_head_logits_plus_decode():
    net = init_net(NetConfig(input_dim=24, seed=3))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 24))
    batch = net.predict_batch(x)
    finest = net.config.hierarchy.finest
    for i in range(6):
        pose = net.predict(x[i])
        for j, levels in enumerate(row_logits(net, x[i])):
            decoded = expect_decode(softmax(levels[0]), finest)
            assert abs(pose.as_array()[j] - decoded) < 1e-12
            assert abs(batch[i, j] - decoded) < 1e-9


def test_predict_rejects_bad_features():
    net = init_net(NetConfig(input_dim=24))
    with pytest.raises(ValueError, match="length 24"):
        net.predict(np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        net.predict(np.full(24, np.nan))
    with pytest.raises(ValueError, match="length 24"):
        net.predict_batch(np.zeros((3, 22)))
    with pytest.raises(ValueError, match="length 24"):
        net.predict_batch(np.zeros(24))
    x = np.zeros((3, 24))
    x[1, 5] = np.inf
    with pytest.raises(ValueError, match="finite"):
        net.predict_batch(x)


def block_rows(convention="center"):
    """A net with peaked heads and 1,300 rows: two full 512-row blocks and a partial one."""
    net = init_net(NetConfig(input_dim=24, seed=3, decode_convention=convention))
    for per_angle in net.head_weights:
        per_angle[0] *= 4.0
    x = np.random.default_rng(8).normal(size=(1300, 24))
    return net, x


def test_predict_batch_is_row_blocked():
    net, x = block_rows()
    assert PREDICT_BLOCK_ROWS == 512
    whole = net.predict_batch(x)
    parts = [net.predict_batch(x[lo : lo + 512]) for lo in (0, 512, 1024)]
    assert whole.shape == (1300, 3)
    assert (whole == np.concatenate(parts)).all()


def stacked_decode(net, x):
    """predict_batch's decode with the three angles as one stacked (3, n, k) block."""
    positions = decode_positions(net.config.hierarchy.finest, net.config.decode_convention)
    out = []
    for lo in range(0, x.shape[0], PREDICT_BLOCK_ROWS):
        _, acts = net._forward_batch(x[lo : lo + PREDICT_BLOCK_ROWS])
        (s,) = net._head_logits(acts[-1], [0])
        _softmax_inplace(s)
        out.append((s @ positions).T)
    return np.concatenate(out)


@pytest.mark.parametrize("n", [1, 7, 500, 512, 1100])
@pytest.mark.parametrize("convention", ["center", "edge"])
def test_per_angle_decode_matches_stacked_decode(n, convention):
    net, x = block_rows(convention)
    assert (net.predict_batch(x[:n]) == stacked_decode(net, x[:n])).all()


def test_predict_batch_agrees_with_per_row_predict():
    net, x = block_rows("edge")
    batch = net.predict_batch(x)
    assert np.ptp(batch, axis=0).min() > 1.0
    for i in range(x.shape[0]):
        one = net.predict_batch(x[i : i + 1])[0]
        assert (net.predict(x[i]).as_array() == one).all()
        assert np.abs(batch[i] - one).max() < 1e-9


def test_batch_gradients_fill_the_given_views(monkeypatch):
    net = init_net(TOY)
    x, targets = toy_batch()
    weights = LossWeights(alpha=1.5, betas=(2.0, 0.5))
    fresh = TinyNet(TOY)
    expected = _batch_loss_and_grads(net, x, targets, weights, fresh)
    out = TinyNet(TOY)
    out.flat[...] = np.nan

    def no_new_net(*args, **kwargs):
        raise AssertionError("the step allocated a TinyNet")

    monkeypatch.setattr(TinyNet, "__init__", no_new_net)
    stats = _batch_loss_and_grads(net, x, targets, weights, out)
    assert isinstance(stats, tinynet.LossStats) and stats == expected
    assert out.flat.tobytes() == fresh.flat.tobytes()


def test_batch_stats_match_scalar_loss_terms():
    net = init_net(TOY)
    x, targets = toy_batch(seed=11, n=5)
    weights = LossWeights(alpha=2.0, betas=(3.0, 1.0))
    stats = _batch_loss_and_grads(net, x, targets, weights, TinyNet(TOY))

    reg = 0.0
    ce = np.zeros(2)
    for feats, truths in zip(x, targets):
        for heads, truth in zip(row_logits(net, feats), truths):
            br = hybrid_loss(heads, truth, weights, TOY.hierarchy)
            reg += br.regression_term
            ce += np.array(br.ce_terms)
    assert abs(stats.regression_term - reg / len(x)) < 1e-9
    assert np.abs(np.array(stats.ce_terms) - ce / len(x)).max() < 1e-12


def test_adam_closed_form_without_momentum():
    # At step 1 bias correction cancels the decay (m / c1 = g, v / c2 = g * g),
    # so the default betas give the update without momentum.
    p = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, -0.25, 2.0])
    state = AdamState(learning_rate=0.1, m=np.zeros(3), v=np.zeros(3))
    expected = p - 0.1 * g / (np.abs(g) + ADAM_EPSILON)
    adam_update(p, g, state)
    assert np.abs(p - expected).max() < 1e-12
    assert state.step == 1


def test_adam_zero_rate_is_identity():
    p = np.array([1.0, -2.0, 3.0])
    before = p.copy()
    state = AdamState(learning_rate=0.0, m=np.zeros(3), v=np.zeros(3))
    adam_update(p, np.array([5.0, -1.0, 0.5]), state)
    assert (p == before).all()


def test_adam_state_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        AdamState(learning_rate=-1.0)
    with pytest.raises(ValueError, match="learning_rate"):
        AdamState(learning_rate=float("nan"))
    with pytest.raises(ValueError, match="learning_rate must be finite and nonnegative, got True"):
        AdamState(True)
    with pytest.raises(ValueError, match="learning_rate must be finite and nonnegative, got '0.1'"):
        AdamState("0.1")
    with pytest.raises(ValueError, match="^learning_rate must be finite and nonnegative, got 1000"):
        AdamState(10**400)
    with pytest.raises(ValueError) as info:
        AdamState(10**5000)
    assert str(info.value) == (
        f"learning_rate must be finite and nonnegative, got 1{'0' * 39}... (5001 digits)"
    )
    state = AdamState(learning_rate=1e-3, m=np.zeros(2), v=np.zeros(2))
    with pytest.raises(ValueError, match="shapes must align"):
        adam_update(np.zeros(2), np.zeros(1), state)
    assert state.step == 0


# ``adam_update`` folds the bias corrections into its step size and epsilon,
# so it rounds differently from the textbook expression.  Its update and
# moments must stay within this fraction of the textbook's largest element;
# over this test's 1,000 steps at the hidden-8 net's 8,030 parameters they
# stayed within 5e-15 (3.3e-15 and 7.0e-15 over 2,000 steps at 62,310).
ADAM_RELATIVE_BOUND = 1e-10


def test_adam_update_matches_textbook_expression():
    n = init_net(NetConfig(input_dim=24, hidden_dims=(8,))).flat.size
    rng = np.random.default_rng(3)
    state = AdamState(learning_rate=1e-3, m=np.zeros(n), v=np.zeros(n))
    ref_m, ref_v = np.zeros(n), np.zeros(n)
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPSILON
    for step in range(1, 1001):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 2)
        g[rng.random(n) < 0.1] = 0.0
        g_before, p = g.copy(), np.zeros(n)
        adam_update(p, g, state)
        assert g.tobytes() == g_before.tobytes()
        ref_m *= b1
        ref_m += (1.0 - b1) * g
        ref_v *= b2
        ref_v += (1.0 - b2) * (g * g)
        ref_update = lr * (ref_m / (1.0 - b1 ** step)) / (
            np.sqrt(ref_v / (1.0 - b2 ** step)) + eps
        )
        for got, ref in ((-p, ref_update), (state.m * (1.0 - b1), ref_m),
                         (state.v * (1.0 - b2), ref_v)):
            assert np.abs(got - ref).max() <= ADAM_RELATIVE_BOUND * np.abs(ref).max()
    assert state.step == 1000


def test_adam_update_of_two_parts_equals_the_whole():
    rng = np.random.default_rng(4)
    p, g = rng.standard_normal(1000), rng.standard_normal(1000)
    whole = AdamState(1e-3, m=np.zeros(1000), v=np.zeros(1000))
    m, v = np.zeros(1000), np.zeros(1000)
    parts = [AdamState(1e-3, m=m, v=v, part=part) for part in (slice(377), slice(377, None))]
    q = p.copy()
    for _ in range(3):
        adam_update(p, g, whole)
        for state in parts:
            adam_update(q, g, state)
    assert p.tobytes() == q.tobytes()
    assert (whole.m.tobytes(), whole.v.tobytes()) == (m.tobytes(), v.tobytes())
    assert [state.step for state in parts] == [3, 3]


def test_parameters_are_views_of_one_flat_buffer(tmp_path):
    net = init_net(TOY)
    # flat's layout: each trunk layer's weight and bias, then each level's two blocks
    blocks = [*(v for layer in zip(net.trunk_weights, net.trunk_biases) for v in layer),
              *(v for level in net.head_blocks for v in level)]
    assert net.flat.ndim == 1
    assert all(np.shares_memory(p, net.flat) for p in blocks)
    assert (np.concatenate([p.ravel() for p in blocks]) == net.flat).all()
    before = net.flat.copy()
    net.head_weights[1][0][2, 3] = 7.5
    changed = np.flatnonzero(net.flat != before)
    assert changed.size == 1 and net.flat[changed[0]] == 7.5
    net.flat[0] = -4.0
    assert net.trunk_weights[0][0, 0] == -4.0
    path = tmp_path / "net.json"
    path.write_text(checkpoint_text(net))
    loaded = load_checkpoint(path)
    assert (loaded.flat == net.flat).all()
    views = [*loaded.trunk_weights, *loaded.trunk_biases, *sum(loaded.head_weights, [])]
    views += [v for level in loaded.head_blocks for v in level]
    assert all(np.shares_memory(p, loaded.flat) for p in views)
    opt = AdamState.for_net(net)
    assert opt.m.shape == opt.v.shape == net.flat.shape


def test_finite_guard_names_loss_parameters_and_moments():
    net = init_net(TOY)
    opt = AdamState.for_net(net)
    opt.step = 4
    _assert_finite_params(net, opt, 1.0)
    with pytest.raises(FloatingPointError, match="non-finite loss at update 4"):
        _assert_finite_params(net, opt, float("inf"))
    opt.v[-1] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite Adam second moment at update 4"):
        _assert_finite_params(net, opt, 1.0)
    net.head_blocks[1][1][2, 0] = np.nan  # roll's bias at level 1
    with pytest.raises(FloatingPointError, match="non-finite parameters at update 4"):
        _assert_finite_params(net, opt, 1.0)


def test_finite_guard_adds_a_helper_finding_in_the_guard_order():
    net = init_net(TOY)
    opt = AdamState.for_net(net)
    opt.part = slice(net.flat.size // 2)
    opt.step = 2
    net.flat[-1] = opt.v[-1] = np.nan  # outside this process's part
    _assert_finite_params(net, opt, 1.0)
    for found, what in enumerate(_GUARDED):
        with pytest.raises(FloatingPointError, match=f"non-finite {what} at update 2"):
            _assert_finite_params(net, opt, 1.0, found)
    opt.v[0] = np.inf  # this part's second moment, but the helper's parameters come first
    with pytest.raises(FloatingPointError, match="non-finite parameters at update 2"):
        _assert_finite_params(net, opt, 1.0, 1)
    with pytest.raises(FloatingPointError, match="non-finite Adam second moment at update 2"):
        _assert_finite_params(net, opt, 1.0)


def test_finite_guard_finds_either_infinity_and_passes_an_empty_part():
    net = init_net(TOY)
    opt = AdamState.for_net(net)
    for value, found in ((-np.inf, 1), (np.inf, 1), (1.0, len(_GUARDED))):
        net.flat[3] = value
        assert _first_nonfinite(1.0, opt, net.flat) == found
    opt.part = slice(5, 5)
    net.flat[...] = opt.v[...] = np.nan
    assert _first_nonfinite(1.0, opt, net.flat) == len(_GUARDED)


def small_data(n=40, seed=5):
    return make_dataset(SynthConfig(n_samples=n, seed=seed))


def test_train_zero_epochs_returns_fresh_net():
    train_samples, val_samples = small_data()
    config = NetConfig(input_dim=24, hidden_dims=(16,), seed=2)
    net, report = train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=0)
    fresh = init_net(config)
    assert (net.flat == fresh.flat).all()
    assert report.epochs == 0
    assert report.final_val is None


def test_train_leaves_the_coarse_levels_to_a_slow_helper(monkeypatch):
    # The helper takes a while over each step's coarse levels; this process waits for them.
    parent, level_terms, ran_here = os.getpid(), tinynet._level_terms, []

    def slow_level_terms(net, grads, hidden, truth, weights, levels, *rest):
        if os.getpid() == parent:
            ran_here.append(levels)
        else:
            time.sleep(0.02)
        return level_terms(net, grads, hidden, truth, weights, levels, *rest)

    monkeypatch.setattr(tinynet, "_level_terms", slow_level_terms)
    train_samples, val_samples = small_data(n=60)
    config = NetConfig(input_dim=24, hidden_dims=(16,))
    runs = []
    for jobs in (1, 2):
        ran_here.clear()
        runs.append(train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=2,
                          batch_size=20, jobs=jobs))
    (net_1, report_1), (net_2, report_2) = runs
    # 48 training rows: each of 3 steps in each of 2 epochs runs the finest level here.
    assert len(train_samples.angles) == 48
    assert ran_here == [[0]] * 6
    assert net_1.flat.tobytes() == net_2.flat.tobytes()
    assert report_1.epoch_total == report_2.epoch_total
    assert report_1.val_reports == report_2.val_reports
    with pytest.raises(ChildProcessError):  # the helper was killed and reaped
        os.waitpid(-1, os.WNOHANG)


def test_train_report_recombines_loss_terms():
    train_samples, val_samples = small_data()
    config = NetConfig(input_dim=24, hidden_dims=(16,), seed=0)
    _, report = train(config, train_samples, val_samples, DEFAULT_WEIGHTS,
                      epochs=3, batch_size=16)
    assert report.epochs == 3
    assert len(report.val_reports) == 3
    assert report.wall_seconds >= 0.0
    for total, reg, ce in zip(report.epoch_total, report.epoch_regression,
                              report.epoch_ce_terms):
        recombined = DEFAULT_WEIGHTS.alpha * reg + float(
            np.dot(DEFAULT_WEIGHTS.betas, ce)
        )
        assert abs(total - recombined) <= 1e-9 * max(abs(total), 1.0)


def test_train_validation_errors():
    train_samples, val_samples = small_data()
    config = NetConfig(input_dim=24, hidden_dims=(16,))
    with pytest.raises(ValueError, match="nonempty"):
        train(config, Dataset(np.zeros((0, 24)), np.zeros((0, 3))), val_samples,
              DEFAULT_WEIGHTS, epochs=1)
    with pytest.raises(ValueError, match="epochs"):
        train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=-1)
    with pytest.raises(ValueError, match="batch_size"):
        train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=1, batch_size=0)
    with pytest.raises(ValueError, match="epochs must be a nonnegative integer, got 1.5"):
        train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=1.5)
    with pytest.raises(ValueError, match="batch_size must be a positive integer, got True"):
        train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=1, batch_size=True)
    for jobs in (0, 3, True, 2.0):
        with pytest.raises(ValueError, match=f"jobs must be 1 or 2, got {jobs}"):
            train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=1, jobs=jobs)
    # Checked with the other arguments, so also when no step runs.
    with pytest.raises(ValueError, match="2 betas for a hierarchy of depth 5"):
        train(config, train_samples, val_samples, LossWeights(2.0, (1.0, 1.0)), epochs=0)
    bad_dim = NetConfig(input_dim=10, hidden_dims=(16,))
    with pytest.raises(ValueError, match="train_samples features have dim 24, config expects 10"):
        train(bad_dim, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=1)
    narrow_val = Dataset(np.zeros((2, 22)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="val_samples features have dim 22, config expects 24"):
        train(config, train_samples, narrow_val, DEFAULT_WEIGHTS, epochs=1)
    outlier = Dataset(np.zeros((1, 24)), [[120.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"angle 120.0 outside bin range \[-99.0, 99.0\]"):
        train(config, outlier, val_samples, DEFAULT_WEIGHTS, epochs=1)


def test_checkpoint_roundtrip_keeps_every_bit_of_extreme_values(tmp_path):
    net = init_net(TOY)
    extremes = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    net.flat[: len(extremes)] = extremes
    path = tmp_path / "net.json"
    path.write_text(checkpoint_text(net))
    loaded = load_checkpoint(path)
    assert loaded.flat.tobytes() == net.flat.tobytes()
    assert np.signbit(loaded.flat[0]) and loaded.flat[1] == 5e-324


def test_load_checkpoint_decodes_arrays_without_python_floats(tmp_path):
    # Reading the text holds its bytes and its str at once, about 2 * text.
    # Then the decoded bytes of flat and their float array cost 8 bytes per
    # parameter each, where JSON's lists of Python floats would cost 32 more.
    net = init_net(NetConfig(input_dim=24))
    path = tmp_path / "net.json"
    path.write_text(checkpoint_text(net))
    tracemalloc.start()
    try:
        load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size + net.flat.nbytes, peak


def test_checkpoint_stores_the_decode_convention(tmp_path):
    net = init_net(NetConfig(input_dim=24, hidden_dims=(16,), seed=4, decode_convention="edge"))
    net.flat += np.random.default_rng(6).normal(scale=0.1, size=net.flat.size)
    path = tmp_path / "net.json"
    path.write_text(checkpoint_text(net))
    assert json.loads(path.read_text())["config"]["decode_convention"] == "edge"
    loaded = load_checkpoint(path)
    assert loaded.config.decode_convention == "edge"
    x = np.random.default_rng(7).normal(size=(9, 24))
    assert (loaded.predict_batch(x) == net.predict_batch(x)).all()
    centered = init_net(replace(net.config, decode_convention="center"))
    centered.flat[...] = net.flat
    assert (centered.predict_batch(x) != net.predict_batch(x)).any()


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ValueError, match="not a valid checkpoint"):
        load_checkpoint(path)
    # An undecodable byte fails as JSON does, at its line and column.
    path.write_bytes(b'{"format":\n\xff}')
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: not a valid checkpoint: Expecting value: line 2")
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)
    doc = json.loads(checkpoint_text(init_net(TOY)))
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
    # Version 1 stored an activation where version 2 stores the decode convention.
    old = json.loads(checkpoint_text(init_net(TOY)))
    old["version"] = 1
    old["config"]["activation"] = "relu"
    del old["config"]["decode_convention"]
    path.write_text(json.dumps(old))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: unsupported checkpoint version 1; retrain")
    # Version 2 stored the parameters as JSON arrays, angle by angle, in place of flat.
    old = json.loads(checkpoint_text(init_net(TOY)))
    old.update(version=2, trunk=[{"weight": [[0.0] * 8] * 4, "bias": [0.0] * 8}], heads=[[]] * 3)
    del old["flat"]
    path.write_text(json.dumps(old))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (
        f"{path}: unsupported checkpoint version 2; retrain the net to write a version 3 checkpoint"
    )
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
    doc["version"] = 3
    del doc["flat"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: malformed checkpoint: top level: missing key 'flat'"

    # Values that parse as JSON but not as a net: the error names the file.
    def flat_of(*values):
        """An edit setting ``flat`` to the base64 of ``values`` as float64 (by
        default, 0.1 for each of TOY's 256 parameters)."""
        values = values or [0.1] * 256
        data = base64.b64encode(np.array(values, "<f8").tobytes()).decode("ascii")
        return lambda d: d.__setitem__("flat", data)

    def flat_text(edit):
        return lambda d: d.__setitem__("flat", edit(d["flat"]))

    flat_of()(doc)  # the payload flat_of makes loads
    path.write_text(json.dumps(doc))
    assert (load_checkpoint(path).flat == 0.1).all()
    bad_values = [
        (lambda d: d.__setitem__("flat", [[0.0] * 8]), "flat must be a base64 string, got list"),
        (lambda d: d.__setitem__("flat", None), "flat must be a base64 string, got NoneType"),
        (lambda d: d.__setitem__("flat", 0.5), "flat must be a base64 string, got float"),
        (flat_text(lambda t: t[:100] + "*" + t[101:]),
         "flat is not valid base64: Only base64 data is allowed"),
        (flat_text(lambda t: t[:100] + "\u00e9" + t[101:]),
         "flat is not valid base64: Only base64 data is allowed"),
        (flat_text(lambda t: t[:100] + "=" + t[101:]),
         "flat is not valid base64: Only base64 data is allowed"),
        (flat_text(lambda t: t + "=="), "flat is not valid base64: Only base64 data is allowed"),
        (flat_text(lambda t: t.rstrip("=")), "flat is not valid base64: Incorrect padding"),
        (flat_of(*[0.1] * 255), "flat holds 2040 bytes, the config's parameters take 2048"),
        (flat_of(*[0.1] * 257), "flat holds 2056 bytes, the config's parameters take 2048"),
        (flat_of(*[0.1] * 255, np.nan), "parameters contain non-finite values"),
        (flat_of(np.inf, *[0.1] * 255), "parameters contain non-finite values"),
        (flat_of(*[0.1] * 100, -np.inf, *[0.1] * 155), "parameters contain non-finite values"),
        (lambda d: d["config"].__setitem__("decode_convention", "middle"),
         "unknown decode convention 'middle' (choose from 'center', 'edge')"),
        (lambda d: d["config"]["hierarchy"].__setitem__("bin_counts", [198, 67]),
         "coarse bin count 67 does not divide finest 198"),
        (lambda d: d["config"].__setitem__("seed", -1),
         "seed must be a nonnegative integer, got -1"),
        (lambda d: d["config"].__setitem__("seed", "DIGITS"),
         "not a valid checkpoint: Exceeds the limit (4300 digits)"),
        # The byte count is checked against the config before the net is made: a
        # net of 2**61 bytes, past any address space, fails naming both counts.
        (lambda d: d["config"].__setitem__("hidden_dims", [10**16]),
         f"flat holds 2048 bytes, the config's parameters take {8 * (29 * 10**16 + 24)}"),
        # Integers must be JSON integers, not floats or booleans rounded by int().
        (lambda d: d["config"].__setitem__("input_dim", 4.9),
         "input_dim must be a positive integer, got 4.9"),
        (lambda d: d["config"].__setitem__("seed", 2.7),
         "seed must be a nonnegative integer, got 2.7"),
        (lambda d: d["config"].__setitem__("seed", True),
         "seed must be a nonnegative integer, got True"),
        (lambda d: d["config"].__setitem__("hidden_dims", [8.0]),
         "hidden_dims[0] must be a positive integer, got 8.0"),
        (lambda d: d["config"].__setitem__("hidden_dims", 8),
         "hidden_dims must be a list or tuple, got 8"),
        (lambda d: d["config"]["hierarchy"].__setitem__("bin_counts", [6.5, 2.2]),
         "n_bins must be a positive integer, got 6.5"),
        (lambda d: d["config"]["hierarchy"].__setitem__("bin_counts", [6, False]),
         "n_bins must be a positive integer, got False"),
        (lambda d: d["config"]["hierarchy"].__setitem__("bin_counts", 6),
         "bin_counts must be a list or tuple, got 6"),
    ]
    for mutate, message in bad_values:
        doc = json.loads(checkpoint_text(init_net(TOY)))
        mutate(doc)
        # Python neither writes nor reads an int of more than 4,300 digits.
        path.write_text(json.dumps(doc).replace('"DIGITS"', "1" * 5000))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: {message}"), info.value


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.__setitem__("version", 2.0),
     "unsupported checkpoint version 2.0; retrain the net"),
    (lambda d: d.__setitem__("version", 3.0),
     "unsupported checkpoint version 3.0; retrain the net"),
    (lambda d: d.__setitem__("notes", "hand edited"),
     "malformed checkpoint: top level: unexpected key 'notes'"),
    (lambda d: d["config"].__setitem__("activation", "tanh"),
     "malformed checkpoint: config: unexpected key 'activation'"),
    (lambda d: d["config"].pop("seed"), "malformed checkpoint: config: missing key 'seed'"),
    (lambda d: d["config"]["hierarchy"].__setitem__("bin_width", 33.0),
     "malformed checkpoint: config.hierarchy: unexpected key 'bin_width'"),
    # The bin range is fixed: the stored angles must be the JSON numbers -99 and 99.
    (lambda d: d["config"]["hierarchy"].__setitem__("min_angle", "-99"),
     'config hierarchy.min_angle must be a number equal to -99.0, got "-99"'),
    (lambda d: d["config"]["hierarchy"].__setitem__("min_angle", True),
     "config hierarchy.min_angle must be a number equal to -99.0, got true"),
    (lambda d: d["config"]["hierarchy"].__setitem__("max_angle", None),
     "config hierarchy.max_angle must be a number equal to 99.0, got null"),
    (lambda d: d["config"]["hierarchy"].__setitem__("min_angle", -90),
     "config hierarchy.min_angle must be a number equal to -99.0, got -90"),
    (lambda d: d["config"]["hierarchy"].__setitem__("max_angle", "99"),
     'config hierarchy.max_angle must be a number equal to 99.0, got "99"'),
])
def test_checkpoint_schema_is_exact(tmp_path, mutate, message):
    # Each edit would otherwise load, ignored or silently converted.
    doc = json.loads(checkpoint_text(init_net(TOY)))
    mutate(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: {message}"), info.value


def test_checkpoint_angles_may_be_json_integers(tmp_path):
    doc = json.loads(checkpoint_text(init_net(TOY)))
    doc["config"]["hierarchy"].update(min_angle=-99, max_angle=99)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert checkpoint_text(load_checkpoint(path)) == checkpoint_text(init_net(TOY))

