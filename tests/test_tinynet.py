import json
import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hybridpose import _helper
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
    _batch_loss_and_grads,
    _checkpoint_chunks,
)

from helpers import fd_gradient, flatten_params, relative_error, set_params

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
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert (pa == pb).all()
    assert any((pa != pc).any() for pa, pc in zip(a.parameters(), c.parameters()))
    for bias in a.trunk_biases:
        assert (bias == 0.0).all()
    for per_angle in a.head_biases:
        for bias in per_angle:
            assert (bias == 0.0).all()


def test_param_count_matches_formula():
    net = init_net(NetConfig(input_dim=24))
    dims = [24, 64, 64]
    expected = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(2))
    expected += 3 * sum(64 * n + n for n in (198, 66, 18, 6, 2))
    assert net.flat.size == expected == 62310


def test_forward_zero_input_gives_zero_logits():
    net = init_net(NetConfig(input_dim=24))
    out = net.forward(np.zeros(24))
    for angle in out.per_angle():
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
    net.head_biases[0][0][99] = 60.0
    pose = net.predict(np.zeros(24))
    # bin 99 of 198 has center -99 + 99.5 = 0.5 and holds ~all the mass
    assert abs(pose.yaw - 0.5) < 1e-9
    assert abs(pose.pitch) < 1e-9
    assert abs(pose.roll) < 1e-9


def test_predict_agrees_with_forward_plus_decode():
    net = init_net(NetConfig(input_dim=24, seed=3))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 24))
    batch = net.predict_batch(x)
    finest = net.config.hierarchy.finest
    for i in range(6):
        pose = net.predict(x[i])
        out = net.forward(x[i])
        for j, levels in enumerate(out.per_angle()):
            decoded = expect_decode(softmax(levels[0]), finest)
            assert abs(pose.as_array()[j] - decoded) < 1e-12
            assert abs(batch[i, j] - decoded) < 1e-9


def test_forward_rejects_bad_features():
    net = init_net(NetConfig(input_dim=24))
    with pytest.raises(ValueError, match="length 24"):
        net.forward(np.zeros(5))
    with pytest.raises(ValueError, match="finite"):
        net.forward(np.full(24, np.nan))
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
        _, _, (s,) = net._forward_batch(x[lo : lo + PREDICT_BLOCK_ROWS], levels=[0])
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


@pytest.mark.parametrize(
    "convention", ["center", "edge"], ids=["degrees-center", "degrees-edge"]
)
def test_batch_gradients_match_finite_differences(convention):
    net = init_net(replace(TOY, decode_convention=convention))
    x, targets = toy_batch()

    # keep every ReLU pre-activation away from its kink by more than the
    # largest pre-activation shift an FD step of 1e-4 can cause
    pre_acts, _, _ = net._forward_batch(x)
    assert min(np.abs(z).min() for z in pre_acts) > 1e-3

    weights = LossWeights(alpha=1.5, betas=(2.0, 0.5))
    stats, grads = _batch_loss_and_grads(net, x, targets, weights)
    params = net.parameters()
    base = flatten_params(params)

    def scalar_loss(flat):
        set_params(params, flat)
        total = 0.0
        for feats, truths in zip(x, targets):
            out = net.forward(feats)
            for heads, truth in zip(out.per_angle(), truths):
                total += hybrid_loss(heads, truth, weights, TOY.hierarchy, convention).total
        set_params(params, base)
        return total / len(x)

    assert abs(scalar_loss(base) - stats.total) < 1e-12
    numeric = fd_gradient(scalar_loss, base, step=1e-4)
    assert relative_error(flatten_params(grads), numeric) < 1e-4


def test_batch_gradients_fill_the_given_views():
    net = init_net(TOY)
    x, targets = toy_batch()
    weights = LossWeights(alpha=1.5, betas=(2.0, 0.5))
    _, fresh = _batch_loss_and_grads(net, x, targets, weights)
    out = TinyNet(TOY)
    out.flat[...] = np.nan
    _, grads = _batch_loss_and_grads(net, x, targets, weights, out=out)
    assert all(g is p for g, p in zip(grads, out.parameters()))
    assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
    assert out.flat.tobytes() == flatten_params(fresh).tobytes()


def test_batch_stats_match_scalar_loss_terms():
    net = init_net(TOY)
    x, targets = toy_batch(seed=11, n=5)
    weights = LossWeights(alpha=2.0, betas=(3.0, 1.0))
    stats, _ = _batch_loss_and_grads(net, x, targets, weights)

    reg = 0.0
    ce = np.zeros(2)
    for feats, truths in zip(x, targets):
        out = net.forward(feats)
        for heads, truth in zip(out.per_angle(), truths):
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


def test_adam_update_is_bit_identical_to_textbook_expression():
    n = init_net(NetConfig(input_dim=24)).flat.size
    rng = np.random.default_rng(3)
    p = rng.standard_normal(n)
    m = rng.standard_normal(n) * 1e-2
    v = rng.random(n) * 1e-4
    state = AdamState(learning_rate=1e-3, m=m.copy(), v=v.copy())
    ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPSILON
    for step in range(1, 6):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 2)
        adam_update(p, g, state)
        ref_m *= b1
        ref_m += (1.0 - b1) * g
        ref_v *= b2
        ref_v += (1.0 - b2) * (g * g)
        ref_p -= lr * (ref_m / (1.0 - b1 ** step)) / (
            np.sqrt(ref_v / (1.0 - b2 ** step)) + eps
        )
        assert (p == ref_p).all()
        assert (state.m == ref_m).all()
        assert (state.v == ref_v).all()
    assert state.step == 5


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
    params = net.parameters()
    assert net.flat.ndim == 1 and net.flat.size == sum(p.size for p in params)
    assert all(np.shares_memory(p, net.flat) for p in params)
    assert (flatten_params(params) == net.flat).all()
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
    assert all(np.shares_memory(p, loaded.flat) for p in loaded.parameters())
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
    net.head_biases[2][1][0] = np.nan
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


def small_data(n=40, seed=5):
    return make_dataset(SynthConfig(n_samples=n, seed=seed))


def test_train_zero_epochs_returns_fresh_net():
    train_samples, val_samples = small_data()
    config = NetConfig(input_dim=24, hidden_dims=(16,), seed=2)
    net, report = train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=0)
    fresh = init_net(config)
    for p, q in zip(net.parameters(), fresh.parameters()):
        assert (p == q).all()
    assert report.epochs == 0
    assert report.final_val is None


def test_train_is_deterministic():
    train_samples, val_samples = small_data()
    config = NetConfig(input_dim=24, hidden_dims=(16,), seed=2)
    net_a, rep_a = train(config, train_samples, val_samples, DEFAULT_WEIGHTS,
                         epochs=3, batch_size=16)
    net_b, rep_b = train(config, train_samples, val_samples, DEFAULT_WEIGHTS,
                         epochs=3, batch_size=16)
    assert checkpoint_text(net_a) == checkpoint_text(net_b)
    assert rep_a.epoch_total == rep_b.epoch_total
    assert [r.mean_mae for r in rep_a.val_reports] == [r.mean_mae for r in rep_b.val_reports]


def forks_counted(monkeypatch) -> list:
    """Patch ``os.fork`` to record each call in the calling process."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("bin_counts, betas", [((6,), (1.0,)), ((6, 2), (2.0, 1.0))])
def test_train_with_a_helper_process_matches_one_process(monkeypatch, bin_counts, betas):
    forks = forks_counted(monkeypatch)
    train_samples, val_samples = small_data(n=60)
    config = NetConfig(input_dim=24, hidden_dims=(16, 8), hierarchy=make_hierarchy(bin_counts))
    runs = [
        train(config, train_samples, val_samples, LossWeights(1.5, betas), epochs=3,
              batch_size=20, jobs=jobs)
        for jobs in (1, 2)
    ]
    # A one-level net has no coarse level for a helper to run.
    assert len(forks) == len(bin_counts) - 1
    (net_1, report_1), (net_2, report_2) = runs
    assert net_1.flat.tobytes() == net_2.flat.tobytes()
    assert report_1.epoch_total == report_2.epoch_total
    assert report_1.epoch_ce_terms == report_2.epoch_ce_terms
    assert report_1.val_reports == report_2.val_reports
    with pytest.raises(ChildProcessError):  # the helper was reaped
        os.waitpid(-1, os.WNOHANG)


def test_train_runs_the_coarse_levels_a_slow_helper_leaves(monkeypatch):
    # The helper holds each level it takes for a while, so this process takes the rest.
    parent, run, ran_here = os.getpid(), _helper.Helper._run, []

    def slow_run(self, task):
        if os.getpid() == parent:
            ran_here.append(task)
        elif task:
            time.sleep(0.02)
        run(self, task)

    monkeypatch.setattr(_helper.Helper, "_run", slow_run)
    train_samples, val_samples = small_data(n=60)
    config = NetConfig(input_dim=24, hidden_dims=(16,))
    (net_1, report_1), (net_2, report_2) = [
        train(config, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=2, batch_size=20,
              jobs=jobs)
        for jobs in (1, 2)
    ]
    assert ran_here and 0 not in ran_here  # coarse levels, never the helper's Adam part
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
    bad_dim = NetConfig(input_dim=10, hidden_dims=(16,))
    with pytest.raises(ValueError, match="train_samples features have dim 24, config expects 10"):
        train(bad_dim, train_samples, val_samples, DEFAULT_WEIGHTS, epochs=1)
    narrow_val = Dataset(np.zeros((2, 22)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="val_samples features have dim 22, config expects 24"):
        train(config, train_samples, narrow_val, DEFAULT_WEIGHTS, epochs=1)
    outlier = Dataset(np.zeros((1, 24)), [[120.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"angle 120.0 outside bin range \[-99.0, 99.0\]"):
        train(config, outlier, val_samples, DEFAULT_WEIGHTS, epochs=1)


def test_checkpoint_roundtrip_is_exact(tmp_path):
    train_samples, val_samples = small_data()
    config = NetConfig(input_dim=24, hidden_dims=(16,), seed=9)
    net, _ = train(config, train_samples, val_samples, DEFAULT_WEIGHTS,
                   epochs=2, batch_size=16)
    path = tmp_path / "net.json"
    path.write_text(checkpoint_text(net))
    loaded = load_checkpoint(path)
    assert isinstance(loaded, TinyNet)
    assert loaded.config == net.config
    for p, q in zip(loaded.parameters(), net.parameters()):
        assert (p == q).all()
    assert checkpoint_text(loaded) == checkpoint_text(net)
    assert checkpoint_text(net) == checkpoint_text(net)


def test_load_checkpoint_decodes_arrays_without_python_floats(tmp_path):
    # Reading the text holds its bytes and its str at once, about 2 * text.
    # The arrays then cost 8 bytes per parameter, where JSON's lists of Python
    # floats would cost 32 more, or 4 * flat.nbytes.
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


def whole_checkpoint_text(net):
    """The checkpoint as one document, built whole and serialized in one call."""
    cfg = net.config
    doc = {
        "format": "hybridpose-checkpoint",
        "version": 2,
        "config": {
            "input_dim": cfg.input_dim,
            "hidden_dims": list(cfg.hidden_dims),
            "seed": cfg.seed,
            "decode_convention": cfg.decode_convention,
            "hierarchy": {
                "min_angle": -99.0,
                "max_angle": 99.0,
                "bin_counts": [s.n_bins for s in cfg.hierarchy.levels],
            },
        },
        "trunk": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(net.trunk_weights, net.trunk_biases)
        ],
        "heads": [
            [{"weight": w.tolist(), "bias": b.tolist()} for w, b in zip(per_w, per_b)]
            for per_w, per_b in zip(net.head_weights, net.head_biases)
        ],
    }
    return json.dumps(doc, allow_nan=False, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("convention", ["center", "edge"])
@pytest.mark.parametrize("bin_counts", [(198, 66, 18, 6, 2), (6, 2), (4,)])
@pytest.mark.parametrize("hidden", [(8,), (16, 8, 4)])
def test_streamed_checkpoint_equals_the_whole_document(hidden, bin_counts, convention):
    config = NetConfig(input_dim=5, hidden_dims=hidden, hierarchy=make_hierarchy(bin_counts),
                       seed=2, decode_convention=convention)
    net = init_net(config)
    net.flat += np.random.default_rng(1).normal(scale=0.1, size=net.flat.size)
    chunks = list(_checkpoint_chunks(net))
    # The header, one piece per weight/bias pair, and the closing brackets.
    pairs = len(hidden) + 3 * len(bin_counts)
    assert len(chunks) == 1 + pairs + 3 + 1
    assert "".join(chunks) == checkpoint_text(net) == whole_checkpoint_text(net)


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
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)
    doc["version"] = 2
    del doc["trunk"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed"):
        load_checkpoint(path)

    # Values that parse as JSON but not as a net: the error names the file.
    def trunk_bias(value):
        return lambda d: d["trunk"][0].__setitem__("bias", value)

    bad_values = [
        (lambda d: d["heads"][0][0].__setitem__("weight", [[0.0] * 7] * 5),
         "heads[0][0].weight has shape (5, 7), expected (8, 6)"),
        (lambda d: d["heads"][2][1].__setitem__("bias", [0.0] * 3),
         "heads[2][1].bias has shape (3,), expected (2,)"),
        (lambda d: d["trunk"][0].__setitem__("weight", [[0.0] * 8] * 3),
         "trunk[0].weight has shape (3, 8), expected (4, 8)"),
        (lambda d: d["trunk"].append(d["trunk"][0]),
         "expected 1 trunk layers and 3 heads of 2 levels"),
        (lambda d: d["heads"][1].pop(), "expected 1 trunk layers and 3 heads of 2 levels"),
        (lambda d: d["config"].__setitem__("decode_convention", "middle"),
         "unknown decode convention 'middle' (choose from 'center', 'edge')"),
        (trunk_bias([[0.0], [0.0, 1.0]]), "trunk[0].bias has shape (2,), expected (8,)"),
        # Parameters must be JSON numbers, not strings or booleans converted by float().
        (trunk_bias(["abc"] * 8), "trunk[0].bias must hold JSON numbers"),
        (trunk_bias(["1.5"] + [0.0] * 6 + [True]), "trunk[0].bias must hold JSON numbers"),
        (trunk_bias([1.5] * 7 + [True]), "trunk[0].bias must hold JSON numbers"),
        (trunk_bias([0.0] * 7 + [None]), "trunk[0].bias must hold JSON numbers"),
        (trunk_bias([0.0] * 7 + [[0.0]]), "trunk[0].bias must hold JSON numbers"),
        (lambda d: d["heads"][1][0]["weight"][3].__setitem__(2, "0.5"),
         "heads[1][0].weight must hold JSON numbers"),
        (lambda d: d["config"]["hierarchy"].__setitem__("bin_counts", [198, 67]),
         "coarse bin count 67 does not divide finest 198"),
        (lambda d: d["config"].__setitem__("seed", -1),
         "seed must be a nonnegative integer, got -1"),
        (trunk_bias(["INF"] * 8), "parameters contain non-finite values"),
        (trunk_bias([10**400] + [0.0] * 7), "trunk[0].bias holds an integer too large for a float"),
        (trunk_bias(["DIGITS"] * 8), "not a valid checkpoint: Exceeds the limit (4300 digits)"),
        # Stored arrays are checked against the config before the net is made: a
        # net of 2**61 bytes, past any address space, fails naming an array.
        (lambda d: d["config"].__setitem__("hidden_dims", [10**16]),
         "trunk[0].weight has shape (4, 8), expected (4, 10000000000000000)"),
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
        # JSON has no infinity; 1e400 overflows to one when parsed.  Python
        # neither writes nor reads an int of more than 4,300 digits.
        path.write_text(json.dumps(doc).replace('"INF"', "1e400").replace('"DIGITS"', "1" * 5000))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: {message}"), info.value

@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.__setitem__("version", 2.0),
     "unsupported checkpoint version 2.0; retrain the net"),
    (lambda d: d.__setitem__("notes", "hand edited"),
     "malformed checkpoint: top level: unexpected key 'notes'"),
    (lambda d: d["config"].__setitem__("activation", "tanh"),
     "malformed checkpoint: config: unexpected key 'activation'"),
    (lambda d: d["config"].pop("seed"), "malformed checkpoint: config: missing key 'seed'"),
    (lambda d: d["config"]["hierarchy"].__setitem__("bin_width", 33.0),
     "malformed checkpoint: config.hierarchy: unexpected key 'bin_width'"),
    (lambda d: d["trunk"][0].__setitem__("scale", 1.0),
     "malformed checkpoint: trunk[0]: unexpected key 'scale'"),
    (lambda d: d["heads"][2].__setitem__(1, [0.0]),
     "malformed checkpoint: heads[2][1] must be an object, got list"),
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

