import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fd_gradient, relative_error
from hybridpose.binning import (
    MAX_ANGLE,
    MIN_ANGLE,
    coarsen,
    decode_positions,
    encode,
    encode_all,
    make_hierarchy,
)
from hybridpose.loss import (
    DEFAULT_WEIGHTS,
    FINE_ONLY_WEIGHTS,
    LossWeights,
    _angle_terms,
    _cross_entropy,
    _softmax,
    hybrid_loss,
    hybrid_loss_grad,
)
from hybridpose.synth import Dataset
from hybridpose.tinynet import NetConfig, train

HIERARCHY = make_hierarchy()
BIN_COUNTS = tuple(s.n_bins for s in HIERARCHY.levels)


def random_heads(rng, scale=1.0, counts=BIN_COUNTS):
    return [rng.normal(0.0, scale, n) for n in counts]


def test_softmax_uniform_exact():
    out = _softmax(np.zeros(4))
    assert (out == 0.25).all()


def test_softmax_saturated():
    out = _softmax(np.array([1000.0, 0.0]))
    assert out[0] == 1.0 and out[1] == 0.0


def test_softmax_normalized_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.normal(0.0, 5.0, rng.integers(2, 40))
        p = _softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.abs(_softmax(z + 13.25) - p).max() < 1e-12


def test_cross_entropy_uniform_logits():
    for n in BIN_COUNTS:
        assert abs(_cross_entropy(np.zeros(n), 0) - math.log(n)) < 1e-12
    assert abs(_cross_entropy(np.zeros(66), 13) - 4.18965) < 1e-5


def test_cross_entropy_confident_logits():
    z = np.array([1000.0, 0.0])
    assert _cross_entropy(z, 0) == 0.0
    assert _cross_entropy(z, 1) == 1000.0


def test_cross_entropy_is_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = rng.normal(0.0, 10.0, 17)
        assert _cross_entropy(z, int(rng.integers(17))) >= 0.0


def test_weights_validation():
    with pytest.raises(ValueError, match="alpha"):
        LossWeights(-1.0, (1.0,) * 5)
    with pytest.raises(ValueError, match="betas"):
        LossWeights(1.0, (1.0, -2.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="alpha must be finite and nonnegative, got True"):
        LossWeights(True, (3.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="alpha must be finite and nonnegative, got nan"):
        LossWeights(float("nan"), (3.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=r"betas\[0\] must be finite and nonnegative, got '3'"):
        LossWeights(1.0, ("3", 1, 1, 1, 1))
    with pytest.raises(ValueError, match=r"betas\[2\] must be finite and nonnegative, got False"):
        LossWeights(1.0, (1.0, 1.0, False, 1.0, 1.0))
    with pytest.raises(ValueError, match="betas must be a list or tuple, got 1.0"):
        LossWeights(1.0, 1.0)
    # An int too large for a float fails like any other non-finite value.
    with pytest.raises(ValueError, match="^alpha must be finite and nonnegative, got 1000"):
        LossWeights(10**400)
    with pytest.raises(ValueError, match=r"^betas\[1\] must be finite and nonnegative"):
        LossWeights(1.0, (1.0, -(10**400), 1.0, 1.0, 1.0))
    # The message names the field and caps what it shows of the value, also past
    # the 4,300 digits Python turns into text; its digit count stands in for the rest.
    with pytest.raises(ValueError) as info:
        LossWeights(10**400)
    assert str(info.value) == f"alpha must be finite and nonnegative, got 1{'0' * 39}... (401 digits)"
    with pytest.raises(ValueError) as info:
        LossWeights(10**5000)
    assert str(info.value) == f"alpha must be finite and nonnegative, got 1{'0' * 39}... (5001 digits)"
    with pytest.raises(ValueError, match=r"^betas\[0\] must be finite and nonnegative, got -1"):
        LossWeights(1.0, (-(10**5000), 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError) as info:
        LossWeights(1.0, ("7" * 100, 1.0, 1.0, 1.0, 1.0))
    assert str(info.value) == f"betas[0] must be finite and nonnegative, got '{'7' * 39}..."
    w = LossWeights(2, (7, 5, 3, 1, 1))
    assert w.betas == (7.0, 5.0, 3.0, 1.0, 1.0)
    # numpy scalars are real numbers too, and are stored as floats.
    w = LossWeights(np.float64(2.0), tuple(np.array([7.0, 5.0, 3.0, 1.0, 1.0])))
    assert type(w.alpha) is float and all(type(b) is float for b in w.betas)
    assert DEFAULT_WEIGHTS.betas == (7.0, 5.0, 3.0, 1.0, 1.0)
    assert FINE_ONLY_WEIGHTS.betas == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_hybrid_loss_uniform_fixture():
    heads = [np.zeros(n) for n in BIN_COUNTS]
    out = hybrid_loss(heads, 0.0, DEFAULT_WEIGHTS, HIERARCHY)
    closed = 7 * math.log(198) + 5 * math.log(66) + 3 * math.log(18) + math.log(6) + math.log(2)
    assert abs(out.total - closed) < 1e-9
    assert out.regression_term < 1e-24
    assert abs(out.decoded_angle) < 1e-9
    for term, n in zip(out.ce_terms, BIN_COUNTS):
        assert abs(term - math.log(n)) < 1e-12


def test_hybrid_loss_near_perfect_prediction():
    truth = 0.5  # center of a finest bin
    targets = encode_all(truth, HIERARCHY)
    heads = []
    for t, scheme in zip(targets, HIERARCHY.levels):
        z = np.zeros(scheme.n_bins)
        z[t] = 60.0
        heads.append(z)
    out = hybrid_loss(heads, truth, DEFAULT_WEIGHTS, HIERARCHY)
    assert out.total < 1e-8
    assert abs(out.decoded_angle - truth) < 1e-9


def test_hybrid_loss_recombines():
    rng = np.random.default_rng(2)
    heads = random_heads(rng)
    out = hybrid_loss(heads, -37.25, DEFAULT_WEIGHTS, HIERARCHY)
    recombined = DEFAULT_WEIGHTS.alpha * out.regression_term + sum(
        b * c for b, c in zip(DEFAULT_WEIGHTS.betas, out.ce_terms)
    )
    assert abs(out.total - recombined) < 1e-12


def test_doubling_alpha_doubles_regression_share():
    rng = np.random.default_rng(3)
    heads = random_heads(rng)
    w1 = LossWeights(2.0, (7, 5, 3, 1, 1))
    w2 = LossWeights(4.0, (7, 5, 3, 1, 1))
    a = hybrid_loss(heads, 12.0, w1, HIERARCHY)
    b = hybrid_loss(heads, 12.0, w2, HIERARCHY)
    ce_part = sum(bb * c for bb, c in zip(w1.betas, a.ce_terms))
    assert abs((b.total - ce_part) - 2.0 * (a.total - ce_part)) < 1e-9


def test_hybrid_loss_shift_invariance():
    rng = np.random.default_rng(4)
    heads = random_heads(rng)
    base = hybrid_loss(heads, 5.0, DEFAULT_WEIGHTS, HIERARCHY)
    for i in range(len(heads)):
        shifted = [h + 7.5 if j == i else h for j, h in enumerate(heads)]
        out = hybrid_loss(shifted, 5.0, DEFAULT_WEIGHTS, HIERARCHY)
        assert abs(out.total - base.total) < 1e-9


def test_grad_zero_when_all_weights_zero():
    rng = np.random.default_rng(5)
    heads = random_heads(rng)
    weights = LossWeights(0.0, (0.0,) * 5)
    for g in hybrid_loss_grad(heads, 10.0, weights, HIERARCHY):
        assert (g == 0.0).all()


def test_grad_ce_only_matches_softmax_minus_onehot():
    rng = np.random.default_rng(6)
    heads = random_heads(rng)
    truth = -12.75
    weights = LossWeights(0.0, (1.0, 0.0, 0.0, 0.0, 0.0))
    grads = hybrid_loss_grad(heads, truth, weights, HIERARCHY)
    expected = _softmax(heads[0])
    expected[encode_all(truth, HIERARCHY)[0]] -= 1.0
    assert np.abs(grads[0] - expected).max() < 1e-12
    for g in grads[1:]:
        assert (g == 0.0).all()


@pytest.mark.parametrize("convention", ["center", "edge"], ids=["degrees", "degrees-edge"])
def test_grad_matches_finite_differences(convention):
    rng = np.random.default_rng(7)
    for _ in range(5):
        heads = random_heads(rng)
        truth = float(rng.uniform(-99.0, 99.0))
        grads = hybrid_loss_grad(
            heads, truth, DEFAULT_WEIGHTS, HIERARCHY, convention=convention
        )
        sizes = [h.size for h in heads]

        def unpack(flat):
            out, off = [], 0
            for n in sizes:
                out.append(flat[off : off + n])
                off += n
            return out

        def f(flat):
            return hybrid_loss(
                unpack(flat), truth, DEFAULT_WEIGHTS, HIERARCHY, convention=convention
            ).total

        flat = np.concatenate(heads)
        numeric = fd_gradient(f, flat)
        analytic = np.concatenate(grads)
        assert relative_error(analytic, numeric) < 1e-5


def test_edge_convention_shifts_decode():
    rng = np.random.default_rng(9)
    heads = random_heads(rng)
    center = hybrid_loss(heads, 0.0, DEFAULT_WEIGHTS, HIERARCHY)
    edge = hybrid_loss(heads, 0.0, DEFAULT_WEIGHTS, HIERARCHY, convention="edge")
    width = HIERARCHY.finest.bin_width
    assert abs((center.decoded_angle - edge.decoded_angle) - width / 2.0) < 1e-9


def test_hybrid_loss_validation():
    heads = [np.zeros(n) for n in BIN_COUNTS]
    with pytest.raises(ValueError, match="betas"):
        hybrid_loss(heads, 0.0, LossWeights(1.0, (1.0, 1.0)), HIERARCHY)
    with pytest.raises(ValueError, match="outside"):
        hybrid_loss(heads, 99.5, DEFAULT_WEIGHTS, HIERARCHY)
    with pytest.raises(ValueError, match="logit vectors"):
        hybrid_loss(heads[:4], 0.0, DEFAULT_WEIGHTS, HIERARCHY)
    with pytest.raises(ValueError, match="shape"):
        hybrid_loss([np.zeros(197), *heads[1:]], 0.0, DEFAULT_WEIGHTS, HIERARCHY)


# 12 * b bins never divide the 198-degree range evenly: the finest width is
# 16.5 / b degrees, so these hierarchies have non-integer bin widths.
random_bin_counts = st.integers(1, 30).map(lambda b: (12 * b, 6 * b, 2 * b, b))


@settings(deadline=None)
@given(counts=random_bin_counts)
@example(counts=(24, 12, 4, 2))
@example(counts=(36, 18, 6, 3))
@example(counts=(60, 30, 10, 5))
@example(counts=(84, 42, 14, 7))
def test_coarse_labels_are_coarsened_fine_labels(counts):
    """Every coarse bin boundary, and 1e-12 either side, for random bin counts."""
    hierarchy = make_hierarchy(counts)
    finest = hierarchy.finest
    lo, hi, w = MIN_ANGLE, MAX_ANGLE, MAX_ANGLE - MIN_ANGLE
    angles = np.array(
        sorted(
            {
                min(max(lo + k * w / s.n_bins + delta, lo), hi)
                for s in hierarchy.levels[1:]
                for k in range(s.n_bins + 1)
                for delta in (-1e-12, 0.0, 1e-12)
            }
        )
    )
    labels = np.array([encode_all(a, hierarchy) for a in angles])
    for scheme, column in zip(hierarchy.levels, labels.T):
        assert [coarsen(f, finest, scheme) for f in labels[:, 0]] == column.tolist()

    # With uniform logits and CE weights only, each row's gradient is
    # (1/k - onehot) / n: negative at the label the batched core used.
    logits = [np.zeros((1, len(angles), s.n_bins)) for s in hierarchy.levels]
    weights = LossWeights(0.0, (1.0,) * hierarchy.depth)
    _, _, grads = _angle_terms(logits, angles[None], weights, hierarchy, decode_positions(finest))
    used = np.stack([g[0].argmin(axis=1) for g in grads], axis=1)
    assert (used == labels).all()


@settings(deadline=None)
@given(counts=random_bin_counts)
@example(counts=(24, 12, 4, 2))
@example(counts=(84, 42, 14, 7))
def test_angles_outside_bin_range_are_rejected(counts):
    """Just below -99 or above 99 fails everywhere a label is made; -99 and 99 pass."""
    hierarchy = make_hierarchy(counts)
    finest = hierarchy.finest
    weights = LossWeights(1.0, (1.0,) * hierarchy.depth)
    heads = [np.zeros(s.n_bins) for s in hierarchy.levels]
    config = NetConfig(input_dim=2, hidden_dims=(2,), hierarchy=hierarchy)

    def checks(angle):
        data = Dataset(np.zeros((1, 2)), [[angle, MIN_ANGLE, MAX_ANGLE]])
        return [
            lambda: encode(angle, finest),
            lambda: encode_all(angle, hierarchy),
            lambda: hybrid_loss(heads, angle, weights, hierarchy),
            lambda: hybrid_loss_grad(heads, angle, weights, hierarchy),
            lambda: train(config, data, data, weights, epochs=0),
        ]

    for angle in (np.nextafter(MIN_ANGLE, -np.inf), np.nextafter(MAX_ANGLE, np.inf)):
        for check in checks(angle):
            with pytest.raises(ValueError, match="outside bin range"):
                check()
    for angle in (MIN_ANGLE, MAX_ANGLE):
        for check in checks(angle):
            check()
