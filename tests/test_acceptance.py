"""End-to-end behavior gate.

Run ``python3 -m pytest tests/test_acceptance.py -v -s`` to get one PASS
line per criterion.  The training-based checks share a single session over
a fixed synthetic dataset, so the whole module stays well inside a ten
minute budget on one CPU.
"""

import math
import time

import numpy as np
import pytest

from hybridpose.angles import PoseAngles, euler_to_rotation, rotation_to_euler
from hybridpose.binning import (
    bin_center,
    coarsen,
    encode,
    encode_all,
    expect_decode,
    make_hierarchy,
)
from hybridpose.cli import main
from hybridpose.data import ParseError, format_biwi_pose, parse_biwi_pose
from hybridpose.loss import (
    DEFAULT_WEIGHTS,
    FINE_ONLY_WEIGHTS,
    LossWeights,
    hybrid_loss,
    hybrid_loss_grad,
)
from hybridpose.synth import SynthConfig, make_dataset
from hybridpose.tinynet import NetConfig, TinyNet, train, _batch_loss_and_grads, init_net

from helpers import fd_gradient, relative_error, row_logits

HIERARCHY = make_hierarchy()
ANGLE_GRID = np.arange(-99.0, 99.0 + 0.25, 0.25)

NET_SEEDS = (0, 1, 2, 3, 4)
SESSION_EPOCHS = 30


@pytest.fixture(scope="module")
def training_session():
    """Ten full runs (two weightings, five seeds) on one fixed dataset."""
    train_samples, val_samples = make_dataset(SynthConfig(n_samples=2500, seed=7))
    assert (len(train_samples), len(val_samples)) == (2000, 500)
    start = time.perf_counter()
    results = {}
    for label, weights in (("hybrid", DEFAULT_WEIGHTS), ("fine_only", FINE_ONLY_WEIGHTS)):
        reports = []
        for seed in NET_SEEDS:
            config = NetConfig(input_dim=24, seed=seed)
            _, report = train(
                config, train_samples, val_samples, weights,
                epochs=SESSION_EPOCHS, learning_rate=1e-3, batch_size=64,
            )
            reports.append(report)
        results[label] = reports
    results["elapsed"] = time.perf_counter() - start
    return results


def median_final_mae(reports):
    return float(np.median([r.final_val.mean_mae for r in reports]))


def test_bin_levels_agree_for_every_angle():
    start = time.perf_counter()
    finest = HIERARCHY.finest
    checked = 0
    for angle in ANGLE_GRID:
        indices = encode_all(angle, HIERARCHY)
        for scheme, index in zip(HIERARCHY.levels[1:], indices[1:]):
            assert coarsen(indices[0], finest, scheme) == index
            assert encode(angle, scheme) == index
            checked += 1
    assert checked == len(ANGLE_GRID) * (HIERARCHY.depth - 1)
    assert time.perf_counter() - start < 1.0
    print("PASS: every coarse level agrees with coarsening from the finest bins")


def test_bin_quantization_error_is_bounded():
    for angle in ANGLE_GRID:
        for scheme in HIERARCHY.levels:
            center = bin_center(encode(angle, scheme), scheme)
            assert abs(center - angle) <= scheme.bin_width / 2.0 + 1e-12
    print("PASS: bin quantization error never exceeds half a bin width")


def test_expectation_decoding_identities():
    for scheme in HIERARCHY.levels:
        for i in range(scheme.n_bins):
            probs = np.zeros(scheme.n_bins)
            probs[i] = 1.0
            assert expect_decode(probs, scheme) == bin_center(i, scheme)
        uniform = np.full(scheme.n_bins, 1.0 / scheme.n_bins)
        assert abs(expect_decode(uniform, scheme)) < 1e-9
    print("PASS: expectation decoding is exact on concentrated and uniform inputs")


def test_loss_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    sizes = [s.n_bins for s in HIERARCHY.levels]
    splits = np.cumsum(sizes)[:-1]
    worst = 0.0
    for _ in range(100):
        heads = [rng.normal(scale=2.0, size=n) for n in sizes]
        truth = float(rng.uniform(-98.9, 98.9))
        weights = LossWeights(
            alpha=float(rng.uniform(0.5, 4.0)),
            betas=tuple(rng.uniform(0.0, 8.0, size=5)),
        )
        analytic = np.concatenate(hybrid_loss_grad(heads, truth, weights, HIERARCHY))

        def scalar(flat):
            parts = np.split(flat, splits)
            return hybrid_loss(parts, truth, weights, HIERARCHY).total

        numeric = fd_gradient(scalar, np.concatenate(heads), step=1e-4)
        worst = max(worst, relative_error(analytic, numeric))
    assert worst < 1e-4
    assert time.perf_counter() - start < 10.0
    print(f"PASS: loss gradients match finite differences (worst rel err {worst:.2e})")


def test_network_gradient_matches_finite_differences():
    config = NetConfig(input_dim=4, hidden_dims=(8,), hierarchy=make_hierarchy((6, 2)), seed=0)
    net = init_net(config)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4))
    targets = rng.uniform(-60.0, 60.0, size=(3, 3))
    pre_acts, _ = net._forward_batch(x)
    assert min(np.abs(z).min() for z in pre_acts) > 1e-3

    weights = LossWeights(alpha=1.5, betas=(2.0, 0.5))
    grads = TinyNet(config)
    _batch_loss_and_grads(net, x, targets, weights, grads)
    base = net.flat.copy()

    def scalar(flat):
        net.flat[...] = flat
        total = sum(
            hybrid_loss(heads, truth, weights, config.hierarchy).total
            for row, tgt in zip(x, targets)
            for heads, truth in zip(row_logits(net, row), tgt)
        )
        net.flat[...] = base
        return total / x.shape[0]

    err = relative_error(grads.flat, fd_gradient(scalar, base, step=1e-4))
    assert err < 1e-4
    print(f"PASS: backprop through the network matches finite differences (rel err {err:.2e})")


def test_uninformative_logits_give_closed_form_loss():
    heads = [np.zeros(s.n_bins) for s in HIERARCHY.levels]
    breakdown = hybrid_loss(heads, 0.0, DEFAULT_WEIGHTS, HIERARCHY)
    expected = (
        7.0 * math.log(198) + 5.0 * math.log(66) + 3.0 * math.log(18)
        + math.log(6) + math.log(2)
    )
    assert abs(breakdown.total - expected) < 1e-9
    assert breakdown.regression_term < 1e-24
    print("PASS: all-zero logits at truth 0 reproduce the closed-form loss")


def test_hybrid_weighting_beats_fine_only_classification(training_session):
    hybrid = median_final_mae(training_session["hybrid"])
    fine_only = median_final_mae(training_session["fine_only"])
    assert hybrid <= fine_only, (
        f"hybrid median val MAE {hybrid:.4f} vs fine-only {fine_only:.4f}"
    )
    assert training_session["elapsed"] < 600.0
    for reports in (training_session["hybrid"], training_session["fine_only"]):
        for report in reports:
            assert report.wall_seconds < 120.0
    print(
        f"PASS: hybrid weighting beats fine-only classification "
        f"(median val MAE {hybrid:.4f} vs {fine_only:.4f}, "
        f"{training_session['elapsed']:.0f}s for 10 runs)"
    )


def test_training_converges_to_sensible_errors(training_session):
    for label in ("hybrid", "fine_only"):
        reports = training_session[label]
        med = median_final_mae(reports)
        assert med < 15.0, f"{label} median val MAE {med:.4f}"
        for report in reports:
            assert report.epoch_total[-1] < report.epoch_total[0]
    print("PASS: training converges, with validation MAE far under 15 degrees")


def test_pose_text_round_trip_and_error_location():
    rng = np.random.default_rng(99)
    for _ in range(100):
        pose = PoseAngles(rng.uniform(-75, 75), rng.uniform(-60, 60), rng.uniform(-50, 50))
        text = format_biwi_pose(euler_to_rotation(pose))
        got = rotation_to_euler(parse_biwi_pose(text)[0])
        assert abs(got.yaw - pose.yaw) < 1e-6
        assert abs(got.pitch - pose.pitch) < 1e-6
        assert abs(got.roll - pose.roll) < 1e-6
    identity = parse_biwi_pose("1 0 0\n0 1 0\n0 0 1\n0 0 0\n")[0]
    assert rotation_to_euler(identity) == PoseAngles(0.0, 0.0, 0.0)
    with pytest.raises(ParseError, match="line 2"):
        parse_biwi_pose("1 0 0\n0 1\n0 0 1\n0 0 0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_biwi_pose("2 0 0\n0 1 0\n0 0 1\n0 0 0\n")
    print("PASS: pose files round-trip to within 1e-6 degrees and errors carry line numbers")


def test_reported_mean_error_rounds_to_reference_value(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    pred.write_text("id,yaw,pitch,roll\ns,4.820,6.227,5.137\n")
    truth.write_text("id,yaw,pitch,roll\ns,0,0,0\n")
    rc = main(["eval", "--pred", str(pred), "--truth", str(truth)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["Yaw", "Pitch", "Roll", "MAE"]
    mean = float(lines[1].split()[-1])
    assert round(mean, 3) == 5.395
    print("PASS: evaluation reports the mean of per-angle errors (5.395 on the fixture)")


def test_pipeline_is_byte_deterministic(tmp_path, capsys):
    def synth(into):
        into.mkdir(exist_ok=True)
        rc = main([
            "synth", "--n", "30", "--out-train", str(into / "train.csv"),
            "--out-val", str(into / "val.csv"),
        ])
        assert rc == 0
        return (into / "train.csv").read_bytes(), (into / "val.csv").read_bytes()

    def run_train(into):
        rc = main([
            "train", "--train", str(tmp_path / "a" / "train.csv"),
            "--val", str(tmp_path / "a" / "val.csv"),
            "--epochs", "2", "--hidden", "8", "--batch-size", "16",
            "--checkpoint-out", str(into / "net.json"),
            "--report-out", str(into / "report.csv"),
        ])
        assert rc == 0
        return (into / "net.json").read_bytes(), (into / "report.csv").read_bytes()

    def run_eval(into, name):
        rc = main([
            "eval", "--checkpoint", str(into / "net.json"),
            "--data", str(tmp_path / "a" / "val.csv"), "--out", str(into / name),
        ])
        assert rc == 0
        return (into / name).read_bytes()

    def run_ablate(name):
        grid = tmp_path / "grid.txt"
        grid.write_text("2,7,5,3,1,1\n")
        rc = main([
            "ablate", "--train", str(tmp_path / "a" / "train.csv"),
            "--val", str(tmp_path / "a" / "val.csv"), "--grid-file", str(grid),
            "--seeds", "0,1", "--epochs", "1", "--hidden", "8",
            "--out", str(tmp_path / name),
        ])
        assert rc == 0
        return (tmp_path / name).read_bytes()

    def run_parse(name):
        poses = tmp_path / "poses"
        poses.mkdir(exist_ok=True)
        (poses / "one.txt").write_text(
            format_biwi_pose(euler_to_rotation(PoseAngles(12.0, -4.0, 30.0)))
        )
        rc = main(["parse-biwi", "--dir", str(poses), "--out", str(tmp_path / name)])
        assert rc == 0
        return (tmp_path / name).read_bytes()

    a, b = tmp_path / "a", tmp_path / "b"
    assert synth(a) == synth(b)
    assert run_train(a) == run_train(b)
    assert run_eval(a, "m1.csv") == run_eval(a, "m2.csv")
    assert run_ablate("abl1.csv") == run_ablate("abl2.csv")
    assert run_parse("ann1.csv") == run_parse("ann2.csv")
    capsys.readouterr()
    print("PASS: every command is byte-for-byte reproducible given the same inputs")
