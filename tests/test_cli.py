import re

import numpy as np
import pytest

from hybridpose.angles import PoseAngles, euler_to_rotation
from hybridpose.cli import DEFAULT_WEIGHT_GRID, _write_atomic, main
from hybridpose.data import PREDICTIONS_HEADER, format_biwi_pose
from hybridpose.tinynet import NetConfig, checkpoint_text, init_net


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_split(tmp_path, capsys, n=30, seed=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    train = tmp_path / "train.csv"
    val = tmp_path / "val.csv"
    rc, _, err = run(
        capsys, "synth", "--n", str(n), "--seed", str(seed),
        "--out-train", str(train), "--out-val", str(val),
    )
    assert rc == 0, err
    return train, val


def test_synth_writes_both_splits(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    assert len(train.read_text().splitlines()) == 24
    assert len(val.read_text().splitlines()) == 6


def test_synth_is_byte_deterministic(tmp_path, capsys):
    a_train, a_val = make_split(tmp_path / "a", capsys)
    b_train, b_val = make_split(tmp_path / "b", capsys)
    assert a_train.read_bytes() == b_train.read_bytes()
    assert a_val.read_bytes() == b_val.read_bytes()


def test_synth_rejects_out_of_range_angles(tmp_path, capsys):
    rc, _, err = run(
        capsys, "synth", "--yaw-range", "0,120",
        "--out-train", str(tmp_path / "t"), "--out-val", str(tmp_path / "v"),
    )
    assert rc == 1
    assert "yaw" in err


def test_synth_requires_output_paths(tmp_path, capsys):
    rc, _, err = run(capsys, "synth", "--out-val", str(tmp_path / "v"))
    assert rc == 1
    assert "--out-train" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "# synthetic data settings\n"
        "n = 12\n"
        "seed = 3\n"
        f"out-train = {tmp_path / 'c_train.csv'}\n"
        f"out_val = {tmp_path / 'c_val.csv'}\n"
    )
    rc, _, err = run(capsys, "synth", "--config", str(cfg), "--seed", "4")
    assert rc == 0, err

    direct_train, _ = make_split(tmp_path / "direct", capsys, n=12, seed=4)
    assert (tmp_path / "c_train.csv").read_bytes() == direct_train.read_bytes()


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    rc, _, err = run(capsys, "synth", "--config", str(cfg))
    assert rc == 1
    assert "line 1" in err


def train_tiny(tmp_path, capsys, *extra):
    train, val = make_split(tmp_path, capsys, n=30)
    ckpt = tmp_path / "net.json"
    report = tmp_path / "report.csv"
    rc, out, err = run(
        capsys, "train", "--train", str(train), "--val", str(val),
        "--epochs", "2", "--hidden", "8", "--batch-size", "16",
        "--checkpoint-out", str(ckpt), "--report-out", str(report), *extra,
    )
    return rc, out, err, ckpt, report


def test_train_end_to_end(tmp_path, capsys):
    rc, out, err, ckpt, report = train_tiny(tmp_path, capsys)
    assert rc == 0, err
    assert "alpha = 2" in out
    assert "betas = 7,5,3,1,1" in out
    assert "final val MAE" in out
    assert ckpt.exists()
    lines = report.read_text().splitlines()
    assert lines[0].startswith("epoch,total,regression,ce_198,ce_66,ce_18,ce_6,ce_2")
    assert len(lines) == 3


def test_train_zero_epochs_writes_initial_weights(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    ckpt = tmp_path / "init.json"
    rc, _, err = run(
        capsys, "train", "--train", str(train), "--val", str(val),
        "--epochs", "0", "--hidden", "8", "--checkpoint-out", str(ckpt),
    )
    assert rc == 0, err
    expected = checkpoint_text(init_net(NetConfig(input_dim=24, hidden_dims=(8,), seed=0)))
    assert ckpt.read_text() == expected


def test_train_is_byte_deterministic(tmp_path, capsys):
    rc_a, _, _, ckpt_a, report_a = train_tiny(tmp_path / "a", capsys)
    rc_b, _, _, ckpt_b, report_b = train_tiny(tmp_path / "b", capsys)
    assert rc_a == rc_b == 0
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert report_a.read_bytes() == report_b.read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_fails_on_overflowing_adam_moment(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=500)
    ckpt = tmp_path / "net.json"
    rc, _, err = run(
        capsys, "train", "--train", str(train), "--val", str(val),
        "--epochs", "2", "--hidden", "8", "--alpha", "1e300",
        "--checkpoint-out", str(ckpt),
    )
    assert rc == 1
    assert re.search(r"error: .*non-finite.* at update \d+", err), err
    assert not ckpt.exists()


def write_csv(path, rows):
    path.write_text("id,yaw,pitch,roll\n" + "".join(f"{r}\n" for r in rows))


def test_eval_identical_predictions_score_zero(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    write_csv(pred, ["a,10,20,-5", "b,0,1,2"])
    write_csv(truth, ["a,10,20,-5", "b,0,1,2"])
    rc, out, _ = run(capsys, "eval", "--pred", str(pred), "--truth", str(truth))
    assert rc == 0
    assert "Yaw" in out and "MAE" in out
    assert "0.0000" in out


def test_eval_reports_mean_of_per_angle_errors(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    write_csv(pred, ["s,3.4273,2.6437,2.9811"])
    write_csv(truth, ["s,0,0,0"])
    metrics = tmp_path / "metrics.csv"
    rc, out, _ = run(
        capsys, "eval", "--pred", str(pred), "--truth", str(truth), "--out", str(metrics),
    )
    assert rc == 0
    assert "3.0174" in out
    lines = metrics.read_text().splitlines()
    assert lines[0] == "yaw_mae,pitch_mae,roll_mae,mean_mae,n_samples"
    assert lines[1].endswith(",1")


def test_eval_id_mismatch_fails_without_output(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    write_csv(pred, ["a,1,2,3"])
    write_csv(truth, ["b,1,2,3"])
    out_file = tmp_path / "metrics.csv"
    rc, _, err = run(
        capsys, "eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out_file),
    )
    assert rc == 1
    assert "id mismatch" in err
    assert "a" in err and "b" in err
    assert not out_file.exists()


def test_eval_checkpoint_mode(tmp_path, capsys):
    rc, _, err, ckpt, _ = train_tiny(tmp_path, capsys)
    assert rc == 0, err
    pred_out = tmp_path / "preds.csv"
    rc, out, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "val.csv"),
        "--pred-out", str(pred_out),
    )
    assert rc == 0, err
    assert "MAE" in out
    lines = pred_out.read_text().splitlines()
    assert lines[0] == PREDICTIONS_HEADER
    assert len(lines) == 7


def test_eval_mae_equals_train_final_val_mae(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=300)
    ckpt = tmp_path / "net.json"
    report = tmp_path / "report.csv"
    rc, _, err = run(
        capsys, "train", "--train", str(train), "--val", str(val), "--epochs", "2",
        "--checkpoint-out", str(ckpt), "--report-out", str(report),
    )
    assert rc == 0, err
    metrics = tmp_path / "metrics.csv"
    rc, _, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(val), "--out", str(metrics),
    )
    assert rc == 0, err
    header, *rows = report.read_text().splitlines()
    train_mae = dict(zip(header.split(","), rows[-1].split(",")))["val_mean_mae"]
    header, row = metrics.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["mean_mae"] == train_mae


def test_eval_rejects_feature_length_mismatch(tmp_path, capsys):
    rc, _, err, ckpt, _ = train_tiny(tmp_path, capsys)
    assert rc == 0, err
    short = tmp_path / "short.csv"
    short.write_text("".join(
        ",".join(line.split(",")[2:]) + "\n"
        for line in (tmp_path / "val.csv").read_text().splitlines()
    ))
    rc, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(short))
    assert rc == 1
    assert "expected feature vector of length 24, got shape (6, 22)" in err


def test_write_atomic_failure_leaves_no_files(tmp_path):
    target = tmp_path / "out.csv"
    unencodable = "a\ud800\n"
    with pytest.raises(UnicodeEncodeError):
        _write_atomic(target, unencodable)
    assert list(tmp_path.iterdir()) == []
    _write_atomic(target, "kept\n")
    with pytest.raises(UnicodeEncodeError):
        _write_atomic(target, unencodable)
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "kept\n"


def test_eval_requires_one_mode(capsys):
    rc, _, err = run(capsys, "eval")
    assert rc == 1
    assert "provide either" in err


def test_ablate_with_grid_file(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    grid = tmp_path / "grid.txt"
    grid.write_text("# single configuration\n2,7,5,3,1,1\n")
    out_csv = tmp_path / "ablation.csv"
    rc, out, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid), "--seeds", "0,1", "--epochs", "1",
        "--hidden", "8", "--out", str(out_csv),
    )
    assert rc == 0, err
    assert "expectation decoding: bin centers" in out
    assert "median val MAE" in err
    table = [line for line in out.splitlines() if line.strip().endswith("*")]
    assert len(table) == 1
    lines = out_csv.read_text().splitlines()
    assert lines[0].endswith("median_val_mean_mae,best")
    assert len(lines) == 2
    assert lines[1].endswith(",1")


def test_ablate_rejects_empty_grid(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    grid = tmp_path / "grid.txt"
    grid.write_text("# nothing here\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid),
    )
    assert rc == 1
    assert "empty" in err


def test_ablate_rejects_malformed_grid_row(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    grid = tmp_path / "grid.txt"
    grid.write_text("1,2,3\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid),
    )
    assert rc == 1
    assert "line 1" in err


def test_default_grid_shape():
    assert len(DEFAULT_WEIGHT_GRID) == len(set(DEFAULT_WEIGHT_GRID)) == 8
    assert (2.0, 1.0, 0.0, 0.0, 0.0, 0.0) in DEFAULT_WEIGHT_GRID
    assert (2.0, 7.0, 5.0, 3.0, 1.0, 1.0) in DEFAULT_WEIGHT_GRID
    assert {row[0] for row in DEFAULT_WEIGHT_GRID} == {0.1, 1.0, 2.0, 4.0}
    assert all(len(row) == 6 for row in DEFAULT_WEIGHT_GRID)


def test_parse_biwi_directory(tmp_path, capsys):
    poses = tmp_path / "poses"
    poses.mkdir()
    (poses / "b.txt").write_text(format_biwi_pose(np.eye(3)))
    rot = euler_to_rotation(PoseAngles(30.0, -10.0, 5.0))
    (poses / "a.txt").write_text(format_biwi_pose(rot, translation=(1.0, 2.0, 3.0)))
    (poses / "c.txt").write_text(format_biwi_pose(euler_to_rotation(PoseAngles(0.0, 45.0, 0.0))))
    (poses / "bad.txt").write_text("1 0 0\nnot a matrix\n")
    (poses / "ignored.csv").write_text("not matched by the pattern")

    out = tmp_path / "annotations.csv"
    rc, stdout, err = run(capsys, "parse-biwi", "--dir", str(poses), "--out", str(out))
    assert rc == 0
    assert "skipped bad.txt" in err
    assert "parsed 3 file(s), rejected 1" in stdout

    lines = out.read_text().splitlines()
    assert lines[0] == "id,yaw,pitch,roll"
    assert [line.split(",")[0] for line in lines[1:]] == ["a", "b", "c"]
    a_vals = [float(v) for v in lines[1].split(",")[1:]]
    assert np.abs(np.array(a_vals) - np.array([30.0, -10.0, 5.0])).max() < 1e-6
    b_vals = [float(v) for v in lines[2].split(",")[1:]]
    assert np.abs(np.array(b_vals)).max() == 0.0


def test_parse_biwi_requires_directory(tmp_path, capsys):
    rc, _, err = run(
        capsys, "parse-biwi", "--dir", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
    )
    assert rc == 1
    assert "not a directory" in err
