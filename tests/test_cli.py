import gc
import hashlib
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from functools import partial
from itertools import starmap
from pathlib import Path

import numpy as np
import pytest

import hybridpose
from hybridpose import _helper, cli, tinynet
from hybridpose.angles import MaeReport, PoseAngles, euler_to_rotation, mae
from hybridpose.cli import DEFAULT_WEIGHT_GRID, _write_atomic, main
from hybridpose.data import (
    PREDICTIONS_HEADER,
    ParseError,
    format_annotation_csv,
    format_biwi_pose,
    format_predictions_csv,
    parse_annotation_csv,
)
from hybridpose.synth import Dataset, format_dataset, load_dataset
from hybridpose.tinynet import (
    PREDICT_BLOCK_ROWS,
    NetConfig,
    TrainReport,
    checkpoint_text,
    init_net,
    load_checkpoint,
)


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
    assert f"{cfg}: line 1: expected 'key = value'" in err
    # An undecodable byte fails at its line, naming the file.
    cfg.write_bytes(b"seed = 1\n\xff\n")
    rc, _, err = run(capsys, "synth", "--config", str(cfg))
    assert rc == 1
    assert f"{cfg}: line 2: expected 'key = value', got '\\udcff'" in err


def test_config_file_rejects_duplicate_keys(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    out_train, out_val = tmp_path / "t.csv", tmp_path / "v.csv"
    cfg.write_text(f"seed = 1\nout-train = {out_train}\nout_val = {out_val}\nseed = 2\n")
    rc, _, err = run(capsys, "synth", "--config", str(cfg))
    assert rc == 1
    assert f"{cfg}: line 4: duplicate key 'seed' (first on line 1)" in err
    assert not out_train.exists() and not out_val.exists()
    cfg.write_text(f"out_train = {out_train}\nout-train = {out_train}\n")
    rc, _, err = run(capsys, "synth", "--config", str(cfg))
    assert rc == 1
    assert f"{cfg}: line 2: duplicate key 'out_train' (first on line 1)" in err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"train = {train}\nval = {val}\nepoch = 1\nhiden = 8\n")
    ckpt = tmp_path / "net.json"
    rc, _, err = run(capsys, "train", "--config", str(cfg), "--checkpoint-out", str(ckpt))
    assert rc == 1
    assert f"{cfg}: line 3: unknown option 'epoch' for train" in err
    assert not ckpt.exists()
    # Not options of train: argparse bookkeeping, and an option of ablate only.
    for key in ("config", "command", "func", "seeds"):
        cfg.write_text(f"# comment\n{key} = x\n")
        rc, _, err = run(capsys, "train", "--config", str(cfg))
        assert rc == 1
        assert f"{cfg}: line 2: unknown option {key!r} for train" in err
    cfg.write_text(f"train = {train}\nval = {val}\nepochs = many\n")
    rc, _, err = run(capsys, "train", "--config", str(cfg), "--checkpoint-out", str(ckpt))
    assert rc == 1
    assert f"{cfg}: line 3: config value epochs = 'many'" in err


def test_config_value_outside_choices_names_file_and_line(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    ckpt = tmp_path / "net.json"
    ckpt.write_text(checkpoint_text(init_net(NetConfig(input_dim=24, hidden_dims=(8,), seed=0))))
    grid = tmp_path / "grid.txt"
    grid.write_text("2,7,5,3,1,1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# decoding\ndecode-convention = middle\n")
    for argv in (
        ["train", "--train", str(train), "--val", str(val), "--epochs", "1", "--hidden", "8",
         "--checkpoint-out", str(tmp_path / "out.json")],
        ["ablate", "--train", str(train), "--val", str(val), "--grid-file", str(grid),
         "--seeds", "0", "--epochs", "1", "--hidden", "8"],
    ):
        rc, out, err = run(capsys, *argv, "--config", str(cfg))
        assert rc == 1
        assert (
            f"error: {cfg}: line 2: config value decode_convention = 'middle': "
            "invalid choice (choose from 'center', 'edge')"
        ) in err
        assert out == "" and "median val MAE" not in err
    assert not (tmp_path / "out.json").exists()
    # The checkpoint carries the convention, so eval has no such option.
    rc, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(val),
                       "--config", str(cfg))
    assert rc == 1 and out == ""
    assert f"error: {cfg}: line 2: unknown option 'decode_convention' for eval" in err


def _sample_text(option):
    """A flag value for ``option`` that differs from its default."""
    if option.choices:
        return next(c for c in option.choices if c != option.default)
    samples = {int: "7", float: "0.5", cli._pair: "-5,5", cli._int_list: "3,4",
               cli._float_list: "1,2,3,4,5"}
    return samples.get(option.type, "some/file.csv")


@pytest.mark.parametrize(
    "command, option",
    [(command, o) for command, (_, _, options) in cli._COMMANDS.items() for o in options],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_config_key_gives_the_flag_value(tmp_path, command, option):
    options = cli._COMMANDS[command][2]
    others = [arg for o in options if o.required and o is not option for arg in (o.flag, "x")]
    text = _sample_text(option)
    by_flag = cli._parse_args([command, *others, f"{option.flag}={text}"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option.flag[2:]} = {text}\n")
    by_key = cli._parse_args([command, *others, "--config", str(cfg)])
    assert getattr(by_key, option.name) == getattr(by_flag, option.name) != option.default
    assert vars(by_key) == {**vars(by_flag), "config": str(cfg)}


@pytest.mark.parametrize(
    "command, shown",
    [("synth", "-75,75"), ("train", "7,5,3,1,1"), ("eval", None), ("ablate", "0,1,2,3,4"),
     ("parse-biwi", "*.txt")],
)
def test_help_lists_every_default(capsys, command, shown):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    # argparse wraps help lines wherever it likes; compare without whitespace.
    out = "".join(capsys.readouterr().out.split())
    # shown is None for a command whose options have no default.
    assert (f"(default{shown})" in out) if shown else ("(default" not in out)
    for option in cli._COMMANDS[command][2]:
        assert option.flag in out
        if option.required:
            assert "(required)" in out
        elif option.default is not None:
            assert f"(default{cli._show(option.default)})" in out


_DASH_VALUES = {int: "-7", float: "-0.5", cli._pair: "-5,5", cli._int_list: "-3,4",
                cli._float_list: "-1,2,3,4,5", str: "-some/file.csv"}


@pytest.mark.parametrize(
    "command, option",
    [(command, o) for command, (_, _, options) in cli._COMMANDS.items() for o in options
     if o.choices is None],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_value_starting_with_dash_parses_like_the_equals_form(command, option):
    options = cli._COMMANDS[command][2]
    others = [arg for o in options if o.required and o is not option for arg in (o.flag, "x")]
    text = _DASH_VALUES[option.type]
    spaced = cli._parse_args([command, *others, option.flag, text])
    joined = cli._parse_args([command, *others, f"{option.flag}={text}"])
    assert vars(spaced) == vars(joined)
    assert getattr(spaced, option.name) == option.parse(text)


def test_value_starting_with_dash_after_abbreviated_flag_and_for_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("-run.cfg").write_text("n = 40\n")
    args = cli._parse_args(["synth", "--yaw", "-30,30", "--config", "-run.cfg",
                            "--out-train", "-a.csv", "--out-val", "-b.csv"])
    assert (args.yaw_range, args.n, args.out_train, args.out_val) == (
        (-30.0, 30.0), 40, "-a.csv", "-b.csv")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--out-train", "--out-val", "x"], "argument --out-train: expected one argument"),
        (["synth", "--n", "--seed", "3"], "argument --n: expected one argument"),
        (["synth", "--yaw-range", "-30", "--out-train", "a", "--out-val", "b"],
         "argument --yaw-range: expected 'lo,hi', got '-30'"),
        (["ablate", "--train", "a", "--val", "b", "--seeds", ""],
         "argument --seeds: expected comma-separated integers, got ''"),
        (["train", "--train", "a", "--val", "b", "--checkpoint-out", "c", "--betas", "-1,x"],
         "argument --betas: expected comma-separated numbers, got '-1,x'"),
        (["synth", "--n", "-1.5", "--out-train", "a", "--out-val", "b"],
         "argument --n: expected an integer, got '-1.5'"),
    ],
)
def test_bad_flag_fails_naming_the_expected_form(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "_pair" not in err and "_list" not in err


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


def helper_pids(monkeypatch) -> list:
    """Patch ``_helper.Helper`` to record the pid of each helper process it starts."""
    pids = []

    class Recorded(_helper.Helper):
        def __init__(self, *args):
            super().__init__(*args)  # the helper itself never returns from this
            pids.append(self.pid)

    monkeypatch.setattr(_helper, "Helper", Recorded)
    return pids


def assert_no_child_process():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# These check the CLI's affinity-to-helper wiring; test_config_space.py compares the bits.
@pytest.mark.parametrize("extra", [(), ("--epochs", "0")], ids=["defaults", "no-epochs"])
def test_train_output_does_not_depend_on_core_count(tmp_path, capsys, monkeypatch, extra):
    pids = helper_pids(monkeypatch)
    train, val = make_split(tmp_path, capsys, n=150)  # 120 training rows
    outputs = []
    # One usable core trains in this process; two start a helper, whatever the machine has.
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        ckpt, report = tmp_path / f"net{len(cores)}.json", tmp_path / f"report{len(cores)}.csv"
        rc, out, err = run(
            capsys, "train", "--train", str(train), "--val", str(val),
            "--checkpoint-out", str(ckpt), "--report-out", str(report), *extra,
        )
        assert rc == 0, err
        outputs.append((ckpt.read_bytes(), report.read_bytes(), out.partition("training time")[0]))
        assert_no_child_process()
    assert len(pids) == 1
    assert outputs[0] == outputs[1]


def test_zero_weight_levels_skip_their_backward_pass_for_the_same_bytes(tmp_path, capsys,
                                                                         monkeypatch):
    # The report's cells at two cores; test_config_space.py compares the bits.
    train, val = make_split(tmp_path, capsys, n=150)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    outputs = []
    for name in ("skip", "every-level"):
        if name == "every-level":
            monkeypatch.setattr(tinynet, "_trained_levels", lambda weights: [*range(5)])
        ckpt, report = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        rc, _, err = run(
            capsys, "train", "--train", str(train), "--val", str(val), "--betas", "7,0,3,1,1",
            "--checkpoint-out", str(ckpt), "--report-out", str(report),
        )
        assert rc == 0, err
        outputs.append((ckpt.read_bytes(), report.read_text().splitlines()))
    (skip_net, skip_report), (every_net, every_report) = outputs
    assert skip_net == every_net
    # The report differs only where a zero-weight level's cross-entropy is:
    # the skip run does not compute it.
    header, skipped = skip_report[0].split(","), {"ce_66"}
    assert every_report[0] == skip_report[0] and len(every_report) == len(skip_report)
    for skip_row, every_row in zip(skip_report[1:], every_report[1:]):
        for column, skip_cell, every_cell in zip(header, skip_row.split(","), every_row.split(",")):
            if column in skipped:
                assert skip_cell == "nan" and math.isfinite(float(every_cell))
            else:
                assert skip_cell == every_cell


def poison_a_coarse_gradient(monkeypatch, config, update):
    """Patch ``tinynet.adam_update`` so that, in whichever process updates it,
    a weight of level 1 gets a NaN gradient at update ``update``."""
    net, adam_update = tinynet.TinyNet(config), tinynet.adam_update
    # The first weight of level 1, whose block follows the trunk's and level 0's.
    index = net.flat.size - sum(w.size + b.size for w, b in net.head_blocks[1:])

    def poisoned(p, g, state):
        if state.step + 1 == update and index in range(g.size)[state.part]:
            g[index] = np.nan
        adam_update(p, g, state)

    monkeypatch.setattr(tinynet, "adam_update", poisoned)


def fail_in_coarse_levels(monkeypatch):
    """Patch ``tinynet._level_terms`` to raise in whichever process runs level 1."""
    level_terms = tinynet._level_terms

    def failing(net, grads, hidden, truth, weights, levels, *rest):
        if 1 in levels:
            raise ValueError("coarse levels failed")
        return level_terms(net, grads, hidden, truth, weights, levels, *rest)

    monkeypatch.setattr(tinynet, "_level_terms", failing)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("case, message", [
    ("alpha", "training diverged: non-finite Adam second moment at update 1"),
    # Only the helper's slice of the parameters turns non-finite.
    ("coarse-nan", "training diverged: non-finite parameters at update 3"),
    ("coarse-error", "coarse levels failed"),
])
def test_train_fails_at_two_cores_as_at_one(tmp_path, capsys, monkeypatch, case, message):
    pids = helper_pids(monkeypatch)
    train, val = make_split(tmp_path, capsys, n=500)
    ckpt = tmp_path / "net.json"
    argv = ["train", "--train", str(train), "--val", str(val), "--epochs", "2",
            "--hidden", "8", "--checkpoint-out", str(ckpt)]
    if case == "alpha":
        argv += ["--alpha", "1e300"]
    elif case == "coarse-nan":
        poison_a_coarse_gradient(monkeypatch, NetConfig(input_dim=24, hidden_dims=(8,)), update=3)
    else:
        fail_in_coarse_levels(monkeypatch)
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", f"error: {message}\n")
        assert not ckpt.exists()
        assert_no_child_process()
    assert len(pids) == 1


def children(pid: int) -> list[int]:
    return [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


def has_ended(pid: int) -> bool:
    """Whether process ``pid`` has exited (a zombie has too)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


needs_two_cores = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
    reason="needs Linux's /proc and two usable cores",
)


def start_cli(tmp_path, capsys, command):
    """Start ``command`` as its own process, on inputs that keep its helper or
    two workers busy for a few seconds; return the process and, once all have
    started, its children."""
    if command == "eval":
        ckpt, data = write_eval_inputs(tmp_path, 30000)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--pred-out", "out.csv"]
    else:  # about 3 s of training, or 40 short ablate runs; children start after the data is read
        train, val = make_split(tmp_path, capsys, n=2500)
        argv = [command, "--train", str(train), "--val", str(val)]
        argv += ["--checkpoint-out", "out.csv"] if command == "train" else [
            "--epochs", "2", "--hidden", "8", "--out", "out.csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "hybridpose.cli", *argv], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    while len(started := children(proc.pid)) < (1 if command == "train" else 2):
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            pytest.fail(f"no child process started: {proc.communicate()[1]}")
        time.sleep(0.01)
    return proc, started


def await_end(pids):
    """Wait up to 5 s for processes ``pids`` to end; kill any left, and fail."""
    deadline = time.monotonic() + 5
    try:
        while not all(map(has_ended, pids)):
            assert time.monotonic() < deadline, f"processes {pids} outlived their parent"
            time.sleep(0.05)
    finally:  # leave nothing running, also when the check fails
        for pid in filter(lambda pid: not has_ended(pid), pids):
            os.kill(pid, signal.SIGKILL)


@needs_two_cores
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_killed_parent_leaves_no_process_running(tmp_path, capsys, command):
    proc, started = start_cli(tmp_path, capsys, command)
    try:
        # Stopped first, so its children are idle, waiting on it, when it dies.
        proc.send_signal(signal.SIGSTOP)
        time.sleep(0.2)
        # The last child, in the order started, stays stopped, as if busy: it
        # holds no other child's pipe, so the earlier ones still end.
        os.kill(started[-1], signal.SIGSTOP)
    finally:  # wait, not communicate: a child that outlives it holds its stderr
        proc.kill()
        proc.wait()
        proc.stderr.close()
    try:
        await_end(started[:-1])
    finally:
        os.kill(started[-1], signal.SIGCONT)
    await_end(started)


@needs_two_cores
@pytest.mark.parametrize("command, child", [
    ("train", "training helper"), ("eval", "worker"), ("ablate", "worker"),
])
def test_killed_child_fails_as_one_error_line(tmp_path, capsys, command, child):
    proc, started = start_cli(tmp_path, capsys, command)
    try:
        os.kill(started[0], signal.SIGKILL)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        await_end(started)
    assert proc.returncode == 1
    # Besides ablate's per-row progress lines, one line: the error.
    lines = [line for line in err.splitlines() if not line.startswith("row alpha=")]
    assert lines == [f"error: {child} process {started[0]} ended unexpectedly"], err
    assert [p.name for p in tmp_path.iterdir() if "out.csv" in p.name] == []


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


def test_eval_header_only_annotations_name_the_file(tmp_path, capsys):
    pred, truth, empty = tmp_path / "pred.csv", tmp_path / "truth.csv", tmp_path / "empty.csv"
    write_csv(pred, ["a,1,2,3"])
    write_csv(truth, ["a,1,2,3"])
    write_csv(empty, ["", "  "])
    for argv in [("--pred", empty, "--truth", truth), ("--pred", pred, "--truth", empty)]:
        rc, out, err = run(capsys, "eval", *map(str, argv))
        assert (rc, out, err) == (1, "", f"error: {empty}: no annotation rows\n")


def test_eval_parse_errors_name_the_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    bad = tmp_path / "bad.csv"
    write_csv(good, ["a,1,2,3"])
    write_csv(bad, ["a,1,2"])
    for pred, truth in ((bad, good), (good, bad)):
        rc, _, err = run(capsys, "eval", "--pred", str(pred), "--truth", str(truth))
        assert rc == 1
        assert f"error: {bad}: line 2: expected 4 fields, found 3" in err
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"id,yaw,pitch,roll\na,1,2,\xff\n")
    for pred, truth in ((undecodable, good), (good, undecodable)):
        rc, _, err = run(capsys, "eval", "--pred", str(pred), "--truth", str(truth))
        assert rc == 1
        assert f"error: {undecodable}: line 2: could not convert string to float" in err


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_eval_reads_annotations_in_the_lines_their_text_splits_into(tmp_path, capsys, newline):
    # eval parses each file as it reads it, split wherever str.splitlines
    # splits the whole text: a lone '\r' and a '\x0c' inside a line end lines too.
    pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
    truth_text = newline.join(["id,yaw,pitch,roll", "a,1,2,3", "", "b,4,5,6\x0c", "c,7,8,9"])
    pred_text = newline.join(["id,yaw,pitch,roll", "c,7,8,8", "b,4,5.5,6", "a,0,2,3"]) + newline
    truth.write_bytes(truth_text.encode())
    pred.write_bytes(pred_text.encode())
    rc, out, err = run(capsys, "eval", "--pred", str(pred), "--truth", str(truth))
    assert rc == 0, err
    (pred_ids, pred_angles), (truth_ids, truth_angles) = map(
        parse_annotation_csv, (pred_text, truth_text)
    )
    assert list(truth_ids.items()) == [("a", 0), ("b", 1), ("c", 2)]
    report = mae(cli._match_by_id(pred_ids, pred_angles, truth_ids), truth_angles)
    assert out == cli._mae_table(report) + "\n"
    # Messages and line numbers are those of the parser given the whole text.
    for bad_line in ["d,x,5,6", "d,4,\x0c5,6"]:
        text = truth_text.replace("c,7,8,9", bad_line)
        truth.write_bytes(text.encode())
        with pytest.raises(ParseError) as parsed:
            parse_annotation_csv(text)
        rc, out, err = run(capsys, "eval", "--pred", str(pred), "--truth", str(truth))
        assert (rc, out, err) == (1, "", f"error: {truth}: {parsed.value}\n")
        assert parsed.value.line == 6


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


def test_eval_scores_its_own_pred_out_file_again(tmp_path, capsys):
    rc, _, err, ckpt, _ = train_tiny(tmp_path, capsys)
    assert rc == 0, err
    val, preds = tmp_path / "val.csv", tmp_path / "p.csv"
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    rc, out_1, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(val), "--out", str(m1),
        "--pred-out", str(preds),
    )
    assert rc == 0, err
    # --pred reads the file's *_pred columns and --truth its *_true columns.
    rc, out_2, err = run(capsys, "eval", "--pred", str(preds), "--truth", str(preds),
                         "--out", str(m2))
    assert rc == 0, err
    assert (out_2, m2.read_bytes()) == (out_1, m1.read_bytes())
    # Against an annotation file, in another order, rows match by id.
    angles = load_dataset(val).angles
    truth = tmp_path / "truth.csv"
    truth.write_text(format_annotation_csv([*map(str, range(len(angles)))][::-1], angles[::-1]))
    rc, out, err = run(capsys, "eval", "--pred", str(preds), "--truth", str(truth))
    assert rc == 0, err
    _, pred = parse_annotation_csv(preds.read_text(), "pred")
    assert out == cli._mae_table(mae(pred[::-1], angles[::-1])) + "\n"
    assert mae(pred, angles).mean_mae > 0.0


@pytest.mark.parametrize("convention", ["center", "edge"])
def test_eval_mae_equals_train_final_val_mae(tmp_path, capsys, convention):
    # eval takes no convention: it decodes with the one the checkpoint stores.
    train, val = make_split(tmp_path, capsys, n=300)
    ckpt = tmp_path / "net.json"
    report = tmp_path / "report.csv"
    rc, _, err = run(
        capsys, "train", "--train", str(train), "--val", str(val), "--epochs", "2",
        "--decode-convention", convention,
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
    preds = tmp_path / "preds.csv"
    rc, out, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(short), "--pred-out", str(preds),
    )
    assert (rc, out) == (1, "")
    assert err == f"error: {short}: expected feature vector of length 24, got shape (6, 22)\n"
    assert not preds.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_training_data_errors_name_the_file_before_any_work(tmp_path, capsys, monkeypatch, command):
    counts = _record_worker_counts(monkeypatch)
    train, val = make_split(tmp_path, capsys, n=30)
    data = load_dataset(train)
    short = tmp_path / "short.csv"
    short.write_text(format_dataset(Dataset(data.features[:, 2:], data.angles)))
    angles = data.angles.copy()
    angles[3, 1] = 120.0
    outlier = tmp_path / "outlier.csv"
    outlier.write_text(format_dataset(Dataset(data.features, angles)))
    lines = train.read_bytes().splitlines(keepends=True)
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(b"".join([lines[0], b"\xff" + lines[1][1:], *lines[2:]]))
    ckpt = tmp_path / "net.json"
    extra = ["--checkpoint-out", str(ckpt)] if command == "train" else []
    for train_file, val_file, message in [
        (train, short, f"{short}: rows have 22 features, {train} has 24"),
        (outlier, val, f"{outlier}: angle 120.0 outside bin range [-99.0, 99.0]"),
        (train, outlier, f"{outlier}: angle 120.0 outside bin range [-99.0, 99.0]"),
        (train, undecodable, f"{undecodable}: line 2: non-numeric field"),
    ]:
        rc, out, err = run(
            capsys, command, "--train", str(train_file), "--val", str(val_file), *extra,
        )
        assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert counts == []
    assert not ckpt.exists()


def write_eval_inputs(tmp_path, n, seed=0):
    """A random net's checkpoint and an n-row dataset file of random rows."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    ckpt = tmp_path / "net.json"
    ckpt.write_text(checkpoint_text(init_net(NetConfig(input_dim=24, hidden_dims=(8,), seed=3))))
    rng = np.random.default_rng(seed)
    data = tmp_path / f"data{n}.csv"
    data.write_text(format_dataset(
        Dataset(rng.normal(size=(n, 24)), rng.uniform(-60.0, 60.0, size=(n, 3)))
    ))
    return ckpt, data


def test_eval_over_several_blocks_matches_the_whole_file_oracle(tmp_path, capsys):
    ckpt, data = write_eval_inputs(tmp_path, 1300)
    lines = data.read_text().splitlines()
    # Blank lines shift line numbers but not the row ids or the blocks.
    data.write_text("\n" + "".join(line + "\n" * (1 + i % 3) for i, line in enumerate(lines)))
    assert 1300 > 2 * PREDICT_BLOCK_ROWS
    metrics, preds = tmp_path / "metrics.csv", tmp_path / "preds.csv"
    rc, out, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
        "--out", str(metrics), "--pred-out", str(preds),
    )
    assert rc == 0, err
    whole = load_dataset(data)
    pred = load_checkpoint(ckpt).predict_batch(whole.features)
    ids = [str(i) for i in range(1300)]
    assert preds.read_text() == format_predictions_csv(ids, pred, whole.angles)
    report = mae(pred, whole.angles)
    assert metrics.read_text() == cli._metrics_csv(report)
    assert out == cli._mae_table(report) + "\n"


def test_eval_bad_line_in_a_late_block_leaves_no_output(tmp_path, capsys):
    ckpt, data = write_eval_inputs(tmp_path, 1300)
    lines = data.read_text().splitlines()
    lines[1100] = lines[1100].replace(",", ";", 1)  # row 1101, in the third block
    data.write_text("\n".join(lines) + "\n")
    rc, _, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
        "--out", str(tmp_path / "metrics.csv"), "--pred-out", str(tmp_path / "preds.csv"),
    )
    assert rc == 1
    assert err == f"error: {data}: line 1101: expected 27 fields, got 26\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [data.name, ckpt.name]


def test_eval_output_does_not_depend_on_worker_count(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    ckpt, data = write_eval_inputs(tmp_path, 1300)
    lines = data.read_text().splitlines()
    data.write_text("\n" + "".join(line + "\n" * (1 + i % 3) for i, line in enumerate(lines)))
    results = []
    # One usable core runs in this process; two start a pool, whatever the machine has.
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        metrics, preds = tmp_path / f"metrics{len(cores)}.csv", tmp_path / f"preds{len(cores)}.csv"
        rc, out, err = run(
            capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(metrics), "--pred-out", str(preds),
        )
        assert rc == 0, err
        results.append((preds.read_bytes(), metrics.read_bytes(), out, err))
    assert counts == [1, 2]
    assert results[0] == results[1]
    assert children(os.getpid()) == []


def test_parallel_eval_reports_the_first_bad_block_in_file_order(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ckpt, data = write_eval_inputs(tmp_path, 2000)
    lines = data.read_text().splitlines()
    lines[600] = lines[600].replace(",", ";", 1)  # row 601, in the second block
    lines[1100] = "x" + lines[1100]  # row 1101, in the third block
    data.write_text("\n".join(lines) + "\n")
    preds = tmp_path / "preds.csv"
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--pred-out", str(preds)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {data}: line 601: expected 27 fields, got 26\n"
    assert not preds.exists()
    assert children(os.getpid()) == []
    # Rows of another width than the net's fail in whichever worker reads them.
    data.write_text("".join(",".join(line.split(",")[2:]) + "\n" for line in lines[1200:]))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {data}: expected feature vector of length 24, got shape (512, 22)\n"
    assert not preds.exists()
    assert children(os.getpid()) == []
    assert counts == [2, 2]


def test_one_block_eval_starts_no_worker(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ckpt, data = write_eval_inputs(tmp_path, PREDICT_BLOCK_ROWS)
    rc, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert rc == 0, err
    assert counts == [1]


def test_parallel_eval_frames_its_data_once_before_any_fork(tmp_path, capsys, monkeypatch):
    # The calls are fixed when the workers are forked: this process reads the
    # data file once, to find the blocks, and only then forks.
    events, frame_lines, fork = [], cli._frame_lines, os.fork

    def framing(*args):
        events.append("frame")
        for block in frame_lines(*args):
            events.append("block")
            yield block

    def forking():
        pid = fork()
        if pid:
            events.append("fork")
        return pid

    monkeypatch.setattr(cli, "_frame_lines", framing)
    monkeypatch.setattr(os, "fork", forking)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ckpt, data = write_eval_inputs(tmp_path, 2000)
    rc, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--pred-out", str(tmp_path / "preds.csv"))
    assert rc == 0, err
    assert events == ["frame"] + ["block"] * 4 + ["fork"] * 2
    assert children(os.getpid()) == []


def eval_peak_memory(tmp_path, capsys, ckpt, data) -> int:
    """The peak of this process's traced memory over one eval --pred-out run."""
    tracemalloc.start()
    try:
        rc, _, err = run(
            capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "metrics.csv"), "--pred-out", str(tmp_path / "preds.csv"),
        )
        assert rc == 0, err
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_memory_does_not_grow_with_the_row_count(tmp_path, capsys, monkeypatch):
    # Parsing the whole file and rendering all its predictions at once costs
    # several hundred bytes per row; eval keeps a prediction and a truth, 48 bytes.
    # One usable core, so the decode runs in this process, where it is traced.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inputs = {n: write_eval_inputs(tmp_path / str(n), n) for n in (1024, 4096)}
    peak = lambda n: eval_peak_memory(tmp_path, capsys, *inputs[n])  # noqa: E731
    peak(1024)  # warm up: one-time allocations land outside the comparison
    growth = peak(4096) - peak(1024)
    assert growth < 3072 * 100, growth


def test_parallel_eval_memory_is_bounded_by_the_calls_in_flight(tmp_path, capsys, monkeypatch):
    # With two workers this process holds each block's position, not its lines,
    # and reads each result as it is due.  What grows
    # with the row count is the 48 bytes per row it keeps and, at the end, the
    # MAE's 24-byte difference per row: about 58 bytes per row in all, with the
    # arrays' spare capacity.  Holding any of the file's text per row, or a
    # second 24-byte temporary in the MAE, would pass 80.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    inputs = {n: write_eval_inputs(tmp_path / str(n), n) for n in (4096, 8192)}
    peak = lambda n: eval_peak_memory(tmp_path, capsys, *inputs[n])  # noqa: E731
    peak(4096)  # warm up, as above
    growth = peak(8192) - peak(4096)
    assert growth < 4096 * 80, growth


def test_parallel_eval_sends_each_call_a_block_position_only(tmp_path, capsys, monkeypatch):
    # The lines of a 512-row block are about 0.3 MB; the worker reads them itself.
    # Its function and calls are fixed when it is forked: this process writes
    # no worker a payload, the function and the block positions included.
    writes, write, parent = [], os.write, os.getpid()

    def recorded(fd, data):
        if os.getpid() == parent and stat.S_ISFIFO(os.fstat(fd).st_mode):
            writes.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ckpt, data = write_eval_inputs(tmp_path, 2000)
    rc, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--pred-out", str(tmp_path / "preds.csv"))
    assert rc == 0, err
    assert writes == []


def test_train_writes_the_checkpoint_one_array_at_a_time(tmp_path, capsys, monkeypatch):
    # A (256, 256) net's checkpoint is about 3.2 MB of base64.  Built whole,
    # its text and the text's encoding would peak at about twice that; one
    # slice of the parameters at a time, at a slice's share of it.
    train_csv, val_csv = make_split(tmp_path, capsys, n=10)
    net = init_net(NetConfig(input_dim=24, hidden_dims=(256, 256), seed=0))
    report = TrainReport((), (), (), (), 0.0)
    monkeypatch.setattr(cli, "_run_training", lambda *args, **kwargs: (net, report))
    ckpt = tmp_path / "net.json"
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, "train", "--train", str(train_csv), "--val", str(val_csv),
                         "--checkpoint-out", str(ckpt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, err
    assert ckpt.read_text() == checkpoint_text(net)
    assert peak < 2 * ckpt.stat().st_size, (peak, ckpt.stat().st_size)


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
    # An output path in a missing directory fails naming that path, not the temp file.
    missing = tmp_path / "nodir" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        _write_atomic(missing, "x\n")
    assert str(info.value) == f"[Errno 2] No such file or directory: '{missing}'"
    # So does one that is a directory, found only at the rename.
    directory = tmp_path / "d"
    directory.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        _write_atomic(directory, "x\n")
    assert str(info.value) == f"[Errno 21] Is a directory: '{directory}'"
    assert sorted(tmp_path.iterdir()) == [directory, target]


def test_output_path_that_is_a_directory_fails_naming_it(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "data"
    train, val = make_split(data_dir, capsys, n=30)
    ckpt, data = write_eval_inputs(data_dir, 1300)
    (data_dir / "poses").mkdir()
    out = tmp_path / "out"
    out.mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output paths were checked")

    for owner, name in [(cli, "make_dataset"), (cli, "load_dataset"), (cli, "train"),
                        (cli, "load_checkpoint"), (cli, "_frame_lines"),
                        (tinynet.TinyNet, "_decode_block")]:
        monkeypatch.setattr(owner, name, no_work)
    training = ["--train", str(train), "--val", str(val), "--epochs", "1"]
    for argv in [
        ["synth", "--out-train", str(tmp_path / "t.csv"), "--out-val", str(out)],
        ["train", *training, "--checkpoint-out", str(out)],
        ["train", *training, "--checkpoint-out", str(tmp_path / "n.json"),
         "--report-out", str(out)],
        ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--pred-out", str(out)],
        ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)],
        ["ablate", *training, "--seeds", "0", "--out", str(out)],
        ["parse-biwi", "--dir", str(data_dir / "poses"), "--out", str(out)],
    ]:
        rc, stdout, err = run(capsys, *argv)
        assert (rc, stdout, err) == (1, "", f"error: [Errno 21] Is a directory: '{out}'\n"), argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "out"]


def test_two_output_flags_naming_one_file_fail_naming_both(tmp_path, capsys, monkeypatch):
    train, val = make_split(tmp_path / "data", capsys, n=30)
    ckpt, data = write_eval_inputs(tmp_path / "data", 3)
    monkeypatch.chdir(tmp_path)
    for argv, flags in [
        (["synth", "--out-train", "a.csv", "--out-val", "a.csv"], "--out-train and --out-val"),
        (["train", "--train", str(train), "--val", str(val), "--epochs", "1",
          "--checkpoint-out", "a.csv", "--report-out", "./a.csv"],
         "--checkpoint-out and --report-out"),
        (["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", "a.csv",
          "--pred-out", str(tmp_path / "a.csv")], "--out and --pred-out"),
    ]:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err == f"error: {flags} name the same file: {argv[-1]}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


# argv run in a directory of valid inputs, the input flag and the output flag
# that name one file, which the output's write would replace.
SAME_FILE_CASES = [
    (["train", "--train", "train.csv", "--val", "val.csv", "--checkpoint-out", "val.csv"],
     "--val", "--checkpoint-out"),
    (["train", "--train", "train.csv", "--val", "val.csv", "--checkpoint-out", "n.json",
      "--report-out", "./train.csv"], "--train", "--report-out"),
    (["eval", "--checkpoint", "net.json", "--data", "data3.csv", "--pred-out", "data3.csv"],
     "--data", "--pred-out"),
    (["eval", "--checkpoint", "net.json", "--data", "data3.csv", "--out", "net.json"],
     "--checkpoint", "--out"),
    (["eval", "--pred", "p.csv", "--truth", "t.csv", "--out", "p.csv"], "--pred", "--out"),
    (["eval", "--pred", "p.csv", "--truth", "t.csv", "--out", "t.csv"], "--truth", "--out"),
    (["ablate", "--train", "train.csv", "--val", "val.csv", "--grid-file", "g.txt",
      "--out", "g.txt"], "--grid-file", "--out"),
    (["synth", "--config", "c.conf", "--out-train", "c.conf", "--out-val", "v.csv"],
     "--config", "--out-train"),
]


@pytest.mark.parametrize(
    "argv, input_flag, output_flag", SAME_FILE_CASES,
    ids=[f"{argv[0]}{i}{o}" for argv, i, o in SAME_FILE_CASES],
)
def test_an_output_flag_naming_an_input_file_fails_before_any_work(
    tmp_path, capsys, monkeypatch, argv, input_flag, output_flag
):
    make_split(tmp_path, capsys, n=30)
    write_eval_inputs(tmp_path, 3)
    (tmp_path / "p.csv").write_text("id,yaw,pitch,roll\na,1,2,3\n")
    (tmp_path / "t.csv").write_text("id,yaw,pitch,roll\na,1,2,4\n")
    (tmp_path / "g.txt").write_text("2,7,5,3,1,1\n")
    (tmp_path / "c.conf").write_text("n = 10\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    path = argv[argv.index(output_flag) + 1]
    assert (rc, out) == (1, "")
    assert err == f"error: {input_flag} and {output_flag} name the same file: {path}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_eval_requires_one_mode(tmp_path, capsys):
    rc, _, err = run(capsys, "eval")
    assert rc == 1
    assert "provide either" in err
    # A flag of the other mode fails by name, before any file is read.
    pred, ckpt, data = ("--pred", "p.csv"), ("--checkpoint", "c.json"), ("--data", "d.csv")
    truth, pred_out = ("--truth", "t.csv"), ("--pred-out", str(tmp_path / "o.csv"))
    for flags, message in [
        ((*pred, *ckpt, *data), "eval from --checkpoint and --data takes no --pred"),
        ((*truth, *ckpt, *data), "eval from --checkpoint and --data takes no --truth"),
        ((*pred, *truth, *ckpt, *data),
         "eval from --pred and --truth takes no --checkpoint or --data"),
        ((*pred, *truth, *pred_out), "eval from --pred and --truth takes no --pred-out"),
    ]:
        rc, out, err = run(capsys, "eval", *flags)
        assert (rc, out) == (1, "")
        assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_eval_rejects_a_deeply_nested_checkpoint(tmp_path, capsys):
    ckpt, data = write_eval_inputs(tmp_path, 3)
    ckpt.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data))
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {ckpt}: not a valid checkpoint: ") and err.count("\n") == 1, err


def huge_checkpoint(tmp_path):
    """A checkpoint whose config declares a trunk layer of 10**14 units."""
    doc = json.loads(checkpoint_text(init_net(NetConfig(input_dim=24, hidden_dims=(8,)))))
    doc["config"]["hidden_dims"] = [10**14]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


# Each size is far past any address space (2**57 bytes), so the allocation
# fails inside malloc and touches no page; a size of a few GB could succeed.
# The error names the size flag, and train fails before it forks a helper.
@pytest.mark.parametrize("command", ["synth", "train", "ablate", "eval"])
def test_allocation_past_memory_fails_as_one_error_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the allocation failed"))
    train, val = make_split(tmp_path / "data", capsys, n=30)
    huge, out = huge_checkpoint(tmp_path), tmp_path / "out"
    training = ["--train", str(train), "--val", str(val), "--hidden", str(10**14)]
    argv, flag = {
        "synth": (["--n", str(10**16), "--out-train", str(out), "--out-val", str(out) + "v"],
                  f"--n {10**16}"),
        "train": ([*training, "--checkpoint-out", str(out)], f"--hidden {10**14}"),
        "ablate": ([*training, "--seeds", "0", "--grid-file", str(tmp_path / "data" / "grid"),
                    "--out", str(out)], f"--hidden {10**14}"),
        "eval": (["--checkpoint", str(huge), "--data", str(val), "--pred-out", str(out)], None),
    }[command]
    (tmp_path / "data" / "grid").write_text("2,7,5,3,1,1\n")
    rc, stdout, err = run(capsys, command, *argv)
    assert (rc, stdout) == (1, "")
    if command == "eval":  # the stored bytes are counted against the config before any allocation
        assert err == (f"error: {huge}: flat holds 64240 bytes, "
                       f"the config's parameters take {8 * (895 * 10**14 + 870)}\n")
    else:
        assert err.startswith(f"error: {flag}: Unable to allocate ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", huge.name]


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
    grid.write_text("# nothing here\n\n   \n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid),
    )
    assert rc == 1
    assert err == f"error: {grid}: no weight rows\n"


def test_ablate_rejects_malformed_grid_row(tmp_path, capsys):
    train, val = make_split(tmp_path, capsys, n=30)
    grid = tmp_path / "grid.txt"
    grid.write_text("1,2,3\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid),
    )
    assert rc == 1
    assert f"{grid}: line 1: expected 6 comma-separated weights" in err
    grid.write_text("# alpha, betas\n2,7,5,x,1,1\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid),
    )
    assert rc == 1
    assert f"{grid}: line 2: could not convert" in err
    # An undecodable byte fails at its line.
    grid.write_bytes(b"2,7,5,3,1,1\n2,7,\xff,3,1,1\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid),
    )
    assert rc == 1
    assert f"{grid}: line 2: could not convert string to float" in err
    # A bad weight in a later row fails before the first row trains.
    grid.write_text("2,7,5,3,1,1\n2,7,5,3,1,-1\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val),
        "--grid-file", str(grid), "--epochs", "1", "--hidden", "8", "--seeds", "0",
    )
    assert rc == 1
    assert f"{grid}: line 2: betas[4] must be finite and nonnegative, got -1.0" in err
    assert "median val MAE" not in err


def test_ablate_checks_the_grid_before_a_missing_dataset(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("1,2,3\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(tmp_path / "missing.csv"),
        "--val", str(tmp_path / "missing.csv"), "--grid-file", str(grid),
    )
    assert (rc, err) == (
        1, f"error: {grid}: line 1: expected 6 comma-separated weights (alpha then 5 betas), "
        "got 3\n",
    )


def test_ablate_checks_the_grid_before_parsing_a_dataset(tmp_path, capsys, monkeypatch):
    train, val = make_split(tmp_path, capsys, n=30)
    grid = tmp_path / "grid.txt"
    grid.write_text("2,7,5,3,1,1\n2,7,5,3,1,-1\n")
    parsed = []
    monkeypatch.setattr(cli, "load_dataset", lambda path: parsed.append(path))
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val), "--grid-file", str(grid),
    )
    assert (rc, err) == (
        1, f"error: {grid}: line 2: betas[4] must be finite and nonnegative, got -1.0\n"
    )
    assert parsed == []


@pytest.mark.parametrize("seeds, message", [
    ("0,-1", "--seeds must be nonnegative, got 0,-1"),
    ("0,0", "--seeds must not repeat a seed, got 0,0"),
    ("3,1,3", "--seeds must not repeat a seed, got 3,1,3"),
])
def test_ablate_checks_seeds_before_any_work(tmp_path, capsys, monkeypatch, seeds, message):
    counts = _record_worker_counts(monkeypatch)
    # The data files do not exist: the seeds fail before they are read.
    rc, out, err = run(
        capsys, "ablate", "--train", str(tmp_path / "t.csv"), "--val", str(tmp_path / "v.csv"),
        "--seeds", seeds,
    )
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert counts == []


def test_ablate_checks_epochs_before_any_work(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    # The data files do not exist: zero epochs fail before they are read.
    rc, out, err = run(
        capsys, "ablate", "--train", str(tmp_path / "t.csv"), "--val", str(tmp_path / "v.csv"),
        "--epochs", "0",
    )
    assert (rc, out, err) == (1, "", "error: ablate needs at least 1 epoch\n")
    assert counts == []


@pytest.mark.parametrize("epochs", ["0", "1"])
def test_train_checks_the_betas_count_before_any_work(tmp_path, capsys, monkeypatch, epochs):
    train, val = make_split(tmp_path, capsys)
    reads, forks, load = [], [], cli.load_dataset

    def no_fork():
        forks.append(1)
        raise OSError("no fork here")

    monkeypatch.setattr(cli, "load_dataset", lambda path: reads.append(path) or load(path))
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ckpt = tmp_path / "net.json"
    rc, out, err = run(
        capsys, "train", "--train", str(train), "--val", str(val), "--epochs", epochs,
        "--betas", "1,2", "--checkpoint-out", str(ckpt),
    )
    assert (rc, out, err) == (1, "", "error: --betas takes 5 weights, one per level, got 1,2\n")
    assert reads == forks == [] and not ckpt.exists()


@pytest.mark.parametrize("argv, message", [
    ("train --lr -1", "--lr must be finite and nonnegative, got -1.0"),
    ("train --lr nan", "--lr must be finite and nonnegative, got nan"),
    ("train --batch-size 0", "--batch-size must be a positive integer, got 0"),
    ("train --epochs -1", "--epochs must be a nonnegative integer, got -1"),
    ("ablate --lr inf", "--lr must be finite and nonnegative, got inf"),
    ("ablate --batch-size -3", "--batch-size must be a positive integer, got -3"),
], ids=["train-lr", "train-lr-nan", "train-batch-size", "train-epochs", "ablate-lr",
        "ablate-batch-size"])
def test_training_flags_fail_by_name_before_any_file_is_read(tmp_path, capsys, argv, message):
    # The data files do not exist: the flag fails before they are read.
    command, *flag = argv.split()
    out_flag = ["--checkpoint-out", str(tmp_path / "net.json")] if command == "train" else []
    rc, out, err = run(capsys, command, "--train", str(tmp_path / "t.csv"),
                       "--val", str(tmp_path / "v.csv"), *out_flag, *flag)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def _record_worker_counts(monkeypatch, in_this_process=False):
    """Patch ``cli._run_map`` to record the worker count of each map it runs,
    1 for a map in this process (where a pool's calls also run, if
    ``in_this_process``)."""
    counts, run_map, pool = [], cli._run_map, _helper.pool

    def recording_pool(jobs, fn, calls):
        counts[-1] = jobs
        return nullcontext(starmap(fn, calls)) if in_this_process else pool(jobs, fn, calls)

    def recording(fn, calls):
        counts.append(1)
        return run_map(fn, calls)

    monkeypatch.setattr(_helper, "pool", recording_pool)
    monkeypatch.setattr(cli, "_run_map", recording)
    return counts


def test_ablate_output_does_not_depend_on_worker_count(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    train, val = make_split(tmp_path, capsys, n=60)
    grid = tmp_path / "grid.txt"
    grid.write_text("2,7,5,3,1,1\n2,1,0,0,0,0\n")
    results = []
    # One usable core runs in this process; two start a pool, whatever the machine has.
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out_csv = tmp_path / f"{len(cores)}.csv"
        rc, out, err = run(
            capsys, "ablate", "--train", str(train), "--val", str(val),
            "--grid-file", str(grid), "--seeds", "0,1", "--epochs", "2", "--hidden", "8",
            "--out", str(out_csv),
        )
        assert rc == 0, err
        results.append((out_csv.read_bytes(), out, err))
    assert counts == [1, 2]
    assert results[0] == results[1]
    assert results[0][2].count("median val MAE") == 2


def _read_only_run(args, train_samples, val_samples, seed, weights):
    """A stand-in training run that fails unless its data sets are read-only."""
    arrays = (train_samples.features, train_samples.angles, val_samples.features, val_samples.angles)
    if any(a.flags.writeable for a in arrays):
        raise ValueError(f"run {seed} got writable data")
    return None, TrainReport((), (), (), (MaeReport(1.0, 1.0, 1.0, 1.0, 1),), 0.0)


def _shared_flags(train_samples, val_samples, _):
    return os.getpid(), [d.features.flags.writeable for d in (train_samples, val_samples)]


def test_ablate_workers_see_the_shared_datasets_read_only(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    data = Dataset(np.zeros((2, 4)), np.zeros((2, 3)))
    with cli._run_map(partial(_shared_flags, data, data), [(i,) for i in range(4)]) as results:
        results = list(results)
    assert os.getpid() not in {pid for pid, _ in results}
    assert [flags for _, flags in results] == [[False, False]] * 4
    # ablate hands its data to its workers only this way: a pickled Dataset would be writable.
    counts = _record_worker_counts(monkeypatch)
    monkeypatch.setattr(cli, "_run_training", _read_only_run)
    train, val = make_split(tmp_path, capsys, n=30)
    rc, _, err = run(capsys, "ablate", "--train", str(train), "--val", str(val), "--seeds", "0,1")
    assert rc == 0, err
    assert counts == [2]


def test_ablate_worker_count_is_capped_by_cores_and_runs(tmp_path, capsys, monkeypatch):
    # Every run happens in this process; only the count ablate asks for is checked.
    counts = _record_worker_counts(monkeypatch, in_this_process=True)
    train, val = make_split(tmp_path, capsys, n=30)
    grid = tmp_path / "grid.txt"
    grid.write_text("2,7,5,3,1,1\n2,1,0,0,0,0\n")

    def ablate():
        rc, _, err = run(
            capsys, "ablate", "--train", str(train), "--val", str(val),
            "--grid-file", str(grid), "--seeds", "0,1", "--epochs", "1", "--hidden", "8",
        )
        assert rc == 0, err

    for cores in ({0}, {0, 2, 5}, set(range(8))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        ablate()
    assert counts == [1, 3, 4]


def test_off_linux_every_command_runs_in_one_process(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    pids = helper_pids(monkeypatch)
    train, val = make_split(tmp_path, capsys, n=150)
    ckpt, data = write_eval_inputs(tmp_path, 1300)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked off Linux"))
    for argv in [
        ["train", "--train", str(train), "--val", str(val), "--epochs", "1",
         "--checkpoint-out", str(tmp_path / "net.json")],
        ["eval", "--checkpoint", str(ckpt), "--data", str(data)],
        ["ablate", "--train", str(train), "--val", str(val), "--epochs", "1", "--hidden", "8",
         "--seeds", "0,1"],
    ]:
        rc, _, err = run(capsys, *argv)
        assert rc == 0, err
    assert (counts, pids) == ([1, 1], [])


def _grid_seen_by_worker(_):
    return os.getpid(), cli.DEFAULT_WEIGHT_GRID


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
def test_workers_fork_from_the_parent_state(monkeypatch):
    # A spawned worker would import cli afresh and see the original grid.
    marker = ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0),)
    monkeypatch.setattr(cli, "DEFAULT_WEIGHT_GRID", marker)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with cli._run_map(_grid_seen_by_worker, [(i,) for i in range(4)]) as results:
        results = list(results)
    assert [grid for _, grid in results] == [marker] * 4
    assert os.getpid() not in {pid for pid, _ in results}


def test_run_map_sends_call_i_to_worker_i_mod_jobs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with cli._run_map(_grid_seen_by_worker, [(i,) for i in range(8)]) as results:
        pids = [pid for pid, _ in results]
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert pids == pids[:2] * 4
    assert children(os.getpid()) == []


def _freeze_count(_):
    return gc.get_freeze_count()


def test_forks_leave_this_process_gc_unfrozen(tmp_path, capsys, monkeypatch):
    # The fork layer leaves this process's collector as it found it: unfrozen,
    # or frozen where its caller had frozen objects.
    gc.unfreeze()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with cli._run_map(_freeze_count, [(i,) for i in range(4)]) as results:
        list(results)
        assert gc.get_freeze_count() == 0
    pids = helper_pids(monkeypatch)
    train, val = make_split(tmp_path, capsys, n=150)
    rc, _, err = run(capsys, "train", "--train", str(train), "--val", str(val), "--epochs", "1",
                     "--hidden", "8", "--checkpoint-out", str(tmp_path / "net.json"))
    assert rc == 0, err
    assert len(pids) == 1
    assert gc.get_freeze_count() == 0
    gc.freeze()
    try:
        with cli._run_map(_freeze_count, [(i,) for i in range(2)]) as results:
            list(results)
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_parallel_ablate_fails_on_diverging_row(tmp_path, capsys, monkeypatch):
    counts = _record_worker_counts(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    train, val = make_split(tmp_path, capsys, n=500)
    grid = tmp_path / "grid.txt"
    grid.write_text("2,7,5,3,1,1\n1e300,7,5,3,1,1\n")
    out_csv = tmp_path / "ablation.csv"
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val), "--grid-file", str(grid),
        "--seeds", "0,1", "--epochs", "2", "--hidden", "8", "--out", str(out_csv),
    )
    assert counts == [2]
    assert rc == 1
    assert re.search(r"error: training diverged: non-finite .* at update \d+", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.txt", "train.csv", "val.csv"]


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
    (poses / "bytes.txt").write_bytes(b"1 0 0\n0 \xff 0\n0 0 1\n\n0 0 0\n")
    (poses / "ignored.csv").write_text("not matched by the pattern")

    out = tmp_path / "annotations.csv"
    rc, stdout, err = run(capsys, "parse-biwi", "--dir", str(poses), "--out", str(out))
    assert rc == 0
    assert "skipped bad.txt" in err
    assert "skipped bytes.txt: line 2: " in err
    assert "parsed 3 file(s), rejected 2" in stdout

    lines = out.read_text().splitlines()
    assert lines[0] == "id,yaw,pitch,roll"
    assert [line.split(",")[0] for line in lines[1:]] == ["a", "b", "c"]
    a_vals = [float(v) for v in lines[1].split(",")[1:]]
    assert np.abs(np.array(a_vals) - np.array([30.0, -10.0, 5.0])).max() < 1e-6
    b_vals = [float(v) for v in lines[2].split(",")[1:]]
    assert np.abs(np.array(b_vals)).max() == 0.0


def test_parse_biwi_skips_ids_that_cannot_round_trip(tmp_path, capsys):
    poses = tmp_path / "poses"
    poses.mkdir()
    for name in ("a,b.txt", "ok.txt"):
        (poses / name).write_text(format_biwi_pose(np.eye(3)))
    out = tmp_path / "annotations.csv"
    rc, stdout, err = run(capsys, "parse-biwi", "--dir", str(poses), "--out", str(out))
    assert rc == 0
    assert "skipped a,b.txt: id 'a,b' cannot be written to a CSV row" in err
    assert "parsed 1 file(s), rejected 1" in stdout
    # What parse-biwi writes, eval reads back.
    rc, _, err = run(capsys, "eval", "--pred", str(out), "--truth", str(out))
    assert rc == 0, err


@pytest.mark.parametrize("names", [(), ("a.txt", "b.txt")])
def test_parse_biwi_that_parses_no_file_fails(tmp_path, capsys, names):
    # An empty directory, or one whose every file is rejected: eval would
    # reject an annotation file of no rows, so none is written.
    poses = tmp_path / "poses"
    poses.mkdir()
    for name in names:
        (poses / name).write_text("1 0 0\nnot a matrix\n")
    out = tmp_path / "annotations.csv"
    rc, stdout, err = run(capsys, "parse-biwi", "--dir", str(poses), "--out", str(out))
    assert (rc, stdout) == (1, "")
    assert err.splitlines()[len(names):] == [
        f"error: {poses}: no file matching '*.txt' parsed, rejected {len(names)}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_parse_biwi_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys, tol):
    poses = tmp_path / "poses"
    poses.mkdir()
    # With tol nan, the scaled matrix and the reflection used to parse.
    for name, matrix in [("a", "1 0 0\n0 1 0\n0 0 1"), ("b", "2 0 0\n0 1 0\n0 0 1"),
                         ("c", "1 0 0\n0 1 0\n0 0 -1")]:
        (poses / f"{name}.txt").write_text(f"{matrix}\n\n0 0 0\n")
    out = tmp_path / "annotations.csv"
    rc, stdout, err = run(capsys, "parse-biwi", "--dir", str(poses), "--out", str(out),
                          f"--tol={tol}")
    assert (rc, stdout) == (1, "")
    assert err == f"error: tol must be finite and nonnegative, got {float(tol)!r}\n"
    assert not out.exists()


def test_parse_biwi_requires_directory(tmp_path, capsys):
    rc, _, err = run(
        capsys, "parse-biwi", "--dir", str(tmp_path / "missing"), "--out", str(tmp_path / "o"),
    )
    assert rc == 1
    assert "not a directory" in err


def test_every_csv_output_reads_back_as_numbers(tmp_path, capsys):
    rc, _, err, ckpt, report = train_tiny(tmp_path, capsys)
    assert rc == 0, err
    train, val = tmp_path / "train.csv", tmp_path / "val.csv"
    metrics, preds = tmp_path / "metrics.csv", tmp_path / "preds.csv"
    rc, _, err = run(
        capsys, "eval", "--checkpoint", str(ckpt), "--data", str(val),
        "--out", str(metrics), "--pred-out", str(preds),
    )
    assert rc == 0, err
    grid, ablation = tmp_path / "grid.txt", tmp_path / "ablation.csv"
    grid.write_text("2,7,5,3,1,1\n")
    rc, _, err = run(
        capsys, "ablate", "--train", str(train), "--val", str(val), "--grid-file", str(grid),
        "--seeds", "0", "--epochs", "1", "--hidden", "8", "--out", str(ablation),
    )
    assert rc == 0, err
    poses, annotations = tmp_path / "poses", tmp_path / "annotations.csv"
    poses.mkdir()
    (poses / "p.txt").write_text(format_biwi_pose(euler_to_rotation(PoseAngles(30.0, -10.0, 5.0))))
    rc, _, err = run(capsys, "parse-biwi", "--dir", str(poses), "--out", str(annotations))
    assert rc == 0, err

    # Dataset files have no header; the other CSVs have one, and an id column
    # where the header starts with "id".
    for path in (train, val, report, metrics, preds, ablation, annotations):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        if path not in (train, val):
            header, *rows = rows
            first = 1 if header[0] == "id" else 0
            rows = [row[first:] for row in rows]
        assert rows, path
        for row in rows:
            for cell in row:
                float(cell)


SRC = Path(hybridpose.__file__).resolve().parents[1]


def run_cli_process(cwd, env, *argv):
    result = subprocess.run(
        [sys.executable, "-m", "hybridpose.cli", *argv], cwd=cwd, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=600,
    )
    assert result.returncode == 0, result.stderr


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # A default-width net, and enough rows that eval's 512-row matmuls are
    # split across threads when BLAS is allowed more than one.
    digests = []
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        run_cli_process(work, env, "synth", "--n", "12500", "--out-train", "train.csv",
                        "--out-val", "val.csv")
        run_cli_process(work, env, "train", "--train", "train.csv", "--val", "val.csv",
                        "--epochs", "2", "--checkpoint-out", "net.json",
                        "--report-out", "report.csv")
        run_cli_process(work, env, "eval", "--checkpoint", "net.json", "--data", "train.csv",
                        "--out", "metrics.csv", "--pred-out", "preds.csv")
        digests.append({
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.iterdir())
        })
    assert digests[0] == digests[1]


def test_package_root_does_not_import_numpy():
    # hybridpose.cli pins the BLAS thread count, which works only if numpy
    # is not yet loaded when the package root has been imported.
    result = subprocess.run(
        [sys.executable, "-c", "import hybridpose, sys; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_workers_start_no_thread_and_import_no_multiprocessing(tmp_path):
    # Two-worker eval and ablate runs through main, in a fresh interpreter.
    script = """
import os, sys, threading
from hybridpose import _helper, cli
os.sched_getaffinity = lambda pid: {0, 1}
runs = [
    ["synth", "--n", "1500", "--out-train", "train.csv", "--out-val", "val.csv"],
    ["train", "--train", "train.csv", "--val", "val.csv", "--epochs", "1", "--hidden", "8",
     "--checkpoint-out", "net.json"],
    ["eval", "--checkpoint", "net.json", "--data", "train.csv", "--pred-out", "preds.csv"],
    ["ablate", "--train", "train.csv", "--val", "val.csv", "--epochs", "1", "--hidden", "8",
     "--seeds", "0", "--grid-file", "grid.txt"],
]
counts, pool = [], _helper.pool
_helper.pool = lambda jobs, *args: counts.append(jobs) or pool(jobs, *args)
for argv in runs:
    assert cli.main(argv) == 0, argv
assert counts == [2, 2], counts
assert "multiprocessing" not in sys.modules and "concurrent" not in sys.modules
assert threading.active_count() == 1
"""
    (tmp_path / "grid.txt").write_text("2,7,5,3,1,1\n2,1,0,0,0,0\n")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_two_process_commands_warn_nothing_in_dev_mode(tmp_path, capsys):
    # Under -X dev, with ResourceWarning an error: a pipe or file left open by
    # the pool or the training helper, in this process or a child, would print
    # a warning on stderr.
    train, val = make_split(tmp_path, capsys, n=1500)
    ckpt, data = write_eval_inputs(tmp_path, 1200)
    (tmp_path / "grid.txt").write_text("2,7,5,3,1,1\n2,1,0,0,0,0\n")
    launcher = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from hybridpose.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    for argv in [
        ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--pred-out", "preds.csv"],
        ["ablate", "--train", str(train), "--val", str(val), "--epochs", "1", "--hidden", "8",
         "--seeds", "0", "--grid-file", "grid.txt", "--out", "ablation.csv"],
        ["train", "--train", str(train), "--val", str(val), "--epochs", "2", "--hidden", "8",
         "--checkpoint-out", "net.json", "--report-out", "report.csv"],
    ]:
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", launcher, *argv],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        lines = [line for line in result.stderr.splitlines() if not line.startswith("row alpha=")]
        assert lines == [], result.stderr


def test_cli_processes_load_no_openssl(tmp_path, capsys):
    # In a fresh interpreter that imports no hashlib before the CLI: eval loads
    # no numpy.random, and neither the CLI nor its forked workers map libcrypto.
    train, val = make_split(tmp_path, capsys, n=1500)
    ckpt, _ = write_eval_inputs(tmp_path, 3)
    script = """
import os, sys
from hybridpose import cli

def no_openssl():
    with open("/proc/self/maps") as fh:
        assert "libcrypto" not in fh.read(), f"libcrypto mapped in {os.getpid()}"

def checked_final_val_mae(*args):
    result = final_val_mae(*args)
    no_openssl()  # numpy.random is first imported here, in the worker
    return result

os.sched_getaffinity = lambda pid: {0, 1}
assert cli.main(["eval", "--checkpoint", "net.json", "--data", "train.csv"]) == 0
assert "numpy.random" not in sys.modules
final_val_mae, cli._final_val_mae = cli._final_val_mae, checked_final_val_mae
training = ["--train", "train.csv", "--val", "val.csv", "--epochs", "1", "--hidden", "8"]
runs = [
    ["ablate", *training, "--seeds", "0,1", "--grid-file", "grid.txt"],
    ["train", *training, "--checkpoint-out", "net2.json"],
    ["synth", "--n", "100", "--out-train", "t.csv", "--out-val", "v.csv"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
    no_openssl()
assert sys.modules["_hashlib"] is None
import hashlib
assert hashlib.sha256(b"").hexdigest().startswith("e3b0c442")
"""
    (tmp_path / "grid.txt").write_text("2,7,5,3,1,1\n")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
