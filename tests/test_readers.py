"""Every command line that must fail, run through ``main`` from one table.

Each row of ``ROWS`` runs one command in a fresh copy of a directory of
valid inputs (``INPUTS``): train and val splits, a checkpoint, a 1,300-row
eval file, annotation files, a grid file, a config file and a pose
directory.  A row adds or replaces files there, sets the usable cores and
names the work allowed to run before its error, of ``load_dataset``,
``load_checkpoint``, ``_frame_lines``, ``make_dataset``, ``train`` and
``os.fork`` (none by default).  One harness checks every row for all of:
exit 1 and empty stdout; stderr equal to the row's, one ``error:`` line,
after ``parse-biwi``'s ``skipped NAME: ...`` lines; every file in the
directory byte-identical, and no file added; the work calls equal to the
row's allowance; and no child process left.  So each command fails before
any work its row does not name, and leaves nothing behind.  The table is
the catalogue of the command line's errors.

Every file reader also gets hostile input: an empty file, a lone ``\\xff``
byte, blank lines only, a header only where its format has one, ``1e999``,
``nan``, a 5,000-digit number and a field of 1 MB, which an error quotes
cut to 40 characters.

Each reader that reads its file once, front to back, also reads a pipe, for
the same output as from a regular file: ``--train``/``--val``,
``--grid-file``, ``--config``, ``--pred`` and ``--truth``.  ``eval --data``,
whose blocks are read again from their positions, fails on a pipe as one
``error:`` line that names it.
"""

import base64
import json
import os
import shutil
import sys
from contextlib import ExitStack, contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from hybridpose import cli
from hybridpose.cli import main
from hybridpose.data import format_biwi_pose
from hybridpose.synth import Dataset, SynthConfig, format_dataset, make_dataset
from hybridpose.tinynet import NetConfig, checkpoint_text, init_net

TRAIN, VAL = make_dataset(SynthConfig(n_samples=30))  # 24 and 6 rows of 24 features
rng = np.random.default_rng(0)
HEADER = "id,yaw,pitch,roll\n"
INPUTS = {
    "train.csv": format_dataset(TRAIN),
    "val.csv": format_dataset(VAL),
    "net.json": checkpoint_text(init_net(NetConfig(input_dim=24, hidden_dims=(8,), seed=3))),
    "data.csv": format_dataset(
        Dataset(rng.normal(size=(1300, 24)), rng.uniform(-60.0, 60.0, size=(1300, 3)))
    ),
    "p.csv": HEADER + "a,1,2,3\n",
    "t.csv": HEADER + "a,1,2,4\n",
    "g.txt": "2,7,5,3,1,1\n",
    "c.conf": "n = 10\n",
    "poses/a.txt": format_biwi_pose(np.eye(3)),
}


def replace_line(text: str, index: int, edit) -> str:
    lines = text.splitlines(keepends=True)
    lines[index] = edit(lines[index])
    return "".join(lines)


def set_field(text: str, index: int, column: int, value: str) -> str:
    """``text`` with field ``column`` of line ``index``, both from 0, set to ``value``."""
    return replace_line(text, index, lambda line: ",".join(
        value if i == column else field for i, field in enumerate(line.split(","))))


def checkpoint(path: list, value) -> str:
    """``net.json`` with the value at ``path``, a list of keys, set to ``value``."""
    doc = inner = json.loads(INPUTS["net.json"])
    *parents, key = path
    for name in parents:
        inner = inner[name]
    inner[key] = value
    return json.dumps(doc)


FLAT = base64.b64decode(json.loads(INPUTS["net.json"])["flat"])


def flat(raw: bytes) -> str:
    """``net.json`` with parameter bytes ``raw``."""
    return checkpoint(["flat"], base64.b64encode(raw).decode())


OUTLIER = TRAIN.angles.copy()
OUTLIER[3, 1] = 120.0
TRAINING_FILES = {
    "short.csv": format_dataset(Dataset(VAL.features[:, 2:], VAL.angles)),  # 22 features
    "outlier.csv": format_dataset(Dataset(TRAIN.features, OUTLIER)),
    "undecodable.csv": replace_line(INPUTS["train.csv"], 1, lambda line: "\udcff" + line[1:]),
}
BIG = "x" * (1 << 20)  # a 1 MB field
SHOWN = "'" + "x" * 39 + "..."  # how an error quotes it
DIGITS = "9" * 5000
HUGE = 10**14  # a trunk width past any address space, so malloc fails and touches no page
NO_HEADER = ("line 1: expected header 'id,yaw,pitch,roll' or "
             "'id,yaw_pred,pitch_pred,roll_pred,yaw_true,pitch_true,roll_true', found")
NO_POSE = "line 1: expected 3 matrix rows plus 1 translation row, found"
BAD_POSE = "1 0 0\nnot a matrix\n"
SKIPPED_POSE = "line 2: expected 3 matrix rows plus 1 translation row, found 2 nonblank lines"
NON_FINITE_POSE = "line 1: rotation contains non-finite entries"
SIX_WEIGHTS = "expected 6 comma-separated weights (alpha then 5 betas), got 3"
RETRAIN = "retrain the net to write a version 3 checkpoint"


class Row(NamedTuple):
    argv: str  # split at spaces; paths are relative to the run's directory
    error: str  # stderr's last line, after "error: "
    files: dict = {}  # path -> text, bytes, or None for an empty directory
    cores: int = 1
    work: str = ""  # the work calls allowed before the error, space-separated
    before: tuple = ()  # stderr's lines before the error line


TRAINING = "--train train.csv --val val.csv"
TRAIN_CMD = f"train {TRAINING} --checkpoint-out o.json"
ABLATE = f"ablate {TRAINING}"
EVAL_CKPT = "eval --checkpoint net.json --data data.csv"

# reader -> (argv, the file its hostile input replaces, the work before its error)
READERS = {
    "pred": ("eval --pred p.csv --truth t.csv", "p.csv", ""),
    "truth": ("eval --pred p.csv --truth t.csv", "t.csv", ""),
    "config": ("synth --config c.conf", "c.conf", ""),
    "dataset": (TRAIN_CMD, "train.csv", "load_dataset"),
    "eval-data": (EVAL_CKPT, "data.csv", "load_checkpoint _frame_lines"),
    "grid-file": (f"{ABLATE} --grid-file g.txt", "g.txt", ""),
    "checkpoint": (EVAL_CKPT, "net.json", "load_checkpoint"),
    "pose": ("parse-biwi --dir bad --out o.csv", "bad/f.txt", ""),
}


def hostile(reader: str, content, error: str, argv: str = "") -> Row:
    """``reader``'s command with ``content`` in its file.  A pose file fails
    as skipped, and then no file has parsed."""
    default, name, work = READERS[reader]
    before = ()
    if reader == "pose":
        before = (f"skipped f.txt: {error}",)
        error = "bad: no file matching '*.txt' parsed, rejected 1"
    return Row(argv or default, error, {name: content}, work=work, before=before)


ROWS = {
    # Each reader on hostile input.
    **{f"{side}-{case}": hostile(side, content, f"{name}: {error}")
       for side, name in [("pred", "p.csv"), ("truth", "t.csv")]
       for case, content, error in [
           ("empty", "", f"{NO_HEADER} ''"),
           ("xff", b"\xff", f"{NO_HEADER} '\\udcff'"),
           ("blank", "\n \t\n\n", f"{NO_HEADER} ''"),
           ("header-only", HEADER + "\n  \n", "no annotation rows"),
           ("1e999", HEADER + "a,1e999,2,3\n", "line 2: yaw must be finite, got inf"),
           ("nan", HEADER + "a,1,nan,3\n", "line 2: pitch must be finite, got nan"),
           ("5000-digits", f"{HEADER}a,1,2,{DIGITS}\n", "line 2: roll must be finite, got inf"),
           ("angle", f"{HEADER}a,1,2,{BIG}\n",
            f"line 2: could not convert string to float: {SHOWN}"),
           ("three-fields", HEADER + "a,1,2\n", "line 2: expected 4 fields, found 3"),
           ("undecodable", HEADER.encode() + b"a,1,2,\xff\n",
            "line 2: could not convert string to float: '\\udcff'"),
       ]},
    "pred-header": hostile("pred", BIG + "\na,1,2,3\n", f"p.csv: {NO_HEADER} {SHOWN}"),
    "pred-duplicate id": hostile("pred", f"{HEADER}{BIG},1,2,3\n{BIG},1,2,3\n",
                                 f"p.csv: line 3: duplicate id {SHOWN}"),
    "pred-unmatched id": hostile("pred", f"{HEADER}a,1,2,3\n{BIG},1,2,3\n",
                                 "p.csv and t.csv: prediction/truth id mismatch; "
                                 f"missing from truths: {'x' * 40}..."),
    "truth-unmatched id": hostile("truth", f"{HEADER}{BIG},1,2,3\n",
                                  f"p.csv and t.csv: prediction/truth id mismatch; missing from "
                                  f"predictions: {'x' * 40}...; missing from truths: a"),
    # An empty or blank config sets no option.
    "config-empty": hostile("config", "", "missing required option --out-train"),
    "config-blank": hostile("config", "\n \t\n\n", "missing required option --out-train"),
    "config-xff": hostile("config", b"\xff",
                          "c.conf: line 1: expected 'key = value', got '\\udcff'"),
    "config-xff-line-2": hostile("config", b"seed = 1\n\xff\n",
                                 "c.conf: line 2: expected 'key = value', got '\\udcff'"),
    # A value the flag's converter takes fails as the flag's value would.
    "config-1e999": hostile("config", "noise_sigma = 1e999\n",
                            "noise_sigma must be finite and nonnegative, got inf",
                            argv="synth --config c.conf --out-train o1.csv --out-val o2.csv"),
    "config-nan": hostile("config", "lr = nan\n", "--lr must be finite and nonnegative, got nan",
                          argv=f"{TRAIN_CMD} --config c.conf"),
    "config-5000-digits": hostile("config", f"n = {DIGITS}\n",
                                  f"c.conf: line 1: config value n = '{'9' * 39}...: "
                                  f"expected an integer, got '{'9' * 39}..."),
    "config-line": hostile("config", BIG + "\n",
                           f"c.conf: line 1: expected 'key = value', got {SHOWN}"),
    "config-number": hostile("config", f"noise_sigma = {BIG}\n",
                             f"c.conf: line 1: config value noise_sigma = {SHOWN}: "
                             f"expected a number, got {SHOWN}"),
    "config-pair": hostile("config", f"yaw_range = {BIG}\n",
                           f"c.conf: line 1: config value yaw_range = {SHOWN}: "
                           f"expected 'lo,hi', got {SHOWN}"),
    "config-key": hostile("config", f"{BIG} = 1\n",
                          f"c.conf: line 1: unknown option {SHOWN} for synth"),
    "config-duplicate key": hostile("config", f"{BIG} = 1\n{BIG} = 2\n",
                                    f"c.conf: line 2: duplicate key {SHOWN} (first on line 1)"),
    "config-no-equals": hostile(
        "config", "this line has no equals sign\n",
        "c.conf: line 1: expected 'key = value', got 'this line has no equals sign'"),
    "config-duplicate-seed": hostile(
        "config", "seed = 1\nout-train = o1.csv\nout_val = o2.csv\nseed = 2\n",
        "c.conf: line 4: duplicate key 'seed' (first on line 1)"),
    "config-duplicate-out-train": hostile(
        "config", "out_train = o1.csv\nout-train = o1.csv\n",
        "c.conf: line 2: duplicate key 'out_train' (first on line 1)"),
    "config-unknown-epoch": Row(
        "train --config c.conf --checkpoint-out o.json",
        "c.conf: line 3: unknown option 'epoch' for train",
        {"c.conf": "train = train.csv\nval = val.csv\nepoch = 1\nhiden = 8\n"}),
    # Not options of train: argparse's names, an option of ablate only and a removed one.
    **{f"config-unknown-{key}": Row("train --config c.conf",
                                    f"c.conf: line 2: unknown option '{key}' for train",
                                    {"c.conf": f"# comment\n{key} = x\n"})
       for key in ("config", "command", "func", "seeds", "mse_scale")},
    "config-epochs-many": Row(
        "train --config c.conf --checkpoint-out o.json",
        "c.conf: line 3: config value epochs = 'many': expected an integer, got 'many'",
        {"c.conf": "train = train.csv\nval = val.csv\nepochs = many\n"}),
    **{f"config-{command}-convention-middle": Row(
        f"{command} --config c.conf {TRAINING} --epochs 1 --hidden 8 {extra}",
        "c.conf: line 2: config value decode_convention = 'middle': invalid choice "
        "(choose from 'center', 'edge')", {"c.conf": "# decoding\ndecode-convention = middle\n"})
       for command, extra in [("train", "--checkpoint-out o.json"),
                              ("ablate", "--grid-file g.txt --seeds 0")]},
    # The checkpoint carries the convention, so eval has no such option.
    "config-eval-convention": Row(f"{EVAL_CKPT} --config c.conf",
                                  "c.conf: line 2: unknown option 'decode_convention' for eval",
                                  {"c.conf": "# decoding\ndecode-convention = middle\n"}),
    **{f"{reader}-{case}": hostile(reader, content, f"{name}: {error}")
       for reader, name in [("dataset", "train.csv"), ("eval-data", "data.csv")]
       for case, content, error in [
           ("empty", "", "dataset file is empty"),
           ("xff", b"\xff", "line 1: expected at least 5 fields, got 1"),
           ("blank", "\n \t\n\n", "dataset file is empty"),
           ("header-only", "f1,f2,yaw,pitch,roll\n", "line 1: non-numeric field"),
           ("field", f"1,2,{BIG},4,5,6\n", "line 1: non-numeric field"),
           ("three-fields", "\n" * 60 + "1,2,3\n", "line 61: expected at least 5 fields, got 3"),
       ]},
    "dataset-1e999": hostile("dataset", set_field(INPUTS["train.csv"], 2, 0, "1e999"),
                             "train.csv: line 3: features contain non-finite values"),
    "dataset-nan": hostile("dataset", set_field(INPUTS["train.csv"], 1, 25, "nan"),
                           "train.csv: line 2: pitch must be finite, got nan"),
    "dataset-5000-digits": hostile("dataset", set_field(INPUTS["train.csv"], 0, 3, DIGITS),
                                   "train.csv: line 1: features contain non-finite values"),
    "eval-data-1e999": hostile("eval-data", set_field(INPUTS["data.csv"], 700, 5, "1e999"),
                               "data.csv: line 701: features contain non-finite values"),
    "eval-data-nan": hostile("eval-data", set_field(INPUTS["data.csv"], 1299, 24, "nan"),
                             "data.csv: line 1300: yaw must be finite, got nan"),
    "eval-data-5000-digits": hostile("eval-data", set_field(INPUTS["data.csv"], 0, 3, DIGITS),
                                     "data.csv: line 1: features contain non-finite values"),
    **{f"grid-file-{case}": hostile("grid-file", content, f"g.txt: {error}")
       for case, content, error in [
           ("empty", "", "no weight rows"),
           ("xff", b"\xff", "line 1: could not convert string to float: '\\udcff'"),
           ("blank", "\n \t\n\n", "no weight rows"),
           ("comments-only", "# nothing here\n\n   \n", "no weight rows"),
           ("header-only", "alpha,b1,b2,b3,b4,b5\n",
            "line 1: could not convert string to float: 'alpha'"),
           ("1e999", "1e999,7,5,3,1,1\n", "line 1: alpha must be finite and nonnegative, got inf"),
           ("nan", "2,7,5,3,1,nan\n", "line 1: betas[4] must be finite and nonnegative, got nan"),
           ("5000-digits", f"2,{DIGITS},5,3,1,1\n",
            "line 1: betas[0] must be finite and nonnegative, got inf"),
           ("row", f"2,7,5,{BIG},1,1\n", f"line 1: could not convert string to float: {SHOWN}"),
           ("three-weights", "1,2,3\n", f"line 1: {SIX_WEIGHTS}"),
           ("word", "# alpha, betas\n2,7,5,x,1,1\n",
            "line 2: could not convert string to float: 'x'"),
           ("xff-line-2", b"2,7,5,3,1,1\n2,7,\xff,3,1,1\n",
            "line 2: could not convert string to float: '\\udcff'"),
       ]},
    # Every row is checked before either dataset is read, even one that is missing.
    "grid-file-negative-late": hostile(
        "grid-file", "2,7,5,3,1,1\n2,7,5,3,1,-1\n",
        "g.txt: line 2: betas[4] must be finite and nonnegative, got -1.0",
        argv=f"{ABLATE} --grid-file g.txt --epochs 1 --hidden 8 --seeds 0"),
    "grid-file-before-missing-data": hostile(
        "grid-file", "1,2,3\n", f"g.txt: line 1: {SIX_WEIGHTS}",
        argv="ablate --train missing.csv --val missing.csv --grid-file g.txt"),
    **{f"checkpoint-{case}": hostile("checkpoint", content, f"net.json: {error}")
       for case, content, error in [
           ("empty", "", "not a valid checkpoint: Expecting value: line 1 column 1 (char 0)"),
           ("xff", b"\xff", "not a valid checkpoint: Expecting value: line 1 column 1 (char 0)"),
           ("blank", "\n \t\n\n",
            "not a valid checkpoint: Expecting value: line 4 column 1 (char 5)"),
           ("1e999", INPUTS["net.json"].replace('"seed":3', '"seed":1e999'),
            "seed must be a nonnegative integer, got inf"),
           ("nan", INPUTS["net.json"].replace('"min_angle":-99.0', '"min_angle":NaN'),
            "config hierarchy.min_angle must be a number equal to -99.0, got NaN"),
           ("5000-digits", INPUTS["net.json"].replace('"seed":3', f'"seed":{DIGITS}'),
            "not a valid checkpoint: Exceeds the limit (4300 digits) for integer string "
            "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase "
            "the limit"),
           ("deeply-nested", "[" * 100_000 + "]" * 100_000,
            "not a valid checkpoint: maximum recursion depth exceeded while decoding a JSON "
            "array from a unicode string"),
           ("version", checkpoint(["version"], BIG),
            f"unsupported checkpoint version {SHOWN}; {RETRAIN}"),
           ("version-2", checkpoint(["version"], 2),
            f"unsupported checkpoint version 2; {RETRAIN}"),
           ("key", checkpoint([BIG], 1),
            f"malformed checkpoint: top level: unexpected key {SHOWN}"),
           ("config key", checkpoint(["config", BIG], 1),
            f"malformed checkpoint: config: unexpected key {SHOWN}"),
           ("unexpected-key", checkpoint(["config", "activation"], "relu"),
            "malformed checkpoint: config: unexpected key 'activation'"),
           ("hidden_dims", checkpoint(["config", "hidden_dims"], BIG),
            f"hidden_dims must be a list or tuple, got {SHOWN}"),
           ("convention", checkpoint(["config", "decode_convention"], BIG),
            f"unknown decode convention {SHOWN} (choose from 'center', 'edge')"),
           ("bin_counts", checkpoint(["config", "hierarchy", "bin_counts"], BIG),
            f"bin_counts must be a list or tuple, got {SHOWN}"),
           ("min_angle", checkpoint(["config", "hierarchy", "min_angle"], BIG),
            f'config hierarchy.min_angle must be a number equal to -99.0, got "{"x" * 39}...'),
           ("float-seed", checkpoint(["config", "seed"], 2.7),
            "seed must be a nonnegative integer, got 2.7"),
           ("flat", checkpoint(["flat"], BIG),
            "flat holds 786432 bytes, the config's parameters take 64240"),
           ("flat-list", checkpoint(["flat"], []), "flat must be a base64 string, got list"),
           ("flat-alphabet", checkpoint(["flat"], "AAAA*AAA"),
            "flat is not valid base64: Only base64 data is allowed"),
           ("flat-padding", checkpoint(["flat"], "AAAAAA"),
            "flat is not valid base64: Incorrect padding"),
           ("flat-short", flat(FLAT[:-8]),
            "flat holds 64232 bytes, the config's parameters take 64240"),
           ("non-finite", flat(np.array([np.nan], "<f8").tobytes() + FLAT[8:]),
            "parameters contain non-finite values"),
           # The stored bytes are counted against the config before any allocation.
           ("past-memory", checkpoint(["config", "hidden_dims"], [HUGE]),
            f"flat holds 64240 bytes, the config's parameters take {8 * (895 * HUGE + 870)}"),
       ]},
    **{f"pose-{case}": hostile("pose", content, error) for case, content, error in [
        ("empty", "", f"{NO_POSE} 0 nonblank lines"),
        ("xff", b"\xff", f"{NO_POSE} 1 nonblank lines"),
        ("blank", "\n \t\n\n", f"{NO_POSE} 0 nonblank lines"),
        ("1e999", "1 0 0\n0 1e999 0\n0 0 1\n\n0 0 0\n", NON_FINITE_POSE),
        ("nan", "1 0 0\n0 1 0\n0 0 nan\n\n0 0 0\n", NON_FINITE_POSE),
        ("5000-digits", f"1 0 0\n0 1 0\n0 0 {DIGITS}\n\n0 0 0\n", NON_FINITE_POSE),
        ("token", f"1 0 {BIG}\n0 1 0\n0 0 1\n0 0 0\n", f"line 1: non-numeric token {SHOWN}"),
    ]},
    # synth
    "synth-out-of-range": Row("synth --yaw-range 0,120 --out-train o1.csv --out-val o2.csv",
                              "yaw_range: angle 120.0 outside bin range [-99.0, 99.0]"),
    "synth-no-out-train": Row("synth --out-val o2.csv", "missing required option --out-train"),
    # eval: one mode, whose files agree
    "eval-no-mode": Row("eval", "provide either --pred and --truth, or --checkpoint and --data"),
    "eval-checkpoint-and-pred": Row(f"{EVAL_CKPT} --pred p.csv",
                                    "eval from --checkpoint and --data takes no --pred"),
    "eval-checkpoint-and-truth": Row(f"{EVAL_CKPT} --truth t.csv",
                                     "eval from --checkpoint and --data takes no --truth"),
    "eval-pred-and-checkpoint": Row(f"{EVAL_CKPT} --pred p.csv --truth t.csv",
                                    "eval from --pred and --truth takes no --checkpoint or --data"),
    "eval-pred-and-pred-out": Row("eval --pred p.csv --truth t.csv --pred-out o.csv",
                                  "eval from --pred and --truth takes no --pred-out"),
    "eval-id-mismatch": Row("eval --pred p.csv --truth t.csv --out m.csv",
                            "p.csv and t.csv: prediction/truth id mismatch; "
                            "missing from predictions: b; missing from truths: a",
                            {"t.csv": HEADER + "b,1,2,3\n"}),
    "eval-narrow-data": Row("eval --checkpoint net.json --data short.csv --pred-out o.csv",
                            "short.csv: expected feature vector of length 24, got shape (6, 22)",
                            TRAINING_FILES, work="load_checkpoint _frame_lines"),
    # Row 1101, in the third 512-row block, whichever process reads it.
    **{f"eval-late-bad-line-{cores}-cores": Row(
        f"{EVAL_CKPT} --out m.csv --pred-out o.csv",
        "data.csv: line 1101: expected 27 fields, got 26",
        {"data.csv": replace_line(INPUTS["data.csv"], 1100, lambda l: l.replace(",", ";", 1))},
        cores=cores, work="load_checkpoint _frame_lines" + " fork" * (cores > 1))
       for cores in (1, 2)},
    # train and ablate: their data files, then their flags, before any file is read
    **{f"{argv.split()[0]}-{case}": Row(f"{argv} --train {train} --val {val}", error,
                                         TRAINING_FILES, work="load_dataset")
       for argv in ("train --checkpoint-out o.json", "ablate")
       for case, train, val, error in [
           ("narrow-val", "train.csv", "short.csv",
            "short.csv: rows have 22 features, train.csv has 24"),
           ("train-outlier", "outlier.csv", "val.csv",
            "outlier.csv: angle 120.0 outside bin range [-99.0, 99.0]"),
           ("val-outlier", "train.csv", "outlier.csv",
            "outlier.csv: angle 120.0 outside bin range [-99.0, 99.0]"),
           ("undecodable", "train.csv", "undecodable.csv",
            "undecodable.csv: line 2: non-numeric field"),
       ]},
    **{f"{argv.split()[0]}-{flag}{case}": Row(f"{argv} --{flag} {value}", f"--{flag} {error}")
       for argv, flag, case, value, error in [
           (TRAIN_CMD, "lr", "", "-1", "must be finite and nonnegative, got -1.0"),
           (TRAIN_CMD, "lr", "-nan", "nan", "must be finite and nonnegative, got nan"),
           (TRAIN_CMD, "batch-size", "", "0", "must be a positive integer, got 0"),
           (TRAIN_CMD, "epochs", "", "-1", "must be a nonnegative integer, got -1"),
           (TRAIN_CMD, "hidden", "", "0", "widths must be positive, got 0"),
           (ABLATE, "lr", "", "inf", "must be finite and nonnegative, got inf"),
           (ABLATE, "batch-size", "", "-3", "must be a positive integer, got -3"),
           (ABLATE, "hidden", "", "8,0", "widths must be positive, got 8,0"),
           (ABLATE, "seeds", "-negative", "0,-1", "must be nonnegative, got 0,-1"),
           (ABLATE, "seeds", "-repeated", "0,0", "must not repeat a seed, got 0,0"),
           (ABLATE, "seeds", "-repeated-late", "3,1,3", "must not repeat a seed, got 3,1,3"),
       ]},
    **{f"train-betas-epochs-{epochs}": Row(f"{TRAIN_CMD} --epochs {epochs} --betas 1,2",
                                           "--betas takes 5 weights, one per level, got 1,2",
                                           cores=2)
       for epochs in (0, 1)},
    "ablate-epochs": Row(f"{ABLATE} --epochs 0", "ablate needs at least 1 epoch"),
    # parse-biwi
    "parse-biwi-empty-dir": Row("parse-biwi --dir pose_dir --out o.csv",
                                "pose_dir: no file matching '*.txt' parsed, rejected 0",
                                {"pose_dir": None}),
    "parse-biwi-every-file-rejected": Row(
        "parse-biwi --dir bad --out o.csv", "bad: no file matching '*.txt' parsed, rejected 2",
        {"bad/a.txt": BAD_POSE, "bad/b.txt": BAD_POSE},
        before=(f"skipped a.txt: {SKIPPED_POSE}", f"skipped b.txt: {SKIPPED_POSE}")),
    # With --tol nan, a scaled matrix and a reflection would parse.
    **{f"parse-biwi-tol-{tol}": Row(f"parse-biwi --dir poses --out o.csv --tol={tol}",
                                    f"--tol must be finite and nonnegative, got {float(tol)!r}",
                                    {"poses/b.txt": "2 0 0\n0 1 0\n0 0 1\n\n0 0 0\n",
                                     "poses/c.txt": "1 0 0\n0 1 0\n0 0 -1\n\n0 0 0\n"})
       for tol in ("nan", "inf", "-1")},
    "parse-biwi-missing-dir": Row("parse-biwi --dir missing --out o.csv",
                                  "not a directory: missing"),
    # An output path that is a directory, or that names another flag's file.
    **{f"{argv.split()[0]}-{flag}-is-a-directory": Row(argv, "[Errno 21] Is a directory: 'out'",
                                                        {"out": None})
       for argv, flag in [
           ("synth --out-train o1.csv --out-val out", "out-val"),
           (f"train {TRAINING} --epochs 1 --checkpoint-out out", "checkpoint-out"),
           (f"train {TRAINING} --epochs 1 --checkpoint-out o.json --report-out out", "report-out"),
           (f"{EVAL_CKPT} --pred-out out", "pred-out"),
           (f"{EVAL_CKPT} --out out", "out"),
           (f"{ABLATE} --epochs 1 --seeds 0 --out out", "out"),
           ("parse-biwi --dir poses --out out", "out"),
       ]},
    **{f"{argv.split()[0]}{first}{second}": Row(
        argv, f"{first} and {second} name the same file: {argv.split()[-1 - last]}")
       for argv, first, second, last in [
           ("synth --out-train a.csv --out-val a.csv", "--out-train", "--out-val", 0),
           (f"train {TRAINING} --epochs 1 --checkpoint-out a.csv --report-out ./a.csv",
            "--checkpoint-out", "--report-out", 0),
           (f"{EVAL_CKPT} --out a.csv --pred-out ../run/a.csv", "--out", "--pred-out", 0),
           (f"train {TRAINING} --checkpoint-out val.csv", "--val", "--checkpoint-out", 0),
           (f"train {TRAINING} --checkpoint-out n.json --report-out ./train.csv",
            "--train", "--report-out", 0),
           (f"{EVAL_CKPT} --pred-out data.csv", "--data", "--pred-out", 0),
           (f"{EVAL_CKPT} --out net.json", "--checkpoint", "--out", 0),
           ("eval --pred p.csv --truth t.csv --out p.csv", "--pred", "--out", 0),
           ("eval --pred p.csv --truth t.csv --out t.csv", "--truth", "--out", 0),
           (f"{ABLATE} --grid-file g.txt --out g.txt", "--grid-file", "--out", 0),
           ("synth --config c.conf --out-train c.conf --out-val v.csv",
            "--config", "--out-train", 2),
       ]},
    # A missing directory is found at the write, which leaves no file either.
    "synth-missing-out-dir": Row("synth --n 10 --out-train nodir/m.csv --out-val o2.csv",
                                 "[Errno 2] No such file or directory: 'nodir/m.csv'",
                                 work="make_dataset"),
    # Sizes past any address space fail naming their flag, before any fork.
    "synth-n-past-memory": Row(
        f"synth --n {10**16} --out-train o1.csv --out-val o2.csv",
        f"--n {10**16}: Unable to allocate 1.67 EiB for an array with shape ({10**16}, 24) "
        "and data type float64", cores=2, work="make_dataset"),
    **{f"{command}-hidden-past-memory": Row(
        f"{command} {TRAINING} --hidden {HUGE} {extra}",
        f"--hidden {HUGE}: Unable to allocate 636. PiB for an array with shape "
        f"({895 * HUGE + 870},) and data type float64", cores=2, work="load_dataset train")
       for command, extra in [("train", "--checkpoint-out o.json"),
                              ("ablate", "--seeds 0 --grid-file g.txt --out o.csv")]},
}

WORK = [(cli, "load_dataset"), (cli, "load_checkpoint"), (cli, "_frame_lines"),
        (cli, "make_dataset"), (cli, "train"), (os, "fork")]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)
    return root


def tree(root) -> dict:
    """Each path under ``root``, with its bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_hostile_input_fails_as_one_short_error_naming_the_file(
    tmp_path, capsys, monkeypatch, inputs, row
):
    root = tmp_path / "run"
    shutil.copytree(inputs, root)
    for name, content in row.files.items():
        path = root / name
        path.parent.mkdir(exist_ok=True)
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content if isinstance(content, bytes)
                             else content.encode(errors="surrogateescape"))
    before, calls = tree(root), []

    def recorded(fn, name):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for owner, name in WORK:
        monkeypatch.setattr(owner, name, recorded(getattr(owner, name), name))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(row.cores)))
    monkeypatch.chdir(root)
    rc = main(row.argv.split())
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == "".join(f"{line}\n" for line in (*row.before, f"error: {row.error}"))
    assert tree(root) == before
    assert sorted(set(calls)) == sorted(row.work.split())
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


# reader -> (argv, the text of each pipe).  In argv, the integer i is the path
# of pipe i, and OUT and OUT2 are output paths; other paths name INPUTS.
PIPED = {
    "train-val": (["train", "--train", 0, "--val", 1, "--epochs", "2", "--hidden", "4",
                   "--checkpoint-out", "OUT", "--report-out", "OUT2"],
                  [INPUTS["train.csv"], INPUTS["val.csv"]]),
    "grid-file": (["ablate", "--train", "train.csv", "--val", "val.csv", "--epochs", "1",
                   "--hidden", "4", "--seeds", "0", "--grid-file", 0, "--out", "OUT"],
                  [INPUTS["g.txt"]]),
    "config": (["synth", "--config", 0, "--out-train", "OUT", "--out-val", "OUT2"],
               [INPUTS["c.conf"]]),
    "pred-truth": (["eval", "--pred", 0, "--truth", 1, "--out", "OUT"],
                   [INPUTS["p.csv"], INPUTS["t.csv"]]),
}


@contextmanager
def pipe(text: str):
    """The ``/dev/fd`` path of a pipe that holds ``text`` and then ends."""
    r, w = os.pipe()
    try:
        data = text.encode()
        assert os.write(w, data) == len(data)  # within the pipe's buffer
    finally:
        os.close(w)
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


@pytest.mark.skipif(sys.platform != "linux", reason="pipes are named by /dev/fd paths")
@pytest.mark.parametrize("reader", PIPED)
def test_a_pipe_reads_as_its_regular_file_would(tmp_path, capsys, monkeypatch, inputs, reader):
    argv, texts = PIPED[reader]
    monkeypatch.chdir(inputs)
    outputs = {}
    for source in ("file", "pipe"):
        paths = {"OUT": str(tmp_path / f"{source}.out"), "OUT2": str(tmp_path / f"{source}.out2")}
        with ExitStack() as stack:
            if source == "pipe":
                piped = [stack.enter_context(pipe(text)) for text in texts]
            else:
                piped = [tmp_path / f"in{i}" for i in range(len(texts))]
                for path, text in zip(piped, texts):
                    path.write_text(text)
            rc = main([str(piped[arg]) if type(arg) is int else paths.get(arg, arg)
                       for arg in argv])
        err = capsys.readouterr().err
        assert rc == 0 and "error:" not in err, err
        outputs[source] = [(tmp_path / f"{source}{ext}").read_bytes()
                           for ext in (".out", ".out2") if (tmp_path / f"{source}{ext}").exists()]
    assert outputs["pipe"] == outputs["file"] and outputs["file"]


@pytest.mark.skipif(sys.platform != "linux", reason="pipes are named by /dev/fd paths")
def test_eval_data_fails_on_a_pipe_naming_it(capsys, monkeypatch, inputs):
    monkeypatch.chdir(inputs)
    with pipe(INPUTS["val.csv"]) as path:
        rc = main(["eval", "--checkpoint", "net.json", "--data", path])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"error: {path}: cannot seek in this file; give a regular file, not a pipe\n"
