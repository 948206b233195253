"""Every file reader, fed hostile input through ``main``, fails as one short error.

Each reader gets an empty file, a lone ``\\xff`` byte and a field of 1 MB:
the annotation files of ``eval --pred/--truth``, ``--config``, the dataset
of ``train --train`` and ``eval --data``, ``--grid-file``, ``--checkpoint``
and ``parse-biwi``'s pose files.  Each case exits 1 with exactly one ``error:`` line that names
the file, and no line of stderr is longer than 1,024 characters.  One case
is valid input: an empty config sets no option, so its command runs.
``parse-biwi`` rejects a bad pose file on a ``skipped NAME: ...`` line, then
fails naming the directory, in which no file parsed.

Each reader that reads its file once, front to back, also reads a pipe, for
the same output as from a regular file: ``--train``/``--val``,
``--grid-file``, ``--config``, ``--pred`` and ``--truth``.  ``eval --data``,
whose blocks are read again from their positions, fails on a pipe as one
``error:`` line that names it.
"""

import json
import os
import sys
from contextlib import ExitStack, contextmanager

import numpy as np
import pytest

from hybridpose.cli import main
from hybridpose.synth import Dataset, format_dataset
from hybridpose.tinynet import NetConfig, checkpoint_text, init_net

BIG = "x" * (1 << 20)  # a 1 MB field
GOOD_ANNOTATIONS = "id,yaw,pitch,roll\na,1,2,3\n"
GOOD_CHECKPOINT = json.loads(checkpoint_text(init_net(NetConfig(input_dim=4, hidden_dims=(2,)))))


def checkpoint(edit) -> str:
    doc = json.loads(json.dumps(GOOD_CHECKPOINT))
    edit(doc)
    return json.dumps(doc)


def _set(path, value):
    def edit(doc):
        *parents, key = path
        for name in parents:
            doc = doc[name]
        doc[key] = value
    return edit


# reader -> (argv, the hostile file's name).  In argv, FILE is the hostile file,
# DIR its directory, GOOD, DATA and CKPT valid annotation, dataset and
# checkpoint files, and OUT and OUT2 output paths.
READERS = {
    "pred": (["eval", "--pred", "FILE", "--truth", "GOOD"], "p.csv"),
    "truth": (["eval", "--pred", "GOOD", "--truth", "FILE"], "t.csv"),
    "config": (
        ["synth", "--config", "FILE", "--n", "10", "--out-train", "OUT", "--out-val", "OUT2"],
        "c.conf",
    ),
    "dataset": (["train", "--train", "FILE", "--val", "DATA", "--checkpoint-out", "OUT"], "d.csv"),
    "eval-data": (["eval", "--checkpoint", "CKPT", "--data", "FILE"], "d.csv"),
    "grid-file": (["ablate", "--train", "DATA", "--val", "DATA", "--grid-file", "FILE"], "g.txt"),
    "checkpoint": (["eval", "--checkpoint", "FILE", "--data", "DATA"], "net.json"),
    "pose": (["parse-biwi", "--dir", "DIR", "--out", "OUT"], "f.txt"),
}

CASES = [
    *((reader, "empty", "") for reader in READERS),
    *((reader, "xff", b"\xff") for reader in READERS),
    ("pred", "header", BIG + "\na,1,2,3\n"),
    ("pred", "angle", f"id,yaw,pitch,roll\na,{BIG},2,3\n"),
    ("pred", "duplicate id", f"id,yaw,pitch,roll\n{BIG},1,2,3\n{BIG},1,2,3\n"),
    ("pred", "unmatched id", f"id,yaw,pitch,roll\na,1,2,3\n{BIG},1,2,3\n"),
    ("truth", "angle", f"id,yaw,pitch,roll\na,1,2,{BIG}\n"),
    ("truth", "unmatched id", f"id,yaw,pitch,roll\n{BIG},1,2,3\n"),
    ("config", "line", BIG + "\n"),
    ("config", "number", f"noise_sigma = {BIG}\n"),
    ("config", "pair", f"yaw_range = {BIG}\n"),
    ("config", "key", f"{BIG} = 1\n"),
    ("config", "duplicate key", f"{BIG} = 1\n{BIG} = 2\n"),
    ("dataset", "field", f"1,2,{BIG},4,5,6\n"),
    ("grid-file", "row", f"2,7,5,{BIG},1,1\n"),
    ("checkpoint", "version", checkpoint(_set(["version"], BIG))),
    ("checkpoint", "key", checkpoint(_set([BIG], 1))),
    ("checkpoint", "config key", checkpoint(_set(["config", BIG], 1))),
    ("checkpoint", "hidden_dims", checkpoint(_set(["config", "hidden_dims"], BIG))),
    ("checkpoint", "convention", checkpoint(_set(["config", "decode_convention"], BIG))),
    ("checkpoint", "bin_counts", checkpoint(_set(["config", "hierarchy", "bin_counts"], BIG))),
    ("checkpoint", "min_angle", checkpoint(_set(["config", "hierarchy", "min_angle"], BIG))),
    ("checkpoint", "flat", checkpoint(_set(["flat"], BIG))),
    ("pose", "token", f"1 0 {BIG}\n0 1 0\n0 0 1\n0 0 0\n"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    good, data, ckpt = root / "good.csv", root / "data.csv", root / "net.json"
    good.write_text(GOOD_ANNOTATIONS)
    ckpt.write_text(json.dumps(GOOD_CHECKPOINT))
    rows = np.arange(12.0).reshape(4, 3)
    data.write_text(format_dataset(Dataset(rows / 10.0, rows)))
    return {"GOOD": str(good), "DATA": str(data), "CKPT": str(ckpt)}


@pytest.mark.parametrize("reader, case, content", CASES, ids=[f"{r}-{c}" for r, c, _ in CASES])
def test_hostile_input_fails_as_one_short_error_naming_the_file(
    tmp_path, capsys, inputs, reader, case, content
):
    argv, name = READERS[reader]
    directory = tmp_path / "in"
    directory.mkdir()
    path = directory / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    paths = {**inputs, "FILE": str(path), "DIR": str(directory),
             "OUT": str(tmp_path / "out"), "OUT2": str(tmp_path / "out2")}
    rc = main([paths.get(arg, arg) for arg in argv])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert max(map(len, lines), default=0) <= 1024, [line[:100] for line in lines]
    errors = [line for line in lines if line.startswith("error:")]
    if (reader, case) == ("config", "empty"):
        assert (rc, errors) == (0, []), err
        return
    assert (rc, out, len(errors)) == (1, "", 1), err[:2000]
    if reader == "pose":
        assert lines[0].startswith(f"skipped {name}: ")
        assert errors[0].startswith(f"error: {directory}: no file matching")
    else:
        assert str(path) in errors[0]


rng = np.random.default_rng(0)
DATA = format_dataset(Dataset(rng.normal(size=(8, 4)), rng.uniform(-60.0, 60.0, size=(8, 3))))

# reader -> (argv, the text of each pipe).  In argv, the integer i is the path
# of pipe i, DATA a valid dataset file, and OUT and OUT2 output paths.
PIPED = {
    "train-val": (["train", "--train", 0, "--val", 1, "--epochs", "2", "--hidden", "4",
                   "--checkpoint-out", "OUT", "--report-out", "OUT2"], [DATA, DATA]),
    "grid-file": (["ablate", "--train", "DATA", "--val", "DATA", "--epochs", "1", "--hidden",
                   "4", "--seeds", "0", "--grid-file", 0, "--out", "OUT"], ["2,7,5,3,1,1\n"]),
    "config": (["synth", "--config", 0, "--out-train", "OUT", "--out-val", "OUT2"], ["n = 10\n"]),
    "pred-truth": (["eval", "--pred", 0, "--truth", 1, "--out", "OUT"],
                   [GOOD_ANNOTATIONS, "id,yaw,pitch,roll\na,1,2,4\n"]),
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
def test_a_pipe_reads_as_its_regular_file_would(tmp_path, capsys, reader):
    argv, texts = PIPED[reader]
    data = tmp_path / "data.csv"
    data.write_text(DATA)
    outputs = {}
    for source in ("file", "pipe"):
        paths = {"DATA": str(data), "OUT": str(tmp_path / f"{source}.out"),
                 "OUT2": str(tmp_path / f"{source}.out2")}
        with ExitStack() as stack:
            if source == "pipe":
                inputs = [stack.enter_context(pipe(text)) for text in texts]
            else:
                inputs = [tmp_path / f"in{i}" for i in range(len(texts))]
                for path, text in zip(inputs, texts):
                    path.write_text(text)
            rc = main([str(inputs[arg]) if type(arg) is int else paths.get(arg, arg)
                       for arg in argv])
        err = capsys.readouterr().err
        assert rc == 0 and "error:" not in err, err
        outputs[source] = [(tmp_path / f"{source}{ext}").read_bytes()
                           for ext in (".out", ".out2") if (tmp_path / f"{source}{ext}").exists()]
    assert outputs["pipe"] == outputs["file"] and outputs["file"]


@pytest.mark.skipif(sys.platform != "linux", reason="pipes are named by /dev/fd paths")
def test_eval_data_fails_on_a_pipe_naming_it(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(GOOD_CHECKPOINT))
    with pipe(DATA) as path:
        rc = main(["eval", "--checkpoint", str(net), "--data", path])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"error: {path}: cannot seek in this file; give a regular file, not a pipe\n"
