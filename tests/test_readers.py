"""Every file reader, fed hostile input through ``main``, fails as one short error.

Each reader gets an empty file, a lone ``\\xff`` byte and a field of 1 MB:
the annotation files of ``eval --pred/--truth``, ``--config``, the dataset
of ``train --train``, ``--grid-file``, ``--checkpoint`` and ``parse-biwi``'s
pose files.  Each case exits 1 with exactly one ``error:`` line that names
the file, and no line of stderr is longer than 1,024 characters.  One case
is valid input: an empty config sets no option, so its command runs.
``parse-biwi`` rejects a bad pose file on a ``skipped NAME: ...`` line, then
fails naming the directory, in which no file parsed.
"""

import json

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
# DIR its directory, GOOD and DATA valid annotation and dataset files, and OUT
# and OUT2 output paths.
READERS = {
    "pred": (["eval", "--pred", "FILE", "--truth", "GOOD"], "p.csv"),
    "truth": (["eval", "--pred", "GOOD", "--truth", "FILE"], "t.csv"),
    "config": (
        ["synth", "--config", "FILE", "--n", "10", "--out-train", "OUT", "--out-val", "OUT2"],
        "c.conf",
    ),
    "dataset": (["train", "--train", "FILE", "--val", "DATA", "--checkpoint-out", "OUT"], "d.csv"),
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
    good, data = root / "good.csv", root / "data.csv"
    good.write_text(GOOD_ANNOTATIONS)
    rows = np.arange(12.0).reshape(4, 3)
    data.write_text(format_dataset(Dataset(rows / 10.0, rows)))
    return {"GOOD": str(good), "DATA": str(data)}


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
