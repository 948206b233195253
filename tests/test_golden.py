"""Every CLI output, byte for byte, against the sha256 digests in golden.json.

Each stage runs in its own process, as a user runs it, so the CLI pins BLAS
to one thread before numpy loads.  The digests hold only where BLAS rounds
the net's matmuls as it did where they were written (OpenBLAS picks its
kernels by CPU), so golden.json also stores a canary: the sha256 of fixed
matmuls at the net's shapes.  Where the canary differs, the test skips and
names it; where it matches, any digest mismatch fails.

Update a digest only in a change meant to alter that output, and list it in
CHANGES.md.  To rewrite golden.json from the current code:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).with_name("golden.json")

# Importing hybridpose.cli first pins BLAS as the stages do.  Shapes: batch
# 8 and 64 training steps and 60- to 512-row decode blocks, through the
# 24-feature input, an 8- and a 64-wide trunk and the stacked 198-bin heads.
CANARY = """
import hashlib, hybridpose.cli, numpy as np
rng, h = np.random.default_rng(0), hashlib.sha256()
for n in (8, 60, 64, 512):
    for width in (8, 64):
        x = rng.standard_normal((n, 24))
        a = np.maximum(x @ rng.standard_normal((24, width)), 0.0)
        a = np.maximum(a @ rng.standard_normal((width, width)), 0.0)
        s = a @ rng.standard_normal((3, width, 198))
        for out in (a, s, a.T @ s, s @ rng.standard_normal((3, 198, width)), x.T @ a):
            h.update(np.ascontiguousarray(out).tobytes())
print(h.hexdigest())
"""

GRID = "2,1,0,0,0,0\n2,7,5,3,1,1\n"

STAGES = (
    ("synth", "--n", "300", "--out-train", "train.csv", "--out-val", "val.csv"),
    ("train", "--train", "train.csv", "--val", "val.csv", "--epochs", "2", "--hidden", "8",
     "--checkpoint-out", "center.json", "--report-out", "center.csv"),
    ("train", "--train", "train.csv", "--val", "val.csv", "--epochs", "2", "--hidden", "8",
     "--decode-convention", "edge", "--checkpoint-out", "edge.json", "--report-out", "edge.csv"),
    ("eval", "--checkpoint", "center.json", "--data", "val.csv", "--out", "metrics.csv",
     "--pred-out", "preds.csv"),
    ("ablate", "--train", "train.csv", "--val", "val.csv", "--grid-file", "grid.txt",
     "--seeds", "0,1", "--epochs", "2", "--hidden", "8", "--out", "ablation.csv"),
    ("parse-biwi", "--dir", "poses", "--out", "annotations.csv"),
)


def _run(cwd, *argv) -> str:
    result = subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, (argv, result.stderr)
    return result.stdout


def _pose_text(yaw_deg: float) -> str:
    """A pose file: rotation about the vertical axis, then a translation."""
    c, s = math.cos(math.radians(yaw_deg)), math.sin(math.radians(yaw_deg))
    rows = ((c, 0.0, s), (0.0, 1.0, 0.0), (-s, 0.0, c))
    return "\n".join(" ".join(map(repr, row)) for row in rows) + "\n\n1.0 2.0 3.0\n"


def canary() -> str:
    return _run(None, "-c", CANARY).strip()


def digests(work: Path) -> dict[str, str]:
    """Run every stage in ``work`` and return the sha256 of each file they write."""
    (work / "grid.txt").write_text(GRID)
    poses = work / "poses"
    poses.mkdir()
    for name, yaw in (("a", 30.0), ("b", 0.0), ("c", -12.5)):
        (poses / f"{name}.txt").write_text(_pose_text(yaw))
    inputs = {"grid.txt", "poses"}
    for argv in STAGES:
        _run(work, "-m", "hybridpose.cli", *argv)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.iterdir())
        if path.name not in inputs
    }


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = canary()
    if got != golden["canary"]:
        pytest.skip(
            f"BLAS rounding canary {got[:12]} differs from golden.json's "
            f"{golden['canary'][:12]}: this BLAS rounds the net's matmuls differently"
        )
    assert digests(tmp_path) == golden["digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"canary": canary(), "digests": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
