"""Command line interface: synth, train, eval, ablate, parse-biwi.

Each option is declared once, in ``_COMMANDS``: its flag, converter or
allowed values, default and help.  Every subcommand also accepts
``--config FILE`` pointing at a plain text file of ``key = value`` lines
('#' starts a comment; a key is the flag's name, with underscores or dashes
interchangeably).  Explicit flags override file values, which override
defaults.  Output paths are checked before any work, also against the
input paths, and output files are written to a temporary sibling and renamed
into place, so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import os
import sys

# BLAS matmuls round differently per thread count: pin one thread before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
# numpy.random imports secrets, hence hmac and hashlib, which map OpenSSL's
# libcrypto (about 3.4 MB resident) to seed unseeded generators; every
# generator here is seeded and nothing hashes.  Without _hashlib, hashlib and
# hmac use Python's built-in code.  Before numpy, which in 1.x loads
# numpy.random with itself; setdefault leaves a loaded OpenSSL in place.
sys.modules.setdefault("_hashlib", None)

import argparse
import errno
from array import array
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import chain, count, starmap
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .angles import mae, rotation_to_euler
from .binning import DECODE_CONVENTIONS, _check_in_range, _check_real, _cut, _float, _shown
from .binning import _check_int, make_hierarchy
from .data import (
    ParseError,
    _check_ids,
    format_annotation_csv,
    format_predictions_csv,
    parse_annotation_csv,
    parse_biwi_pose,
)
from .loss import LossWeights
from .synth import (
    Dataset,
    SynthConfig,
    _frame_lines,
    _parse_block,
    format_dataset,
    load_dataset,
    make_dataset,
)
from .tinynet import PREDICT_BLOCK_ROWS, NetConfig, _checkpoint_chunks, load_checkpoint, train
from .tinynet import checkpoint_text  # unused here; the benchmark's tracer wraps it by this name

__all__ = ["main"]

# Default ablation grid: five classification-weight rows at alpha 2, then
# the remaining regression-weight sweep (the alpha=2 row is already above).
DEFAULT_WEIGHT_GRID = (
    (2.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    (2.0, 3.0, 1.0, 1.0, 1.0, 1.0),
    (2.0, 5.0, 3.0, 1.0, 1.0, 1.0),
    (2.0, 7.0, 5.0, 3.0, 1.0, 1.0),
    (2.0, 9.0, 7.0, 5.0, 3.0, 1.0),
    (0.1, 7.0, 5.0, 3.0, 1.0, 1.0),
    (1.0, 7.0, 5.0, 3.0, 1.0, 1.0),
    (4.0, 7.0, 5.0, 3.0, 1.0, 1.0),
)


@contextmanager
def _atomic_file(path):
    """A text file to write ``path`` through: a sibling temp file, renamed
    over ``path`` when the block ends.

    The temp name is random and created exclusively, so concurrent runs never
    share one; it is removed if the block, writing or renaming fails.  Mode
    0o666 lets the umask set the permissions, as a plain open would.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file the caller asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "w") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # say, a directory of that name: named as above
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_atomic(path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _content_lines(path) -> Iterator[tuple[int, str, str]]:
    """Each line of text file ``path`` that has content once cut at '#' and
    stripped: its number from 1, that content and the line as read."""
    with open(path, errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if line := raw.split("#", 1)[0].strip():
                yield lineno, line, raw


def load_config_file(path) -> dict[str, tuple[str, int]]:
    """Read ``key = value`` lines into {key: (value, line number)}; '#' starts a comment."""
    values: dict[str, tuple[str, int]] = {}
    for lineno, line, raw in _content_lines(path):
        if "=" not in line:
            got = _shown(raw.strip())
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {got}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise ValueError(f"{path}: line {lineno}: empty key")
        if key in values:
            raise ValueError(
                f"{path}: line {lineno}: duplicate key {_shown(key)} "
                f"(first on line {values[key][1]})"
            )
        values[key] = (value.strip(), lineno)
    return values


def _pair(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return (float(lo), float(hi))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(map(_float, text.split(",")))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


# What each converter takes, for the message when it rejects a value.
_FORMS = {int: "an integer", float: "a number", _pair: "'lo,hi'",
          _float_list: "comma-separated numbers", _int_list: "comma-separated integers"}


def _show(value) -> str:
    """A value as typed on the command line: floats in %g, tuples comma-separated."""
    if isinstance(value, tuple):
        return ",".join(map(_show, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


def _mae_table(report) -> str:
    header = f"{'Yaw':>9} {'Pitch':>9} {'Roll':>9} {'MAE':>9}"
    row = (
        f"{report.yaw_mae:9.4f} {report.pitch_mae:9.4f} "
        f"{report.roll_mae:9.4f} {report.mean_mae:9.4f}"
    )
    return header + "\n" + row


def _metrics_csv(report) -> str:
    return (
        "yaw_mae,pitch_mae,roll_mae,mean_mae,n_samples\n"
        f"{report.yaw_mae!r},{report.pitch_mae!r},{report.roll_mae!r},"
        f"{report.mean_mae!r},{report.n_samples}\n"
    )


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        n_samples=args.n, seed=args.seed, yaw_range=args.yaw_range,
        pitch_range=args.pitch_range, roll_range=args.roll_range,
        noise_sigma=args.noise_sigma, val_fraction=args.val_fraction,
    )
    try:
        train_samples, val_samples = make_dataset(cfg)
    except MemoryError as exc:
        raise MemoryError(f"--n {args.n}: {exc}") from None
    for path, data in ((args.out_train, train_samples), (args.out_val, val_samples)):
        # Block by block, so the text never exists whole; any block size gives the same bytes.
        with _atomic_file(path) as fh:
            for lo in range(0, len(data), PREDICT_BLOCK_ROWS):
                hi = lo + PREDICT_BLOCK_ROWS
                fh.write(format_dataset(Dataset(data.features[lo:hi], data.angles[lo:hi])))
    print(f"wrote {len(train_samples)} train samples to {args.out_train}")
    print(f"wrote {len(val_samples)} val samples to {args.out_val}")
    return 0


def _train_report_csv(report, hierarchy) -> str:
    ce_cols = ",".join(f"ce_{s.n_bins}" for s in hierarchy.levels)
    lines = [f"epoch,total,regression,{ce_cols},val_yaw_mae,val_pitch_mae,val_roll_mae,val_mean_mae"]
    for i in range(report.epochs):
        val = report.val_reports[i]
        cells = [
            str(i + 1),
            repr(report.epoch_total[i]),
            repr(report.epoch_regression[i]),
            *(repr(c) for c in report.epoch_ce_terms[i]),
            repr(val.yaw_mae),
            repr(val.pitch_mae),
            repr(val.roll_mae),
            repr(val.mean_mae),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _run_training(args: argparse.Namespace, train_samples, val_samples, seed: int, weights,
                  jobs: int = 1):
    """One training run: the net and report of ``train`` with the given seed,
    loss weights and jobs, and every other option from ``args``.  A net too
    large to allocate fails naming ``--hidden``."""
    config = NetConfig(
        input_dim=train_samples.features.shape[1],
        hidden_dims=args.hidden,
        seed=seed,
        decode_convention=args.decode_convention,
    )
    try:
        return train(
            config, train_samples, val_samples, weights,
            epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size, jobs=jobs,
        )
    except MemoryError as exc:
        raise MemoryError(f"--hidden {_show(args.hidden)}: {exc}") from None


def _load_training_data(args: argparse.Namespace) -> tuple[Dataset, Dataset]:
    """The --train and --val datasets, checked before training: angles in range, same width.

    The training flags are checked first, by flag name, before any file is read
    (``ablate`` has already required at least 1 epoch)."""
    _check_real("--lr", args.lr)
    _check_int("--batch-size", args.batch_size, 1)
    _check_int("--epochs", args.epochs, 0)
    train_samples, val_samples = load_dataset(args.train), load_dataset(args.val)
    for path, data in ((args.train, train_samples), (args.val, val_samples)):
        try:
            _check_in_range(data.angles)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    dim, val_dim = train_samples.features.shape[1], val_samples.features.shape[1]
    if val_dim != dim:
        raise ValueError(f"{args.val}: rows have {val_dim} features, {args.train} has {dim}")
    return train_samples, val_samples


def _final_val_mae(args, train_samples, val_samples, seed: int, weights) -> float:
    """One ablation run's final validation mean MAE."""
    _, report = _run_training(args, train_samples, val_samples, seed, weights)
    return report.final_val.mean_mae


def _usable_cores() -> int:
    """The cores this process may run on, by its CPU affinity (so ``taskset``
    caps it).  Off Linux, 1: the package forks on Linux only, so there every
    command runs in one process."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _run_map(fn, calls: list):
    """A context whose value yields ``fn(*args)`` for each of ``calls``, in order.

    One job per usable core runs them, but no more jobs than calls: one in
    this process, more as a ``_helper.pool`` of forked workers.  Each starts
    as a copy of this process, with its imported modules, the pinned
    one-thread BLAS, ``fn`` and its calls, k, k + jobs, ..., so every call
    computes the same bits wherever it runs and none is sent.  On leaving the
    block, also by an error, pending calls are dropped and the workers killed
    and reaped.
    """
    jobs = min(_usable_cores(), len(calls))
    if jobs <= 1:
        return nullcontext(starmap(fn, calls))
    from ._helper import pool  # here: only a run with workers needs it

    return pool(jobs, fn, calls)


def cmd_train(args: argparse.Namespace) -> int:
    # Checked before any file is read: the net has the default hierarchy.
    if len(args.betas) != (depth := make_hierarchy().depth):
        raise ValueError(f"--betas takes {depth} weights, one per level, got {_show(args.betas)}")
    weights = LossWeights(args.alpha, args.betas)
    train_samples, val_samples = _load_training_data(args)
    # A forked helper runs a share of each step where a second core is free to take it.
    jobs = min(_usable_cores(), 2)
    net, report = _run_training(args, train_samples, val_samples, args.seed, weights, jobs)

    # A slice of the parameters at a time, so the document never exists whole.
    with _atomic_file(args.checkpoint_out) as fh:
        fh.writelines(_checkpoint_chunks(net))
    if args.report_out:
        _write_atomic(args.report_out, _train_report_csv(report, net.config.hierarchy))

    print(f"alpha = {_show(weights.alpha)}")
    print(f"betas = {_show(weights.betas)}")
    print(f"epochs = {report.epochs}")
    final = report.final_val
    if final is not None:
        print(
            f"final val MAE: yaw={final.yaw_mae:.4f} pitch={final.pitch_mae:.4f} "
            f"roll={final.roll_mae:.4f} mean={final.mean_mae:.4f}"
        )
    print(f"training time: {report.wall_seconds:.1f}s")
    print(f"checkpoint: {args.checkpoint_out}")
    return 0


def _read_annotations(path, side: str) -> tuple[dict[str, int], np.ndarray]:
    try:
        # Parsed as it is read.  newline="" keeps each line's ending, so
        # splitlines splits the file wherever it would split the whole text.
        with open(path, errors="surrogateescape", newline="") as fh:
            ids, angles = parse_annotation_csv(chain.from_iterable(map(str.splitlines, fh)), side)
    except ParseError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not ids:
        raise ValueError(f"{path}: no annotation rows")
    return ids, angles


def _match_by_id(pred_ids: dict[str, int], pred: np.ndarray, truth_ids: dict[str, int]):
    """The rows of ``pred`` in ``truth_ids``' order; both dicts from id to row hold the same ids."""
    missing = {
        "predictions": [*map(_cut, sorted(truth_ids.keys() - pred_ids.keys())[:10])],
        "truths": [*map(_cut, sorted(pred_ids.keys() - truth_ids.keys())[:10])],
    }
    parts = [f"missing from {side}: {', '.join(ids)}" for side, ids in missing.items() if ids]
    if parts:
        raise ValueError("prediction/truth id mismatch; " + "; ".join(parts))
    return pred[np.fromiter(map(pred_ids.__getitem__, truth_ids), np.intp, len(truth_ids))]


def _eval_block(net, with_text, start: int, block) -> tuple[np.ndarray, np.ndarray, str | None]:
    """One block of ``eval --data`` lines, whose first row is row ``start``: its
    predictions by ``net``, its truths and, if ``with_text``, its ``--pred-out`` text."""
    rows = _parse_block(block)
    try:
        pred = net.predict_batch(rows.features)
    except ValueError as exc:  # rows of another width than the net's input
        raise ValueError(f"{block.path}: {exc}") from None
    if not with_text:
        return pred, rows.angles, None
    ids = [str(i) for i in range(start, start + len(rows))]
    text = format_predictions_csv(ids, pred, rows.angles)
    return pred, rows.angles, text if start == 0 else text.partition("\n")[2]


def cmd_eval(args: argparse.Namespace) -> int:
    if args.pred and args.truth:
        mode, others = "--pred and --truth", ("checkpoint", "data", "pred_out")
    elif args.checkpoint and args.data:
        mode, others = "--checkpoint and --data", ("pred", "truth")
    else:
        raise ValueError("provide either --pred and --truth, or --checkpoint and --data")
    stray = ["--" + name.replace("_", "-") for name in others if getattr(args, name) is not None]
    if stray:
        raise ValueError(f"eval from {mode} takes no {' or '.join(stray)}")

    if args.pred:
        pred_ids, pred = _read_annotations(args.pred, "pred")
        truth_ids, truth = _read_annotations(args.truth, "true")
        try:
            report = mae(_match_by_id(pred_ids, pred, truth_ids), truth)
        except ValueError as exc:  # ids that do not match: name both files
            raise ValueError(f"{args.pred} and {args.truth}: {exc}") from None
    else:
        net = load_checkpoint(args.checkpoint)
        # One predict_batch block per call, which is the block's first row and
        # position in the file, not its lines: whoever runs it reads them.  Of
        # each row only the prediction and truth the MAE needs are kept, 48
        # bytes: the same bits, and decode convention, as predict_batch on the
        # whole file and train's per-epoch validation MAE.
        preds, truths = array("d"), array("d")
        calls = list(zip(count(0, PREDICT_BLOCK_ROWS), _frame_lines(args.data, PREDICT_BLOCK_ROWS)))
        with _atomic_file(args.pred_out) if args.pred_out else nullcontext() as out:
            with _run_map(partial(_eval_block, net, out is not None), calls) as results:
                for pred, truth, text in results:
                    preds.frombytes(pred.tobytes())
                    truths.frombytes(truth.tobytes())
                    if out is not None:
                        out.write(text)
        report = mae(np.frombuffer(preds).reshape(-1, 3), np.frombuffer(truths).reshape(-1, 3))

    print(_mae_table(report))
    if args.out:
        _write_atomic(args.out, _metrics_csv(report))
    return 0


def _load_grid_file(path) -> list[LossWeights]:
    """One 'alpha,b1..b5' row per line, each checked before any training."""
    rows = []
    for lineno, line, _ in _content_lines(path):
        try:
            values = _float_list(line)
            if len(values) != 6:
                raise ValueError(
                    f"expected 6 comma-separated weights (alpha then 5 betas), got {len(values)}"
                )
            rows.append(LossWeights(values[0], values[1:]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no weight rows")
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    # Checked before any work: no epoch leaves a run no validation MAE, a negative
    # seed would fail only once its run starts, and a repeated one would train
    # the same run twice into the row's median.
    if args.epochs < 1:
        raise ValueError("ablate needs at least 1 epoch")
    if min(args.seeds) < 0:
        raise ValueError(f"--seeds must be nonnegative, got {_show(args.seeds)}")
    if len(set(args.seeds)) != len(args.seeds):
        raise ValueError(f"--seeds must not repeat a seed, got {_show(args.seeds)}")
    # The grid too, so that a bad row fails before either dataset is parsed.
    if args.grid_file:
        grid = _load_grid_file(args.grid_file)
    else:
        grid = [LossWeights(row[0], row[1:]) for row in DEFAULT_WEIGHT_GRID]
    train_samples, val_samples = _load_training_data(args)
    import statistics  # here, not at the top: it imports decimal and fractions, unused elsewhere

    medians = []
    calls = [(seed, weights) for weights in grid for seed in args.seeds]
    with _run_map(partial(_final_val_mae, args, train_samples, val_samples), calls) as finals:
        # Results come in grid order; each row prints its median once its runs are in.
        for weights in grid:
            medians.append(statistics.median([next(finals) for _ in args.seeds]))
            print(
                f"row alpha={_show(weights.alpha)} betas={_show(weights.betas)}: "
                f"median val MAE {medians[-1]:.4f}",
                file=sys.stderr,
            )
    best = medians.index(min(medians))

    edges = "bin centers" if args.decode_convention == "center" else "bin left edges"
    print(f"expectation decoding: {edges}")
    header = f"{'alpha':>7} " + " ".join(f"{f'beta{i+1}':>7}" for i in range(5))
    print(f"{header} {'median_mae':>11} best")
    lines_csv = ["alpha,beta1,beta2,beta3,beta4,beta5,median_val_mean_mae,best"]
    for i, (weights, med) in enumerate(zip(grid, medians)):
        row = (weights.alpha, *weights.betas)
        flag = "*" if i == best else ""
        cells = " ".join(f"{v:7g}" for v in row)
        print(f"{cells} {med:11.4f} {flag:>4}")
        lines_csv.append(",".join([*(repr(float(v)) for v in row), repr(med), str(int(i == best))]))
    if args.out:
        _write_atomic(args.out, "\n".join(lines_csv) + "\n")
    return 0


def cmd_parse_biwi(args: argparse.Namespace) -> int:
    # Checked once here: each file's rejection would only skip that file.
    _check_real("tol", args.tol)
    directory = Path(args.dir)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")

    ids, rows = [], []
    rejected = 0
    for path in sorted(directory.glob(args.pattern)):
        try:
            _check_ids([path.stem])
            rotation, _ = parse_biwi_pose(path.read_text(errors="surrogateescape"), tol=args.tol)
            pose = rotation_to_euler(rotation, tol=args.tol)
        except (ValueError, OSError) as exc:
            rejected += 1
            print(f"skipped {path.name}: {exc}", file=sys.stderr)
            continue
        ids.append(path.stem)
        rows.append((pose.yaw, pose.pitch, pose.roll))
    if not ids:  # eval would reject a file of no rows
        raise ValueError(
            f"{directory}: no file matching {args.pattern!r} parsed, rejected {rejected}"
        )
    _write_atomic(args.out, format_annotation_csv(ids, np.array(rows)))
    print(f"parsed {len(ids)} file(s), rejected {rejected}, wrote {args.out}")
    return 0


class _Option(NamedTuple):
    """A subcommand option: flag ``--name`` (dashes for underscores), config key
    ``name``.  Given neither way, it takes ``default``, or fails if ``required``."""

    name: str
    help: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    input: bool = False  # a file path the command reads
    output: bool = False  # a file path the command writes

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, text: str):
        """The flag's converter; a value it rejects fails naming the expected form."""
        try:
            return self.type(text)
        except ValueError:
            form = _FORMS[self.type]
            raise argparse.ArgumentTypeError(f"expected {form}, got {_shown(text)}") from None

    def convert(self, text: str):
        """A config file value as the flag's own converter and choices would take it."""
        if self.choices is not None and text not in self.choices:
            raise ValueError(f"invalid choice (choose from {', '.join(map(repr, self.choices))})")
        return self.parse(text)

    def help_text(self) -> str:
        if self.required:
            return f"{self.help} (required)"
        return self.help if self.default is None else f"{self.help} (default {_show(self.default)})"


# The options that train and ablate share.
_TRAINING = (
    _Option("train", "training dataset path", required=True, input=True),
    _Option("val", "validation dataset path", required=True, input=True),
    _Option("epochs", "passes over the training set", int, 30),
    _Option("lr", "Adam learning rate", float, 1e-3),
    _Option("batch_size", "samples per Adam step", int, 64),
    _Option("hidden", "trunk layer widths", _int_list, (64, 64)),
    _Option("decode_convention", "expectation over bin centers or left edges; "
            "the checkpoint stores it", default="center", choices=DECODE_CONVENTIONS),
)

# Subcommand: (function, help, options).  Each also takes --config FILE.
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic pose dataset", (
        _Option("n", "total samples before the split", int, 2500),
        _Option("seed", "dataset seed", int, 0),
        _Option("noise_sigma", "feature noise", float, 0.01),
        _Option("val_fraction", "validation share", float, 0.2),
        _Option("yaw_range", "'lo,hi' degrees", _pair, (-75.0, 75.0)),
        _Option("pitch_range", "'lo,hi' degrees", _pair, (-60.0, 60.0)),
        _Option("roll_range", "'lo,hi' degrees", _pair, (-50.0, 50.0)),
        _Option("out_train", "training split output path", required=True, output=True),
        _Option("out_val", "validation split output path", required=True, output=True),
    )),
    "train": (cmd_train, "train a model on dataset files", (
        *_TRAINING,
        _Option("alpha", "regression weight", float, 2.0),
        _Option("betas", "per-level weights, finest first", _float_list, (7.0, 5.0, 3.0, 1.0, 1.0)),
        _Option("seed", "init/shuffle seed", int, 0),
        _Option("checkpoint_out", "checkpoint output path", required=True, output=True),
        _Option("report_out", "per-epoch CSV output path", output=True),
    )),
    "eval": (cmd_eval, "report MAE from predictions or a checkpoint", (
        _Option("pred", "predictions CSV (id,yaw,pitch,roll) or a --pred-out file", input=True),
        _Option("truth", "ground truth CSV (id,yaw,pitch,roll) or a --pred-out file", input=True),
        _Option("checkpoint", "checkpoint to evaluate", input=True),
        _Option("data", "dataset file to evaluate on", input=True),
        _Option("out", "metrics CSV output path", output=True),
        _Option("pred_out", "per-sample predictions CSV output path", output=True),
    )),
    "ablate": (cmd_ablate, "train over a weight grid and rank rows", (
        *_TRAINING,
        _Option("seeds", "training seeds of every grid row", _int_list, (0, 1, 2, 3, 4)),
        _Option("grid_file", "one 'alpha,b1..b5' row per line, in place of the built-in grid",
                input=True),
        _Option("out", "results CSV output path", output=True),
    )),
    "parse-biwi": (cmd_parse_biwi, "convert a directory of pose files to CSV", (
        _Option("dir", "directory of pose text files", required=True),
        _Option("pattern", "glob within the directory", default="*.txt"),
        _Option("tol", "orthonormality tolerance", float, 1e-6),
        _Option("out", "annotation CSV output path", required=True, output=True),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridpose", description="Coarse-to-fine bin classification pose estimation tools."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key = value config file; flags override its values")
        for o in options:
            p.add_argument(o.flag, dest=o.name, type=o.parse, choices=o.choices, help=o.help_text())
        p.set_defaults(func=func)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """``--flag -v`` as ``--flag=-v``, for every flag of the subcommand that takes a value.

    argparse takes a token that starts with '-' and is not a plain number for
    a flag, so ``--yaw-range -30,30`` would fail with 'expected one argument'.
    A flag may be abbreviated, as argparse allows.  A token that argparse
    reads as a flag (one that starts with '--', or -h) stays a flag.
    """
    if not argv or argv[0] not in _COMMANDS:
        return argv
    flags = ["--config", *(o.flag for o in _COMMANDS[argv[0]][2])]
    out = argv[:1]
    for token in argv[1:]:
        prev = out[-1]
        named = [prev] if prev in flags else [f for f in flags if f.startswith(prev)]
        if len(named) == 1 and token.startswith("-") and not token.startswith("--") and token != "-h":
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``, then fill each option not given as a flag from the config
    file, else from its default.  Every file value is checked, also an overridden one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_dash_values(argv))
    options = {o.name: o for o in _COMMANDS[args.command][2]}
    file_values = load_config_file(args.config) if args.config else {}
    for key, (raw, lineno) in file_values.items():
        if key not in options:
            raise ValueError(
                f"{args.config}: line {lineno}: unknown option {_shown(key)} for {args.command}"
            )
        try:
            value = options[key].convert(raw)
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise ValueError(
                f"{args.config}: line {lineno}: config value {key} = {_shown(raw)}: {exc}"
            ) from None
        if getattr(args, key) is None:
            setattr(args, key, value)
    for o in options.values():
        if getattr(args, o.name) is None:
            if o.required:
                raise ValueError(f"missing required option {o.flag}")
            setattr(args, o.name, o.default)
    return args


def _check_outputs(args: argparse.Namespace) -> None:
    """Fail before any work on an output path that is an existing directory, which
    only the final rename would find, or that names the same file as an input
    (``--config`` included) or an earlier output, which its write would replace."""
    options = _COMMANDS[args.command][2]
    flags: dict[str, str] = {}
    inputs = [(o.flag, getattr(args, o.name)) for o in options if o.input]
    for flag, path in [("--config", args.config), *inputs]:
        if path is not None:
            flags.setdefault(os.path.realpath(path), flag)
    for o in options:
        path = getattr(args, o.name) if o.output else None
        if path is None:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        first = flags.setdefault(os.path.realpath(path), o.flag)
        if first != o.flag:
            raise ValueError(f"{first} and {o.flag} name the same file: {path}")


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
