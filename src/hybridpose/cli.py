"""Command line interface: synth, train, eval, ablate, parse-biwi.

Every subcommand accepts ``--config FILE`` pointing at a plain text file of
``key = value`` lines ('#' starts a comment; keys use underscores or dashes
interchangeably).  Explicit flags override file values.  Output files are
written to a temporary sibling and renamed into place, so a failing run
never leaves a partial file behind.
"""

from __future__ import annotations

import os

# BLAS matmuls round differently per thread count: pin one thread before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

from .angles import mae, rotation_to_euler
from .binning import make_hierarchy
from .data import (
    ParseError,
    format_annotation_csv,
    format_predictions_csv,
    parse_annotation_csv,
    parse_biwi_pose,
)
from .loss import LossWeights
from .synth import SynthConfig, format_dataset, load_dataset, make_dataset
from .tinynet import NetConfig, checkpoint_text, load_checkpoint, train

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


def _write_atomic(path, text: str) -> None:
    """Write ``text`` to a sibling temp file, then rename it over ``path``.

    The temp name is random and created exclusively, so concurrent runs never
    share one; it is removed if writing or renaming fails.  Mode 0o666 lets
    the umask set the permissions, as a plain open would.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_config_file(path) -> dict[str, tuple[str, int]]:
    """Read ``key = value`` lines into {key: (value, line number)}; '#' starts a comment."""
    values: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if not key:
                raise ValueError(f"{path}: line {lineno}: empty key")
            if key in values:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate key {key!r} (first on line {values[key][1]})"
                )
            values[key] = (value.strip(), lineno)
    return values


class _Options:
    """Merged view of CLI flags and config file values (flags win).

    A config file key must name an option of the invoked subcommand.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.path = getattr(args, "config", None)
        self.file_values = load_config_file(self.path) if self.path else {}
        known = vars(args).keys() - {"config", "command", "func"}
        for key, (_, lineno) in self.file_values.items():
            if key not in known:
                raise ValueError(
                    f"{self.path}: line {lineno}: unknown option {key!r} for {args.command}"
                )

    def get(self, name: str, convert, default=None, required: bool = False):
        value = getattr(self.args, name, None)
        if value is None and name in self.file_values:
            raw, lineno = self.file_values[name]
            try:
                value = convert(raw)
            except (ValueError, TypeError) as exc:
                raise ValueError(
                    f"{self.path}: line {lineno}: config value {name} = {raw!r}: {exc}"
                ) from None
        if value is None:
            value = default
        if value is None and required:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return value


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _fmt(value: float) -> str:
    return f"{value:g}"


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
    opt = _Options(args)
    cfg = SynthConfig(
        n_samples=opt.get("n", int, 2500),
        seed=opt.get("seed", int, 0),
        yaw_range=opt.get("yaw_range", _pair, (-75.0, 75.0)),
        pitch_range=opt.get("pitch_range", _pair, (-60.0, 60.0)),
        roll_range=opt.get("roll_range", _pair, (-50.0, 50.0)),
        noise_sigma=opt.get("noise_sigma", float, 0.01),
        val_fraction=opt.get("val_fraction", float, 0.2),
    )
    out_train = opt.get("out_train", str, required=True)
    out_val = opt.get("out_val", str, required=True)
    train_samples, val_samples = make_dataset(cfg)
    _write_atomic(out_train, format_dataset(train_samples))
    _write_atomic(out_val, format_dataset(val_samples))
    print(f"wrote {len(train_samples)} train samples to {out_train}")
    print(f"wrote {len(val_samples)} val samples to {out_val}")
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


def _run_training(opt: _Options, seed: int, train_samples, val_samples, weights):
    hidden = opt.get("hidden", _int_list, (64, 64))
    config = NetConfig(
        input_dim=train_samples.features.shape[1],
        hidden_dims=hidden,
        hierarchy=make_hierarchy(),
        seed=seed,
    )
    return train(
        config,
        train_samples,
        val_samples,
        weights,
        epochs=opt.get("epochs", int, 30),
        learning_rate=opt.get("lr", float, 1e-3),
        batch_size=opt.get("batch_size", int, 64),
        mse_scale=opt.get("mse_scale", str, "degrees"),
        convention=opt.get("decode_convention", str, "center"),
    )


def cmd_train(args: argparse.Namespace) -> int:
    opt = _Options(args)
    train_samples = load_dataset(opt.get("train", str, required=True))
    val_samples = load_dataset(opt.get("val", str, required=True))
    alpha = opt.get("alpha", float, 2.0)
    betas = opt.get("betas", _float_list, (7.0, 5.0, 3.0, 1.0, 1.0))
    weights = LossWeights(alpha, betas)
    checkpoint_out = opt.get("checkpoint_out", str, required=True)
    report_out = opt.get("report_out", str)

    net, report = _run_training(opt, opt.get("seed", int, 0), train_samples, val_samples, weights)

    _write_atomic(checkpoint_out, checkpoint_text(net))
    if report_out:
        _write_atomic(report_out, _train_report_csv(report, net.config.hierarchy))

    print(f"alpha = {_fmt(weights.alpha)}")
    print(f"betas = {','.join(_fmt(b) for b in weights.betas)}")
    print(f"epochs = {report.epochs}")
    final = report.final_val
    if final is not None:
        print(
            f"final val MAE: yaw={final.yaw_mae:.4f} pitch={final.pitch_mae:.4f} "
            f"roll={final.roll_mae:.4f} mean={final.mean_mae:.4f}"
        )
    print(f"training time: {report.wall_seconds:.1f}s")
    print(f"checkpoint: {checkpoint_out}")
    return 0


def _read_annotations(path) -> tuple[list[str], np.ndarray]:
    try:
        return parse_annotation_csv(Path(path).read_text())
    except ParseError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _match_by_id(pred_ids, pred: np.ndarray, truth_ids) -> np.ndarray:
    """The rows of ``pred`` reordered to ``truth_ids``; both must hold the same ids."""
    index = {sample_id: i for i, sample_id in enumerate(pred_ids)}
    missing = {
        "predictions": sorted(set(truth_ids) - index.keys()),
        "truths": sorted(index.keys() - set(truth_ids)),
    }
    parts = [f"missing from {side}: {', '.join(ids[:10])}" for side, ids in missing.items() if ids]
    if parts:
        raise ValueError("prediction/truth id mismatch; " + "; ".join(parts))
    return pred[[index[sample_id] for sample_id in truth_ids]]


def cmd_eval(args: argparse.Namespace) -> int:
    opt = _Options(args)
    pred_path = opt.get("pred", str)
    truth_path = opt.get("truth", str)
    ckpt_path = opt.get("checkpoint", str)
    data_path = opt.get("data", str)

    if pred_path and truth_path:
        pred_ids, pred = _read_annotations(pred_path)
        truth_ids, truth = _read_annotations(truth_path)
        report = mae(_match_by_id(pred_ids, pred, truth_ids), truth)
    elif ckpt_path and data_path:
        net = load_checkpoint(ckpt_path)
        data = load_dataset(data_path)
        pred = net.predict_batch(data.features, opt.get("decode_convention", str, "center"))
        # The same arithmetic as train's per-epoch validation MAE.
        report = mae(pred, data.angles)
        pred_out = opt.get("pred_out", str)
        if pred_out:
            ids = [str(i) for i in range(len(pred))]
            _write_atomic(pred_out, format_predictions_csv(ids, pred, data.angles))
    else:
        raise ValueError("provide either --pred and --truth, or --checkpoint and --data")

    print(_mae_table(report))
    out = opt.get("out", str)
    if out:
        _write_atomic(out, _metrics_csv(report))
    return 0


def _load_grid_file(path) -> list[LossWeights]:
    """One 'alpha,b1..b5' row per line, each checked before any training."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values = _float_list(line)
                if len(values) != 6:
                    raise ValueError(
                        f"expected 6 comma-separated weights (alpha then 5 betas), "
                        f"got {len(values)}"
                    )
                rows.append(LossWeights(values[0], values[1:]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    opt = _Options(args)
    train_samples = load_dataset(opt.get("train", str, required=True))
    val_samples = load_dataset(opt.get("val", str, required=True))
    seeds = opt.get("seeds", _int_list, (0, 1, 2, 3, 4))
    grid_file = opt.get("grid_file", str)
    if grid_file:
        grid = _load_grid_file(grid_file)
    else:
        grid = [LossWeights(row[0], row[1:]) for row in DEFAULT_WEIGHT_GRID]
    if not grid:
        raise ValueError("weight grid is empty")
    if opt.get("epochs", int, 30) < 1:
        raise ValueError("ablate needs at least 1 epoch")

    medians = []
    for weights in grid:
        finals = []
        for seed in seeds:
            _, report = _run_training(opt, seed, train_samples, val_samples, weights)
            finals.append(report.final_val.mean_mae)
        medians.append(statistics.median(finals))
        print(
            f"row alpha={_fmt(weights.alpha)} betas={','.join(_fmt(b) for b in weights.betas)}: "
            f"median val MAE {medians[-1]:.4f}",
            file=sys.stderr,
        )
    best = medians.index(min(medians))

    print("expectation decoding: bin centers"
          if opt.get("decode_convention", str, "center") == "center"
          else "expectation decoding: bin left edges")
    header = f"{'alpha':>7} " + " ".join(f"{f'beta{i+1}':>7}" for i in range(5))
    print(f"{header} {'median_mae':>11} best")
    lines_csv = ["alpha,beta1,beta2,beta3,beta4,beta5,median_val_mean_mae,best"]
    for i, (weights, med) in enumerate(zip(grid, medians)):
        row = (weights.alpha, *weights.betas)
        flag = "*" if i == best else ""
        cells = " ".join(f"{v:7g}" for v in row)
        print(f"{cells} {med:11.4f} {flag:>4}")
        lines_csv.append(",".join([*(repr(float(v)) for v in row), repr(med), str(int(i == best))]))
    out = opt.get("out", str)
    if out:
        _write_atomic(out, "\n".join(lines_csv) + "\n")
    return 0


def cmd_parse_biwi(args: argparse.Namespace) -> int:
    opt = _Options(args)
    directory = Path(opt.get("dir", str, required=True))
    out = opt.get("out", str, required=True)
    pattern = opt.get("pattern", str, "*.txt")
    tol = opt.get("tol", float, 1e-6)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")

    ids, rows = [], []
    rejected = 0
    for path in sorted(directory.glob(pattern)):
        try:
            rotation, _ = parse_biwi_pose(path.read_text(), tol=tol)
            pose = rotation_to_euler(rotation, tol=tol)
        except (ValueError, OSError) as exc:
            rejected += 1
            print(f"skipped {path.name}: {exc}", file=sys.stderr)
            continue
        ids.append(path.stem)
        rows.append((pose.yaw, pose.pitch, pose.roll))
    _write_atomic(out, format_annotation_csv(ids, np.reshape(rows, (len(ids), 3))))
    print(f"parsed {len(ids)} file(s), rejected {rejected}, wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridpose",
        description="Coarse-to-fine bin classification pose estimation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic pose dataset")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--n", type=int, help="total samples before the split (default 2500)")
    p.add_argument("--seed", type=int, help="dataset seed (default 0)")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, help="feature noise (default 0.01)")
    p.add_argument("--val-fraction", dest="val_fraction", type=float, help="validation share (default 0.2)")
    p.add_argument("--yaw-range", dest="yaw_range", type=_pair, help="'lo,hi' degrees (default -75,75)")
    p.add_argument("--pitch-range", dest="pitch_range", type=_pair, help="'lo,hi' degrees (default -60,60)")
    p.add_argument("--roll-range", dest="roll_range", type=_pair, help="'lo,hi' degrees (default -50,50)")
    p.add_argument("--out-train", dest="out_train", help="training split output path")
    p.add_argument("--out-val", dest="out_val", help="validation split output path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on dataset files")
    p.add_argument("--config")
    p.add_argument("--train", help="training dataset path")
    p.add_argument("--val", help="validation dataset path")
    p.add_argument("--epochs", type=int, help="default 30")
    p.add_argument("--lr", type=float, help="Adam learning rate (default 1e-3)")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="default 64")
    p.add_argument("--alpha", type=float, help="regression weight (default 2)")
    p.add_argument("--betas", type=_float_list, help="per-level weights (default 7,5,3,1,1)")
    p.add_argument("--seed", type=int, help="init/shuffle seed (default 0)")
    p.add_argument("--hidden", type=_int_list, help="trunk widths (default 64,64)")
    p.add_argument("--mse-scale", dest="mse_scale", choices=("degrees", "bins"))
    p.add_argument("--decode-convention", dest="decode_convention", choices=("center", "edge"))
    p.add_argument("--checkpoint-out", dest="checkpoint_out", help="checkpoint output path")
    p.add_argument("--report-out", dest="report_out", help="per-epoch CSV output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report MAE from predictions or a checkpoint")
    p.add_argument("--config")
    p.add_argument("--pred", help="predictions CSV (id,yaw,pitch,roll)")
    p.add_argument("--truth", help="ground truth CSV (id,yaw,pitch,roll)")
    p.add_argument("--checkpoint", help="checkpoint to evaluate")
    p.add_argument("--data", help="dataset file to evaluate on")
    p.add_argument("--decode-convention", dest="decode_convention", choices=("center", "edge"))
    p.add_argument("--out", help="metrics CSV output path")
    p.add_argument("--pred-out", dest="pred_out", help="per-sample predictions CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train over a weight grid and rank rows")
    p.add_argument("--config")
    p.add_argument("--train")
    p.add_argument("--val")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seeds", type=_int_list, help="comma list (default 0,1,2,3,4)")
    p.add_argument("--hidden", type=_int_list)
    p.add_argument("--mse-scale", dest="mse_scale", choices=("degrees", "bins"))
    p.add_argument("--decode-convention", dest="decode_convention", choices=("center", "edge"))
    p.add_argument("--grid-file", dest="grid_file", help="one 'alpha,b1..b5' row per line")
    p.add_argument("--out", help="results CSV output path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("parse-biwi", help="convert a directory of pose files to CSV")
    p.add_argument("--config")
    p.add_argument("--dir", help="directory of pose text files")
    p.add_argument("--pattern", help="glob within the directory (default *.txt)")
    p.add_argument("--tol", type=float, help="orthonormality tolerance (default 1e-6)")
    p.add_argument("--out", help="annotation CSV output path")
    p.set_defaults(func=cmd_parse_biwi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
