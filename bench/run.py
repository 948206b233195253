"""Benchmark of the ``hybridpose`` command line stages, measured from outside.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each CLI stage runs in its own child process (``bench/stage.py``), one at a
time, the way a user runs it.  Inputs are made with ``hybridpose synth`` from
``--seed`` before timing starts.  The workload's stage sequence then repeats,
closed loop, until ``--seconds`` have passed, and each metric is the median
over the repetitions.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones.  ``--workload all`` runs every
workload both ways and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STAGE = BENCH / "stage.py"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

STAGE_TIMEOUT_S = 150
SETUP_PROBES = 5
BULK_ROWS = 10_000
BULK_CHECKPOINT_EPOCHS = 10
ABLATE_GRID = "2,7,5,3,1,1\n2,1,0,0,0,0\n"

# Upper bound on val_mae_deg per workload, in degrees: about twice the value
# the seed code reaches, so a change that breaks training fails the run.
# eval_bulk's checkpoint trains for BULK_CHECKPOINT_EPOCHS only (about 1.45).
QUALITY_BOUND_DEG = {"roundtrip": 1.6, "eval_bulk": 3.0, "ablate_b8": 3.5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "samples/s",
    "val_mae_deg": "deg",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, span name, field of the span totals).  Fields:
# calls, s (time inside the span), self_s (minus child spans), value (sum
# of what the span measured: rows, bytes or FLOPs).
PER_LAYER = {
    "tinynet.loss_grad.calls": ("count", "tinynet.loss_grad", "calls"),
    "tinynet.loss_grad.self_s": ("s", "tinynet.loss_grad", "self_s"),
    "tinynet.loss_grad.gflops_computed": ("GFLOP/s", "tinynet.loss_grad", None),
    "tinynet.forward.calls": ("count", "tinynet.forward", "calls"),
    "tinynet.forward.s": ("s", "tinynet.forward", "s"),
    "tinynet.adam.calls": ("count", "tinynet.adam", "calls"),
    "tinynet.adam.s": ("s", "tinynet.adam", "s"),
    "tinynet.finite_guard.s": ("s", "tinynet.finite_guard", "s"),
    "tinynet.evaluate.s": ("s", "tinynet.evaluate", "s"),
    "tinynet.init_net.s": ("s", "tinynet.init_net", "s"),
    "tinynet.batch_arrays.s": ("s", "tinynet.batch_arrays", "s"),
    "tinynet.predict.calls": ("count", "tinynet.predict", "calls"),
    "tinynet.predict.s": ("s", "tinynet.predict", "s"),
    "tinynet.predict_batch.calls": ("count", "tinynet.predict_batch", "calls"),
    "tinynet.predict_batch.s": ("s", "tinynet.predict_batch", "s"),
    "binning.expect_decode.calls": ("count", "binning.expect_decode", "calls"),
    "binning.expect_decode.s": ("s", "binning.expect_decode", "s"),
    "loss.softmax.calls": ("count", "loss.softmax", "calls"),
    "loss.softmax.s": ("s", "loss.softmax", "s"),
    "synth.load_dataset.s": ("s", "synth.load_dataset", "s"),
    "synth.load_dataset.rows": ("count", "synth.load_dataset", "value"),
    "synth.make_dataset.s": ("s", "synth.make_dataset", "s"),
    "synth.format_dataset.s": ("s", "synth.format_dataset", "s"),
    "synth.format_dataset.bytes": ("bytes", "synth.format_dataset", "value"),
    "data.format_predictions_csv.s": ("s", "data.format_predictions_csv", "s"),
    "data.format_predictions_csv.bytes": ("bytes", "data.format_predictions_csv", "value"),
    "tinynet.checkpoint_text.s": ("s", "tinynet.checkpoint_text", "s"),
    "tinynet.checkpoint_text.bytes": ("bytes", "tinynet.checkpoint_text", "value"),
    "tinynet.load_checkpoint.s": ("s", "tinynet.load_checkpoint", "s"),
    "angles.mae.s": ("s", "angles.mae", "s"),
    "cli.write_atomic.calls": ("count", "cli.write_atomic", "calls"),
    "cli.write_atomic.s": ("s", "cli.write_atomic", "s"),
    "cli.write_atomic.bytes": ("bytes", "cli.write_atomic", "value"),
    "trace.overhead_ratio": ("ratio", None, None),
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --- workloads ------------------------------------------------------------
#
# A workload has an untimed ``prepare`` step and a list of timed stages.
# Each stage is (name, CLI arguments, output files to hash).  Paths are
# relative to the run's work directory, which is the stages' cwd.


def _synth_args(n: int, seed: int, out_train: str, out_val: str, val_fraction=None):
    args = ["synth", "--n", str(n), "--seed", str(seed), "--out-train", out_train, "--out-val", out_val]
    return args + (["--val-fraction", str(val_fraction)] if val_fraction else [])


TRAIN_ARGS = ["train", "--train", "train.csv", "--val", "val.csv",
              "--checkpoint-out", "net.json", "--report-out", "report.csv"]


class Roundtrip:
    """The README sequence at its defaults: synth 2500, train 30 epochs, eval."""

    name = "roundtrip"
    main_stage = "train"

    def prepare(self, runner, seed):
        pass

    def stages(self, seed):
        return [
            ("synth", _synth_args(2500, seed, "train.csv", "val.csv"), ["train.csv", "val.csv"]),
            ("train", TRAIN_ARGS, ["net.json", "report.csv"]),
            ("eval", ["eval", "--checkpoint", "net.json", "--data", "val.csv", "--out", "metrics.csv"],
             ["metrics.csv"]),
        ]

    def samples(self, work):
        epochs = len(_read_csv(work / "report.csv"))
        return _count_rows(work / "train.csv") * epochs

    def val_mae(self, work):
        return float(_read_csv(work / "metrics.csv")[0]["mean_mae"])


class EvalBulk:
    """Evaluate a prepared checkpoint on 10,000 held-out samples."""

    name = "eval_bulk"
    main_stage = "eval"

    def prepare(self, runner, seed):
        runner.untimed(_synth_args(2500, seed, "train.csv", "val.csv"))
        runner.untimed([*TRAIN_ARGS, "--epochs", str(BULK_CHECKPOINT_EPOCHS)])
        # A second data seed, so the evaluated rows are not the training rows.
        n = BULK_ROWS + 20
        runner.untimed(_synth_args(n, seed + 1_000_000, "bulk.csv", "bulk_rest.csv", 20 / n))

    def stages(self, seed):
        return [
            ("eval", ["eval", "--checkpoint", "net.json", "--data", "bulk.csv",
                      "--out", "metrics.csv", "--pred-out", "preds.csv"],
             ["metrics.csv", "preds.csv"]),
        ]

    def samples(self, work):
        return int(_read_csv(work / "metrics.csv")[0]["n_samples"])

    def val_mae(self, work):
        return float(_read_csv(work / "metrics.csv")[0]["mean_mae"])


class AblateB8:
    """Two grid rows x two seeds, 2 epochs at batch 8, on the roundtrip data."""

    name = "ablate_b8"
    main_stage = "ablate"

    def prepare(self, runner, seed):
        runner.untimed(_synth_args(2500, seed, "train.csv", "val.csv"))
        (runner.work / "grid.txt").write_text(ABLATE_GRID)

    def stages(self, seed):
        return [
            ("ablate", ["ablate", "--train", "train.csv", "--val", "val.csv", "--grid-file", "grid.txt",
                        "--seeds", "0,1", "--epochs", "2", "--batch-size", "8", "--out", "ablation.csv"],
             ["ablation.csv"]),
        ]

    def samples(self, work):
        runs = len(ABLATE_GRID.splitlines()) * 2
        return _count_rows(work / "train.csv") * 2 * runs

    def val_mae(self, work):
        best = [row for row in _read_csv(work / "ablation.csv") if row["best"] == "1"]
        return float(best[0]["median_val_mean_mae"])


WORKLOADS = {w.name: w for w in (Roundtrip(), EvalBulk(), AblateB8())}


def _read_csv(path: Path) -> list[dict]:
    header, *rows = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def _count_rows(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- running stages -------------------------------------------------------


class StageFailed(Exception):
    pass


class Runner:
    """Starts stages one at a time in ``work`` and collects their numbers."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def stage(self, argv, trace: bool) -> dict:
        """Run one stage; returns exit code, wall, set-up, peak RSS and spans."""
        meta = self.work / "stage-meta.json"
        meta.unlink(missing_ok=True)
        log = self.work / "stage.log"
        with open(log, "w") as out:
            start = _now()
            proc = subprocess.Popen(
                [sys.executable, str(STAGE), str(meta), "1" if trace else "0", *argv],
                cwd=self.work, env=self.env, stdout=out, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"argv": argv, "code": proc.returncode, "wall_s": end - start,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if meta.is_file():
            info = json.loads(meta.read_text())
            result["setup_s"] = info["import_done"] - start
            result["trace"] = (info["names"], info["spans"])
        if proc.returncode != 0 or "setup_s" not in result:
            result["log"] = log.read_text()[-2000:]
        return result

    def untimed(self, argv) -> None:
        result = self.stage(argv, trace=False)
        if result["code"] != 0:
            raise StageFailed(f"preparation stage {' '.join(argv)} failed:\n{result.get('log', '')}")


def layer_totals(traces) -> dict:
    """Per span name: [calls, total seconds, self seconds, sum of values]."""
    totals: dict[str, list] = {}
    for names, spans in traces:
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name_index, start, end, _, value), self_s in zip(spans, own):
            t = totals.setdefault(names[name_index], [0, 0.0, 0.0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += self_s
            t[3] += value or 0
    return totals


def layer_metrics(traces) -> dict:
    totals = layer_totals(traces)
    fields = {"calls": 0, "s": 1, "self_s": 2, "value": 3}
    values = {}
    for metric, (_, span, field) in PER_LAYER.items():
        if field is not None:
            values[metric] = totals.get(span, [0, 0.0, 0.0, 0])[fields[field]]
    _, total_s, _, flops = totals.get("tinynet.loss_grad", [0, 0.0, 0.0, 0])
    values["tinynet.loss_grad.gflops_computed"] = flops / total_s / 1e9 if total_s else 0.0
    return values


# --- one repetition and its checks ----------------------------------------


class Run:
    """Repetitions of one workload at one seed, and the checks on them."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.runner = Runner(work)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_hashes: dict | None = None
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []

    def rep(self, trace: bool) -> dict | None:
        """Run the workload's stages once; None if a stage failed."""
        rep = {"trace": trace, "stages": {}, "hashes": {}}
        traces = []
        for stage, argv, outputs in self.workload.stages(self.seed):
            self.attempted += 1
            result = self.runner.stage(argv, trace)
            missing = [o for o in outputs if not (self.work / o).is_file()]
            if result["code"] != 0 or "setup_s" not in result or missing:
                self.failures.append(f"stage {stage} exited {result['code']}, missing outputs "
                                     f"{missing}: {result.get('log', '')}")
                return None
            traces.append(result.pop("trace"))
            rep["stages"][stage] = result
            rep["hashes"][stage] = {o: _sha256(self.work / o) for o in outputs}
            self.setup_samples.append(result["setup_s"])
            if not self._check_stage(stage, rep["hashes"][stage], trace):
                return None
        stages = rep["stages"].values()
        rep["wall_s"] = sum(s["wall_s"] for s in stages)
        rep["peak_rss_mb"] = max(s["peak_rss_mb"] for s in stages)
        rep["main_s"] = rep["stages"][self.workload.main_stage]["wall_s"]
        rep["samples"] = self.workload.samples(self.work)
        rep["val_mae_deg"] = self.workload.val_mae(self.work)
        if isinstance(self.workload, Roundtrip):
            train_mae = float(_read_csv(self.work / "report.csv")[-1]["val_mean_mae"])
            rep["train_eval_mae_gap"] = rep["val_mae_deg"] - train_mae
        if trace:
            rep["layers"] = layer_metrics(traces)
        if not self._check_outputs(rep):
            return None
        if self.reference_hashes is None:
            self.reference_hashes = rep["hashes"]
        self.reps.append(rep)
        return rep

    def _check_stage(self, stage: str, hashes: dict, trace: bool) -> bool:
        ref = (self.reference_hashes or {}).get(stage)
        if ref is not None and ref != hashes:
            kind = "traced run differs from untraced run" if trace else "repeat differs"
            self.failures.append(f"stage {stage}: {kind} for the same code and seed: {hashes} vs {ref}")
            return False
        return True

    def _check_outputs(self, rep: dict) -> bool:
        bound = QUALITY_BOUND_DEG[self.workload.name]
        if not rep["val_mae_deg"] < bound:
            self.failures.append(f"val_mae_deg {rep['val_mae_deg']!r} is not under its bound {bound}")
            return False
        if isinstance(self.workload, EvalBulk):
            # Recompute MAE from the per-sample predictions, independently of the CLI.
            table = np.loadtxt(self.work / "preds.csv", delimiter=",", skiprows=1, ndmin=2)
            per_angle = np.abs(table[:, 1:4] - table[:, 4:7]).mean(axis=0)
            mine = [*per_angle, per_angle.sum() / 3.0]
            row = _read_csv(self.work / "metrics.csv")[0]
            theirs = [float(row[k]) for k in ("yaw_mae", "pitch_mae", "roll_mae", "mean_mae")]
            if not np.allclose(mine, theirs, rtol=1e-12, atol=0.0):
                self.failures.append(f"MAE recomputed from preds.csv {mine} != metrics.csv {theirs}")
                return False
        return True


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run: Run) -> dict:
    reps = [r for r in run.reps if not r["trace"]]
    per_stage_setup = _median(run.setup_samples)
    return {
        "setup_s": per_stage_setup * len(run.workload.stages(run.seed)),
        "wall_s": _median([r["wall_s"] for r in reps]),
        "samples_per_s": _median([r["samples"] / r["main_s"] for r in reps]),
        "val_mae_deg": _median([r["val_mae_deg"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def per_layer(run: Run) -> dict:
    traced = [r for r in run.reps if r["trace"]]
    untraced = [r for r in run.reps if not r["trace"]]
    values = {m: _median([r["layers"][m] for r in traced]) for m in traced[0]["layers"]}
    values["trace.overhead_ratio"] = (
        _median([r["wall_s"] for r in traced]) / _median([r["wall_s"] for r in untraced]) - 1.0
    )
    return values


def informational(run: Run) -> dict:
    """Numbers kept in the results file and printout but not gated."""
    reps = [r for r in run.reps if not r["trace"]]
    info = {
        f"{stage}_s": (_median([r["stages"][stage]["wall_s"] for r in reps]), "s")
        for stage, _, _ in run.workload.stages(run.seed)
    }
    info["error_rate"] = (len(run.failures) / max(run.attempted, 1), "ratio")
    if reps and "train_eval_mae_gap" in reps[0]:
        # Identical in every repetition: the outputs it comes from hash the same.
        info["cli.train_eval_mae_gap"] = (reps[0]["train_eval_mae_gap"], "deg")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in info.items()}


# --- environment and the top level ----------------------------------------


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hybridpose").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas_keys = ("name", "version", "openblas configuration")
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: v.get(f) for f in blas_keys} for k, v in deps.items()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset (library default)") for v in thread_vars},
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare, repeat the workload for ``seconds`` and return the record."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    try:
        # Untimed: warm the import (bytecode, file cache), then make inputs.
        run.runner.stage([], trace=False)
        workload.prepare(run.runner, seed)
        # Repeat while another round is expected to end before the deadline,
        # so a run measures about ``seconds`` and never much more.
        start = _now()
        rounds = []
        while not run.failures:
            t0 = _now()
            for flag in (False, True) if trace else (False,):
                if run.failures or run.rep(flag) is None:
                    break
            rounds.append(_now() - t0)
            if _now() + statistics.median(rounds) > start + seconds:
                break
        if not trace and not run.failures:
            for _ in range(SETUP_PROBES):
                probe = run.runner.stage([], trace=False)
                if "setup_s" in probe:
                    run.setup_samples.append(probe["setup_s"])
    except StageFailed as exc:
        run.failures.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = not run.failures and bool(run.reps)
    metrics = {}
    if ok:
        values = per_layer(run) if trace else end_to_end(run)
        units = {m: PER_LAYER[m][0] for m in PER_LAYER} if trace else END_TO_END_UNITS
        metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    return {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "correct": ok,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": metrics,
        "informational": informational(run),
        "hashes": run.reference_hashes,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in run.reps],
    }


def _print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} ({mode}, seed {record['environment']['seed']}): "
          f"{len(record['repetitions'])} repetition(s), correct={record['correct']}")
    for message in record["failures"]:
        print(f"   FAILED: {message}")
    for name, m in record["metrics"].items():
        print(f"   {name:<36} {m['value']!r:>24} {m['unit']}")
    for name, m in record["informational"].items():
        print(f"   {name:<36} {m['value']!r:>24} {m['unit']} (not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "hybridpose" / "cli.py").is_file():
        print(f"error: no hybridpose sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    records = []
    for name in names:
        for trace in modes:
            record = measure(WORKLOADS[name], args.seed, args.seconds, trace)
            out = RESULTS / f"{name}-seed{args.seed}-trace{int(trace)}.json"
            out.write_text(json.dumps(record, indent=1) + "\n")
            _print_record(record)
            records.append(record)
    if args.workload == "all":
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        print(f"error_rate {failed / attempted!r} ratio ({failed} failed of {attempted} attempted)")
        return 0 if failed == 0 else 1
    record = records[0]
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
