"""The benchmark's traced runs wrap functions by the name their caller looks up.

Loading ``bench/stage.py`` and resolving every name it would wrap makes a
rename or deletion fail here, not only in a traced benchmark run.  Likewise
its FLOP counter runs here on a real net, so a change to the ``TinyNet``
attributes it reads fails here too, and a traced two-process ``train`` must
still record the training step's spans in the process that writes them.
"""

import importlib.util
import os
from collections import Counter
from pathlib import Path

import numpy as np

from hybridpose import cli
from hybridpose.binning import make_hierarchy
from hybridpose.loss import LossWeights
from hybridpose.tinynet import NetConfig, TinyNet, _batch_loss_and_grads, init_net

STAGE = Path(__file__).resolve().parents[1] / "bench" / "stage.py"


def load_stage():
    spec = importlib.util.spec_from_file_location("bench_stage", STAGE)
    stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage)
    return stage


def test_every_traced_name_resolves():
    stage = load_stage()
    seen = []

    class Resolver(stage.Tracer):
        def wrap(self, owner, attr, name, measure=None):
            assert callable(getattr(owner, attr)), name
            seen.append(name)

    stage.install(Resolver())
    assert len(seen) == len(set(seen)) > 0


def test_loss_grad_flops_counts_a_real_step():
    stage = load_stage()
    config = NetConfig(input_dim=4, hidden_dims=(8, 5), hierarchy=make_hierarchy((6, 2)))
    n = 3
    rng = np.random.default_rng(0)
    args = (init_net(config), rng.normal(size=(n, 4)), rng.uniform(-60.0, 60.0, size=(n, 3)),
            LossWeights(alpha=2.0, betas=(1.0, 1.0)), TinyNet(config))
    result = _batch_loss_and_grads(*args)
    # 2n multiply-adds per weight: trunk 4*8 + 8*5 = 72 and heads 3*5*(6+2) = 120
    # forward; heads twice, the trunk, and its 8*5 layer again backward; the
    # finest decode's 3*6 positions.
    expected = 2 * n * ((72 + 120) + (2 * 120 + 72 + 40) + 18)
    assert stage._loss_grad_flops(args, {}, result) == expected == 3372


def test_traced_spans_survive_the_two_process_train(tmp_path, capsys, monkeypatch):
    stage = load_stage()

    class Restored(stage.Tracer):
        def wrap(self, owner, attr, name, measure=None):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))  # undone after the test
            super().wrap(owner, attr, name, measure)

    tracer = Restored()
    stage.install(tracer)
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    train, val = tmp_path / "train.csv", tmp_path / "val.csv"
    assert cli.main(["synth", "--n", "100", "--out-train", str(train), "--out-val", str(val)]) == 0
    argv = ["train", "--train", str(train), "--val", str(val), "--epochs", "2", "--hidden", "8",
            "--checkpoint-out", str(tmp_path / "net.json")]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert len(forks) == 1
    calls = Counter(tracer.names[span[0]] for span in tracer.spans)
    steps = 2 * 2  # 80 rows in batches of 64, for 2 epochs
    for name in ("tinynet.loss_grad", "tinynet.adam", "tinynet.finite_guard"):
        assert calls[name] == steps, (name, calls)
    assert calls["tinynet.evaluate"] == 2
    assert calls["tinynet.forward"] == steps + 2  # and once per validation pass
