"""The benchmark's traced runs wrap functions by the name their caller looks up.

Loading ``bench/stage.py`` and resolving every name it would wrap makes a
rename or deletion fail here, not only in a traced benchmark run.  Likewise
its FLOP counter runs here on a real net, so a change to the ``TinyNet``
attributes it reads fails here too.
"""

import importlib.util
from pathlib import Path

import numpy as np

from hybridpose.binning import make_hierarchy
from hybridpose.loss import LossWeights
from hybridpose.tinynet import NetConfig, _batch_loss_and_grads, init_net

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
            LossWeights(alpha=2.0, betas=(1.0, 1.0)))
    result = _batch_loss_and_grads(*args)
    # 2n multiply-adds per weight: trunk 4*8 + 8*5 = 72 and heads 3*5*(6+2) = 120
    # forward; heads twice, the trunk, and its 8*5 layer again backward; the
    # finest decode's 3*6 positions.
    expected = 2 * n * ((72 + 120) + (2 * 120 + 72 + 40) + 18)
    assert stage._loss_grad_flops(args, {}, result) == expected == 3372
