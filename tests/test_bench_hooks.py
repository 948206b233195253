"""The benchmark's traced runs wrap functions by the name their caller looks up.

Loading ``bench/stage.py`` and resolving every name it would wrap makes a
rename or deletion fail here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

STAGE = Path(__file__).resolve().parents[1] / "bench" / "stage.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_stage", STAGE)
    stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage)
    seen = []

    class Resolver(stage.Tracer):
        def wrap(self, owner, attr, name, measure=None):
            assert callable(getattr(owner, attr)), name
            seen.append(name)

    stage.install(Resolver())
    assert len(seen) == len(set(seen)) > 0
