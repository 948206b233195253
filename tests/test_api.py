"""The public API is sized to its callers.

Each module's ``__all__`` is pinned here.  Every name in it is a class, or
is imported by the CLI or by the acceptance gate: a name that only tests or
other library modules use stays importable but unexported.
"""

import ast
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "_helper": [],
    "angles": ["PoseAngles", "MaeReport", "euler_to_rotation", "rotation_to_euler", "mae"],
    "binning": [
        "BinHierarchy", "make_hierarchy", "encode", "encode_all", "coarsen", "bin_center",
        "expect_decode",
    ],
    "cli": ["main"],
    "data": [
        "ParseError", "parse_biwi_pose", "format_biwi_pose", "parse_annotation_csv",
        "format_annotation_csv", "format_predictions_csv",
    ],
    "loss": ["LossWeights", "DEFAULT_WEIGHTS", "FINE_ONLY_WEIGHTS", "hybrid_loss", "hybrid_loss_grad"],
    "synth": ["SynthConfig", "Dataset", "make_dataset", "format_dataset", "load_dataset"],
    "tinynet": ["NetConfig", "TinyNet", "init_net", "train", "load_checkpoint"],
}


def imported_names(path: Path) -> dict[str, set[str]]:
    """{module: names} a file imports from the package, as ``from .m`` or ``from hybridpose.m``."""
    names: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level else node.module.removeprefix("hybridpose.")
            names.setdefault(module, set()).update(alias.name for alias in node.names)
    return names


def test_every_module_exports_its_pinned_names():
    modules = sorted(p.stem for p in (ROOT / "src" / "hybridpose").glob("*.py"))
    assert modules == ["__init__", *sorted(PUBLIC)]
    for module, names in PUBLIC.items():
        assert import_module(f"hybridpose.{module}").__all__ == names, module
    assert sum(map(len, PUBLIC.values())) == 34


def test_every_exported_name_is_a_class_or_has_a_caller():
    callers = [imported_names(ROOT / "src/hybridpose/cli.py"),
               imported_names(ROOT / "tests/test_acceptance.py")]
    for module in PUBLIC:
        for name in import_module(f"hybridpose.{module}").__all__:
            obj = getattr(import_module(f"hybridpose.{module}"), name)
            used = any(name in caller.get(module, ()) for caller in callers)
            assert isinstance(obj, type) or used, f"{module}.{name} is exported but has no caller"
