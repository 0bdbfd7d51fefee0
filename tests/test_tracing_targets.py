"""The benchmark tracer's targets must exist in the package.

``perfbench/tracing.py`` wraps every function named in its ``TRACED`` table,
looking each one up as ``owner.__dict__[name]``; a target deleted or moved
out of its module would break ``perfbench/run.py --trace 1``.  The module
imports only the standard library, so it is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = [t for layer in load_tracing().TRACED.values() for t in layer]
    assert targets
    missing = []
    for module_name, attr in targets:
        *cls_path, fn_name = attr.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in cls_path:
                owner = getattr(owner, part)
            assert callable(owner.__dict__[fn_name])
        except (AttributeError, KeyError):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced targets missing from rpdml: {missing}"
