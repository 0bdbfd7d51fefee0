"""Which modules an import loads, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import rpdml

SRC = str(Path(rpdml.__file__).resolve().parents[1])


def loaded_after(statement: str) -> set[str]:
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return set(out.stdout.split())


def test_core_layers_load_neither_evaluation_nor_scipy():
    # The package root re-exports nothing, so the solver, geometry and
    # learner import without the evaluation layer and its scipy dependency.
    loaded = loaded_after("import rpdml.manifold, rpdml.solver, rpdml.metric")
    assert "rpdml.metric" in loaded
    assert "rpdml.evaluation" not in loaded
    assert "scipy" not in loaded
