"""Which modules an import loads, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rpdml

SRC = str(Path(rpdml.__file__).resolve().parents[1])


def loaded_after(statement: str) -> set[str]:
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return set(out.stdout.split())


@pytest.mark.parametrize("statement, loads, absent", [
    # The package root re-exports nothing, so the solver, geometry and
    # learner import without the evaluation layer.
    ("import rpdml.manifold, rpdml.solver, rpdml.metric", "rpdml.metric",
     {"rpdml.evaluation", "scipy"}),
    # numpy is the only runtime dependency; scipy is a test oracle.
    ("import rpdml.cli", "rpdml.evaluation", {"scipy"}),
], ids=["core", "cli"])
def test_import_leaves_modules_unloaded(statement, loads, absent):
    loaded = loaded_after(statement)
    assert loads in loaded
    assert not absent & loaded
