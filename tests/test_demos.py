"""The demos run, and the package exports exactly its modules' public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hazstep
from hazstep import data, errors, estimators, flsa, multistate, pipeline, simulate, stepfun, tuning

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run in a scratch directory: demo 04 writes its table there
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_public_api_is_the_module_lists():
    modules = (errors, data, stepfun, estimators, flsa, tuning, pipeline, multistate, simulate)
    names = [name for module in modules for name in module.__all__]
    assert hazstep.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(hazstep, name) is getattr(module, name)
