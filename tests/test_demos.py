"""The demos run, and the package exports exactly its modules' public names,
each of which has a caller."""

import ast
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


def test_every_public_name_is_read_somewhere():
    # a public symbol needs a caller in src/, demos/ or perfbench/: a read of
    # it as a name or an attribute, not only its definition or an import
    read = set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assert [name for name in hazstep.__all__ if name not in read] == []
