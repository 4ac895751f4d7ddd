"""Smoke test: every script in demos/ and README's Quick start run to
completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    # the python block under "## Quick start", so that a name it uses
    # cannot go from the package unnoticed
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "import bohrlab" in block
    _run(["-c", block], tmp_path)
