"""Every narrative script in demos/, and README's library quick start, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    proc = run_python([str(script)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
