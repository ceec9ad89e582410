"""The README's API list and the narrative demos stay in step with the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import driftest
from manifest import check

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_api_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Library API", 1)[1].split("\n#", 1)[0]
    return sorted(re.findall(r"^- `(\w+)", section, flags=re.MULTILINE))


def test_readme_api_list_is_the_public_surface():
    assert readme_api_names() == sorted(driftest.__all__)
    for name in driftest.__all__:
        assert hasattr(driftest, name)


def test_demos_are_found():
    # an empty glob would parametrize the smoke test into a silent skip
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(driftest.__file__))
    env = dict(os.environ, PYTHONPATH=src, DRIFTEST_THREADS="1")
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    check(f"demo {demo.name}", [proc.stdout])
