"""Let the suite run from a plain checkout, without installing the package.

``pythonpath`` in pyproject.toml puts ``src`` on this process's import
path; the tests that start ``python -m driftest.cli`` in a child process
need it on ``PYTHONPATH`` too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, *_paths]))
