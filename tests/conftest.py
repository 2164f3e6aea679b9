"""Run the suite against this checkout's ``src``, never an installed copy.

``src`` goes first on ``sys.path`` for the in-process tests and first on
``PYTHONPATH`` for the ``python -m middleman`` children of the CLI tests.
The children also run with warnings as errors, the filter ``pyproject.toml``
applies in-process, so a numpy warning fails its test instead of landing
unchecked on stderr.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
os.environ["PYTHONWARNINGS"] = "error"
