"""The names the benchmark traces exist in the package.

``perfbench/spans.py`` wraps each function its ``TARGETS`` names. A renamed
function shows up there only as an absent span whose metrics read 0, so the
names are read from that file's source (perfbench is not imported) and
resolved here. The same holds for the grid argument positions its
``CHECK_SLICES`` counters read.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ast.parse((ROOT / "perfbench" / "spans.py").read_text())


def _assigned(name):
    for node in SPANS.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"perfbench/spans.py assigns no {name}")


def _grid_positions():
    """(oracle span, N) for each ``_grid(args, kwargs, N)`` in ``CHECK_SLICES``."""
    checks = _assigned("CHECK_SLICES")
    for key, counter in zip(checks.keys, checks.values):
        for node in ast.walk(counter):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_grid":
                yield ast.literal_eval(key), ast.literal_eval(node.args[2])


TARGETS = ast.literal_eval(_assigned("TARGETS"))
GRID_POSITIONS = list(_grid_positions())


@pytest.mark.parametrize(
    "module_name,attr_path", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS]
)
def test_traced_target_resolves(module_name, attr_path):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().parent == ROOT / "src" / "middleman"
    owner = module
    *owner_path, attr = attr_path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    # the tracer replaces a method in its own class's namespace
    assert (attr in vars(owner)) if owner_path else hasattr(owner, attr)


def test_slice_counters_read_the_grid_argument():
    assert GRID_POSITIONS  # the counters of weak_dominance_check and pareto_check
    for span, pos in GRID_POSITIONS:
        module_name, name = span.rsplit(".", 1)
        oracle = getattr(importlib.import_module(f"middleman.{module_name}"), name)
        assert list(inspect.signature(oracle).parameters)[pos] == "grid", span
