"""The names the benchmark traces exist in the package.

``perfbench/spans.py`` wraps each function its ``TARGETS`` names. A renamed
function shows up there only as an absent span whose metrics read 0, so the
names are read from that file's source (perfbench is not imported) and
resolved here.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_targets():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no TARGETS")


TARGETS = _traced_targets()


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
