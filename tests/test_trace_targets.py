"""Every function the traced benchmark wraps exists where it looks.

``perfbench/run.py --trace 1`` stops with exit 2 when a target cannot be
found; class methods are looked up in the class's own ``__dict__``, so a
method moved to a base class counts as missing.  This test catches that
in the engine's own suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from layers import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_target_resolves(target):
    importlib.import_module(target.path.partition(":")[0])
    holder, attr, original = target.resolve()
    assert callable(original), f"{target.path} not found"
