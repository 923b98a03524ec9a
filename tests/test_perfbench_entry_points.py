"""Every function the benchmark tracer wraps still exists where it looks.

``perfbench/spans.py`` patches a fixed list of entry points by name: it
imports the module, walks the attribute path and reads the last step from the
owner's ``__dict__``.  Renaming, moving or deleting one of them (an inherited
method no longer defined on its own class included) crashes every traced
benchmark run, so the list is resolved here the same way.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


def test_entry_point_list_is_not_empty():
    assert len(ENTRY_POINTS) > 10


@pytest.mark.parametrize(
    "module_name, path, span",
    ENTRY_POINTS,
    ids=[f"{module}:{path}" for module, path, _ in ENTRY_POINTS],
)
def test_entry_point_resolves_through_its_owner_dict(module_name, path, span):
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    assert attribute in owner.__dict__, f"{span}: {module_name}.{path} is gone"
    assert callable(owner.__dict__[attribute])
