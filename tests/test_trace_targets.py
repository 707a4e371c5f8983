"""Every name the benchmark's tracer wraps still exists in backsolve.

perfbench/tracer.py resolves its span and count targets by name; a target
that a refactor renames or deletes reads as a missing (null) per-layer
metric. This loads the tracer module by path and repeats its lookup
without installing it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TARGETS = sorted({t for _, t in _tracer.SPAN_TARGETS + _tracer.COUNT_TARGETS})


def test_tracer_has_targets():
    assert _tracer.SPAN_TARGETS and _tracer.COUNT_TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_callable(target):
    # Tracer._patch: module, then an optional class, then vars(owner)[attr]
    module_name, _, qualname = target.partition(":")
    owner_name, _, attr = qualname.rpartition(".")
    owner = importlib.import_module(module_name)
    if owner_name:
        owner = getattr(owner, owner_name, None)
        assert owner is not None, f"{target}: no class {owner_name}"
    assert callable(vars(owner).get(attr)), f"{target} not found"
