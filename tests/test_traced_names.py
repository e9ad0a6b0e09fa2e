"""The functions that the benchmark tracer patches by name still exist.

perfbench/tracer.py wraps each function that its TRACED table lists, and
each TruncSeries method of SERIES_METHODS, and its smoke test fails on a
listed name that no longer resolves.  These tests read the two tables
without installing the tracer, so that deleting or renaming a traced
function fails here as well.  The tracer's source is only read: it is
compiled in memory, and no bytecode is written beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

from fishburn import genfun

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


tracer = load_tracer()


@pytest.mark.parametrize("layer", sorted(tracer.TRACED))
def test_every_traced_name_resolves(layer):
    module = importlib.import_module(f"fishburn.{layer}")
    missing = [name for name in tracer.TRACED[layer]
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_every_series_method_resolves():
    missing = [attr for attr in tracer.SERIES_METHODS.values()
               if not callable(getattr(genfun.TruncSeries, attr, None))]
    assert missing == []
