"""Every name the benchmark's span tracer looks up must exist.

``bench/tracing.py`` resolves autodiff ops, module functions and
methods by name when it installs itself; a name removed from
``dynamark`` would only surface as a failed ``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from dynamark import autodiff as ad

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ops_exist_in_autodiff(tracing):
    missing = [op for op in tracing.OP_CATEGORY if not callable(getattr(ad, op, None))]
    assert not missing


def test_traced_module_functions_exist(tracing):
    missing = [f"{mod}.{name}" for mod, names in tracing.MODULE_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"dynamark.{mod}"), name, None))]
    assert not missing


def test_traced_methods_exist(tracing):
    missing = []
    for mod, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"dynamark.{mod}"), cls_name, None)
        if cls is None or not callable(vars(cls).get(meth)):
            missing.append(f"{mod}.{cls_name}.{meth}")
    assert not missing
