"""The benchmark's tracer names only functions the package still has, and
calls them the way the package does.

`perfbench/tracer.py` wraps bachkit functions by "module:qualname", and its
counters read hook attributes and call arguments. A name that no longer
resolves, or a changed call, would only fail in a traced benchmark run;
these tests make it fail here first.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("spec", sorted({s for specs in tracer.SPANS.values() for s in specs}))
def test_span_spec_resolves_to_a_callable(spec):
    importlib.import_module(spec.split(":")[0])
    owner, attr = tracer._resolve(spec)
    assert callable(getattr(owner, attr)), spec


PERFBENCH = TRACER.parent
sys.path.insert(0, str(PERFBENCH))
with mock.patch.dict(os.environ):  # selftest pins BLAS threads for its own process
    selftest = importlib.import_module("selftest")
harness = importlib.import_module("harness")


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_reduced_traced_workload_is_correct_and_reaches_its_layers(name):
    # what `perfbench/selftest.py` checks of a traced run, on the six-step schedule
    res = harness.run(name, seed=0, seconds=0.0, trace=True, reduced=True)
    assert res.correct, [f"{c.op} ({c.detail})" for c in res.failed if c.integrity]
    calls = res.per_layer()
    assert [s for s in selftest.MUST_CALL[name] if calls[f"{s}.calls"] < 1] == []
    assert tracer.installed_wrappers() == []
