"""The benchmark's tracer names only functions the package still has.

`perfbench/tracer.py` wraps bachkit functions by "module:qualname". A name
that no longer resolves would only fail in a traced benchmark run; this
test makes it fail here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
