"""Every (module, attribute) that bench/tracer.py wraps still resolves.

The traced benchmark pass replaces these names in place, so a refactor that
drops one breaks that pass; this catches it in the unit tests. The tracer
module is loaded from its file and only read: nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in tracer.TARGETS], ids=lambda x: x
)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
