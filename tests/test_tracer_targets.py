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


# the per-instance kernels the tracer spans on `sumsetvc.verify`; the theorem
# statements must reach them at these names, looked up when called
PER_INSTANCE_SPANS = ("vc_dim", "int_deg", "pairwise_family", "k_fold_sumset", "embed_01")


def test_per_instance_spans_fire(monkeypatch):
    import sumsetvc.verify as verify
    from sumsetvc import SetFamily, check_instance, random_scan

    counts = dict.fromkeys(PER_INSTANCE_SPANS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in PER_INSTANCE_SPANS:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    family = SetFamily(3, (0, 1, 6))
    for theorem in ("sauer", "main", "intdeg_main", "intdeg_le_vc", "vc_monotone"):
        before = dict(counts)
        assert check_instance(theorem, family)
        assert counts != before, theorem
    assert check_instance("psums", family, p=3)
    assert random_scan("psums", 3, 3, samples=4, seed=1).ok
    assert all(counts.values()), counts
