"""Every name the benchmark's tracer rebinds is still bound where it looks.

perfbench/tracer.py counts work per layer by rebinding module-level names
(TRACE_POINTS) and raises LookupError for one that is gone, so a moved
call site would otherwise fail only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("point", tracer.TRACE_POINTS,
                         ids=lambda p: ".".join(part for part in p[:3] if part))
def test_traced_name_is_bound(point):
    module_name, class_name, attr = point[:3]
    owner = importlib.import_module(module_name)
    if class_name:
        owner = vars(owner).get(class_name)
        assert owner is not None, f"{module_name}.{class_name} no longer exists"
    assert attr in vars(owner)


def test_tracer_installs_and_restores():
    module = importlib.import_module("equifd.experiments")
    original = module.run_table2
    with tracer.Tracer():
        assert module.run_table2 is not original
    assert module.run_table2 is original
