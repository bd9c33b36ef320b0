"""The benchmark's contract with the package it traces.

Traced benchmark runs (``perfbench/run.py --trace 1``) rebind the module
attributes listed in ``perfbench/spans.py`` to time one layer's calls
into another.  A refactor that moves or renames one of them would stop
those spans from recording without any error, so each must exist.

Every benchmark pass is checked against the values pinned in
``perfbench/reference.json``; the tiny pass of each workload runs here
too, so a change to any pinned report value fails the test suite and
not only the benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench script as a module, registered so dataclasses resolve."""
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        path = PERFBENCH / f"{name}.py"
        spec = importlib.util.spec_from_file_location(module_name, path)
        sys.modules[module_name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[module_name])
    return sys.modules[module_name]


def test_traced_module_boundaries_exist_and_are_callable():
    spans = _load("spans")
    assert spans.MODULE_BOUNDARIES
    for module_name, attribute, _ in spans.MODULE_BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


@pytest.mark.parametrize("name", ["chain-seed", "wide-torus", "orbit-queries"])
def test_tiny_pass_matches_reference(name):
    run, workloads, spans = _load("run"), _load("workloads"), _load("spans")
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]["tiny"]
    workload = workloads.WORKLOADS[name]
    ctx = workload.prepare("tiny", 1)
    values: dict = {}
    extra = workload.run_pass(ctx, spans.NullTracer(), values)
    values.update(workload.extra_checks(ctx, values, extra))
    assert run.failed_ops(workload.ops, values, reference, None) == []
