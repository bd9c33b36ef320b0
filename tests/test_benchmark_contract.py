"""The benchmark's contract with the package it traces.

Traced benchmark runs (``perfbench/run.py --trace 1``) rebind the module
attributes listed in ``perfbench/spans.py`` to time one layer's calls
into another.  A refactor that moves or renames one of them would stop
those spans from recording without any error, so each must exist.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_module_boundaries_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.MODULE_BOUNDARIES
    for module_name, attribute, _ in spans.MODULE_BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)
