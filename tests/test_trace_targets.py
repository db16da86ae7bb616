"""Every function the benchmark's span tracer wraps still exists.

``perfbench/tracing.py`` looks its targets up by module attribute path at
run time, so a rename in ``uclab`` would only surface when a traced benchmark
run fails.  This test reads ``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    targets = load_tracing().TARGETS
    assert targets
    for name, where, _ in targets:
        for path in where:
            module_name, attr = path.rsplit(".", 1)
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), f"{name}: {path}"
