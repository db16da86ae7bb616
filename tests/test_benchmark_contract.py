"""The benchmark's workloads still run against the package and pass their gates.

``perfbench/workloads.py`` calls public entry points (``CubeDomain.center_grid``,
``verifier.delta_sweep`` with its keywords, the record fields its gates and
digests read), so an edit that breaks one of those calls would only surface
when a benchmark run fails.  This test runs one shrunk batch of each workload
and changes nothing under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["equidist", "carleman", "sweep"])
def test_a_small_batch_passes_its_gates(workloads, name):
    workload = workloads.WORKLOADS[name]
    (batch,) = workload.batches(0, 1, True)
    assert batch
    for item in batch:
        out = item.run()
        assert item.gate(out) == [], item.label
        assert item.rows(out), item.label
