"""Smoke tests of the benchmark on shrunk inputs.

Run from the root of a checkout:  python -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from uclab import geometry, verifier  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def untraced():
    return {w: run.run(w, 0, 1.0, trace=False, small=True) for w in NAMES}


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [run.run(w, 0, 1.0, trace=True, small=True) for _ in range(2)] for w in NAMES}


def test_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == \
        [(m, u) for m, u, *_ in tracing.PER_LAYER]
    assert sorted(w["name"] for w in BENCH["workloads"]) == NAMES


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_present_with_unit(workload, untraced, traced_twice):
    for (details, result), table in ((untraced[workload], BENCH["end_to_end"]),
                                     (traced_twice[workload][0], BENCH["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in table}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert details["environment"]["nproc"] >= 1
    assert all(v["value"] > 0 for v in untraced[workload][1]["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_fail_frac_is_zero(workload, untraced, traced_twice):
    for details, result in [untraced[workload], *traced_twice[workload]]:
        assert details["fail_frac"]["value"] == 0.0, details["failures"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_counts_and_digest_repeat_exactly(workload, untraced, traced_twice):
    (d1, r1), (d2, r2) = traced_twice[workload]
    counts = [m for m, unit, *_ in tracing.PER_LAYER if unit == "count"]
    assert {m: r1["metrics"][m]["value"] for m in counts} == \
        {m: r2["metrics"][m]["value"] for m in counts}
    assert d1["digest"] == d2["digest"] == untraced[workload][0]["digest"]


def test_each_workload_stresses_its_layer(traced_twice):
    top = {w: traced_twice[w][0][0]["top_self_s"][0][0] for w in NAMES}
    assert top["carleman"] == "carleman.ein"
    assert top["sweep"] == "geometry.mask"


def _records(n=1, **override):
    base = dict(margin=0.5, residual_violation=-1.0)
    return [SimpleNamespace(psi_kind=k, **{**base, **override})
            for k in ("inequality_pair", "projector_sample") for _ in range(n)]


def test_equidist_gates_can_fail():
    assert workloads.gate_equidist(_records(2), 2) == []
    gates = lambda recs, n=2: [g for g, _ in workloads.gate_equidist(recs, n)]  # noqa: E731
    assert gates(_records(2, margin=0.0)) == ["margin"]
    assert gates(_records(2, margin=math.nan)) == ["margin"]
    assert gates(_records(2, residual_violation=1e-9)) == ["residual_violation"]
    assert gates(_records(2)[1:]) == ["record_kinds"]


def test_carleman_gates_can_fail():
    row = dict(h=1 / 64, ratio=0.5, alpha=2.0, alpha0=1.0)
    assert workloads.gate_carleman(row) == []
    assert [g for g, _ in workloads.gate_carleman({**row, "ratio": 1.2})] == ["ratio"]
    assert [g for g, _ in workloads.gate_carleman({**row, "alpha": 0.5})] == ["alpha_floor"]


def test_sweep_gates_can_fail():
    def res(slope=2.0, r2=1.0, degenerate=False):
        return verifier.SweepResult(slope, 0.0, r2, 100.0, [], [], degenerate)

    def gates(r, constant=True):
        return [g for g, _ in workloads.gate_sweep(r, 2, constant)]

    assert gates(res()) == []
    assert gates(res(slope=1.9)) == ["slope_bracket"]
    assert gates(res(slope=101.0)) == ["slope_bracket"]
    assert gates(res(r2=0.9)) == ["r_squared"]
    assert gates(res(degenerate=True)) == ["degenerate_fit"]
    assert gates(res(slope=1.5), constant=False) == []
    assert gates(res(slope=math.nan), constant=False) == ["degenerate_fit"]


def test_failed_and_raising_items_are_counted_without_aborting():
    def raising():
        return geometry.generate_sequence(1.0, 0.9, 3.0, 1)  # delta >= G/2

    items = [
        workloads.Item({"case": "raises"}, raising, lambda out: [], lambda out: []),
        workloads.Item({"case": "gate"}, lambda: 1, lambda out: [("g", "bad")], lambda out: [{}]),
        workloads.Item({"case": "ok"}, lambda: 1, lambda out: [], lambda out: [{}]),
    ]
    batch = run.run_batch("demo", items)
    assert [(f["stage"], f["item"]["case"]) for f in batch.failures] == \
        [("geometry.generate_sequence", "raises"), ("gate:g", "gate")]
    assert all(f["workload"] == "demo" for f in batch.failures)
    assert batch.digests[0] is None and batch.digests[2] is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "carleman", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
