"""Benchmark of the uclab laboratory: three workloads, gated outputs, and a
traced run that times each layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload equidist --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs each batch once untraced and once traced (alternating which goes first),
prints the per-layer metrics and writes the spans to ``perfbench/out/``.
Stdout ends with two JSON lines: the run's details (environment, digest,
failure fraction, tracing overhead), then the result
``{"correct", "attempted", "failed", "metrics"}``.  Failed items are named on
stderr with their workload, stage and config; they never abort the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_REPEATS = 5

# Imports and input generation in a fresh interpreter, timed from inside it.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
here, src, name, seed, count = sys.argv[1:6]
sys.path[:0] = [src, here]
import workloads
t1 = time.perf_counter()
workloads.WORKLOADS[name].batches(int(seed), int(count), False)
print(t1 - t0, time.perf_counter() - t1)
"""


@dataclass
class Batch:
    wall: float = 0.0
    cpu: float = 0.0
    sys: float = 0.0  # the system-time part of cpu (page faults, mostly)
    item_walls: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # per item; None when it raised
    failures: list = field(default_factory=list)


def _jsonable(x):
    return x.tolist() if hasattr(x, "tolist") else str(x)


def _stage(exc: BaseException) -> str:
    """The innermost program function on the exception's traceback."""
    stage = "benchmark"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("uclab."):
            stage = f"{module[len('uclab.'):]}.{frame.f_code.co_name}"
    return stage


def run_batch(workload: str, items, tracer=None, tag: str = "") -> Batch:
    """Run and gate every item; a raising item counts as a failure.

    Each failure carries ``key``, the item it belongs to, so that an item
    failing several gates counts once."""
    batch = Batch()
    outputs = []
    t0, c0 = time.perf_counter(), time.process_time()
    s0 = resource.getrusage(resource.RUSAGE_SELF).ru_stime
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = f"{tag}{i}"
        ti = time.perf_counter()
        ident = {"workload": workload, "item": item.label, "key": f"{tag}{i}"}
        try:
            out = item.run()
        except Exception as exc:  # an item failure must not end the run
            out = None
            batch.failures.append({**ident, "stage": _stage(exc),
                                   "detail": f"{type(exc).__name__}: {exc}",
                                   "traceback": traceback.format_exc()})
        else:
            batch.failures += [{**ident, "stage": f"gate:{name}", "detail": detail}
                               for name, detail in item.gate(out)]
        batch.item_walls.append(time.perf_counter() - ti)
        outputs.append(out)
    batch.wall = time.perf_counter() - t0
    batch.cpu = time.process_time() - c0
    batch.sys = resource.getrusage(resource.RUSAGE_SELF).ru_stime - s0
    for item, out in zip(items, outputs):
        if out is None:
            batch.digests.append(None)
            continue
        h = hashlib.sha256()
        for row in item.rows(out):
            h.update(json.dumps(row, sort_keys=True, default=_jsonable).encode() + b"\n")
        batch.digests.append(h.hexdigest())
    return batch


def measure_setup(workload: str, seed: int, count: int) -> list[list[float]]:
    """[imports, input generation] seconds in SETUP_REPEATS fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(HERE), str(SRC), workload,
             str(seed), str(count)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append([float(x) for x in proc.stdout.split()])
    return runs


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def _end_to_end(batches: list[Batch], setup_s: float) -> dict:
    n = len(batches)
    values = {
        "wall_s": sum(b.wall for b in batches) / n,
        "cpu_s": sum(b.cpu for b in batches) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _item_times(walls: list[float]) -> dict:
    """Median item time and, from 20 items on, the highest percentile with
    ten items above it."""
    walls = sorted(walls)
    n = len(walls)
    out = {"n": n, "median": statistics.median(walls)}
    if n >= 20:
        out[f"p{100.0 * (n - 10) / n:.1f}"] = walls[n - 11]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (details, result)."""
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload]
    count = wl.batch_count(seconds)
    if trace:
        count = max(1, count // 2)
    batches = wl.batches(seed, count, small)
    setup_runs = measure_setup(workload, seed, count)
    setup_s = statistics.median(sum(r) for r in setup_runs)

    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "batches": count, "items_per_batch": len(batches[0]),
               "setup_runs_s": setup_runs}
    # One shrunk batch first, so that lazy imports and first-call set-up in
    # numpy, scipy and the BLAS land outside the timed batches.
    t0 = time.perf_counter()
    warmup = run_batch(workload, wl.batches(seed, 1, True)[0], tag="warmup:")
    details["warmup_s"] = time.perf_counter() - t0
    plain, traced = [], []
    tracer = Tracer() if trace else None
    for b, items in enumerate(batches):
        order = (False, True) if b % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if with_trace:
                with tracer.patched():
                    traced.append(run_batch(workload, items, tracer, tag=f"traced:{b}:"))
            else:
                plain.append(run_batch(workload, items, tag=f"{b}:"))

    failures = [f for bt in [warmup] + plain + traced for f in bt.failures]
    for b, (p, t) in enumerate(zip(plain, traced)):
        for i, (dp, dt) in enumerate(zip(p.digests, t.digests)):
            if dp is not None and dt is not None and dp != dt:
                failures.append({"workload": workload, "stage": "trace:outputs_changed",
                                 "item": batches[b][i].label, "detail": f"{dp} != {dt}",
                                 "key": f"traced:{b}:{i}"})
    attempted = sum(len(bt.digests) for bt in [warmup] + plain + traced)
    failed = len({f["key"] for f in failures})
    digest = hashlib.sha256("".join(d or "-" for bt in plain for d in bt.digests).encode())

    e2e = _end_to_end(plain, setup_s)
    details.update({
        "fail_frac": {"value": failed / attempted, "unit": "fraction"},
        "digest": digest.hexdigest(),
        "batch_wall_s": [bt.wall for bt in plain],
        "cpu_system_share": sum(bt.sys for bt in plain) / sum(bt.cpu for bt in plain),
        "item_wall_s": _item_times([w for bt in plain for w in bt.item_walls]),
        "environment": environment(seed),
        "failures": failures,
    })
    if trace:
        untraced_s, traced_s = (sum(bt.wall for bt in passes) for passes in (plain, traced))
        details["end_to_end_untraced"] = e2e
        details["tracing_overhead"] = {"wall_s": (traced_s - untraced_s) / count,
                                       "fraction": traced_s / untraced_s - 1.0}
        details["top_self_s"] = tracer.top_self()
        metrics = tracer.per_layer(count)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = e2e
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("equidist", "carleman", "sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "uclab" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'uclab'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import uclab

    if Path(uclab.__file__).resolve().parent != (SRC / "uclab").resolve():
        print(f"error: uclab was imported from {uclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for f in details["failures"]:
        print(f"FAIL workload={f['workload']} stage={f['stage']} "
              f"item={json.dumps(f['item'], default=_jsonable)}: {f['detail']}",
              file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, default=_jsonable)
    print(json.dumps(details, default=_jsonable))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
