"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one ``criterion NN <name>: PASS/FAIL (x s)`` line (visible
with ``pytest -s`` or in the captured output) and then asserts.  Tolerances
are pinned here, not deferred: relative 1e-10 against the high-precision
oracle for the constants chain, 1e-12 for the scaling identity, -1e-10 slack
for the weight envelope, 1 + 10h for the weighted-inequality ratio, 1e-10 for
the resummation identity, and the stated runtime budgets.

The two opaque constants (the local and the scale-free one) underflow double
precision by design, so their acceptance comparisons run on natural logs;
both the frozen oracle values and a live high-precision re-evaluation are
checked.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import uclab
import uclab.verifier as verifier
from uclab.carleman import WeightFunction, carleman_trial
from uclab.cli import write_rows_jsonl
from uclab.constants import (
    FreeConstants,
    ModelParams,
    log_c_sfuc,
    sampling_report,
    scale_parameters,
)
from uclab.discretization import assemble, extend, extension_check
from uclab.fields import (
    CoefficientField,
    estimate_ellipticity,
    synthesize_dir_cross_field,
    synthesize_random_field,
)
from uclab.geometry import CubeDomain, classify_sites, tiling_identity_defect
from uclab.spectral import eigensolve
from uclab.verifier import (
    benchmark_configs,
    delta_sweep,
    scaling_identity,
    verify_equidistribution,
)

FC = FreeConstants()

# frozen from tests/oracles.py (60-digit formula-by-formula evaluation) for
# d=1, theta1=1, theta2=0, G=1, delta=1/4, all norms 0, free constants 1
FROZEN = {
    "T": 39,
    "epsilon": 1.0,
    "mu": 1.1839397205857212,
    "mu1": 3.2182818284590452,
    "rho": 19.309690970754271,
    "alpha_star": 225763734.35741509,
    "log_c_quc": -2275720429.7675717,
    "log_c_sfuc": -4531830.3498610481,
}

_SWEEP_FIT_TOL = 0.02  # finite-grid allowance on the analytic slope floor


def report(num: int, name: str, ok: bool, t0: float, detail: str = "") -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status} ({elapsed:.2f} s)"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_01_constants_pipeline():
    t0 = time.time()
    p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.25)
    rep = sampling_report(p, FC)
    checks = [
        rep.epsilon == 1.0,
        rep.T == 39,
        rel_err(rep.mu, FROZEN["mu"]) < 1e-10,
        rel_err(rep.mu1, FROZEN["mu1"]) < 1e-10,
        rel_err(rep.rho, FROZEN["rho"]) < 1e-10,
        rel_err(rep.alpha_star, FROZEN["alpha_star"]) < 1e-10,
        rel_err(rep.log_c_quc, FROZEN["log_c_quc"]) < 1e-10,
        rel_err(rep.log_c_sfuc, FROZEN["log_c_sfuc"]) < 1e-10,
    ]
    live = oracles.canonical_sampling_values()
    checks += [
        rel_err(rep.mu, float(live["mu"])) < 1e-10,
        rel_err(rep.alpha_star, float(live["alpha_star"])) < 1e-10,
        rel_err(rep.log_c_quc, float(live["log_c_quc"])) < 1e-10,
        rel_err(rep.log_c_sfuc, float(live["log_c_sfuc"])) < 1e-10,
    ]
    elapsed_ok = (time.time() - t0) < 1.0
    report(1, "constants-pipeline", all(checks) and elapsed_ok, t0)


def test_criterion_02_scaling_identity():
    t0 = time.time()
    import random

    rng = random.Random(11)
    E = math.e
    ok = True
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        t1 = 1.0 + rng.random()
        G = 0.25 * rng.randint(1, 12)
        cap = 1.0 / (33.0 * E * d * (math.sqrt(d) + 2.0) * t1**6 * G)
        p = ModelParams(
            d=d, theta1=t1, theta2=rng.random() * 0.9 * cap, G=G,
            delta=G * (0.02 + 0.45 * rng.random()),
            norm_V=2.0 * rng.random(), norm_b=rng.random(), norm_c=rng.random(),
        )
        la, lb = log_c_sfuc(p, FC), log_c_sfuc(scale_parameters(p), FC)
        ok &= abs(la - lb) <= 1e-12 * max(1.0, abs(la))
    for seed in range(20):
        out = scaling_identity(seed, 1 + seed % 2, G=(2.0, 0.5, 3.0)[seed % 3],
                               delta=0.2 * (2.0, 0.5, 3.0)[seed % 3])
        ok &= out["norm_defect"] <= 1e-12
    ok &= (time.time() - t0) < 5.0
    report(2, "scaling-identity", ok, t0)


def test_criterion_03_weight_bounds():
    t0 = time.time()
    ok = True
    floors_checked = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(1, 4))
        theta1 = 1.0 + rng.random()
        lam = (
            np.exp(rng.uniform(-math.log(theta1), math.log(theta1), d))
            if theta1 > 1.0 else np.ones(d)
        )
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A0 = Q @ np.diag(lam) @ Q.T
        wf = WeightFunction(
            rho=0.5 + 2.0 * rng.random(), mu=0.05 + 3.0 * rng.random(),
            A0=0.5 * (A0 + A0.T), theta1=theta1,
        )
        pts = rng.uniform(-wf.rho, wf.rho, size=(10_000, d))
        res = wf.bound_slacks(pts)
        ok &= res["lower"] >= -1e-10 and res["upper"] >= -1e-10
        if not math.isnan(res["outer_floor"]):
            floors_checked += 1
            ok &= res["outer_floor"] >= -1e-10
    ok &= floors_checked > 0
    ok &= (time.time() - t0) < 10.0
    report(3, "weight-bounds", ok, t0, f"outer floor sampled {floors_checked}x")


def test_criterion_04_carleman_inequality():
    t0 = time.time()
    grids = (1 / 64, 1 / 128, 1 / 256)
    worst = {h: 0.0 for h in grids}
    ok = True
    n_trials = 0
    for d in (1, 2):
        for seed in range(25):
            for h in grids:
                rec = carleman_trial(seed, d, h)
                n_trials += 1
                worst[h] = max(worst[h], rec["ratio"])
                ok &= rec["ratio"] <= 1.0 + 10.0 * h
                ok &= rec["alpha"] >= rec["alpha0"]
    ok &= worst[grids[0]] >= worst[grids[1]] >= worst[grids[2]]
    ok &= (time.time() - t0) < 300.0
    report(4, "carleman-inequality", ok, t0,
           f"{n_trials // 3} trials, worst ratios "
           + " -> ".join(f"{worst[h]:.2e}" for h in grids))


def test_criterion_05_mass_splitting_and_tiling():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(5)
    # mass splitting on 100 random grid functions
    for i in range(100):
        if i % 5 == 0:
            L, h, T = 3, 1 / 8, 3
            base = rng.standard_normal((L * 8,) * 2)
            psi = np.tile(base, (3, 3))
        else:
            L, h, T = 5, 1 / 16, 3
            base = rng.standard_normal(L * 16)
            psi = np.tile(base, 3)
        dec = classify_sites(psi, T, L, h)
        total = dec.total_mass()
        ok &= dec.weak_mass() < 0.5 * total + 1e-12
        ok &= 2.0 * dec.dominating_mass() > total - 1e-12
    # resummation identity on 20 periodic extensions
    for i in range(20):
        if i % 2 == 0:
            L, h = 5, 1 / 8
            psi = np.tile(rng.standard_normal(L * 8), 3)
        else:
            L, h = 3, 1 / 8
            psi = np.tile(rng.standard_normal((L * 8,) * 2), (3, 3))
        for T in (2, 3, 5):
            ok &= tiling_identity_defect(psi, T, L, h) < 1e-10
    ok &= (time.time() - t0) < 30.0
    report(5, "mass-splitting-tiling", ok, t0)


def test_criterion_06_extension_correctness():
    t0 = time.time()
    ok = True
    for i in range(26):
        d = 1 if i % 2 == 0 else 2
        if i >= 24:  # periodic, ground state: the seam is the wrap, which can jump
            dom = CubeDomain(d, 3.0, 1 / 16, "periodic")
            fld = synthesize_random_field(100 + i, dom, 1.3, norm_V=0.5, norm_b=0.3,
                                          norm_c=0.2, sa=True)
        elif i >= 20:  # self-adjoint drift, c and V: the mirror must carry div b
            dom = CubeDomain(d, 3.0, 1 / 16, "dirichlet")
            fld = synthesize_random_field(100 + i, dom, 1.3, norm_V=0.7, norm_b=0.4,
                                          norm_c=0.3, sa=True)
        elif d == 1:
            dom = CubeDomain(1, 3.0, 1 / 32, "dirichlet")
            fld = synthesize_random_field(
                100 + i, dom, 1.0 + 0.3 * ((i % 5) + 1) / 5.0,
                1.0 + 0.3 * (i % 3),
            )
        else:
            dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
            fld = synthesize_dir_cross_field(100 + i, dom, 1.2 + 0.05 * (i % 4))
        sl = eigensolve(assemble(fld), count=2, seed=i)
        k = 0 if i >= 24 else i % 2
        psi = sl.grid_vector(k)

        # cellwise spectrum; in d = 1 the mirror block has the base spectrum
        _, fld3, _ = extend(psi, fld)
        ok &= abs(estimate_ellipticity(fld3.A) - estimate_ellipticity(fld.A)) < 1e-12
        if d == 1 and dom.bc == "dirichlet":
            n = dom.n
            mirror = np.linalg.eigvalsh(np.flip(fld3.A[:n], axis=0))
            ok &= np.abs(mirror - np.linalg.eigvalsh(fld.A)).max() < 1e-12

        # interface jump within 10 h |grad psi|_sup, residual inequality kept
        res = extension_check(fld, psi, float(sl.eigenvalues[k]))
        ok &= res["interface_jump_rel"] <= 1.0
        ok &= res["residual"] <= 1e-8
    ok &= (time.time() - t0) < 60.0
    report(6, "extension-correctness", ok, t0)


# the criterion-7 suite in a fresh interpreter at one BLAS thread, set in its
# environment only; its records file is compared with the in-process one
_CHILD = """
import sys
from uclab.cli import write_rows_jsonl
from uclab.verifier import benchmark_configs, verify_equidistribution
records = verify_equidistribution(benchmark_configs())
write_rows_jsonl(sys.argv[1], [r.to_dict() for r in records], config={"suite": "criterion7"})
"""


@pytest.fixture(scope="module")
def criterion7_run(tmp_path_factory):
    # the child starts first and runs on the second core alongside this one
    tmp = tmp_path_factory.mktemp("c7")
    src = str(Path(uclab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(tmp / "child.err", "w") as err:
        child = subprocess.Popen([sys.executable, "-c", _CHILD, str(tmp / "child.jsonl")],
                                 env=env, stdout=subprocess.DEVNULL, stderr=err)
    try:
        t0 = time.time()
        configs = benchmark_configs()
        records = verify_equidistribution(configs, FC)
        path = tmp / "records.jsonl"
        write_rows_jsonl(path, [r.to_dict() for r in records], config={"suite": "criterion7"})
        yield {"records": records, "elapsed": time.time() - t0,
               "jsonl": path.read_text(), "configs": configs,
               "child": child, "child_dir": tmp}
    finally:
        child.kill()
        child.wait()


def test_criterion_07_equidistribution_benchmark(criterion7_run):
    t0 = time.time() - criterion7_run["elapsed"]
    records = criterion7_run["records"]
    ok = len(records) == 320
    ok &= all(r.margin > 0.0 for r in records)
    ok &= all(r.residual_violation <= 1e-10 for r in records)
    # the worst case over the window's span bounds each sampled solution
    ok &= all(r.log_bound < math.log(r.worst_ratio) and r.worst_ratio <= r.ratio + 1e-12
              for r in records)
    by_kind = {k: sum(1 for r in records if r.psi_kind == k)
               for k in ("inequality_pair", "projector_sample")}
    ok &= by_kind["inequality_pair"] == by_kind["projector_sample"] == 160
    ok &= criterion7_run["elapsed"] < 300.0
    report(7, "equidistribution-benchmark", ok, t0,
           f"min margin {min(r.margin for r in records):.3e}")


@pytest.fixture(scope="module")
def criterion7_replay(criterion7_run, tmp_path_factory):
    # one more in-process run of the suite, capturing each trial's slice,
    # covered cells and projector sample: criterion 10 compares its records
    # file with the first run's, and the ratio test reads the captured trials
    trials = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if name == "placement_gram":
                trials.append({"vectors": args[0], "cells": args[1]})
            else:
                trials[-1].update(window=args[0].eigenvectors, sample=out)
            return out
        return wrapper

    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("placement_gram", "projector_sample"):
            mp.setattr(verifier, name, spy(name, getattr(verifier, name)))
        records = verify_equidistribution(criterion7_run["configs"], FC)
    path = tmp_path_factory.mktemp("c7replay") / "records.jsonl"
    write_rows_jsonl(path, [r.to_dict() for r in records], config={"suite": "criterion7"})
    return {"records": records, "trials": trials, "jsonl": path.read_text(),
            "elapsed": time.time() - t0}


def test_criterion_07_ratios_match_the_gathered_reference(criterion7_run, criterion7_replay):
    # the records read ratio and worst_ratio from one Gram matrix, the
    # reference gathers psi and the window's rows over the cells
    configs = criterion7_run["configs"]
    replayed, trials = criterion7_replay["records"], criterion7_replay["trials"]
    records = criterion7_run["records"]
    assert [r.to_dict() for r in replayed] == [r.to_dict() for r in records]
    assert len(trials) == len(configs) == 160
    moved = []
    for tc, trial, pair, sample in zip(configs, trials, records[::2], records[1::2]):
        dom = CubeDomain(tc.d, tc.L, tc.h, tc.bc)
        cells = trial["cells"]
        eigenvector = trial["vectors"][:, pair.eigen_index]
        want_pair = oracles.reference_ball_fraction(eigenvector, dom, cells)
        want_sample = oracles.reference_ball_fraction(trial["sample"], dom, cells)
        want_worst = oracles.reference_worst_ratio(trial["window"], cells)
        for got, want in ((pair.ratio, want_pair), (sample.ratio, want_sample),
                          (pair.worst_ratio, want_worst), (sample.worst_ratio, want_worst)):
            moved.append(abs(got - want) / want)
    assert len(moved) == 640 and max(moved) <= 1e-12, max(moved)


def test_criterion_08_vanishing_order_sweep():
    t0 = time.time()
    ok = True
    for d in (1, 2):
        dom = CubeDomain(d, 3.0, 1 / 128, "periodic")
        p = ModelParams(d=d, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=3.0)
        res = delta_sweep(
            np.ones(dom.shape), dom, 1.0, [0.125, 0.175, 0.25, 0.35, 0.45],
            p, FC, seq_mode="uniform_random", seq_seeds=range(5),
        )
        ok &= not res.degenerate
        ok &= res.r_squared >= 0.99
        ok &= d * (1.0 - _SWEEP_FIT_TOL) <= res.slope <= res.exponent_bound
    ok &= (time.time() - t0) < 60.0
    report(8, "vanishing-order-sweep", ok, t0)


def test_criterion_09_spectral_sanity():
    t0 = time.time()
    L = 3.0
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        dom = CubeDomain(1, L, h, "dirichlet")
        fld = CoefficientField(
            dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
            np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0,
        )
        e0 = eigensolve(assemble(fld), count=1).eigenvalues[0]
        errs.append(abs(e0 - math.pi**2 / L**2))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(o >= 1.9 for o in orders)

    h = 1 / 32
    dom = CubeDomain(1, L, h, "periodic")
    fld = CoefficientField(
        dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
        np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0,
    )
    H = assemble(fld)
    k = np.arange(dom.n)
    ref = np.sort(4.0 / h**2 * np.sin(math.pi * k * h / L) ** 2)
    # the closed form, and the dense solve of the assembled matrix
    for op in (H, dataclasses.replace(H, constant_coefficients=None)):
        sl = eigensolve(op, count=dom.n)
        ok &= np.abs(sl.eigenvalues - ref).max() <= 1e-10 * ref.max()
    ok &= (time.time() - t0) < 30.0
    report(9, "spectral-sanity", ok, t0, f"orders {orders[0]:.3f}, {orders[1]:.3f}")


def test_criterion_10_determinism(criterion7_run, criterion7_replay):
    t0 = time.time() - criterion7_replay["elapsed"]
    first = criterion7_run["jsonl"].splitlines()[1:]
    second = criterion7_replay["jsonl"].splitlines()[1:]
    ok = first == second and len(first) == 320
    report(10, "determinism", ok, t0)


def test_criterion_10_one_blas_thread_reproduces_records(criterion7_run):
    # the child at OPENBLAS_NUM_THREADS=1 writes the in-process bytes
    t0 = time.time()
    child, tmp = criterion7_run["child"], criterion7_run["child_dir"]
    code = child.wait(timeout=600)
    assert code == 0, (tmp / "child.err").read_text()
    here = criterion7_run["jsonl"].splitlines()[1:]
    there = (tmp / "child.jsonl").read_text().splitlines()[1:]
    ok = here == there and len(here) == 320
    report(10, "one-blas-thread", ok, t0,
           f"{sum(a != b for a, b in zip(here, there))} of {len(here)} rows differ")
