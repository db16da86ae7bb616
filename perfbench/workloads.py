"""Workload inputs, item runners and acceptance gates of the uclab benchmark.

A workload turns ``(seed, number of batches)`` into batches of items.  An item
is one call into a public entry point of the program, looked up on its module
at call time so that the traced run's wrappers see it.  Its gate checks the
output against the acceptance criterion the workload reproduces, and its rows
are what the workload digest hashes.

Seed ranges: ``--seed n`` offsets every seed the workload draws by
``SEED_STRIDE * n``; batch b of a run uses suite seed ``SEED_STRIDE * n + b``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from uclab import carleman, constants, geometry, verifier

SEED_STRIDE = 1000

# A failed gate: (gate name, detail).
Failure = tuple[str, str]


@dataclass(frozen=True)
class Item:
    label: dict                             # the item's config, named in failure messages
    run: Callable[[], Any]                  # one call into the program
    gate: Callable[[Any], list[Failure]]    # failed gates; empty when the output passes
    rows: Callable[[Any], list[dict]]       # output rows hashed into the digest


@dataclass(frozen=True)
class Workload:
    name: str
    batch_s: float  # nominal seconds per batch, measured on 2 cores
    batches: Callable[[int, int, bool], list[list[Item]]]  # (seed, count, small)

    def batch_count(self, seconds: float) -> int:
        """Batches in a run: a fixed amount of work per (seed, seconds), so
        that two commits measure the same inputs."""
        return max(1, round(seconds / self.batch_s))


# ---------------------------------------------------------------- equidist
# Criterion 7 on its L/G = 3 cubes: the 8 benchmark_configs() fields of one
# suite seed per batch (4 dense d=1, 4 Lanczos d=2), 32 records.  The two
# delta values of a field form one item, so the field's eigensolve is shared
# exactly as in the full suite.  The L/G = 5 fields are left out: their
# Lanczos time varies by 2x with the seed, and the few that fit in a run made
# wall_s spread 16% across seeds.

def gate_equidist(records: list, n_configs: int) -> list[Failure]:
    failed = []
    kinds = Counter(r.psi_kind for r in records)
    if kinds != Counter(inequality_pair=n_configs, projector_sample=n_configs):
        failed.append(("record_kinds", f"{dict(kinds)}, expected {n_configs} of each kind"))
    bad = [r.margin for r in records if not r.margin > 0.0]
    if bad:
        failed.append(("margin", f"{len(bad)} record(s) with margin <= 0, min {min(bad):.6g}"))
    bad = [r.residual_violation for r in records if not r.residual_violation <= 1e-10]
    if bad:
        failed.append(("residual_violation",
                       f"{len(bad)} record(s) above 1e-10, max {max(bad):.6g}"))
    return failed


def _equidist_run(group: list) -> list:
    return verifier.verify_equidistribution(group)


def _record_rows(records: list) -> list[dict]:
    return [r.to_dict() for r in records]


def equidist_batches(seed: int, count: int, small: bool = False) -> list[list[Item]]:
    shape = dict(bcs=("periodic",), norm_Vs=(1.0,), h_per_G=16) if small else {}
    batches = []
    for b in range(count):
        configs = verifier.benchmark_configs(seeds=[SEED_STRIDE * seed + b],
                                             L_over_Gs=(3,), **shape)
        items = []
        for _, group in itertools.groupby(configs, key=verifier.TrialConfig.field_key):
            group = list(group)
            label = {**asdict(group[0]), "delta_over_G": [tc.delta_over_G for tc in group]}
            items.append(Item(label, partial(_equidist_run, group),
                              partial(gate_equidist, n_configs=len(group)), _record_rows))
        batches.append(items)
    return batches


# ---------------------------------------------------------------- carleman
# Criterion 4: one trial seed per batch, over d in {1, 2} and three grids.
# The ball radius rho sets the grid size (cost ~ rho^d), so instead of being
# drawn from the seed it is stratified over criterion 4's range: every run
# covers the same sizes, and the seed draws the rest of each trial.  With a
# drawn rho, wall_s spread 17% across seeds.

CARLEMAN_GRIDS = (1 / 64, 1 / 128, 1 / 256)
CARLEMAN_RHO = (0.8, 1.25)


def gate_carleman(row: dict) -> list[Failure]:
    failed = []
    cap = 1.0 + 10.0 * row["h"]
    if not row["ratio"] <= cap:
        failed.append(("ratio", f"{row['ratio']:.6g} > 1 + 10h = {cap:.6g}"))
    if not row["alpha"] >= row["alpha0"]:
        failed.append(("alpha_floor", f"alpha {row['alpha']:.6g} < alpha0 {row['alpha0']:.6g}"))
    return failed


def _carleman_run(seed: int, d: int, h: float, rho: float) -> dict:
    return carleman.carleman_trial(seed, d, h, rho=rho)


def carleman_batches(seed: int, count: int, small: bool = False) -> list[list[Item]]:
    grids = (1 / 16, 1 / 32) if small else CARLEMAN_GRIDS
    batches = []
    for b in range(count):
        s = SEED_STRIDE * seed + b
        lo, hi = CARLEMAN_RHO
        rho = lo + (hi - lo) * (b + 0.5) / count
        batches.append([
            Item({"seed": s, "d": d, "h": h, "rho": rho}, partial(_carleman_run, s, d, h, rho),
                 gate_carleman, lambda row: [row])
            for d in (1, 2) for h in grids
        ])
    return batches


# ------------------------------------------------------------------- sweep
# Criterion 8 at scale: delta sweeps on two large periodic grids, for the
# constant function (slope bracket) and a smooth positive non-constant one.

SWEEP_GRIDS = ((2, 5.0, 1 / 128), (3, 3.0, 1 / 32))  # 409,600 and 884,736 cells
SWEEP_DELTAS = tuple(float(x) for x in np.geomspace(0.125, 0.45, 9))
SWEEP_SEQ_SEEDS = 4  # sequence seeds per sweep in one batch
SWEEP_FIT_TOL = 0.02  # the acceptance suite's finite-grid allowance on the slope floor


def gate_sweep(res, d: int, constant: bool) -> list[Failure]:
    if res.degenerate or not math.isfinite(res.slope):
        return [("degenerate_fit", f"ratios {res.ratios}")]
    failed = []
    if constant:
        if not res.r_squared >= 0.99:
            failed.append(("r_squared", f"{res.r_squared:.6f} < 0.99"))
        if not res.slope_in_bracket(d, SWEEP_FIT_TOL):
            failed.append(("slope_bracket", f"slope {res.slope:.6f} outside "
                           f"[{d * (1.0 - SWEEP_FIT_TOL)}, {res.exponent_bound:.6g}]"))
    return failed


def _sweep_run(psi, dom, p, seq_seeds: range):
    return verifier.delta_sweep(psi, dom, 1.0, SWEEP_DELTAS, p,
                                seq_mode="uniform_random", seq_seeds=seq_seeds)


def sweep_batches(seed: int, count: int, small: bool = False) -> list[list[Item]]:
    grids = ((2, 3.0, 1 / 32), (3, 3.0, 1 / 16)) if small else SWEEP_GRIDS
    cases = []
    for d, L, h in grids:
        dom = geometry.CubeDomain(d, L, h, "periodic")
        p = constants.ModelParams(d=d, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=L)
        smooth = 0.5 + np.prod(np.cos(np.pi * dom.center_grid() / L) ** 2, axis=-1)
        cases += [(dom, p, "constant", np.ones(dom.shape)), (dom, p, "smooth", smooth)]
    batches = []
    for b in range(count):
        s0 = SEED_STRIDE * seed + SWEEP_SEQ_SEEDS * b
        seq_seeds = range(s0, s0 + SWEEP_SEQ_SEEDS)
        batches.append([
            Item({"d": dom.d, "L": dom.L, "h": dom.h, "psi": kind,
                  "seq_seeds": [seq_seeds.start, seq_seeds.stop]},
                 partial(_sweep_run, psi, dom, p, seq_seeds),
                 partial(gate_sweep, d=dom.d, constant=kind == "constant"),
                 lambda res: [asdict(res)])
            for dom, p, kind, psi in cases
        ])
    return batches


WORKLOADS = {
    w.name: w for w in (
        Workload("equidist", 1.75, equidist_batches),
        Workload("carleman", 1.2, carleman_batches),
        Workload("sweep", 9.0, sweep_batches),
    )
}
