"""Command-line front end.

Subcommands: ``constants``, ``verify``, ``sweep``, ``carleman-check``,
``cacciopoli-check``, ``extend-check``, ``weight``.  Configuration comes from
a flat-key JSON file (e.g. ``model.theta1``, ``free.K2``, ``seeds``) with
command-line flags taking precedence.  A subcommand takes only the flags
whose key it reads.

Exit codes: 0 when the run completed and every hard assertion passed
(``sweep``, whose bounds evaluate the configured model, requires it
admissible in the one dimension it reads; the other subcommands read no
admissibility), 1 when an assertion failed, 2 on usage errors and on every
``config error: <key>...``; a ``--h`` that does not divide ``model.G``, or
whose ratio G/h leaves the double range, is one such line naming
``h_per_G=`` with the lattice rule's message, and so is an ``h_per_G`` that
leaves a cube the run builds without a whole number >= 2 of cells per axis
(``CubeDomain``'s rule; a ``--field-file`` run takes its grid from the
file); ``carleman-check`` gives one, naming the trial, when a pinned mu puts
a constant or alpha past what doubles resolve, and ``cacciopoli-check`` one
naming ``h_per_G=`` or ``field_file=`` when the grid is too coarse for its
fattened annulus.

Each ``cmd_*`` returns its report, its tables and one message per failed gate
(:data:`Outcome`), and :func:`main` alone writes a run's files to ``--out``,
which it creates only once the command has returned (no config error leaves a
directory): ``report.json`` (resolved config plus aggregates, no timestamp),
each ``.jsonl`` table (``records.jsonl``; timestamp and config isolated in the
header line), each ``.csv`` table (``summary.csv``, ``plot.csv``,
``eigenpairs/eigenpairs_NNN.csv``; LF line ends), each ``.npy`` table, an
array (``eigenpairs/eigenpairs_NNN.npy``), and a ``FAIL: <message>`` line on
stderr per failure.  JSON outputs write a NaN or infinity as ``null``.
Each gate is a function of a run's outputs (``record_failures`` and the
like), which the acceptance suite applies too: one home per bound.

The model's d, L, delta and norm_V each have one key, a list: ``ds``,
``L_over_Gs``, ``deltas_over_G`` and ``norm_Vs`` (L and delta in units of
``model.G``, which must keep them finite).  ``verify`` runs
every combination; ``_COMMANDS`` names the list keys each other subcommand
reads one value of (a longer list is a config error), and a subcommand that
runs one model builds it from the first value of each
(:meth:`ExperimentConfig.params`).  ``sweep`` sweeps ``deltas_over_G`` as
given when they hold four or more distinct values, and the five-point grid
0.125 ... 0.45 for one; any other list is a config error.  The ``model.*``
keys are the other fields of ``ModelParams``, which holds no local-estimate
geometry, so ``model.d``, ``model.L``, ``model.delta``, ``model.norm_V``,
``model.R``, ``model.D0``, ``model.K_V`` and ``model.beta`` are unknown
keys; ``constants`` reports the geometry it derived.  A ``model.*`` or
``free.*`` value that its dataclass rejects is reported with its key and the
dataclass's reason (for ``model.theta1=0.5`` the bound rule's message).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from uclab.constants import (
    FreeConstants,
    ModelParams,
    is_above,
    is_at_least,
    is_ball_radius,
    is_dimension,
    is_finite,
    lattice_error,
    log_c_sfuc,
    sampling_epsilon,
    sampling_report,
    whole_cells,
    window_tolerance,
)

__all__ = ["ExperimentConfig", "main", "to_json", "write_rows_jsonl", "write_rows_csv"]


@dataclass
class ExperimentConfig:
    """Resolved configuration of one CLI run; ``model`` maps the model.*
    keys to their values."""

    model: dict
    free: FreeConstants
    h_per_G: int = 32
    seeds: tuple[int, ...] = (0,)
    ds: tuple[int, ...] = (1,)
    norm_Vs: tuple[float, ...] = (0.0,)
    L_over_Gs: tuple[int, ...] = (3,)
    deltas_over_G: tuple[float, ...] = (0.25,)
    bcs: tuple[str, ...] = ("dirichlet",)
    energy: float = 0.0
    rho: Optional[float] = None
    mu: Optional[float] = None
    alpha_mult: Optional[float] = None
    trials: int = 4
    grids: tuple[float, ...] = (1 / 64,)
    dump_eigenpairs: bool = False
    field_file: Optional[str] = None

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name in ("model", "free"):
                group = val if f.name == "model" else asdict(val)
                out.update({f"{f.name}.{k}": v for k, v in group.items()})
            else:
                out[f.name] = list(val) if isinstance(val, tuple) else val
        return out

    def params(self) -> ModelParams:
        """The model at the first value of ``ds``, ``L_over_Gs``,
        ``deltas_over_G`` and ``norm_Vs`` (the one value of each, for a
        subcommand that reads one); the two middle keys are in units of G."""
        G = self.model["G"]
        return ModelParams(d=self.ds[0], L=float(self.L_over_Gs[0] * G),
                           delta=float(self.deltas_over_G[0] * G),
                           norm_V=float(self.norm_Vs[0]), **self.model)

    def validate(self, command: Optional[str] = None) -> list[str]:
        """One ``<key>=<value> is not ...`` line per invalid key, with the
        checks of ``command``; ``sweep``, the one run that evaluates the
        configured model's bounds, needs it admissible."""
        problems = []
        for key, (need, ok) in _RULES.items():
            val = getattr(self, key)
            if isinstance(val, tuple):
                if not (val and all(map(ok, val))):
                    problems.append(f"{key}={list(val)} is not a non-empty list of {need}")
            elif val is not None and not ok(val):
                problems.append(f"{key}={val!r} is not {need}")
        if problems:  # the checks below read keys checked above
            return problems
        _, flags, one_value = _COMMANDS.get(command, (None, (), ()))
        problems = [f"{key}={list(getattr(self, key))} is not one value ({command} reads one)"
                    for key in one_value if len(getattr(self, key)) > 1]
        deltas = self.deltas_over_G  # a sweep's fit needs four distinct deltas
        if command == "sweep" and len(deltas) > 1 and len(set(deltas)) < 4:
            problems.append(f"deltas_over_G={list(deltas)} is not "
                            "one value (the five-point grid) or four distinct ones")
        G = self.model["G"]
        if not all(is_finite(v * G) for v in (*self.L_over_Gs, *self.deltas_over_G)):
            problems.append(f"model.G={G!r} makes L_over_Gs G or deltas_over_G G infinite")
            return problems
        m = self.params()
        h = G / self.h_per_G  # CubeDomain's rule on each cube of a --h run; a file fixes its grid
        bad = [v * G for v in self.L_over_Gs if (whole_cells(v * G, h) or 0) < 2]
        if bad and "--h" in flags and not ("--field-file" in flags and self.field_file):
            problems.append(f"h_per_G={self.h_per_G}: {lattice_error(2, L=bad[0], h=h)}")
        if command == "sweep":  # its bounds use the model
            eps = sampling_epsilon(m)
            if eps <= 0.0:
                problems.append(f"model is inadmissible: epsilon={eps:.4g} <= 0 "
                                "(chart it with `uclab constants`)")
        return problems


def _whole(v) -> bool:
    """An integer, which JSON may spell as an integral float."""
    return is_finite(v) and float(v).is_integer()


def _as_int(v):
    """``v`` as an int when it is :func:`_whole`; validate reports any
    other value."""
    return int(v) if _whole(v) else v


# key -> (what each value must be, its test); a tuple key must be non-empty,
# and None leaves rho, mu, alpha_mult and field_file unset
_RULES = {
    "h_per_G": ("an integer >= 1", lambda v: _whole(v) and v >= 1),
    "seeds": ("integers >= 0", lambda v: _whole(v) and v >= 0),
    "ds": ("integers >= 1", is_dimension),
    "trials": ("an integer >= 1", lambda v: _whole(v) and v >= 1),
    "L_over_Gs": ("odd integers >= 1", lambda v: _whole(v) and v >= 1 and v % 2 == 1),
    "deltas_over_G": ("numbers in (0, 1/2)", lambda v: is_finite(v) and is_ball_radius(v, 1.0)),
    "norm_Vs": ("finite numbers >= 0", lambda v: is_at_least(v, 0)),
    "energy": ("a finite number", is_finite),
    "rho": ("a finite number > 0", lambda v: is_above(v, 0)),
    "mu": ("a finite number > 0", lambda v: is_above(v, 0)),
    "grids": ("finite numbers > 0", lambda v: is_above(v, 0)),
    "alpha_mult": ("a finite number >= 1", lambda v: is_at_least(v, 1)),
    "bcs": ("'dirichlet' or 'periodic' conditions", lambda v: v in ("dirichlet", "periodic")),
    "dump_eigenpairs": ("true or false", lambda v: isinstance(v, bool)),
    "field_file": ("an existing file", lambda v: isinstance(v, str) and Path(v).is_file()),
}


# the keys of _RULES whose values are integers: load_config turns a whole
# float into an int, since the runs use them as counts, sizes and seeds
_INTEGER_KEYS = ("h_per_G", "seeds", "ds", "trials", "L_over_Gs")

# what sweep runs when deltas_over_G holds one value (the default serves verify)
_SWEEP_DELTAS = (0.125, 0.175, 0.25, 0.35, 0.45)

# cacciopoli-check's annulus radii r1 < |x| < r2 and fattening r, in units of L
_ANNULUS = (0.1, 0.27, 0.13)


# key prefix -> the keys it takes: model.*, free.* and the run's own keys;
# ds, L_over_Gs, deltas_over_G and norm_Vs set the other ModelParams fields
_KEYS = {
    "model": [k for k in ModelParams.__dataclass_fields__
              if k not in ("d", "L", "delta", "norm_V")],
    "free": set(FreeConstants.__dataclass_fields__),
    "": set(ExperimentConfig.__dataclass_fields__) - {"model", "free"},
}


def _build(cls, group: str, values: dict, **fixed):
    """``cls(**fixed, **values)``, raising ``<group>.<key>=<value>: <reason>``
    with the reason ``cls`` gives for the first value it rejects."""
    for key, val in values.items():
        try:
            cls(**fixed, **{key: val})
        except ValueError as exc:
            raise ValueError(f"{group}.{key}={val!r}: {exc}") from None
    return cls(**fixed, **values)


def load_config(path: Optional[str], overrides: dict) -> ExperimentConfig:
    """Flat-key JSON plus overrides (flags win); a None value, a null in the
    file or a flag not given, leaves its key at the default."""
    raw: dict = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"--config={path} does not hold a JSON object")
    kwargs: dict = {"model": {}, "free": {}, "": {}}
    for key, val in [*raw.items(), *overrides.items()]:
        group, _, name = key.rpartition(".")
        if group not in _KEYS or name not in _KEYS[group]:
            raise KeyError(f"unknown configuration key {key!r}")
        if val is not None:
            kwargs[group][name] = val
    model = asdict(_build(ModelParams, "model", kwargs["model"], d=1))
    cfg = ExperimentConfig(model={k: model[k] for k in _KEYS["model"]},
                           free=_build(FreeConstants, "free", kwargs["free"]))
    for key, val in kwargs[""].items():
        if isinstance(getattr(cfg, key), tuple) and not isinstance(val, tuple):
            val = tuple(val) if isinstance(val, (list, np.ndarray)) else (val,)
        if key in _INTEGER_KEYS:
            val = tuple(map(_as_int, val)) if isinstance(val, tuple) else _as_int(val)
        setattr(cfg, key, val)
    return cfg


class ConfigError(Exception):
    """A configuration the run finds it cannot serve once it has started;
    :func:`main` reports it as ``config error: <message>``, exits 2 and
    writes no table."""


# what a cmd_* returns: its report (main adds the config echo), its tables by
# path under --out, each a list of rows or, for a .npy table, an array, and
# one message per failed gate
Outcome = tuple[dict, dict[str, list[dict] | np.ndarray], list[str]]


def cmd_constants(cfg: ExperimentConfig) -> Outcome:
    rep = sampling_report(cfg.params(), cfg.free, energy=cfg.energy)
    if rep.out_of_range:
        flag = f"  [inadmissible: {rep.out_of_range} leaves the double range]"
    else:
        flag = "" if rep.admissible else "  [inadmissible: epsilon <= 0]"
    print(f"epsilon = {rep.epsilon:.6g}{flag}")
    print(f"T = {rep.T}")
    if rep.admissible:
        print(f"log_c_sfuc = {rep.log_c_sfuc:.6e}")
        print(f"log_c_quc  = {rep.log_c_quc:.6e}")
    return {"report": rep.to_dict()}, {}, []


# criterion 7's checks on each record: (what a failing record breaks, the check)
_RECORD_CHECKS = (
    ("margin <= 0", lambda r: r.margin > 0.0),
    ("worst_ratio <= exp(log_bound)",
     lambda r: r.worst_ratio > 0.0 and r.log_bound < math.log(r.worst_ratio)),
    ("worst_ratio > ratio + 1e-12", lambda r: r.worst_ratio <= r.ratio + 1e-12),
    ("residual_violation > 1e-10", lambda r: r.residual_violation <= 1e-10),
    # an inequality pair's eigenvector solves (H - E) psi = 0 to the solver's tolerance
    ("sqrt(residual_norm_sq) > 1e-8 (1 + |energy|)",
     lambda r: r.psi_kind != "inequality_pair"
     or math.sqrt(r.residual_norm_sq) <= 1e-8 * (1.0 + abs(r.energy))),
    # a projector sample's zeta is (H - E) psi: the window's spread plus the solve's residual
    ("sqrt(zeta_norm_sq) > window_tolerance + 1e-8 (1 + |energy|)",
     lambda r: r.psi_kind != "projector_sample" or math.sqrt(r.zeta_norm_sq)
     <= window_tolerance(r.log_gamma, r.energy) + 1e-8 * (1.0 + abs(r.energy))),
)


def record_failures(records) -> list[str]:
    """Criterion 7's gate: per check of ``_RECORD_CHECKS`` that a record
    fails, a message naming the first such record in order of margin."""
    ranked = sorted(records, key=lambda r: r.margin)
    failures = []
    for broken, check in _RECORD_CHECKS:
        r = next((r for r in ranked if not check(r)), None)
        if r is not None:
            failures.append(f"{broken} for record (kind={r.psi_kind}, d={r.d}, bc={r.bc}, "
                            f"L={r.L}, delta={r.delta}, seed={r.seed})")
    return failures


def sweep_failures(res, d: int) -> list[str]:
    """Criterion 8's gate on a :class:`~uclab.verifier.SweepResult` in d."""
    ok = res.slope_in_bracket(d) and res.r_squared >= 0.99 and not res.degenerate
    return [] if ok else ["sweep slope outside bracket or degenerate fit"]


def carleman_allowed(h: float) -> float:
    """Criterion 4's cap on a ratio at grid spacing h: 1 plus 10h of slack."""
    return 1.0 + 10.0 * h


def carleman_failures(worst_by_h: dict) -> list[str]:
    """Criterion 4's gate on the worst ratio per grid spacing; a NaN fails."""
    bad = [h for h, w in worst_by_h.items() if not w <= carleman_allowed(h)]
    return [f"ratio exceeded tolerance at h={bad[0]}"] if bad else []


def weight_failures(slacks: dict) -> list[str]:
    """Criterion 3's gate: the envelope slacks are at least -1e-10; a NaN
    outer floor, no sample beyond sqrt(theta1) rho/mu, passes."""
    floor = -1e-10
    failed = [k for k in ("lower", "upper") if not slacks[k] >= floor]
    if slacks["outer_floor"] < floor:  # False for NaN
        failed.append("outer_floor")
    return [f"weight {k} slack {slacks[k]:.3e} is below {floor:g}" for k in failed]


def extension_failures(worst: dict) -> list[str]:
    """Criterion 6's gate: the interface jump within its allowance
    10h |grad psi|_sup and the residual excess within 1e-8; a NaN fails."""
    limits = {"interface_jump_rel": 1.0, "residual": 1e-8}
    return [f"extension {k} {worst[k]:.3g} exceeds {limit:g}"
            for k, limit in limits.items() if not worst[k] <= limit]


def cacciopoli_failures(res: dict, cprime: float) -> list[str]:
    """``cacciopoli-check``'s gate on a :func:`~uclab.verifier.cacciopoli_check`
    result at C' = ``cprime``: lhs <= rhs; a NaN fails."""
    return [] if res["lhs"] <= res["rhs"] else [
        f"cacciopoli inequality fails: lhs {res['lhs']:.6g} > rhs {res['rhs']:.6g} "
        f"at C' = {cprime:.4g}"]


def cmd_verify(cfg: ExperimentConfig) -> Outcome:
    from uclab.verifier import benchmark_configs, verify_equidistribution

    configs = benchmark_configs(
        ds=cfg.ds, norm_Vs=cfg.norm_Vs, bcs=cfg.bcs, L_over_Gs=cfg.L_over_Gs,
        delta_over_Gs=cfg.deltas_over_G, seeds=cfg.seeds, G=cfg.model["G"],
        h_per_G=cfg.h_per_G,
    )
    solves: dict = {}
    records = verify_equidistribution(configs, cfg.free, solves)
    rows = [dict(sorted(r.to_dict().items())) for r in records]  # sorted CSV columns
    worst = min(records, key=lambda r: r.margin)
    print(f"{len(records)} records, min margin {worst.margin:.6g}")
    report = {"n_records": len(records), "min_margin": worst.margin,
              "worst_record": worst.to_dict()}
    tables = {"records.jsonl": rows, "summary.csv": rows}
    if cfg.dump_eigenpairs:  # each field's slice, in order of first appearance
        for i, (_, _, sl) in enumerate(solves.values()):
            name = f"eigenpairs/eigenpairs_{i:03d}"
            tables[f"{name}.csv"] = [{"index": j, "eigenvalue": float(lam)}
                                     for j, lam in enumerate(sl.eigenvalues)]
            tables[f"{name}.npy"] = sl.eigenvectors
    return report, tables, record_failures(records)


def cmd_sweep(cfg: ExperimentConfig) -> Outcome:
    from uclab.geometry import CubeDomain
    from uclab.verifier import delta_sweep

    model = cfg.params()
    dom = CubeDomain(model.d, model.L, model.G / cfg.h_per_G, "periodic")
    psi = np.ones(dom.shape)
    deltas_over_G = cfg.deltas_over_G if len(cfg.deltas_over_G) > 1 else _SWEEP_DELTAS
    deltas = [dg * model.G for dg in deltas_over_G]
    res = delta_sweep(
        psi, dom, model.G, deltas, model, cfg.free,
        seq_mode="uniform_random", seq_seeds=cfg.seeds,
    )
    plot = [{"delta": dd, "ratio": rr,
             "log_bound": log_c_sfuc(replace(model, delta=dd), cfg.free)}
            for dd, rr in zip(res.deltas, res.ratios)]
    print(f"slope {res.slope:.4f} (floor {model.d}, cap {res.exponent_bound:.4g}), "
          f"R^2 {res.r_squared:.6f}")
    report = {k: v for k, v in asdict(res).items() if k != "degenerate"}
    return report, {"plot.csv": plot}, sweep_failures(res, model.d)


def cmd_carleman_check(cfg: ExperimentConfig) -> Outcome:
    from uclab.carleman import carleman_trial

    rows = []
    worst_by_h: dict[float, float] = {}
    for h in cfg.grids:
        for i in range(cfg.trials):
            for d in cfg.ds:
                seed = cfg.seeds[0] + i
                try:  # a pinned mu can put a constant or alpha past what doubles resolve
                    rec = carleman_trial(
                        seed, d, h, rho=cfg.rho, mu=cfg.mu, alpha_mult=cfg.alpha_mult,
                    )
                except ValueError as exc:
                    raise ConfigError(f"{exc} (trial seed={seed}, d={d}, h={h})") from exc
                rows.append(rec)
                # np.maximum keeps a NaN ratio, which fails the gate
                worst_by_h[h] = float(np.maximum(worst_by_h.get(h, 0.0), rec["ratio"]))
    summary = [{"h": h, "worst_ratio": worst_by_h[h], "allowed": carleman_allowed(h)}
               for h in sorted(worst_by_h, reverse=True)]
    for row in summary:
        print(f"h={row['h']:.6g}: worst ratio {row['worst_ratio']:.3e} "
              f"(allowed {row['allowed']:.4f})")
    report = {"worst_by_h": {str(k): v for k, v in worst_by_h.items()}}
    tables = {"records.jsonl": rows, "summary.csv": summary}
    return report, tables, carleman_failures(worst_by_h)


def _check_grid(cfg: ExperimentConfig, field_file: Optional[str], h_per_G: int) -> tuple:
    """The saved field's domain and the field, or the Dirichlet cube at h = G/h_per_G and None."""
    from uclab.fields import load_field
    from uclab.geometry import CubeDomain

    if field_file is not None:
        fld = load_field(field_file)
        return fld.domain, fld
    m = cfg.params()
    return CubeDomain(m.d, m.L, m.G / h_per_G, "dirichlet"), None


def cmd_cacciopoli_check(cfg: ExperimentConfig) -> Outcome:
    from uclab.fields import synthesize_random_field
    from uclab.verifier import annulus_fits, cacciopoli_check

    dom, fld = _check_grid(cfg, cfg.field_file, cfg.h_per_G)
    key = f"field_file={cfg.field_file!r}" if fld is not None else f"h_per_G={cfg.h_per_G}"
    L, d = dom.L, dom.d
    r1, r2, r = (f * L for f in _ANNULUS)
    if not annulus_fits(L, dom.h, r2, r):
        raise ConfigError(f"{key} gives h={dom.h:.4g}; the fattened annulus needs "
                          f"2h < L/2 - r2 - r = {L / 2.0 - r2 - r:.4g}")
    if fld is not None:
        from uclab.discretization import assemble
        from uclab.spectral import eigensolve

        psi = eigensolve(assemble(fld), count=1, seed=cfg.seeds[0]).grid_vector(0)
    else:
        psi = math.prod(np.meshgrid(*[dom.sine_mode(2)] * d, indexing="ij", sparse=True))
        fld = synthesize_random_field(cfg.seeds[0], dom)  # A = I, no b, c or V
    res = cacciopoli_check(psi, fld, r1, r2, r, cprime=cfg.free.Cprime)
    print(f"lhs {res['lhs']:.6g} <= rhs {res['rhs']:.6g}: {res['holds']}; "
          f"min C' {res['min_cprime']:.4g}")
    return {"check": res}, {}, cacciopoli_failures(res, cfg.free.Cprime)


def cmd_extend_check(cfg: ExperimentConfig) -> Outcome:
    from uclab.discretization import assemble, extension_check
    from uclab.fields import synthesize_dir_cross_field, synthesize_random_field
    from uclab.spectral import eigensolve

    dom, loaded = _check_grid(cfg, cfg.field_file, cfg.h_per_G)

    def field(seed: int):
        theta1 = 1.0 + 0.5 * (1 + seed % 3) / 3
        if dom.d == 1:  # criterion 6's d = 1 field: a variable diagonal A
            return synthesize_random_field(seed, dom, theta1, 1.0 + 0.3 * (seed % 3))
        return synthesize_dir_cross_field(seed, dom, theta1=theta1)

    try:  # the d = 1 field's Lipschitz target needs a fine enough grid
        flds = [loaded if loaded is not None else field(seed) for seed in cfg.seeds]
    except ValueError as exc:
        raise ConfigError(
            f"h_per_G={cfg.h_per_G} is too coarse for the field: {exc}") from exc
    worst = {"interface_jump_rel": 0.0, "residual": -math.inf}
    for seed, fld in zip(cfg.seeds, flds):
        sl = eigensolve(assemble(fld), count=2, seed=seed)
        res = extension_check(fld, sl.grid_vector(0), float(sl.eigenvalues[0]))
        worst = {k: float(np.maximum(worst[k], res[k])) for k in worst}  # keeps a NaN
    print(f"extension interface jump {worst['interface_jump_rel']:.3f} of "
          f"allowance, residual excess {worst['residual']:.3g}")
    return {"worst": worst}, {}, extension_failures(worst)


def cmd_weight(cfg: ExperimentConfig) -> Outcome:
    from uclab.carleman import WeightFunction, phi

    rho = cfg.rho if cfg.rho is not None else 1.0
    mu = cfg.mu if cfg.mu is not None else 1.0
    d = cfg.ds[0]
    wf = WeightFunction(rho=rho, mu=mu, A0=np.eye(d), theta1=cfg.model["theta1"])
    rs = np.linspace(0.0, math.sqrt(cfg.model["theta1"]), 201)
    rng = np.random.default_rng(cfg.seeds[0])
    pts = rng.uniform(-rho, rho, size=(4000, d))
    slacks = wf.bound_slacks(pts)
    print(f"weight bound slacks: lower {slacks['lower']:.3e} "
          f"upper {slacks['upper']:.3e}")
    table = [{"r": r, "phi": p} for r, p in zip(rs, phi(rs, mu))]
    return {"bound_slacks": slacks}, {"summary.csv": table}, weight_failures(slacks)


# flag -> argparse keywords; the dest is the ExperimentConfig key the flag
# sets, except for --h, which main converts to h_per_G = G/h
_FLAGS = {
    "--seed": dict(dest="seeds", type=int, metavar="N", help="run this one seed"),
    "--h": dict(type=float, help="grid spacing; sets h_per_G = G/h"),
    "--dump-eigenpairs": dict(action="store_true", default=None,
                              help="write every field's eigenpairs"),
    "--field-file": dict(help="load the coefficient field from a saved file"),
    "--d": dict(dest="ds", type=int, metavar="N", help="run this one dimension"),
    "--grid": dict(dest="grids", type=float, action="append", metavar="H",
                   help="grid spacing (repeatable)"),
    "--rho": dict(type=float),
    "--mu": dict(type=float),
    "--alpha-mult": dict(type=float),
    "--trials": dict(type=int),
}

# subcommand -> (function, the flags it takes besides --config and --out, the
# list keys it reads one value of); a subcommand that takes --h builds grids
# with h = G/h_per_G on cubes of side L_over_Gs G
_COMMANDS = {
    "constants": (cmd_constants, (), ("ds", "L_over_Gs", "deltas_over_G", "norm_Vs")),
    "verify": (cmd_verify, ("--seed", "--h", "--dump-eigenpairs"), ()),
    "sweep": (cmd_sweep, ("--seed", "--h"), ("ds", "L_over_Gs", "norm_Vs")),
    "carleman-check": (cmd_carleman_check, (
        "--seed", "--d", "--grid", "--rho", "--mu", "--alpha-mult", "--trials"), ("seeds",)),
    "cacciopoli-check": (cmd_cacciopoli_check, ("--seed", "--h", "--field-file"),
                         ("ds", "L_over_Gs", "seeds")),
    "extend-check": (cmd_extend_check, ("--seed", "--h", "--field-file"), ("ds", "L_over_Gs")),
    "weight": (cmd_weight, ("--seed",), ("ds", "seeds")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uclab",
        description="Numerical laboratory for unique-continuation and "
                    "equidistribution estimates of elliptic operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat-key JSON configuration file")
        sp.add_argument("--out", default="uclab-out", help="output directory")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def _finite_or_null(obj):
    """``obj`` with each numpy scalar as its value and each non-finite float as
    None, in nested dicts, lists and tuples too."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if is_finite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def to_json(obj, indent: Optional[int] = None) -> str:
    """Key-sorted JSON text of ``obj`` with every NaN or infinity written as
    ``null``: JSON (RFC 8259) has no such numbers, and ``json.dumps``'
    default writes bare ``NaN`` and ``Infinity`` tokens that strict parsers
    reject.  The reports and records of the command line go through here."""
    return json.dumps(_finite_or_null(obj), indent=indent, sort_keys=True,
                      allow_nan=False)


def write_rows_jsonl(path, rows: Iterable[dict], config: Optional[dict] = None) -> None:
    """Header line carries the timestamp (and config echo); every other line
    is one row, key-sorted for byte stability (:func:`to_json`)."""
    header = {"created_at": time.strftime("%Y-%m-%dT%H:%M:%S"), "config": config or {}}
    with open(path, "w") as fh:
        fh.writelines(to_json(row) + "\n" for row in (header, *rows))


def write_rows_csv(path, rows: Sequence[dict]) -> None:
    """CSV of ``rows`` with LF line ends, its header the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, path, out, h = (args.pop(k, None) for k in ("command", "config", "out", "h"))
    try:
        cfg = load_config(path, args)
        if h is not None:
            if (n := whole_cells(cfg.model["G"], h)) is None or n < 1:
                raise ValueError(f"h_per_G=G/h: {lattice_error(1, G=cfg.model['G'], h=h)}")
            cfg.h_per_G = n
        problems = cfg.validate(command)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report, tables, failures = _COMMANDS[command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out)  # made only now, so a config error leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    echo = cfg.to_dict()
    (out / "report.json").write_text(to_json({"config": echo, **report}, indent=2) + "\n")
    for name, table in tables.items():
        target = out / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith(".jsonl"):
            write_rows_jsonl(target, table, config=echo)
        elif name.endswith(".npy"):
            np.save(target, table)
        else:
            write_rows_csv(target, table)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
