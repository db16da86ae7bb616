"""Command-line front end.

Subcommands: ``constants``, ``verify``, ``sweep``, ``carleman-check``,
``cacciopoli-check``, ``extend-check``, ``weight``.  Configuration comes from
a flat-key JSON file (e.g. ``model.theta1``, ``free.K2``, ``seeds``) with
command-line flags taking precedence.  A subcommand takes only the flags
whose key it reads.

Exit codes: 0 when the run completed and every hard assertion passed
(``sweep``, whose bounds evaluate the configured model, requires it
admissible in each dimension of ``ds``; the other subcommands read no
admissibility), 1 when an assertion failed, 2 on usage errors and on every
``config error: <key>...``; ``carleman-check`` gives one such line, naming
the trial, when a pinned mu puts a constant or alpha past what doubles
resolve.

Each ``cmd_*`` returns its report, its tables and one message per failed
gate (:data:`Outcome`), and :func:`main` alone writes them to ``--out``:
``report.json`` (resolved config plus aggregates, no timestamp), each
``.jsonl`` table (``records.jsonl``; timestamp and config isolated in the
header line), each ``.csv`` table (``summary.csv``, ``plot.csv``; LF line
ends), and one ``FAIL: <message>`` line on stderr per failure.  The JSON
outputs write a NaN or infinite number as ``null``.

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
keys; ``constants`` reports the geometry it derived.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from numbers import Real
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from uclab.constants import (
    FreeConstants,
    ModelParams,
    log_c_sfuc,
    sampling_epsilon,
    sampling_report,
)

__all__ = ["ExperimentConfig", "main"]


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
        if not all(math.isfinite(v * G) for v in (*self.L_over_Gs, *self.deltas_over_G)):
            problems.append(f"model.G={G!r} makes L_over_Gs G or deltas_over_G G infinite")
            return problems
        m = self.params()
        if "--h" in flags and min(self.L_over_Gs) * self.h_per_G < 2:
            problems.append(f"h_per_G={self.h_per_G} gives fewer than two cells per "
                            f"axis on a cube of side {min(self.L_over_Gs)} G")
        elif (command == "cacciopoli-check" and self.field_file is None
              and not _annulus_fits(m.L, m.G / self.h_per_G)):
            problems.append(f"h_per_G={self.h_per_G} gives h={m.G / self.h_per_G:.4g}; "
                            f"the fattened annulus needs 2h < 0.1 L = {0.1 * m.L:.4g}")
        if command == "sweep":  # its bounds use the model; epsilon depends on d
            eps = min(sampling_epsilon(replace(m, d=d)) for d in self.ds)
            if eps <= 0.0:
                problems.append(f"model is inadmissible: epsilon={eps:.4g} <= 0 "
                                "(chart it with `uclab constants`)")
        return problems


def _finite(v) -> bool:
    """A real number a double holds: a JSON integer past its range is not."""
    return isinstance(v, Real) and abs(v) <= sys.float_info.max


def _whole(v) -> bool:
    """An integer, which JSON may spell as an integral float."""
    return _finite(v) and float(v).is_integer()


def _as_int(v):
    """``v`` as an int when it is :func:`_whole`; validate reports any
    other value."""
    return int(v) if _whole(v) else v


# key -> (what each value must be, its test); a tuple key must be non-empty,
# and None leaves rho, mu, alpha_mult and field_file unset
_RULES = {
    "h_per_G": ("an integer >= 1", lambda v: _whole(v) and v >= 1),
    "seeds": ("integers >= 0", lambda v: _whole(v) and v >= 0),
    "ds": ("integers >= 1", lambda v: _whole(v) and v >= 1),
    "trials": ("an integer >= 1", lambda v: _whole(v) and v >= 1),
    "L_over_Gs": ("odd integers >= 1", lambda v: _whole(v) and v >= 1 and v % 2 == 1),
    "deltas_over_G": ("numbers in (0, 1/2)", lambda v: _finite(v) and 0.0 < v < 0.5),
    "norm_Vs": ("finite numbers >= 0", lambda v: _finite(v) and v >= 0.0),
    "energy": ("a finite number", _finite),
    "rho": ("a finite number > 0", lambda v: _finite(v) and v > 0.0),
    "mu": ("a finite number > 0", lambda v: _finite(v) and v > 0.0),
    "grids": ("finite numbers > 0", lambda v: _finite(v) and v > 0.0),
    "alpha_mult": ("a finite number >= 1", lambda v: _finite(v) and v >= 1.0),
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


def _annulus_fits(L: float, h: float) -> bool:
    """Whether the fattened annulus stays inside the cube, as
    ``verifier.cacciopoli_check`` requires (2h < 0.1 L)."""
    from uclab.verifier import annulus_fits

    _, r2, r = (f * L for f in _ANNULUS)
    return annulus_fits(L, h, r2, r)


# key prefix -> the keys it takes: model.*, free.* and the run's own keys;
# ds, L_over_Gs, deltas_over_G and norm_Vs set the other ModelParams fields
_KEYS = {
    "model": [k for k in ModelParams.__dataclass_fields__
              if k not in ("d", "L", "delta", "norm_V")],
    "free": set(FreeConstants.__dataclass_fields__),
    "": set(ExperimentConfig.__dataclass_fields__) - {"model", "free"},
}


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
    model = asdict(ModelParams(d=1, **kwargs["model"]))  # checks the model.* keys
    cfg = ExperimentConfig(model={k: model[k] for k in _KEYS["model"]},
                           free=FreeConstants(**kwargs["free"]))
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
# file name (records.jsonl, summary.csv, plot.csv), each a list of rows, and
# one message per failed gate
Outcome = tuple[dict, dict[str, list[dict]], list[str]]


def cmd_constants(cfg: ExperimentConfig, out: Path) -> Outcome:
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
)


def cmd_verify(cfg: ExperimentConfig, out: Path) -> Outcome:
    from uclab.verifier import benchmark_configs, verify_equidistribution

    configs = benchmark_configs(
        ds=cfg.ds, norm_Vs=cfg.norm_Vs, bcs=cfg.bcs, L_over_Gs=cfg.L_over_Gs,
        delta_over_Gs=cfg.deltas_over_G, seeds=cfg.seeds, G=cfg.model["G"],
        h_per_G=cfg.h_per_G,
    )
    records = verify_equidistribution(
        configs, cfg.free, dump_dir=(out / "eigenpairs") if cfg.dump_eigenpairs else None
    )
    rows = [dict(sorted(r.to_dict().items())) for r in records]  # sorted CSV columns
    # worst margin first: each check names the first record it fails in this
    # order, so the margin check names the record of min_margin
    ranked = sorted(records, key=lambda r: r.margin)
    worst = ranked[0]
    print(f"{len(records)} records, min margin {worst.margin:.6g}")
    failures = []
    for broken, check in _RECORD_CHECKS:
        r = next((r for r in ranked if not check(r)), None)
        if r is not None:
            failures.append(f"{broken} for record (kind={r.psi_kind}, d={r.d}, bc={r.bc}, "
                            f"L={r.L}, delta={r.delta}, seed={r.seed})")
    report = {"n_records": len(records), "min_margin": worst.margin,
              "worst_record": worst.to_dict()}
    return report, {"records.jsonl": rows, "summary.csv": rows}, failures


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> Outcome:
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
    ok = res.slope_in_bracket(model.d) and res.r_squared >= 0.99 and not res.degenerate
    print(f"slope {res.slope:.4f} (floor {model.d}, cap {res.exponent_bound:.4g}), "
          f"R^2 {res.r_squared:.6f}")
    failures = [] if ok else ["sweep slope outside bracket or degenerate fit"]
    report = {k: v for k, v in asdict(res).items() if k != "degenerate"}
    return report, {"plot.csv": plot}, failures


def cmd_carleman_check(cfg: ExperimentConfig, out: Path) -> Outcome:
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
                # np.maximum keeps a NaN ratio, which fails the gate below
                worst_by_h[h] = float(np.maximum(worst_by_h.get(h, 0.0), rec["ratio"]))
    allowed = {h: 1.0 + 10.0 * h for h in worst_by_h}  # discretization slack
    summary = [{"h": h, "worst_ratio": worst_by_h[h], "allowed": allowed[h]}
               for h in sorted(worst_by_h, reverse=True)]
    for row in summary:
        print(f"h={row['h']:.6g}: worst ratio {row['worst_ratio']:.3e} "
              f"(allowed {row['allowed']:.4f})")
    bad = [h for h, w in worst_by_h.items() if not w <= allowed[h]]
    failures = [f"ratio exceeded tolerance at h={bad[0]}"] if bad else []
    report = {"worst_by_h": {str(k): v for k, v in worst_by_h.items()}}
    return report, {"records.jsonl": rows, "summary.csv": summary}, failures


def cmd_cacciopoli_check(cfg: ExperimentConfig, out: Path) -> Outcome:
    from uclab.fields import CoefficientField
    from uclab.geometry import CubeDomain
    from uclab.verifier import cacciopoli_check

    if cfg.field_file is not None:
        from uclab.fields import load_field
        from uclab.discretization import assemble
        from uclab.spectral import eigensolve

        fld = load_field(cfg.field_file)
        dom = fld.domain
        L = dom.L
        if not _annulus_fits(L, dom.h):
            raise ConfigError(f"field_file={cfg.field_file!r} has h={dom.h:.4g}; "
                              f"the fattened annulus needs 2h < 0.1 L = {0.1 * L:.4g}")
        sl = eigensolve(assemble(fld), count=1, seed=cfg.seeds[0])
        psi = sl.grid_vector(0)
    else:
        m = cfg.params()
        L, h, d = m.L, m.G / cfg.h_per_G, m.d
        dom = CubeDomain(d, L, h, "dirichlet")
        k = 2
        sine = np.sin(k * math.pi * (dom.centers_1d() + L / 2.0) / L)
        psi = math.prod(np.meshgrid(*[sine] * d, indexing="ij", sparse=True))
        unit = (1,) * d  # constants store one cell
        fld = CoefficientField(
            domain=dom, A=np.eye(d).reshape(unit + (d, d)), b=np.zeros(unit + (d,)),
            c=np.zeros(unit), V=np.zeros(unit), declared_theta1=1.0, declared_theta2=0.0,
        )
    res = cacciopoli_check(psi, fld, *(f * L for f in _ANNULUS), cprime=cfg.free.Cprime)
    print(f"lhs {res['lhs']:.6g} <= rhs {res['rhs']:.6g}: {res['holds']}; "
          f"min C' {res['min_cprime']:.4g}")
    failures = [] if res["holds"] else [
        f"cacciopoli inequality fails: lhs {res['lhs']:.6g} > rhs {res['rhs']:.6g} "
        f"at C' = {cfg.free.Cprime:.4g}"]
    return {"check": res}, {}, failures


def cmd_extend_check(cfg: ExperimentConfig, out: Path) -> Outcome:
    from uclab.discretization import assemble, extension_check
    from uclab.fields import load_field, synthesize_dir_cross_field, synthesize_random_field
    from uclab.geometry import CubeDomain
    from uclab.spectral import eigensolve

    loaded = load_field(cfg.field_file) if cfg.field_file is not None else None
    m = cfg.params()
    dom = loaded.domain if loaded is not None else CubeDomain(
        m.d, m.L, m.G / cfg.h_per_G, "dirichlet"
    )

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
    limits = {"interface_jump_rel": 1.0, "residual": 1e-8}
    failures = [f"extension {k} {worst[k]:.3g} exceeds {limits[k]:g}"
                for k in limits if not worst[k] <= limits[k]]
    return {"worst": worst}, {}, failures


def cmd_weight(cfg: ExperimentConfig, out: Path) -> Outcome:
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
    failed = [k for k in ("lower", "upper") if not slacks[k] >= -1e-10]
    if slacks["outer_floor"] < -1e-10:  # a NaN (no sample beyond sqrt(theta1) rho/mu) passes
        failed.append("outer_floor")
    failures = [f"weight {k} slack {slacks[k]:.3e} is below -1e-10" for k in failed]
    table = [{"r": r, "phi": p} for r, p in zip(rs, phi(rs, mu))]
    return {"bound_slacks": slacks}, {"summary.csv": table}, failures


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, path, out, h = (args.pop(k, None) for k in ("command", "config", "out", "h"))
    try:
        cfg = load_config(path, args)
        if h is not None:
            # a non-positive or NaN h leaves ratio 0, which validate reports
            ratio = cfg.model["G"] / h if h > 0.0 else 0.0
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"h_per_G: h={h} does not divide model.G={cfg.model['G']}")
            cfg.h_per_G = round(ratio)
        problems = cfg.validate(command)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
    except (KeyError, TypeError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        report, tables, failures = _COMMANDS[command][0](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    from uclab.verifier import to_json, write_rows_csv, write_rows_jsonl

    echo = cfg.to_dict()
    (out / "report.json").write_text(to_json({"config": echo, **report}, indent=2) + "\n")
    for name, rows in tables.items():
        if name.endswith(".jsonl"):
            write_rows_jsonl(out / name, rows, config=echo)
        else:
            write_rows_csv(out / name, rows)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
