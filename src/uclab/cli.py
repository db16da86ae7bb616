"""Command-line front end.

Subcommands: ``constants``, ``verify``, ``sweep``, ``carleman-check``,
``cacciopoli-check``, ``extend-check``, ``weight``.  Configuration comes from
a flat-key JSON file (keys mirror the parameter dataclasses, e.g.
``model.delta``, ``free.K2``) with command-line flags taking precedence.  A
subcommand takes only the flags whose key it reads.

Exit codes: 0 when the run completed and every hard assertion passed
(``constants`` charting an inadmissible model is a completed run; every
other subcommand requires an admissible one), 1 when an assertion failed
(the message points at the offending record), 2 on usage errors and on
every ``config error: <key>...``.

Outputs land in ``--out``: ``report.json`` (resolved config plus aggregates,
no timestamp), ``records.jsonl`` (timestamp isolated in the header line),
``summary.csv``, and from ``sweep`` always ``plot.csv``.  The JSON outputs
write a NaN or infinite number as ``null``.  ``sweep``,
``weight``, ``cacciopoli-check`` and ``extend-check`` run in the one
dimension ``ds`` names, and ``weight``, ``carleman-check`` and
``cacciopoli-check`` draw from the one seed ``seeds`` names (a longer list
is a config error).  ``sweep`` checks admissibility and evaluates its
bounds in its dimension.  It sweeps four or more ``deltas_over_G`` as given,
and the five-point grid 0.125 ... 0.45 for one (the default serves
``verify``); two or three are a config error.  ``model.*`` keys are the
fields of ``ModelParams``, which holds no local-estimate geometry, so
``model.R``, ``model.D0``, ``model.K_V`` and ``model.beta`` are unknown keys;
``constants`` reports the geometry it derived.
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
    """Resolved configuration of one CLI run."""

    model: ModelParams
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
                out.update({f"{f.name}.{k}": v for k, v in asdict(val).items()})
            else:
                out[f.name] = list(val) if isinstance(val, tuple) else val
        return out

    def validate(self, command: Optional[str] = None) -> list[str]:
        """One ``<key>=<value> is not ...`` line per invalid key, with the
        checks of ``command``; all but ``constants`` need an admissible model."""
        problems = []
        for key, (need, ok) in _RULES.items():
            val = getattr(self, key)
            if isinstance(val, tuple):
                if not (val and all(map(ok, val))):
                    problems.append(f"{key}={list(val)} is not a non-empty list of {need}")
            elif val is not None and not ok(val):
                problems.append(f"{key}={val!r} is not {need}")
        m = self.model
        if not 0.0 < m.delta < m.G / 2.0:
            problems.append(f"model.delta={m.delta} is not in (0, model.G/2 = {m.G / 2})")
        ratio = m.L / m.G
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) % 2 != 1:
            problems.append(f"model.L={m.L} is not an odd multiple of model.G={m.G}")
        if not problems:  # the checks below read keys checked above
            side = min(self.L_over_Gs) if command == "verify" else round(ratio)
            if command in _GRID_COMMANDS and side * self.h_per_G < 2:
                problems.append(f"h_per_G={self.h_per_G} gives fewer than two "
                                f"cells per axis on a cube of side {side} G")
            elif (command == "cacciopoli-check" and self.field_file is None
                  and not _annulus_fits(m.L, m.G / self.h_per_G)):
                problems.append(f"h_per_G={self.h_per_G} gives h={m.G / self.h_per_G:.4g}; "
                                f"the fattened annulus needs 2h < 0.1 L = {0.1 * m.L:.4g}")
            if command in _SINGLE_DIMENSION_COMMANDS and len(self.ds) > 1:
                problems.append(f"ds={list(self.ds)} is not one dimension "
                                f"({command} runs in one)")
            if command in _SINGLE_SEED_COMMANDS and len(self.seeds) > 1:
                problems.append(f"seeds={list(self.seeds)} is not one seed "
                                f"({command} draws from one)")
            if command == "sweep":  # a fit needs four deltas; bounds are in ds[0]
                if len(self.deltas_over_G) in (2, 3):
                    problems.append(f"deltas_over_G={list(self.deltas_over_G)} is "
                                    "not one value (the five-point grid) or four or more")
                m = replace(m, d=self.ds[0])
        if command != "constants":
            eps = sampling_epsilon(m)
            if eps <= 0.0:
                problems.append(f"model is inadmissible: epsilon={eps:.4g} <= 0 "
                                "(chart it with `uclab constants`)")
        return problems


def _finite(v) -> bool:
    return isinstance(v, Real) and math.isfinite(v)


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

# the subcommands that build grids with h = G/h_per_G: verify on cubes of
# side L_over_Gs G, the others on one cube of side model.L
_GRID_COMMANDS = ("verify", "sweep", "cacciopoli-check", "extend-check")

# the subcommands that run in the single dimension ds[0]
_SINGLE_DIMENSION_COMMANDS = ("sweep", "cacciopoli-check", "extend-check", "weight")

# the subcommands that draw from the single seed seeds[0]
_SINGLE_SEED_COMMANDS = ("carleman-check", "cacciopoli-check", "weight")

# cacciopoli-check's annulus radii r1 < |x| < r2 and fattening r, in units of L
_ANNULUS = (0.1, 0.27, 0.13)


def _annulus_fits(L: float, h: float) -> bool:
    """Whether the fattened annulus stays inside the cube, as
    ``verifier.cacciopoli_check`` requires (2h < 0.1 L)."""
    from uclab.verifier import annulus_fits

    _, r2, r = (f * L for f in _ANNULUS)
    return annulus_fits(L, h, r2, r)


# key prefix -> the keys it takes: model.*, free.* and the run's own keys
_KEYS = {
    "model": set(ModelParams.__dataclass_fields__),
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
    kwargs: dict = {"model": {"d": 1}, "free": {}, "": {}}
    for key, val in [*raw.items(), *overrides.items()]:
        group, _, name = key.rpartition(".")
        if group not in _KEYS or name not in _KEYS[group]:
            raise KeyError(f"unknown configuration key {key!r}")
        if val is not None:
            kwargs[group][name] = val
    cfg = ExperimentConfig(model=ModelParams(**kwargs["model"]),
                           free=FreeConstants(**kwargs["free"]))
    for key, val in kwargs[""].items():
        if isinstance(getattr(cfg, key), tuple) and not isinstance(val, tuple):
            val = tuple(val) if isinstance(val, (list, np.ndarray)) else (val,)
        if key in _INTEGER_KEYS:
            val = tuple(map(_as_int, val)) if isinstance(val, tuple) else _as_int(val)
        setattr(cfg, key, val)
    return cfg


def _write_report(out: Path, payload: dict) -> None:
    """report.json, with non-finite numbers as null (:func:`uclab.verifier.to_json`)."""
    from uclab.verifier import to_json

    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(to_json(payload, indent=2) + "\n")


def cmd_constants(cfg: ExperimentConfig, out: Path) -> int:
    rep = sampling_report(cfg.model, cfg.free, energy=cfg.energy)
    payload = {"config": cfg.to_dict(), "report": rep.to_dict()}
    _write_report(out, payload)
    if rep.out_of_range:
        flag = f"  [inadmissible: {rep.out_of_range} leaves the double range]"
    else:
        flag = "" if rep.admissible else "  [inadmissible: epsilon <= 0]"
    print(f"epsilon = {rep.epsilon:.6g}{flag}")
    print(f"T = {rep.T}")
    if rep.admissible:
        print(f"log_c_sfuc = {rep.log_c_sfuc:.6e}")
        print(f"log_c_quc  = {rep.log_c_quc:.6e}")
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    from uclab.verifier import (
        benchmark_configs,
        verify_equidistribution,
        write_records_jsonl,
        write_summary_csv,
    )

    configs = benchmark_configs(
        ds=cfg.ds, norm_Vs=cfg.norm_Vs, bcs=cfg.bcs, L_over_Gs=cfg.L_over_Gs,
        delta_over_Gs=cfg.deltas_over_G, seeds=cfg.seeds, G=cfg.model.G,
        h_per_G=cfg.h_per_G,
    )
    records = verify_equidistribution(
        configs, cfg.free, dump_dir=(out / "eigenpairs") if cfg.dump_eigenpairs else None
    )
    write_records_jsonl(out / "records.jsonl", records, config=cfg.to_dict())
    write_summary_csv(out / "summary.csv", records)
    worst = min(records, key=lambda r: r.margin)
    _write_report(out, {
        "config": cfg.to_dict(),
        "n_records": len(records),
        "min_margin": worst.margin,
        "worst_record": worst.to_dict(),
    })
    print(f"{len(records)} records, min margin {worst.margin:.6g}")
    if worst.margin <= 0.0:
        print(
            f"FAIL: margin <= 0 for record (kind={worst.psi_kind}, d={worst.d}, "
            f"bc={worst.bc}, L={worst.L}, delta={worst.delta}, seed={worst.seed})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    from uclab.geometry import CubeDomain
    from uclab.verifier import delta_sweep

    model = replace(cfg.model, d=cfg.ds[0])
    dom = CubeDomain(model.d, model.L, model.G / cfg.h_per_G, "periodic")
    psi = np.ones(dom.shape)
    deltas_over_G = cfg.deltas_over_G if len(cfg.deltas_over_G) > 1 else _SWEEP_DELTAS
    deltas = [dg * model.G for dg in deltas_over_G]
    res = delta_sweep(
        psi, dom, model.G, deltas, model, cfg.free,
        seq_mode="uniform_random", seq_seeds=cfg.seeds,
    )
    _write_report(out, {
        "config": cfg.to_dict(),
        "slope": res.slope,
        "intercept": res.intercept,
        "r_squared": res.r_squared,
        "exponent_bound": res.exponent_bound,
        "deltas": res.deltas,
        "ratios": res.ratios,
    })
    with open(out / "plot.csv", "w") as fh:
        fh.write("delta,ratio,log_bound\n")
        for dd, rr in zip(res.deltas, res.ratios):
            lb = log_c_sfuc(replace(model, delta=dd), cfg.free)
            fh.write(f"{dd},{rr},{lb}\n")
    ok = res.slope_in_bracket(model.d) and res.r_squared >= 0.99 and not res.degenerate
    print(f"slope {res.slope:.4f} (floor {model.d}, cap {res.exponent_bound:.4g}), "
          f"R^2 {res.r_squared:.6f}")
    if not ok:
        print("FAIL: sweep slope outside bracket or degenerate fit", file=sys.stderr)
        return 1
    return 0


def cmd_carleman_check(cfg: ExperimentConfig, out: Path) -> int:
    from uclab.carleman import carleman_trial
    from uclab.verifier import write_rows_jsonl

    rows = []
    worst_by_h: dict[float, float] = {}
    for h in cfg.grids:
        for i in range(cfg.trials):
            for d in cfg.ds:
                rec = carleman_trial(
                    cfg.seeds[0] + i, d, h,
                    rho=cfg.rho, mu=cfg.mu, alpha_mult=cfg.alpha_mult,
                )
                rows.append(rec)
                # np.maximum keeps a NaN ratio, which fails the gate below
                worst_by_h[h] = float(np.maximum(worst_by_h.get(h, 0.0), rec["ratio"]))
    allowed = {h: 1.0 + 10.0 * h for h in worst_by_h}  # discretization slack
    write_rows_jsonl(out / "records.jsonl", rows, config=cfg.to_dict())
    with open(out / "summary.csv", "w") as fh:
        fh.write("h,worst_ratio,allowed\n")
        for h in sorted(worst_by_h, reverse=True):
            fh.write(f"{h},{worst_by_h[h]},{allowed[h]}\n")
    _write_report(out, {"config": cfg.to_dict(),
                        "worst_by_h": {str(k): v for k, v in worst_by_h.items()}})
    bad = [(h, w) for h, w in worst_by_h.items() if not w <= allowed[h]]
    for h in sorted(worst_by_h, reverse=True):
        print(f"h={h:.6g}: worst ratio {worst_by_h[h]:.3e} "
              f"(allowed {allowed[h]:.4f})")
    if bad:
        print(f"FAIL: ratio exceeded tolerance at h={bad[0][0]}", file=sys.stderr)
        return 1
    return 0


def cmd_cacciopoli_check(cfg: ExperimentConfig, out: Path) -> int:
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
            print(f"config error: field_file={cfg.field_file!r} has h={dom.h:.4g}; "
                  f"the fattened annulus needs 2h < 0.1 L = {0.1 * L:.4g}", file=sys.stderr)
            return 2
        sl = eigensolve(assemble(fld), count=1, seed=cfg.seeds[0])
        psi = sl.grid_vector(0)
    else:
        L, h = cfg.model.L, cfg.model.G / cfg.h_per_G
        d = cfg.ds[0]
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
    _write_report(out, {"config": cfg.to_dict(), "check": res})
    print(f"lhs {res['lhs']:.6g} <= rhs {res['rhs']:.6g}: {res['holds']}; "
          f"min C' {res['min_cprime']:.4g}")
    return 0 if res["holds"] else 1


def cmd_extend_check(cfg: ExperimentConfig, out: Path) -> int:
    from uclab.discretization import assemble, extension_check
    from uclab.fields import load_field, synthesize_dir_cross_field, synthesize_random_field
    from uclab.geometry import CubeDomain
    from uclab.spectral import eigensolve

    loaded = load_field(cfg.field_file) if cfg.field_file is not None else None
    dom = loaded.domain if loaded is not None else CubeDomain(
        cfg.ds[0], cfg.model.L, cfg.model.G / cfg.h_per_G, "dirichlet"
    )

    def field(seed: int):
        theta1 = 1.0 + 0.5 * (1 + seed % 3) / 3
        if dom.d == 1:  # criterion 6's d = 1 field: a variable diagonal A
            return synthesize_random_field(seed, dom, theta1, 1.0 + 0.3 * (seed % 3))
        return synthesize_dir_cross_field(seed, dom, theta1=theta1)

    try:  # the d = 1 field's Lipschitz target needs a fine enough grid
        flds = [loaded if loaded is not None else field(seed) for seed in cfg.seeds]
    except ValueError as exc:
        print(f"config error: h_per_G={cfg.h_per_G} is too coarse for the field: {exc}",
              file=sys.stderr)
        return 2
    worst = {"interface_jump_rel": 0.0, "residual": -math.inf}
    for seed, fld in zip(cfg.seeds, flds):
        sl = eigensolve(assemble(fld), count=2, seed=seed)
        res = extension_check(fld, sl.grid_vector(0), float(sl.eigenvalues[0]))
        worst = {k: float(np.maximum(worst[k], res[k])) for k in worst}  # keeps a NaN
    _write_report(out, {"config": cfg.to_dict(), "worst": worst})
    ok = worst["interface_jump_rel"] <= 1.0 and worst["residual"] <= 1e-8
    print(f"extension interface jump {worst['interface_jump_rel']:.3f} of "
          f"allowance, residual excess {worst['residual']:.3g}")
    return 0 if ok else 1


def cmd_weight(cfg: ExperimentConfig, out: Path) -> int:
    from uclab.carleman import WeightFunction, phi

    rho = cfg.rho if cfg.rho is not None else 1.0
    mu = cfg.mu if cfg.mu is not None else 1.0
    d = cfg.ds[0]
    wf = WeightFunction(rho=rho, mu=mu, A0=np.eye(d), theta1=cfg.model.theta1)
    rs = np.linspace(0.0, math.sqrt(cfg.model.theta1), 201)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.csv", "w") as fh:
        fh.write("r,phi\n")
        for r, p in zip(rs, phi(rs, mu)):
            fh.write(f"{r},{p}\n")
    rng = np.random.default_rng(cfg.seeds[0])
    pts = rng.uniform(-rho, rho, size=(4000, d))
    slacks = wf.bound_slacks(pts)
    _write_report(out, {"config": cfg.to_dict(), "bound_slacks": slacks})
    print(f"weight bound slacks: lower {slacks['lower']:.3e} "
          f"upper {slacks['upper']:.3e}")
    # a NaN outer floor (no sample beyond sqrt(theta1) rho/mu) passes
    ok = (slacks["lower"] >= -1e-10 and slacks["upper"] >= -1e-10
          and not slacks["outer_floor"] < -1e-10)
    return 0 if ok else 1


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

# subcommand -> (function, the flags it takes besides --config and --out)
_COMMANDS = {
    "constants": (cmd_constants, ()),
    "verify": (cmd_verify, ("--seed", "--h", "--dump-eigenpairs")),
    "sweep": (cmd_sweep, ("--seed", "--h")),
    "carleman-check": (cmd_carleman_check, (
        "--seed", "--d", "--grid", "--rho", "--mu", "--alpha-mult", "--trials")),
    "cacciopoli-check": (cmd_cacciopoli_check, ("--seed", "--h", "--field-file")),
    "extend-check": (cmd_extend_check, ("--seed", "--h", "--field-file")),
    "weight": (cmd_weight, ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uclab",
        description="Numerical laboratory for unique-continuation and "
                    "equidistribution estimates of elliptic operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
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
            ratio = cfg.model.G / h if h > 0.0 else 0.0
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(f"h_per_G: h={h} does not divide model.G={cfg.model.G}")
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
    return _COMMANDS[command][0](cfg, out)


if __name__ == "__main__":
    sys.exit(main())
