"""End-to-end observability experiments: one solve per field, one
measurement per config.

:func:`solve_field` builds a field, its operator and its lowest eigenpairs,
shared by the configs with the same ``field_key``.  :func:`run_trial` draws a
ball placement and two solutions on that solve (an eigenfunction and a
spectral-projector sample) and compares the mass fraction they put on the
union of delta-balls with the theoretical lower bound at the same parameters.
:func:`verify_equidistribution` runs configs on one solve per field key, in
a dict the caller may pass and read.  ``uclab.cli`` writes a run's files.

The bounds underflow double precision by design (their logs reach -1e6), so
records carry only their natural log ``log_bound``.  A record derives its
margin, the log headroom ``log(ratio) - log_bound`` on the ball mass alone
(``-inf`` when the ratio is zero), which is positive exactly when the ratio
clears the bound and says by how many e-folds it does.  It also derives the
residual term ``delta^2 G^2 ||zeta||^2``, reported separately so trials
where it dominates the left-hand side are distinguishable from genuine ball
mass.  Records are reproducible bit for bit from (config, seed): the
eigensolve, the projector sample and :func:`placement_gram` run their BLAS
products on one thread, so with OpenBLAS the bytes do not depend on
``OPENBLAS_NUM_THREADS``.

A grid function is checked once, where it enters a record or a delta sweep:
its squared norm on the whole cube must be finite and nonzero.  A trial
gathers the rows of its solved slice V in the covered cells S of its one
placement (:func:`~uclab.geometry.ball_cells`) once, into the k x k matrix
M = V_S^* V_S (:func:`placement_gram`).  A record's ``ratio`` is the
Rayleigh quotient of M at psi's coefficients in the slice basis, and
``worst_ratio``, the smallest one over the span of the energy window, is the
lowest eigenvalue of the window's minor of M, which no choice of basis
inside a degenerate eigenspace moves.  A delta sweep measures many
placements of one grid function instead: it squares the function once, into
one :func:`mass_prefix` table and its total, and at each delta reads each
placement's mass from the table over its own runs.  The runs of all that
delta's placements come from one :func:`~uclab.geometry.ball_runs` pass,
kept as a run table of prefix-table indices.  The table depends on the
placements, which are values, and the grid's d, L and h, not on psi or the
boundary condition: the last ``RUN_TABLE_CACHE_SIZE`` tables are kept by
that key, and another grid function swept on the same placements searches
no runs.  So a sweep costs one pass over the grid per grid function and at
most one run search per delta, not one per placement.  A table holds 17 bytes
per run (two intp indices and a flag): 1.2 MB for 4 placements of 27 balls
of radius 14.4 cells on a 96**3 grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from uclab.constants import (
    FreeConstants,
    ModelParams,
    c_sfuc_exponent,
    cacciopoli_gradient_term,
    cacciopoli_prefactor,
    is_finite,
    log_c_sfuc,
    log_gamma_window,
    scale_parameters,
    window_tolerance,
)
from uclab.discretization import DiscreteOperator, assemble, residual_inequality_check
from uclab.fields import (
    CoefficientField,
    _bounded_potential,
    _require_finite,
    constant_spd_field,
    periodic_gradient,
    periodic_gradient_energy,
)
from uclab.geometry import (
    CubeDomain,
    EquidistributedSequence,
    abs_sq,
    ball_cells,
    ball_runs,
    generate_sequence,
    mask,
)
from uclab.spectral import SpectrumSlice, _one_blas_thread, eigensolve, projector_sample

__all__ = [
    "ObservabilityRecord",
    "TrialConfig",
    "mass_prefix",
    "observability_ratio",
    "placement_gram",
    "worst_ratio",
    "benchmark_field",
    "solve_field",
    "run_trial",
    "benchmark_configs",
    "verify_equidistribution",
    "SweepResult",
    "delta_sweep",
    "scaling_identity",
    "annulus_fits",
    "cacciopoli_check",
]

_SUITE_ENTROPY = 743829124
EIGEN_COUNT = 6  # lowest eigenpairs solved per benchmark field
THETA1_RANGE = (1.0, 1.4)  # benchmark fields draw theta1 uniformly from it
RUN_TABLE_CACHE_SIZE = 16  # run tables kept: one sweep's deltas (9 in perfbench, 5 in the CLI)

# what solve_field returns: the field, its operator and the eigenpair slice
Solve = tuple[CoefficientField, DiscreteOperator, SpectrumSlice]


@dataclass(frozen=True)
class ObservabilityRecord:
    """One experiment: measured ball fraction against the theoretical bound.

    It derives ``margin``, ``zeta_term`` and ``zeta_dominates`` from its
    other fields.  A projector sample's three ``zeta`` fields read the
    eigensolver's residual: its window members agree with E to
    1e-8 (1 + |E|), and ||zeta||^2 <= 7.4e-24 on all 160 criterion-7 samples.
    An inequality pair reads its eigenvector's in ``residual_norm_sq``,
    ||(H - E) psi||^2 / ||psi||^2, which is NaN for a projector sample."""

    psi_kind: str
    d: int
    bc: str
    G: float
    delta: float
    L: float
    h: float
    theta1: float
    theta2: float
    norm_V: float
    energy: float
    eigen_index: int
    seed: int
    ratio: float
    worst_ratio: float
    log_bound: float
    margin: float = field(init=False)
    zeta_norm_sq: float
    zeta_term: float = field(init=False)
    zeta_dominates: bool = field(init=False)
    residual_violation: float
    residual_norm_sq: float
    log_gamma: float = math.nan
    free_constants: dict = field(default_factory=dict)

    def __post_init__(self):
        ratio = self.ratio
        margin = math.log(ratio) - self.log_bound if ratio > 0.0 else -math.inf
        zeta_term = self.delta**2 * self.G**2 * self.zeta_norm_sq
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "zeta_term", zeta_term)
        object.__setattr__(self, "zeta_dominates", bool(zeta_term > ratio))

    def to_dict(self) -> dict:
        out = {}
        for k, v in asdict(self).items():
            if k == "free_constants":
                for kk, vv in v.items():
                    out[f"fc.{kk}"] = vv
            elif isinstance(v, (np.floating, np.integer)):
                out[k] = v.item()
            else:
                out[k] = v
        return out


@dataclass(frozen=True)
class TrialConfig:
    """Benchmark trial: constant-A field, random bounded potential."""

    d: int
    bc: str
    L_over_G: int
    norm_V: float
    delta_over_G: float
    seed: int
    G: float = 1.0
    h_per_G: int = 32

    @property
    def L(self) -> float:
        return self.L_over_G * self.G

    @property
    def h(self) -> float:
        return self.G / self.h_per_G

    @property
    def delta(self) -> float:
        return self.delta_over_G * self.G

    def field_key(self) -> tuple:
        """Everything the field and its solve depend on (not delta)."""
        return (self.d, self.bc, self.L_over_G, self.norm_V, self.seed,
                self.G, self.h_per_G)

    def int_key(self) -> tuple[int, ...]:
        """Integer-only key for seed-sequence spawning."""
        return (
            self.d,
            0 if self.bc == "dirichlet" else 1,
            self.L_over_G,
            int(round(self.norm_V * 64)),
            self.seed,
            int(round(self.G * 1024)),
            self.h_per_G,
        )


def _checked_norm_sq(total: float) -> float:
    """psi's squared norm on the whole cube, or its cell sum, checked to be finite and > 0."""
    if not is_finite(total):
        raise ValueError(f"psi must be finite, got squared norm {total}")
    if total == 0.0:
        raise ValueError("zero grid function has no observability ratio")
    if total < 0.0:
        raise ValueError(f"psi's squared norm must be > 0, got {total}")
    return total


def mass_prefix(
    psi: np.ndarray, domain: CubeDomain, G: float
) -> tuple[np.ndarray, float]:
    """Row prefix sums of ``|psi|^2``, restarted at each G-cell block, and
    their total over the whole cube, from one squaring of psi.

    The table has shape ``(n**(d-1), m, c)`` with ``m = L/G`` blocks of
    ``c = G/h`` cells along the last axis: entry ``[r, j, k]`` is the mass
    of the first ``k + 1`` cells of block ``j`` of grid row ``r``, so it
    lies in memory as psi's cells do.  Restarting per block keeps the
    cancellation in a difference of two entries to ``c`` cells.  Table and
    total are in cell units, sums of |psi|^2: the cell volume ``h^d``
    cancels in a ratio, which must take its total from this same call.  The
    squares and their prefix sums take one grid of memory in turn.
    """
    psi = np.asarray(psi)
    if psi.shape != domain.shape:
        raise ValueError("grid function shape mismatch")
    c = domain.block_cells(G)
    dens = abs_sq(psi)
    total = float(np.sum(dens))
    prefix = dens.reshape(-1, domain.n // c, c)
    np.cumsum(prefix, axis=-1, out=prefix)
    return prefix, total


@dataclass(frozen=True, eq=False)
class RunTable:
    """Where a placement stack's runs read a :func:`mass_prefix` table.

    Run ``k`` adds the flat entry ``last[k]``, of its last cell, less the
    entry ``before[k]``, of the cell before its first, when ``inner[k]``;
    a run that starts its G-block adds ``last[k]`` alone.  Placement ``i``
    sums runs ``ends[i]:ends[i + 1]`` in order.  Every array is read-only."""

    last: np.ndarray
    before: np.ndarray
    inner: np.ndarray
    ends: np.ndarray


@functools.lru_cache(maxsize=RUN_TABLE_CACHE_SIZE)
def _run_table(seqs: tuple[EquidistributedSequence, ...], d: int, L: float, h: float) -> RunTable:
    """The :class:`RunTable` of one :func:`~uclab.geometry.ball_runs` pass on
    the grid of d, L and h, kept for the last ``RUN_TABLE_CACHE_SIZE`` keys."""
    domain = CubeDomain(d, L, h)
    placement, rows, lo, hi = ball_runs(seqs, domain)
    # cell i of grid row r sits at flat index r*n + i; the indices stay intp,
    # which numpy gathers by without a cast
    start = rows * domain.n
    table = RunTable(
        last=start + hi - 1,
        before=start + lo - 1,
        inner=lo % domain.block_cells(seqs[0].G) != 0,
        ends=np.searchsorted(placement, np.arange(len(seqs) + 1)),
    )
    for array in vars(table).values():
        array.flags.writeable = False
    return table


def observability_ratio(
    prefix: np.ndarray,
    seqs: Sequence[EquidistributedSequence],
    domain: CubeDomain,
    total: float,
) -> np.ndarray:
    """Mass fraction of psi captured by the union of the delta-balls of each
    placement in ``seqs``, a stack that shares G, delta, L and d, from
    psi's :func:`mass_prefix` table and ``total``, that same call's total,
    finite and > 0.  The stack's :class:`RunTable` comes from one
    :func:`~uclab.geometry.ball_runs` pass, or from the tables kept for
    the last ``RUN_TABLE_CACHE_SIZE`` stacks.  Each run of covered cells adds
    the difference of two entries of its block's prefix row, and each
    placement sums its own runs in their one-placement order, so its ratio
    has the bits it has when measured alone."""
    if not seqs:
        raise ValueError("need at least one placement")
    c = domain.block_cells(seqs[0].G)
    if prefix.shape != (domain.n ** (domain.d - 1), seqs[0].cells_per_axis, c):
        raise ValueError("prefix table does not match the sequence's G-blocks")
    _checked_norm_sq(total)
    table = _run_table(tuple(seqs), domain.d, domain.L, domain.h)
    flat = prefix.reshape(-1)
    mass = flat[table.last]
    np.subtract(mass, flat[table.before], out=mass, where=table.inner)
    return np.array([mass[a:b].sum() for a, b in itertools.pairwise(table.ends)]) / total


@_one_blas_thread()
def placement_gram(vectors: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """M = V_S^* V_S for the l2-orthonormal columns V of ``vectors`` and their
    rows V_S in the cells S, sorted flat indices (:func:`~uclab.geometry.ball_cells`):
    for psi = V c the mass fraction captured by S is c^* M c / |c|^2."""
    inside = vectors[cells]
    return inside.conj().T @ inside


def worst_ratio(gram: np.ndarray) -> float:
    """Smallest mass fraction over the span behind a :func:`placement_gram`
    or a principal minor of one: its lowest eigenvalue, basis-independent."""
    return float(np.linalg.eigvalsh(gram)[0])


def benchmark_field(tc: TrialConfig) -> CoefficientField:
    """Constant elliptic matrix plus an i.i.d. bounded potential, seeded."""
    ss = np.random.SeedSequence(entropy=_SUITE_ENTROPY, spawn_key=tc.int_key())
    rng = np.random.default_rng(ss)
    dom = CubeDomain(tc.d, tc.L, tc.h, tc.bc)
    lo, hi = THETA1_RANGE
    theta1 = lo + (hi - lo) * rng.random()
    A = constant_spd_field(int(rng.integers(2**31)), dom, theta1)
    return CoefficientField(
        domain=dom, A=A,
        b=np.zeros((1,) * tc.d + (tc.d,)),
        c=np.zeros((1,) * tc.d),
        V=_bounded_potential(rng, tc.norm_V, dom.shape),
        declared_theta1=theta1,
        declared_theta2=0.0,
    )


def solve_field(tc: TrialConfig) -> Solve:
    """The benchmark field of ``tc``, its operator and its lowest
    ``EIGEN_COUNT`` eigenpairs (depends on ``tc.field_key()`` only)."""
    fld = benchmark_field(tc)
    H = assemble(fld)
    return fld, H, eigensolve(H, count=EIGEN_COUNT, seed=tc.seed)


def run_trial(
    tc: TrialConfig,
    solved: Solve,
    fc: FreeConstants = FreeConstants(),
) -> list[ObservabilityRecord]:
    """Inequality-pair and projector-sample records of one config, measured
    on ``solved = solve_field(tc)``."""
    fld, H, sl = solved
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=_SUITE_ENTROPY + 1,
            spawn_key=tc.int_key() + (int(round(tc.delta_over_G * 1024)),),
        )
    )
    seq = generate_sequence(
        tc.G, tc.delta, tc.L, tc.d, "uniform_random", seed=int(rng.integers(2**31))
    )

    # the energy window about the drawn eigenvalue: slice members within
    # the spectral half-width exp(lg) or, where that underflows, the
    # numerical degeneracy tolerance
    idx = int(rng.integers(0, min(4, len(sl))))
    E = float(sl.eigenvalues[idx])
    p = ModelParams(
        d=tc.d, theta1=fld.declared_theta1, theta2=fld.declared_theta2, norm_V=tc.norm_V,
        G=tc.G, delta=tc.delta, L=tc.L,
    )
    lg = log_gamma_window(p, fc, E)
    members = np.flatnonzero(np.abs(sl.eigenvalues - E) <= window_tolerance(lg, E))
    gram = placement_gram(sl.eigenvectors, ball_cells(seq, fld.domain))
    window_gram = gram[np.ix_(members, members)]
    window_worst = worst_ratio(window_gram)

    # Rayleigh quotients of the gram: eigenvector idx against V, a window draw against E
    coeffs = rng.standard_normal(len(members))
    paths = (
        ("inequality_pair", sl.grid_vector(idx), gram[idx, idx].real, fld.V,
         log_c_sfuc(p, fc), math.nan),
        ("projector_sample", projector_sample(sl.select(members), coeffs),
         (coeffs @ window_gram @ coeffs).real / (coeffs @ coeffs),
         E, log_c_sfuc(p, fc, energy=E) - math.log(2.0), lg),
    )
    records = []
    for kind, psi, ratio, compare, log_bound, log_gamma in paths:
        op_psi = H.apply(psi)
        zeta = op_psi - compare * psi
        viol = residual_inequality_check(psi, compare, np.abs(zeta), op_psi)
        total = _checked_norm_sq(fld.domain.norm_sq(psi))
        residual_sq = (fld.domain.norm_sq(op_psi - E * psi) / total
                       if kind == "inequality_pair" else math.nan)
        records.append(ObservabilityRecord(
            psi_kind=kind, d=tc.d, bc=tc.bc, G=tc.G, delta=tc.delta, L=tc.L, h=tc.h,
            theta1=fld.declared_theta1, theta2=fld.declared_theta2, norm_V=tc.norm_V,
            energy=E, eigen_index=idx, seed=tc.seed, ratio=float(ratio),
            worst_ratio=window_worst, log_bound=float(log_bound),
            zeta_norm_sq=float(fld.domain.norm_sq(zeta) / total),
            residual_violation=float(viol), residual_norm_sq=float(residual_sq),
            log_gamma=float(log_gamma),
            free_constants=asdict(fc),
        ))
    return records


def benchmark_configs(
    ds: Sequence[int] = (1, 2),
    norm_Vs: Sequence[float] = (0.0, 1.0),
    bcs: Sequence[str] = ("dirichlet", "periodic"),
    L_over_Gs: Sequence[int] = (3, 5),
    delta_over_Gs: Sequence[float] = (0.125, 0.25),
    seeds: Sequence[int] = range(5),
    G: float = 1.0,
    h_per_G: int = 32,
) -> list[TrialConfig]:
    return [
        TrialConfig(d=d, bc=bc, L_over_G=lg, norm_V=nv, delta_over_G=dg,
                    seed=seed, G=G, h_per_G=h_per_G)
        for d, nv, bc, lg, dg, seed in itertools.product(
            ds, norm_Vs, bcs, L_over_Gs, delta_over_Gs, seeds)
    ]


def verify_equidistribution(
    configs: Iterable[TrialConfig],
    fc: FreeConstants = FreeConstants(),
    solves: Optional[dict] = None,
) -> list[ObservabilityRecord]:
    """Run every config in order on one :func:`solve_field` per field key.

    Records come out in configuration order and are reproducible bit for bit.
    ``solves`` maps ``field_key()`` to its :data:`Solve`: an entry given is
    used as it is, and each new key is added in order of first appearance.
    """
    solves = {} if solves is None else solves
    records: list[ObservabilityRecord] = []
    for tc in configs:
        key = tc.field_key()
        if key not in solves:
            solves[key] = solve_field(tc)
        records.extend(run_trial(tc, solves[key], fc))
    return records


@dataclass(frozen=True)
class SweepResult:
    slope: float
    intercept: float
    r_squared: float
    exponent_bound: float
    deltas: list
    ratios: list
    degenerate: bool

    def slope_in_bracket(self, d: int, fit_tol: float = 0.02) -> bool:
        return d * (1.0 - fit_tol) <= self.slope <= self.exponent_bound


def _ols_loglog(deltas: np.ndarray, ratios: np.ndarray) -> tuple[float, float, float]:
    x = np.log(deltas)
    y = np.log(ratios)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def delta_sweep(
    psi: np.ndarray,
    domain: CubeDomain,
    G: float,
    deltas: Sequence[float],
    p: ModelParams,
    fc: FreeConstants = FreeConstants(),
    seq_mode: str = "centered",
    seq_seeds: Sequence[int] = (0,),
) -> SweepResult:
    """Fit log(ratio) against log(delta) for a fixed grid function.

    Ratios are averaged over the sequence seeds at each delta before the
    ordinary-least-squares fit.  The theoretical exponent upper-bounds the
    vanishing order; the mask-volume floor is the dimension.  ``p`` holds
    the swept cube's d, G and L.
    """
    if (p.d, p.G, p.L) != (domain.d, G, domain.L):
        raise ValueError(f"model (d, G, L) = {(p.d, p.G, p.L)} is not the swept "
                         f"cube's {(domain.d, G, domain.L)}")
    if len(set(deltas)) < 4:  # fewer distinct values leave the fit rank deficient
        raise ValueError(f"need at least 4 distinct delta values, got {list(deltas)}")
    if len(seq_seeds) == 0:
        raise ValueError("need at least one sequence seed")
    prefix, total = mass_prefix(psi, domain, G)
    _checked_norm_sq(total)
    ratios = []
    degenerate = False
    for delta in deltas:
        seqs = [generate_sequence(G, delta, domain.L, domain.d, seq_mode, seed=s)
                for s in seq_seeds]
        r = float(np.mean(observability_ratio(prefix, seqs, domain, total)))
        if not r > 0.0:  # zero, or NaN
            degenerate = True
        ratios.append(r)
    expo = c_sfuc_exponent(p, fc)
    if degenerate:
        return SweepResult(math.nan, math.nan, math.nan, expo,
                           list(deltas), ratios, True)
    slope, intercept, r2 = _ols_loglog(np.asarray(deltas), np.asarray(ratios))
    return SweepResult(slope, intercept, r2, expo, list(deltas), ratios, False)


def scaling_identity(seed: int, d: int, G: float, delta: float) -> dict:
    """Norm and constant sides of the rescaling identity on commensurate
    grids (a periodic cube of side 3G, 16 cells per G, default free
    constants): the mask is index-identical, so the defect is pure float
    bookkeeping of the cell volumes."""
    L = 3 * G
    h = G / 16
    dom = CubeDomain(d, L, h, "periodic")
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dom.shape)
    seq = generate_sequence(G, delta, L, d, "uniform_random", seed=seed)
    m = mask(seq, dom)
    mass = dom.norm_sq(psi, where=m)
    dom_scaled = CubeDomain(d, L / G, h / G, "periodic")
    mass_scaled = dom_scaled.norm_sq(psi, where=m)
    norm_defect = abs(mass - G**d * mass_scaled) / max(mass, 1e-300)

    p = ModelParams(d=d, theta1=1.0, theta2=0.0, G=G, delta=delta, L=L)
    fc = FreeConstants()
    la = log_c_sfuc(p, fc)
    lb = log_c_sfuc(scale_parameters(p), fc)
    return {
        "norm_defect": float(norm_defect),
        "constant_log_diff": abs(la - lb),
        "mass": float(mass),
    }


def annulus_fits(L: float, h: float, r2: float, r: float) -> bool:
    """Whether the annulus of outer radius ``r2``, fattened by ``r``, stays
    two cells inside the cube of side ``L``: r2 + r + 2h < L/2."""
    return r2 + r + 2.0 * h < L / 2.0


def cacciopoli_check(
    psi: np.ndarray,
    fld: CoefficientField,
    r1: float,
    r2: float,
    r: float,
    zeta: Optional[np.ndarray] = None,
    cprime: float = 1.0,
) -> dict:
    """Gradient energy over an annulus against the prefactor times the mass
    of the fattened annulus (plus the residual term).

    Reports both sides and the smallest constant that would make the
    inequality hold, as a diagnostic for the configured choice.  Raises a
    ValueError naming ``psi`` or ``zeta`` when it is off the field's grid
    or not finite, and naming the radii unless 0 <= r1 < r2.
    """
    dom = fld.domain
    for name, u in (("psi", psi), ("zeta", zeta)):
        if u is None:  # no residual term
            continue
        if np.shape(u) != dom.shape:
            raise ValueError(f"{name} has shape {np.shape(u)}, not the field's grid {dom.shape}")
        _require_finite(name, u)
    if not 0.0 <= r1 < r2:
        raise ValueError(f"the annulus needs 0 <= r1 < r2, got r1={r1}, r2={r2}")
    if not annulus_fits(dom.L, dom.h, r2, r):
        raise ValueError("fattened annulus must stay inside the cube")
    s = dom.center_radius()
    S = (s > r1) & (s < r2)
    S_plus = (s > max(r1 - r, 0.0)) & (s < r2 + r)
    energy = periodic_gradient_energy(periodic_gradient(psi, dom.h), fld.A)
    lhs = dom.cell_volume * float(energy[S].sum())
    mass_plus = dom.norm_sq(psi, where=S_plus)
    zeta_plus = 0.0 if zeta is None else 2.0 * dom.norm_sq(zeta, where=S_plus)
    cac = cacciopoli_prefactor(
        r, fld.norm_V, fld.norm_b, fld.norm_c, fld.declared_theta1, cprime
    )
    rhs = cac * mass_plus + zeta_plus
    base = cacciopoli_prefactor(
        r, fld.norm_V, fld.norm_b, fld.norm_c, fld.declared_theta1, cprime=0.0
    )
    grad_coeff = cacciopoli_gradient_term(r, fld.declared_theta1)
    min_cprime = (lhs - zeta_plus - base * mass_plus) / (grad_coeff * mass_plus) \
        if mass_plus > 0 else math.nan
    return {
        "lhs": lhs,
        "rhs": rhs,
        "prefactor": cac,
        "holds": bool(lhs <= rhs),
        "min_cprime": float(min_cprime),
    }
