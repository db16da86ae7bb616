"""Explicit constants of the quantitative unique-continuation estimates.

Every function is a pure evaluation of a printed formula: admissibility
margins, the Carleman weight parameters (mu, mu1, rho), the Carleman constant
and admissible exponent floor, Cacciopoli prefactors, the local
mass-fraction constant ``C_qUC`` with its exponent budget ``alpha_star``, the
scale-free sampling constant ``C_sfUC`` and the spectral half-width ``gamma``.

The local (vanishing-order) formulas take their R, D0, K_V and beta as a
:class:`LocalGeometry`, which the sampling route derives once
(:func:`sampling_geometry`) and any other caller builds itself.

The tiny constants underflow double precision for realistic parameters (their
natural logs reach -1e9), so each one is computed and reported only as its
natural log.  Dimension-dependent prefactors the theory leaves abstract are
exposed in :class:`FreeConstants`; all claims are relative to a choice of
those.

``log_c_sfuc``/``log_gamma_window`` are written so that the length scale ``G``
enters only through the products ``G*theta2``, ``G*norm_b``, ``G^2*norm_c``,
``G^2*norm_V`` and the ratio ``delta/G``.  Rescaling to unit cell size with
:func:`scale_parameters` therefore reproduces them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter
from typing import Optional

__all__ = [
    "ModelParams",
    "FreeConstants",
    "LocalGeometry",
    "UcConstantReport",
    "sampling_radius",
    "sampling_geometry",
    "sampling_epsilon",
    "local_epsilon",
    "side_length_T",
    "carleman_mu_rho",
    "carleman_mu_floor",
    "mu_one",
    "carleman_constants",
    "cacciopoli_prefactor",
    "alpha_star",
    "log_c_quc",
    "log_c_quc_lower_bound",
    "log_c_sfuc",
    "c_sfuc_exponent",
    "log_gamma_window",
    "scale_parameters",
    "sampling_report",
]

EULER = math.e


def _require_finite(obj) -> None:
    """Reject NaN and +/-inf in any dataclass field, naming the field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters of the elliptic operator and the sampling geometry.

    The local estimate's R, D0, K_V and beta are not among them: they are a
    :class:`LocalGeometry`, which the sampling route derives from these
    parameters (:func:`sampling_geometry`).
    """

    d: int
    theta1: float = 1.0
    theta2: float = 0.0
    norm_V: float = 0.0
    norm_b: float = 0.0
    norm_c: float = 0.0
    G: float = 1.0
    delta: float = 0.25
    L: float = 3.0

    def __post_init__(self):
        _require_finite(self)
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError("dimension must be a positive integer")
        if self.theta1 < 1.0:
            raise ValueError("ellipticity constant must be >= 1")
        if self.theta2 < 0.0:
            raise ValueError("Lipschitz constant must be >= 0")
        for name in ("norm_V", "norm_b", "norm_c"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.G <= 0.0 or self.delta <= 0.0 or self.L <= 0.0:
            raise ValueError("G, delta and L must be positive")


@dataclass(frozen=True)
class LocalGeometry:
    """Annulus radius R, distance D0, potential bound K_V and norm ratio
    beta of the local (vanishing-order) estimate."""

    R: float
    D0: float
    K_V: float
    beta: float

    def __post_init__(self):
        _require_finite(self)
        if min(self.R, self.D0) <= 0.0 or self.K_V < 0.0 or self.beta < 1.0:
            raise ValueError(f"{self} needs R, D0 > 0, K_V >= 0 and beta >= 1")


@dataclass(frozen=True)
class FreeConstants:
    """Dimension-dependent prefactors the theory does not pin down.

    Defaults are 1.0; every reported bound is relative to this choice.
    """

    K1: float = 1.0
    K2: float = 1.0
    M: float = 1.0
    Cprime: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("K1", "K2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.M < 1.0:
            raise ValueError("cutoff derivative bound M must be >= 1")
        if self.Cprime < 1.0:
            raise ValueError("Cacciopoli constant Cprime must be >= 1")


def _margin(d: int, R: float, theta1: float, t2: float) -> float:
    """1 - 33 e d R theta1^6 t2, shared by every admissibility margin.

    The product is formed in log space, so no factor of it leaves the
    double range on its own: t2 = 0 gives exactly 1.0 for any theta1, and a
    product past the largest double gives -inf, an inadmissible margin.
    """
    if t2 == 0.0:
        return 1.0
    log_product = math.log(33.0 * EULER * d * R) + 6.0 * math.log(theta1) + math.log(t2)
    try:
        return 1.0 - math.exp(log_product)
    except OverflowError:
        return -math.inf


def sampling_radius(d: int) -> float:
    """Annulus radius R = sqrt(d) + 2 of the sampling route, in units of G."""
    return math.sqrt(d) + 2.0


def sampling_geometry(p: ModelParams) -> LocalGeometry:
    """The local estimate's geometry along the sampling route: R the sampling
    radius, D0 = R/2, K_V = norm_V and beta = 2 T^d; in units of G for a
    rescaled ``p`` (:func:`scale_parameters`), as :func:`sampling_report`
    passes it."""
    R = sampling_radius(p.d)
    T = side_length_T(p.d, p.theta1)
    # 2 T^d; float ** and ldexp raise OverflowError past the double range
    beta = math.ldexp(float(T) ** p.d, 1)
    return LocalGeometry(R=R, D0=R / 2.0, K_V=p.norm_V, beta=beta)


def sampling_epsilon(p: ModelParams) -> float:
    """Admissibility margin of the sampling route; <= 0 is a legal flagged
    return, not an error.  G enters only via the product G*theta2 (scaling
    canonical form)."""
    return _margin(p.d, sampling_radius(p.d), p.theta1, p.G * p.theta2)


def local_epsilon(p: ModelParams, geo: LocalGeometry) -> float:
    """Admissibility margin of the local estimate; <= 0 is a legal flagged
    return, not an error."""
    return _margin(p.d, geo.R, p.theta1, p.theta2)


def side_length_T(d: int, theta1: float) -> int:
    """Side length of the comparison window in the dominating-site argument."""
    if theta1 < 1.0:
        raise ValueError("theta1 must be >= 1")
    return math.ceil(2.0 * sampling_radius(d) * (2.0 * EULER * theta1 + 1.0))


def carleman_mu_rho(
    p: ModelParams, geo: LocalGeometry, eps0: float
) -> tuple[float, float, float]:
    """Weight parameters (mu, mu1, rho) used by the local estimate."""
    if eps0 <= 0.0:
        raise ValueError("admissibility margin eps0 must be positive")
    rho = 2.0 * EULER * p.theta1 * geo.R + 2.0 * geo.D0
    mu = carleman_mu_floor(p.d, p.theta1, p.theta2, rho) + rho * eps0 / (
        2.0 * EULER * geo.R * math.sqrt(p.theta1)
    )
    return mu, mu_one(p.theta1, mu), rho


def carleman_mu_floor(d: int, theta1: float, theta2: float, rho: float) -> float:
    """33 d theta1^(11/2) theta2 rho: the weight parameter mu must exceed it."""
    return 33.0 * d * theta1**5.5 * theta2 * rho


def mu_one(theta1: float, mu: float) -> float:
    """Profile distortion bound: exp(sqrt(theta1)*mu) below the knee,
    e*sqrt(theta1)*mu above it."""
    root = math.sqrt(theta1) * mu
    return math.exp(root) if root <= 1.0 else EULER * root


def carleman_constants(
    p: ModelParams, rho: float, mu: float, mu1: float
) -> tuple[float, float]:
    """Upper bounds (C, alpha0) admissible in the weighted inequality."""
    c_mu = mu - carleman_mu_floor(p.d, p.theta1, p.theta2, rho)
    if c_mu <= 0.0:
        raise ValueError("mu must exceed 33*d*theta1^(11/2)*theta2*rho")
    sq = math.sqrt(p.theta1)
    c_tilde = (
        2.0
        * p.d**2
        * p.theta1**8
        * math.exp(4.0 * mu * sq)
        * mu1**4
        * (3.0 * mu**2 + (9.0 * rho * p.theta2 + 3.0) * mu + 1.0)
        / c_mu
    )
    alpha0_tilde = (
        11.0
        * p.d**4
        * p.theta1**16.5
        * math.exp(6.0 * mu * sq)
        * mu1**6
        * (3.0 * rho * p.theta2 + mu + 1.0) ** 2
        * (1.0 + mu * (mu + 1.0) / c_mu)
    )
    C = 6.0 * c_tilde
    alpha0 = max(
        alpha0_tilde,
        C * rho**2 * p.norm_b**2 * p.theta1**1.5,
        C ** (1.0 / 3.0) * rho ** (4.0 / 3.0) * p.norm_c ** (2.0 / 3.0) * sq,
    )
    return C, alpha0


def cacciopoli_prefactor(
    r: float,
    norm_V: float = 0.0,
    norm_b: float = 0.0,
    norm_c: float = 0.0,
    theta1: float = 1.0,
    cprime: float = 1.0,
) -> float:
    """Prefactor of the interior gradient estimate on a fattened annulus."""
    if r <= 0.0:
        raise ValueError("fattening radius r must be positive")
    return (
        2.0 * norm_V**2
        + 1.0
        + 2.0 * norm_b**2
        + 8.0 * theta1**2 * cprime / r**2
        + 2.0 * norm_c
    )


def alpha_star(
    p: ModelParams,
    geo: LocalGeometry,
    fc: FreeConstants,
    carleman_C: float,
    alpha0: float,
    mu: float,
    rho: float,
) -> tuple[float, float, float]:
    """Exponent budget: returns (alpha1, alpha3, alpha_star).

    alpha2 == 1 is implicit in the max.  alpha3 is clamped at 0 when its
    logarithm argument drops below 1 (the max with 1 makes that vacuous).
    """
    gap = rho / (math.sqrt(p.theta1) * EULER * geo.R * mu)
    if gap <= 1.0:
        raise ValueError("rho/(sqrt(theta1)*e*R*mu) must exceed 1 (needs eps0 > 0)")
    alpha1 = (16.0 * rho**4 * carleman_C * geo.K_V**2 * p.theta1**1.5) ** (1.0 / 3.0)
    cac = cacciopoli_prefactor(
        geo.D0 / 2.0, p.norm_V, p.norm_b, p.norm_c, p.theta1, fc.Cprime
    )
    bracket = (
        3.0 * p.theta1**2
        + 3.0 * p.theta1**2 * p.d**2 / (2.0 * EULER * p.theta1 * geo.R) ** 2
        + 3.0 * (p.theta2 * p.d**2 + p.norm_b) ** 2
        + 4.0 * p.theta1 * cac
    )
    log_arg = (
        math.log(8.0 * carleman_C * rho**3 * math.sqrt(p.theta1) * geo.R * geo.beta)
        - 2.0
        - 2.0 * math.log(mu)
        + 4.0 * math.log(fc.M / geo.D0)
        + math.log(bracket)
    )
    alpha3 = max(0.0, log_arg / (2.0 * math.log(gap)))
    a_star = max(alpha0, alpha1, 1.0, alpha3)
    return alpha1, alpha3, a_star


def log_c_quc(
    p: ModelParams,
    geo: LocalGeometry,
    fc: FreeConstants,
    mu1: float,
    rho: float,
    carleman_C: float,
    a_star: float,
) -> float:
    """Natural log of the local mass-fraction constant."""
    if not 0.0 < p.delta < 2.0 * geo.R:
        raise ValueError("delta must lie in (0, 2R)")
    cac = cacciopoli_prefactor(
        p.delta / 2.0, p.norm_V, p.norm_b, p.norm_c, p.theta1, fc.Cprime
    )
    denom = (
        3.0 * p.theta1**2
        + 768.0 * p.theta1**2 * p.d**2 / p.delta**2
        + 3.0 * (p.theta2 * p.d**2 + p.norm_b) ** 2
        + 4.0 * p.theta1 * cac
    )
    log_t1 = (
        math.log(4.0 * mu1**2 * math.sqrt(p.theta1))
        + 2.0 * math.log(p.delta)
        - math.log(3.0 * geo.R * rho * carleman_C * fc.M**4)
        - math.log(denom)
    )
    return log_t1 + 2.0 * a_star * math.log(p.delta / (4.0 * mu1 * p.theta1 * geo.R))


def _theta_factors(K: float, t1: float, t2: float, power: float) -> tuple[float, float]:
    """Prefactor log and exponent factor of the closed-form local and sampling
    constants: log K + power log t1 - 10 t1 - log((1+t2)(t1+t2^2)) and
    K t1^25 e^{15 t1} (1+t2)^2."""
    log_prefactor = (
        math.log(K)
        + power * math.log(t1)
        - 10.0 * t1
        - math.log((1.0 + t2) * (t1 + t2**2))
    )
    return log_prefactor, K * t1**25 * math.exp(15.0 * t1) * (1.0 + t2) ** 2


def log_c_quc_lower_bound(p: ModelParams, geo: LocalGeometry, fc: FreeConstants) -> float:
    """Natural log of the closed-form lower bound on the local constant.

    Valid only in the regime 2*D0 = R >= 1, delta < 2, eps0 > 0.
    """
    if not math.isclose(2.0 * geo.D0, geo.R, rel_tol=1e-12) or geo.R < 1.0:
        raise ValueError("lower-bound regime needs 2*D0 = R >= 1")
    if p.delta >= 2.0:
        raise ValueError("lower-bound regime needs delta < 2")
    eps0 = local_epsilon(p, geo)
    if eps0 <= 0.0:
        raise ValueError("inadmissible parameters: eps0 <= 0")
    log_C1, C3 = _theta_factors(fc.K1, p.theta1, p.theta2, -15.5)
    C2 = 10.0 * EULER * p.theta1**2
    expo = (
        C3
        / eps0
        * (1.0 + p.norm_V ** (2.0 / 3.0) + p.norm_b**2 + p.norm_c ** (2.0 / 3.0))
        * geo.R**3
        - math.log(eps0)
        + math.log(geo.beta)
    )
    return log_C1 + expo * math.log(p.delta / (C2 * geo.R))


def _sfuc_log_terms(
    p: ModelParams, fc: FreeConstants, energy: Optional[float]
) -> tuple[float, float, float]:
    """(log_D1, exponent, log((delta/G)/D2)) of the sampling constant in the
    G-canonical arithmetic; with ``energy`` set, the exponent is the spectral
    variant that replaces the potential norm by |energy|."""
    if energy is not None and not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    g_t2 = p.G * p.theta2
    eps2 = sampling_epsilon(p)
    log_D1, D3 = _theta_factors(fc.K2, p.theta1, g_t2, -15.5 - p.d)
    D2 = fc.K2 * p.theta1**2
    if eps2 <= 0.0:
        raise ValueError("inadmissible parameters: eps2 <= 0")
    v_term = (p.G * p.G * (p.norm_V if energy is None else abs(energy))) ** (2.0 / 3.0)
    lower_order = 1.0 + v_term + (p.G * p.norm_b) ** 2 + (p.G * p.G * p.norm_c) ** (2.0 / 3.0)
    expo = D3 / eps2 * lower_order - math.log(eps2)
    return log_D1, expo, math.log((p.delta / p.G) / D2)


def c_sfuc_exponent(p: ModelParams, fc: FreeConstants, energy: Optional[float] = None) -> float:
    """Exponent of the sampling constant; with ``energy`` set, the spectral
    variant that replaces the potential norm by |energy|."""
    return _sfuc_log_terms(p, fc, energy)[1]


def log_c_sfuc(p: ModelParams, fc: FreeConstants, energy: Optional[float] = None) -> float:
    """Natural log of the scale-free sampling constant."""
    if not 0.0 < p.delta < p.G / 2.0:
        raise ValueError("delta must lie in (0, G/2)")
    log_D1, expo, log_delta_D2 = _sfuc_log_terms(p, fc, energy)
    return log_D1 + expo * log_delta_D2


def log_gamma_window(p: ModelParams, fc: FreeConstants, energy: float) -> float:
    """Natural log of the admissible spectral half-width around ``energy``."""
    if not 0.0 < p.delta < p.G / 2.0:
        raise ValueError("delta must lie in (0, G/2)")
    log_D1, expo, log_delta_D2 = _sfuc_log_terms(p, fc, energy)
    log_gamma_sq = log_D1 - 4.0 * math.log(p.G) + expo * log_delta_D2
    return 0.5 * log_gamma_sq


def scale_parameters(p: ModelParams) -> ModelParams:
    """Rescale to unit cell size; identity when G == 1.

    Lengths divide by G, the Lipschitz constant and lower-order norms pick up
    the matching powers of G.  The arithmetic matches the canonical forms in
    :func:`log_c_sfuc`, so the sampling constant is reproduced bit for bit.
    """
    return replace(
        p,
        G=1.0,
        delta=p.delta / p.G,
        L=p.L / p.G,
        theta2=p.G * p.theta2,
        norm_b=p.G * p.norm_b,
        norm_c=p.G * p.G * p.norm_c,
        norm_V=p.G * p.G * p.norm_V,
    )


@dataclass(frozen=True)
class UcConstantReport:
    """Every intermediate constant of one evaluation; the ones that underflow
    doubles appear only as natural logs (``log_*``).  ``R``, ``D0``, ``K_V``
    and ``beta`` are the local geometry the chain used, in units of G."""

    epsilon: float
    T: int
    R: float = math.nan
    D0: float = math.nan
    K_V: float = math.nan
    beta: float = math.nan
    mu: float = math.nan
    mu1: float = math.nan
    rho: float = math.nan
    carleman_C: float = math.nan
    carleman_alpha0: float = math.nan
    alpha1: float = math.nan
    alpha2: float = 1.0
    alpha3: float = math.nan
    alpha_star: float = math.nan
    cac_delta_half: float = math.nan
    cac_D0_half: float = math.nan
    log_c_quc: float = math.nan
    log_c_quc_lower: float = math.nan
    log_c_sfuc: float = math.nan
    log_gamma: float = math.nan
    sfuc_exponent: float = math.nan
    admissible: bool = True
    # the first constant of the chain that left the double range ("" if none)
    out_of_range: str = ""
    params: dict = field(default_factory=dict)
    free_constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping with every intermediate value."""
        out = asdict(self)
        for group in ("params", "free_constants"):
            out.update({f"{group}.{k}": v for k, v in out.pop(group).items()})
        return out


def sampling_report(
    p: ModelParams, fc: FreeConstants = FreeConstants(), energy: float = 0.0
) -> UcConstantReport:
    """End-to-end constant evaluation along the sampling route.

    Rescales to unit cell size and evaluates the whole chain there, whose
    first step derives the local geometry (:func:`sampling_geometry`).
    Inadmissible parameters (epsilon <= 0) yield a flagged report with NaN
    constants rather than an exception, so sweeps can chart the
    admissibility boundary.  So does a chain that leaves the double range
    (an ``OverflowError``, as beta = 2 T^d raises for d in the hundreds, or
    a constant that comes out infinite or NaN, as happens for theta1 in the
    forties and beyond): the report is not admissible, ``out_of_range``
    names the first such constant, and it and the constants after it stay
    NaN.
    """
    if not 0.0 < p.delta < p.G / 2.0:
        raise ValueError("delta must lie in (0, G/2)")
    if not math.isfinite(energy):
        raise ValueError(f"energy must be finite, got {energy}")
    T = side_length_T(p.d, p.theta1)
    eps2 = sampling_epsilon(p)
    base = dict(epsilon=eps2, T=T, params=asdict(p), free_constants=asdict(fc))
    if eps2 <= 0.0:
        return UcConstantReport(admissible=False, **base)

    ps = scale_parameters(p)
    got: dict = {}
    # beta = 2 T^d first: it is the one value of the geometry that can
    # overflow, and an OverflowError names the first constant of its step
    geo_names = ("beta", "R", "D0", "K_V")

    def geo() -> LocalGeometry:  # the geometry the chain's first step derived
        return LocalGeometry(**{name: got[name] for name in geo_names})

    chain = (
        (geo_names, lambda: attrgetter(*geo_names)(sampling_geometry(ps))),
        (("mu", "mu1", "rho"), lambda: carleman_mu_rho(ps, geo(), eps2)),
        (("carleman_C", "carleman_alpha0"),
         lambda: carleman_constants(ps, got["rho"], got["mu"], got["mu1"])),
        (("alpha1", "alpha3", "alpha_star"), lambda: alpha_star(
            ps, geo(), fc, got["carleman_C"], got["carleman_alpha0"], got["mu"], got["rho"])),
        (("cac_delta_half",), lambda: (cacciopoli_prefactor(
            ps.delta / 2.0, ps.norm_V, ps.norm_b, ps.norm_c, ps.theta1, fc.Cprime),)),
        (("cac_D0_half",), lambda: (cacciopoli_prefactor(
            got["D0"] / 2.0, ps.norm_V, ps.norm_b, ps.norm_c, ps.theta1, fc.Cprime),)),
        (("log_c_quc",), lambda: (log_c_quc(
            ps, geo(), fc, got["mu1"], got["rho"], got["carleman_C"], got["alpha_star"]),)),
        (("log_c_quc_lower",), lambda: (log_c_quc_lower_bound(ps, geo(), fc),)),
        (("log_c_sfuc",), lambda: (log_c_sfuc(p, fc),)),
        (("log_gamma",), lambda: (log_gamma_window(p, fc, energy),)),
        (("sfuc_exponent",), lambda: (c_sfuc_exponent(p, fc),)),
    )
    for names, evaluate in chain:
        try:
            values = evaluate()
        except OverflowError:
            values = (math.inf,) * len(names)
        bad = [name for name, x in zip(names, values) if not math.isfinite(x)]
        if bad:
            return UcConstantReport(admissible=False, out_of_range=bad[0], **got, **base)
        got.update(zip(names, values))
    return UcConstantReport(**got, **base)
