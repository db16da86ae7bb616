"""Explicit constants of the quantitative unique-continuation estimates.

Every function is a pure evaluation of a printed formula: admissibility
margins, the Carleman weight parameters (mu, mu1, rho), the Carleman constant
and admissible exponent floor, Cacciopoli prefactors, the local
mass-fraction constant ``C_qUC`` with its exponent budget ``alpha_star``, the
scale-free sampling constant ``C_sfUC`` and the spectral half-width ``gamma``.

The local (vanishing-order) formulas take their R, D0, K_V and beta as a
:class:`LocalGeometry`, which the sampling route derives once
(:func:`sampling_geometry`) and any other caller builds itself.  Its
2 e theta1 R, (2 e theta1 + 1) R and beta = 2 T^d, at which ``classify_sites``
splits, are :func:`annulus_radius`, :func:`window_ball_radius`, :func:`site_beta`.

The tiny constants underflow double precision for realistic parameters (their
natural logs reach -1e9), so each one is computed and reported only as its
natural log.  Dimension-dependent prefactors the theory leaves abstract are
exposed in :class:`FreeConstants`; all claims are relative to a choice of
those.

``log_c_sfuc``/``log_gamma_window`` are written so that the length scale ``G``
enters only through the products ``G*theta2``, ``G*norm_b``, ``G^2*norm_c``,
``G^2*norm_V`` and the ratio ``delta/G``.  Rescaling to unit cell size with
:func:`scale_parameters` therefore reproduces them bit for bit.

The five input rules live here, and each check of their quantities, in the
library and on the command line, calls them: :func:`is_finite` (a real
number, not a bool, that a double holds), the bound rule :func:`is_at_least`
and :func:`is_above` (a finite number >= or > a floor, with its one message
from :func:`bound_error`), :func:`is_dimension` (an integer >= 1),
:func:`is_ball_radius` (0 < delta < G/2) and the lattice rule
:func:`whole_cells` (whole cells in a length; message :func:`lattice_error`).
A function given a bad value raises the rule's message itself, so the
error's innermost frame is the function that received the value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, replace
from numbers import Integral, Real
from operator import attrgetter
from typing import Optional

__all__ = [
    "is_finite",
    "is_at_least",
    "is_above",
    "is_dimension",
    "is_ball_radius",
    "whole_cells",
    "ModelParams",
    "FreeConstants",
    "LocalGeometry",
    "UcConstantReport",
    "dimension_root",
    "sampling_radius",
    "sampling_geometry",
    "annulus_radius",
    "window_ball_radius",
    "site_beta",
    "sampling_epsilon",
    "local_epsilon",
    "side_length_T",
    "carleman_mu_rho",
    "carleman_mu_floor",
    "mu_one",
    "carleman_constants",
    "cacciopoli_gradient_term",
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


def is_finite(value) -> bool:
    """The finite-number test: a real number, not a bool, that a double holds
    (an integer past the largest double fails, where math.isfinite raises)."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def is_at_least(value, floor: float) -> bool:
    """The bound rule, closed: a finite number >= ``floor``."""
    return is_finite(value) and value >= floor


def is_above(value, floor: float) -> bool:
    """The bound rule, open: a finite number > ``floor``."""
    return is_finite(value) and value > floor


def bound_error(cmp: str, floor: float, **values) -> Optional[str]:
    """The bound rule's message for the first of ``values`` not a finite number ``cmp``
    (">=" or ">") ``floor``, else None; the function given the value raises it."""
    test = {">=": is_at_least, ">": is_above}[cmp]
    for name, value in values.items():
        if not test(value, floor):
            return f"{name} must be a finite number {cmp} {floor:g}, got {value!r}"
    return None


def _require_finite(**values) -> None:
    """Raise a ValueError naming the first of ``values`` that is not :func:`is_finite`."""
    for name, value in values.items():
        if not is_finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def is_dimension(d) -> bool:
    """The dimension rule: an integer >= 1; a numpy integer is one, a bool is not."""
    return isinstance(d, Integral) and not isinstance(d, bool) and d >= 1


def is_ball_radius(delta: float, G: float) -> bool:
    """The ball-radius rule: 0 < delta < G/2, a ball inside its G-cell."""
    return 0.0 < delta < G / 2.0


def whole_cells(length, spacing) -> Optional[int]:
    """The lattice rule: the whole number of cells of side ``spacing`` in
    ``length``, or None when either is not :func:`is_finite`, or their ratio
    leaves the double range or lies more than 1e-9 from an integer."""
    if not (is_finite(length) and is_finite(spacing)) or spacing == 0:
        return None
    ratio = length / spacing
    return round(ratio) if is_finite(ratio) and abs(ratio - round(ratio)) <= 1e-9 else None


def lattice_error(least: int, **values) -> str:
    """The lattice rule's message for a length and a spacing, given by name in
    that order, whose ratio is not a whole number >= ``least``."""
    (a, length), (b, spacing) = values.items()
    return f"{a}/{b} must be a whole number >= {least}, got {a}={length!r} and {b}={spacing!r}"


# the ValueError messages of two rules; DIMENSION_ERROR takes the name and the value
DIMENSION_ERROR = "{} must be an integer >= 1, got {!r}"
BALL_RADIUS_ERROR = "delta must lie in (0, G/2)"


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
        if isinstance(self.d, float):  # a NaN or inf d is named as not finite
            _require_finite(d=self.d)
        if not is_dimension(self.d):
            raise ValueError(DIMENSION_ERROR.format("d", self.d))
        if bad := (bound_error(">=", 1, theta1=self.theta1)
                   or bound_error(">=", 0, theta2=self.theta2, norm_V=self.norm_V,
                                  norm_b=self.norm_b, norm_c=self.norm_c)
                   or bound_error(">", 0, G=self.G, delta=self.delta, L=self.L)):
            raise ValueError(bad)


@dataclass(frozen=True)
class LocalGeometry:
    """Annulus radius R, distance D0, potential bound K_V and norm ratio
    beta of the local (vanishing-order) estimate."""

    R: float
    D0: float
    K_V: float
    beta: float

    def __post_init__(self):
        if bad := (bound_error(">", 0, R=self.R, D0=self.D0)
                   or bound_error(">=", 0, K_V=self.K_V) or bound_error(">=", 1, beta=self.beta)):
            raise ValueError(bad)


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
        if bad := (bound_error(">", 0, K1=self.K1, K2=self.K2)
                   or bound_error(">=", 1, M=self.M, Cprime=self.Cprime)):
            raise ValueError(bad)


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


def dimension_root(d: int) -> float:
    """sqrt(d) of a dimension: ``math.sqrt`` wherever a double holds d, and
    the integer square root past that, where a double cannot tell the two
    apart."""
    return math.sqrt(d) if d <= sys.float_info.max else float(math.isqrt(d))


def sampling_radius(d: int) -> float:
    """Annulus radius R = sqrt(d) + 2 of the sampling route, in units of G."""
    return dimension_root(d) + 2.0


def sampling_geometry(p: ModelParams) -> LocalGeometry:
    """The local estimate's geometry along the sampling route: R the sampling
    radius, D0 = R/2, K_V = norm_V and beta = 2 T^d; in units of G for a
    rescaled ``p`` (:func:`scale_parameters`), as :func:`sampling_report`
    passes it."""
    R = sampling_radius(p.d)
    beta = site_beta(p.d, side_length_T(p.d, p.theta1))
    return LocalGeometry(R=R, D0=R / 2.0, K_V=p.norm_V, beta=beta)


def annulus_radius(theta1: float, R: float) -> float:
    """Outer radius 2 e theta1 R of the local estimate's annulus."""
    return 2.0 * EULER * theta1 * R


def window_ball_radius(d: int, theta1: float) -> float:
    """Radius (2 e theta1 + 1) R, R = sqrt(d) + 2, of the ball a T-window holds."""
    return (2.0 * EULER * theta1 + 1.0) * sampling_radius(d)


def site_beta(d: int, T: int) -> float:
    """beta = 2 T^d of a dominating site; ** and ldexp raise OverflowError past doubles."""
    return math.ldexp(float(T) ** d, 1)


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
    if not is_dimension(d):
        raise ValueError(DIMENSION_ERROR.format("d", d))
    if bad := bound_error(">=", 1, theta1=theta1):
        raise ValueError(bad)
    return math.ceil(2.0 * window_ball_radius(d, theta1))


def carleman_mu_rho(
    p: ModelParams, geo: LocalGeometry, eps0: float
) -> tuple[float, float, float]:
    """Weight parameters (mu, mu1, rho) used by the local estimate."""
    if not eps0 > 0.0:  # a NaN eps0 too
        raise ValueError("admissibility margin eps0 must be positive")
    rho = annulus_radius(p.theta1, geo.R) + 2.0 * geo.D0
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
    """Upper bounds (C, alpha0) admissible in the weighted inequality.

    The bounds are evaluated in linear space, and a bound past the largest
    double is returned as inf (at d = 1, theta1 = 1, rho = 1: alpha0 for mu
    above 109.8, C above 168.3); a C of inf leaves alpha0 meaningless.
    """
    c_mu = mu - carleman_mu_floor(p.d, p.theta1, p.theta2, rho)
    if c_mu <= 0.0:
        raise ValueError("mu must exceed 33*d*theta1^(11/2)*theta2*rho")
    sq = math.sqrt(p.theta1)
    try:
        c_tilde = (
            2.0
            * p.d**2
            * p.theta1**8
            * math.exp(4.0 * mu * sq)
            * mu1**4
            * (3.0 * mu**2 + (9.0 * rho * p.theta2 + 3.0) * mu + 1.0)
            / c_mu
        )
    except OverflowError:  # raised by exp and by a float power
        c_tilde = math.inf
    try:
        alpha0_tilde = (
            11.0
            * p.d**4
            * p.theta1**16.5
            * math.exp(6.0 * mu * sq)
            * mu1**6
            * (3.0 * rho * p.theta2 + mu + 1.0) ** 2
            * (1.0 + mu * (mu + 1.0) / c_mu)
        )
    except OverflowError:
        alpha0_tilde = math.inf
    C = 6.0 * c_tilde
    alpha0 = max(
        alpha0_tilde,
        C * rho**2 * p.norm_b**2 * p.theta1**1.5,
        C ** (1.0 / 3.0) * rho ** (4.0 / 3.0) * p.norm_c ** (2.0 / 3.0) * sq,
    )
    return C, alpha0


def cacciopoli_gradient_term(r: float, theta1: float = 1.0, cprime: float = 1.0) -> float:
    """The gradient term 8 theta1^2 C'/r^2 of the Cacciopoli prefactor."""
    try:
        return 8.0 * theta1**2 * cprime / r**2
    except (OverflowError, ZeroDivisionError):  # past the double range
        return math.inf


def cacciopoli_prefactor(
    r: float,
    norm_V: float = 0.0,
    norm_b: float = 0.0,
    norm_c: float = 0.0,
    theta1: float = 1.0,
    cprime: float = 1.0,
) -> float:
    """Prefactor of the interior gradient estimate on a fattened annulus;
    math.inf when a norm**2 or theta1**2 overflows or r**2 underflows to 0,
    past the double range."""
    if bad := bound_error(">", 0, r=r):
        raise ValueError(bad)
    try:
        return (2.0 * norm_V**2 + 1.0 + 2.0 * norm_b**2
                + cacciopoli_gradient_term(r, theta1, cprime) + 2.0 * norm_c)
    except OverflowError:  # raised by a float power
        return math.inf


def _cutoff_bracket(p: ModelParams, fc: FreeConstants, middle: float, r: float) -> float:
    """The local cutoff bound 3 theta1^2 + middle + 3 (theta2 d^2 + ||b||)^2
    + 4 theta1 Cac(r), shared by :func:`alpha_star` and :func:`log_c_quc`;
    ``middle`` is the cutoff's |grad eta|^2 term."""
    cac = cacciopoli_prefactor(r, p.norm_V, p.norm_b, p.norm_c, p.theta1, fc.Cprime)
    return (
        3.0 * p.theta1**2
        + middle
        + 3.0 * (p.theta2 * p.d**2 + p.norm_b) ** 2
        + 4.0 * p.theta1 * cac
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
    bracket = _cutoff_bracket(
        p, fc, 3.0 * p.theta1**2 * p.d**2 / annulus_radius(p.theta1, geo.R) ** 2, geo.D0 / 2.0
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
    denom = _cutoff_bracket(p, fc, 768.0 * p.theta1**2 * p.d**2 / p.delta**2, p.delta / 2.0)
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
    G-canonical arithmetic, for delta in (0, G/2); with ``energy`` set, the
    exponent is the spectral variant that replaces the potential norm by |energy|."""
    if not is_ball_radius(p.delta, p.G):
        raise ValueError(BALL_RADIUS_ERROR)
    if energy is not None:
        _require_finite(energy=energy)
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
    log_D1, expo, log_delta_D2 = _sfuc_log_terms(p, fc, energy)
    return log_D1 + expo * log_delta_D2


def log_gamma_window(p: ModelParams, fc: FreeConstants, energy: float) -> float:
    """Natural log of the admissible spectral half-width around ``energy``."""
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
    if not is_ball_radius(p.delta, p.G):
        raise ValueError(BALL_RADIUS_ERROR)
    _require_finite(energy=energy)
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
        bad = [name for name, x in zip(names, values) if not is_finite(x)]
        if bad:
            return UcConstantReport(admissible=False, out_of_range=bad[0], **got, **base)
        got.update(zip(names, values))
    return UcConstantReport(**got, **base)
