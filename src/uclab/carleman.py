"""Carleman weight, radial cutoffs, and a log-space checker for the weighted
inequality.

The weight is w(x) = phi(sigma(x/rho)) with sigma the anisotropic radius of a
frozen coefficient matrix and phi a log-damped radial profile.  For the
admissible exponents alpha (often 1e4..1e8) the weight powers span thousands
of orders of magnitude, so all integrals are accumulated with log-sum-exp and
the two sides of the inequality are compared through their logarithms.

The log-sum-exp is :func:`_logsum`, an in-house copy of the formula of
``scipy.special.logsumexp`` (Blanchard, Higham and Higham, IMA J. Numer.
Anal. 41 (2021)) that returns its bits.  It exists because of ``np.exp``'s
slow path: on a 2-core x86-64 machine (numpy 2.4) an exponent whose
result is a normal double costs about 1 ns, one that underflows to +0.0
about 16-18 ns and one in the subnormal band (-745 < x <= -708) about
130-140 ns.  At the criterion-4 alpha (hundreds) 70-90% of a d = 2 trial's
shifted exponents underflow and 0.5-2% are subnormal.  The formula adds
only terms that can be nonzero, so the helper calls exp only where the
shifted exponent is above -746, below which exp is exactly +0.0.

The checker evaluates the cube it is given.  Its stencils read one cell along
each axis and wrap periodically, and u must vanish on the two outer cells of
every axis, so a wrapped read meets only u = 0.  More zero cells around the
cube add cells where every integrand is zero and leave the active cells,
their row-major order and their values unchanged; on a dyadic h the cell
centres do not depend on the cube's size either.  So :func:`carleman_trial`
builds the smallest cube that holds the bump plus that two-cell margin.

Each coefficient is an array that broadcasts to u's grid (d leading axes of
extent n or 1), and a constant one gives the bits of its full grid (why:
:func:`~uclab.discretization.apply_operator`).  :func:`carleman_trial` passes
its constants with unit leading axes and its variable A as the profile along
the first axis, and builds the bump's radius and cos modulation from the
1-D cell centres by broadcasting, so a trial builds no (n^d, d) or
(n^d, d, d) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from uclab.constants import EULER, ModelParams, carleman_constants, carleman_mu_floor, mu_one
from uclab.discretization import apply_operator
from uclab.fields import (
    _require_at_least,
    _require_finite,
    _require_on_grid,
    constant_spd_field,
    periodic_gradient,
    periodic_gradient_energy,
)
from uclab.geometry import CubeDomain

__all__ = [
    "ein",
    "phi",
    "log_phi",
    "WeightFunction",
    "RadialCutoff",
    "build_radial_cutoff",
    "cutoff_operator_value",
    "check_pointwise_cutoff_bound",
    "CarlemanCheck",
    "check_carleman_inequality",
    "annular_bump",
    "carleman_trial",
    "mu_one",
]

# largest |u| / max|u| counted as zero by the support checks of
# check_carleman_inequality
SUPPORT_TOL = 1e-12

# centered-difference step for coefficient derivatives in cutoff_operator_value
FD_STEP = 1e-6

# Taylor coefficients (-1)^(k+1) / (k k!) of Ein, used up to the cut
_EIN_CUT = 1.0
_EIN_SERIES = np.array(
    [(-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(1, 26)]
)


def ein(x: np.ndarray | float) -> np.ndarray | float:
    """Entire integral of (1 - exp(-t))/t from 0 to x, vectorized.

    Closed form: the power series (25 terms by Horner) for x <= 1, and
    ``euler_gamma + log(x) + exp1(x)`` above; absolute error below 1e-15 and
    relative error about 2e-16 for x > 0.  NaN, inf and x < 0 raise.
    """
    from scipy.special import exp1

    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _require_finite("x", x_arr)
    if np.any(x_arr < 0.0):
        raise ValueError("ein is evaluated on x >= 0 only")
    out = np.empty_like(x_arr)
    small = x_arr <= _EIN_CUT
    xs = x_arr[small]
    acc = np.full_like(xs, _EIN_SERIES[-1])
    for coeff in _EIN_SERIES[-2::-1]:  # in place: no temporary per term
        acc *= xs
        acc += coeff
    out[small] = xs * acc
    xb = x_arr[~small]
    out[~small] = np.euler_gamma + np.log(xb) + exp1(xb)
    return out if np.ndim(x) else float(out[0])


def phi(r: np.ndarray | float, mu: float) -> np.ndarray | float:
    """Log-damped radial profile r * exp(-ein(mu r)) of finite r >= 0;
    0 <= phi(r) <= r."""
    r_arr = np.asarray(r, dtype=float)
    _require_finite("r", r_arr)
    if np.any(r_arr < 0.0):
        raise ValueError("radial profile is defined for r >= 0")
    out = r_arr * np.exp(-ein(mu * r_arr))
    return out if np.ndim(r) else float(out)


def log_phi(r: np.ndarray, mu: float) -> np.ndarray:
    """log(phi(r)) of finite r; -inf at r = 0."""
    r = np.asarray(r, dtype=float)
    _require_finite("r", r)
    with np.errstate(divide="ignore"):
        return np.log(r) - ein(mu * r)


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class WeightFunction:
    """w(x) = phi(sigma(x)/rho) with sigma the A0^{-1} quadratic-form radius."""

    rho: float
    mu: float
    A0: np.ndarray
    theta1: float
    mu1: float = field(init=False)
    _A0_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_positive("rho", self.rho)
        _require_positive("mu", self.mu)
        _require_at_least("theta1", self.theta1, 1.0)
        A0 = np.asarray(self.A0, dtype=float)
        if A0.ndim != 2 or A0.shape[0] != A0.shape[1]:
            raise ValueError("A0 must be a square matrix")
        if not np.array_equal(A0, A0.T):
            raise ValueError("A0 must be exactly symmetric")
        w = np.linalg.eigvalsh(A0)
        if w[0] <= 0.0:
            raise ValueError("A0 must be positive definite")
        if w[0] < 1.0 / self.theta1 - 1e-10 or w[-1] > self.theta1 + 1e-10:
            raise ValueError("A0 spectrum must lie within [1/theta1, theta1]")
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "mu1", mu_one(self.theta1, self.mu))
        object.__setattr__(self, "_A0_inv", np.linalg.inv(A0))

    @property
    def d(self) -> int:
        return self.A0.shape[0]

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """Anisotropic radius, vectorized over leading axes of x.

        The quadratic form x.A0^-1.x is summed in place over (i, j) in
        row-major order from +0.0, each term (x_i A0^-1_ij) x_j: the order
        and rounding of ``np.einsum("...i,ij,...j->...")``, without its
        three-operand loop.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.d:
            raise ValueError(f"points must have {self.d} coordinates on the last axis")
        q = np.zeros(x.shape[:-1])
        for i in range(self.d):
            for j in range(self.d):
                t = x[..., i] * self._A0_inv[i, j]
                t *= x[..., j]
                q += t
        return np.sqrt(np.maximum(q, 0.0))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return phi(self.sigma(x) / self.rho, self.mu)

    def log_weight(self, x: np.ndarray) -> np.ndarray:
        return log_phi(self.sigma(x) / self.rho, self.mu)

    def bound_slacks(self, x: np.ndarray) -> dict:
        """Slack of the printed envelope bounds at the given points.

        Returns the minimum of (w - sigma/(rho*mu1)) and (sigma/rho - w) over
        points inside the euclidean rho-ball, plus the slack of the constant
        floor 1/(e*mu) on the outer region |x| >= sqrt(theta1)*rho/mu (NaN
        when no sample lands there).
        """
        x = np.asarray(x, dtype=float)
        r_eucl = np.sqrt((x**2).sum(axis=-1))
        inside = r_eucl < self.rho
        sig = self.sigma(x[inside])
        w = phi(sig / self.rho, self.mu)
        lower = w - sig / (self.rho * self.mu1)
        upper = sig / self.rho - w
        # outer lies inside the ball, so its weights are already in w
        outer = (r_eucl >= math.sqrt(self.theta1) * self.rho / self.mu)[inside]
        if np.any(outer):
            floor = float((w[outer] - 1.0 / (EULER * self.mu)).min())
        else:
            floor = math.nan
        return {
            "lower": float(lower.min()) if lower.size else math.nan,
            "upper": float(upper.min()) if upper.size else math.nan,
            "outer_floor": floor,
            "n_inside": int(inside.sum()),
        }


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _smoothstep_d1(t: np.ndarray) -> np.ndarray:
    """The quintic's derivatives at the clipped t vanish at and beyond both
    ends, so they need no mask (nor does the second derivative below)."""
    t = np.clip(t, 0.0, 1.0)
    return 30.0 * t**2 * (1.0 - t) ** 2


def _smoothstep_d2(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 60.0 * t - 180.0 * t**2 + 120.0 * t**3


def _plateau(r: np.ndarray, lo: float, hi: float, w_up: float, w_dn: float) -> np.ndarray:
    """A smoothstep rising over [lo, lo + w_up] times one falling over
    [hi - w_dn, hi], evaluated only inside the open interval lo < r < hi;
    every other point gets an exact 0.0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = (r > lo) & (r < hi)
    r = r[inside]
    out[inside] = _smoothstep((r - lo) / w_up) * _smoothstep((hi - r) / w_dn)
    return out


@dataclass(frozen=True)
class RadialCutoff:
    """Radial plateau cutoff eta(s) of the radius s = |x|: 0 near the origin
    and far out, 1 on the working annulus, quintic-smoothstep transitions
    (twice continuously differentiable)."""

    delta: float
    D0: float
    d: int
    r1: float
    r2: float
    r3: float
    r4: float
    measured_M: float

    def value(self, s: np.ndarray) -> np.ndarray:
        return _plateau(s, self.r1, self.r4, self.r2 - self.r1, self.r4 - self.r3)

    def radial_derivative(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        w_up = self.r2 - self.r1
        w_dn = self.r4 - self.r3
        der = _smoothstep_d1((s - self.r1) / w_up) / w_up
        der = der - _smoothstep_d1((self.r4 - s) / w_dn) / w_dn
        return der

    def radial_second_derivative(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        w_up = self.r2 - self.r1
        w_dn = self.r4 - self.r3
        der2 = _smoothstep_d2((s - self.r1) / w_up) / w_up**2
        der2 = der2 + _smoothstep_d2((self.r4 - s) / w_dn) / w_dn**2
        return der2

    def radial_laplacian(self, s: np.ndarray) -> np.ndarray:
        """eta'' + (d - 1) eta' / s, the Laplacian at radius s (0 at s = 0)."""
        s = np.asarray(s, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.radial_second_derivative(s) + np.where(
                s > 0.0, (self.d - 1) * self.radial_derivative(s) / s, 0.0
            )


def build_radial_cutoff(
    delta: float, R: float, D0: float, theta1: float, d: int = 1
) -> RadialCutoff:
    """Cutoff vanishing on B(delta/4) and outside B(2 e theta1 R + D0), equal
    to one on the annulus between delta/2 and 2 e theta1 R."""
    if delta > D0 or delta > 2.0 * EULER * theta1 * R:
        raise ValueError("radius ordering requires delta <= D0 and delta <= 2e*theta1*R")
    r1, r2 = delta / 4.0, delta / 2.0
    r3 = 2.0 * EULER * theta1 * R
    r4 = r3 + D0
    if not (r1 < r2 < r3 < r4):
        raise ValueError("cutoff radii must be strictly ordered")
    cut = RadialCutoff(
        delta=delta, D0=D0, d=d, r1=r1, r2=r2, r3=r3, r4=r4, measured_M=math.nan
    )
    measured = 0.0
    for lo, hi, scale in ((r1, r2, delta), (r3, r4, D0)):
        s = np.linspace(lo, hi, 4001)
        grad = np.abs(cut.radial_derivative(s))
        lap = np.abs(cut.radial_laplacian(s))
        measured = max(measured, scale * math.sqrt(float(np.maximum(grad, lap).max())))
    object.__setattr__(cut, "measured_M", measured)
    return cut


@dataclass(frozen=True)
class CutoffBoundCheck:
    worst_slack: float
    flagged: int


def cutoff_operator_value(
    cutoff: RadialCutoff,
    A: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    b: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """-div(A grad eta) + b.grad eta at points away from the origin.

    With s = |x| and u = x/s the cutoff's derivatives are radial,
    grad eta = eta' u and A : hess eta = eta'' u.A.u + (eta'/s)(tr A - u.A.u),
    so only eta', eta'' and u.A.u enter; the divergence of A's columns,
    sum_i d_i a[i, j], is taken by centered finite differences of step
    ``FD_STEP``.
    """
    pts = np.asarray(points, dtype=float)
    s = np.sqrt((pts**2).sum(axis=-1))
    u = pts / s[..., None]
    der = cutoff.radial_derivative(s)
    Axx = A(pts)
    uAu = np.einsum("...i,...ij,...j->...", u, Axx, u)
    A_hess = cutoff.radial_second_derivative(s) * uAu + der / s * (
        np.trace(Axx, axis1=-2, axis2=-1) - uAu
    )
    div_A = sum(
        (A(pts + e) - A(pts - e))[..., i, :] / (2.0 * FD_STEP)
        for i, e in enumerate(FD_STEP * np.eye(cutoff.d))
    )
    drift = -div_A if b is None else b(pts) - div_A
    return (drift * u).sum(axis=-1) * der - A_hess


def check_pointwise_cutoff_bound(
    cutoff: RadialCutoff,
    A: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    theta1: float,
    theta2: float,
    norm_b: float = 0.0,
    b: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> CutoffBoundCheck:
    """Slack of the pointwise bound on the cutoff under the principal part:

        |Op_c eta|^2 <= 3 t1^2 |lap eta|^2 + 3 t1^2 (2d-1)^2 |grad eta|^2/|x|^2
                        + 3 (t2 d^2 + |b|_inf)^2 |grad eta|^2

    with |grad eta| = |eta'| for the radial cutoff.  ``A`` (and optionally
    ``b``) are smooth synthetic fields given as callables on point arrays;
    coefficient derivatives are centered finite differences of ``A``.
    Points within two finite-difference steps of the profile breakpoints are
    flagged (one-sided second derivatives there).
    """
    pts = np.asarray(points, dtype=float)
    d = cutoff.d
    s = np.sqrt((pts**2).sum(axis=-1))
    if np.any(s <= 0.0):
        raise ValueError("sample points must avoid the origin")
    lap = cutoff.radial_laplacian(s)
    op_c = cutoff_operator_value(cutoff, A, pts, b=b)
    lhs = np.abs(op_c) ** 2
    g2 = cutoff.radial_derivative(s) ** 2
    rhs = (
        3.0 * theta1**2 * lap**2
        + 3.0 * theta1**2 * (2.0 * d - 1.0) ** 2 * g2 / s**2
        + 3.0 * (theta2 * d**2 + norm_b) ** 2 * g2
    )
    slack = rhs - lhs
    breakpoints = np.array([cutoff.r1, cutoff.r2, cutoff.r3, cutoff.r4])
    flagged = np.min(np.abs(s[..., None] - breakpoints), axis=-1) < 2.0 * FD_STEP
    return CutoffBoundCheck(
        worst_slack=float(slack[~flagged].min() if np.any(~flagged) else slack.min()),
        flagged=int(flagged.sum()),
    )


@dataclass(frozen=True)
class CarlemanCheck:
    """Both sides of the weighted inequality in log space."""

    lhs_log: float
    rhs_log: float
    ratio: float


# shifted exponents at or below this give exp(x) == +0.0 exactly (the
# smallest subnormal is exp(-744.44); exp rounds to 0 below -745.13)
_EXP_ZERO = -746.0


def _logsum(terms_log: np.ndarray, weights: np.ndarray) -> float:
    """log(sum of w exp(t)) over the entries with weight w > 0; -inf when
    there are none.

    Bit for bit ``scipy.special.logsumexp(t[w > 0], b=w[w > 0])``: the max
    exponent a_max is taken out, its weights summed to m as a full-length
    ``b * top`` sum, the rest summed as s = sum(w exp(t - a_max)) / m over
    the full-length array (so ``np.sum`` groups the terms as scipy's does),
    and the result is log1p(s) + log(m) + a_max; a result that is not finite
    is recomputed as log(sum(w exp(t))), as scipy does.  Unlike scipy, exp
    is evaluated only where the shifted exponent is above ``_EXP_ZERO``; the
    other terms are exactly +0.0 and skip exp's underflow and subnormal slow
    paths (module docstring).
    """
    mask = weights > 0.0
    kept = np.count_nonzero(mask)
    if kept == 0:
        return -math.inf
    a, b = terms_log, weights
    if kept < mask.size:
        a, b = a[mask], b[mask]
    a_max = a.max()
    top = a == a_max
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = np.sum(b * top)
        x = a - a_max
        terms = np.zeros(x.shape)
        np.exp(x, out=terms, where=(x > _EXP_ZERO) & ~top)
        terms *= b
        s = np.sum(terms)
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(b * np.exp(a)))
    return float(out)


def _abs_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2; z * z for real z, which is the same number."""
    return np.abs(z) ** 2 if np.iscomplexobj(z) else np.square(z)


def _active_integrands(u, A, b, c, h):
    """The cells where the gradient energy, |u|^2 or |Op u|^2 is positive,
    as ``np.nonzero`` index arrays, and the three integrands there.

    The whole-cube arrays live only inside this function, so they are freed
    before the weights and sums are taken; a real operator image is squared
    in place.
    """
    grad = periodic_gradient(u, h)
    grad_energy = periodic_gradient_energy(grad, A)
    op = apply_operator(A, b, c, u, h, grad=grad)
    op_sq = _abs_sq(op) if np.iscomplexobj(op) else np.square(op, out=op)
    u_sq = _abs_sq(u)
    positive = grad_energy > 0.0
    positive |= op_sq > 0.0
    positive |= u_sq > 0.0
    active = np.nonzero(positive)
    return active, grad_energy[active], u_sq[active], op_sq[active]


def check_carleman_inequality(
    u: np.ndarray,
    A: np.ndarray,
    b: Optional[np.ndarray],
    c: Optional[np.ndarray],
    h: float,
    weight: WeightFunction,
    alpha: float,
    carleman_C: float,
    alpha0: Optional[float] = None,
) -> CarlemanCheck:
    """Compare both sides of the weighted inequality on a cube grid.

    ``u`` lives on the cell-centered grid of a cube centered at the origin and
    must vanish outside the euclidean rho-ball, in a punctured neighborhood of
    the origin (radius 2h), and on a margin of two cells at the cube boundary
    (the stencil wraps); the three checks look only at the cells where
    |u| / max|u| exceeds ``SUPPORT_TOL``.  ``u`` must be a cube grid, and
    ``A`` (real), ``b`` and ``c`` broadcast to it: d leading axes of extent n
    or 1, then (d, d), (d,) and nothing (module docstring).  A grid of
    another shape, a NaN or inf in u, A, b or c, or an ``alpha`` or
    ``carleman_C`` that is not positive and finite, raises a ValueError that
    names it.  Derivatives are centered, those of u
    computed once for the gradient energy and the operator; integrals are
    midpoint sums accumulated by log-sum-exp, and the two sides are compared
    through logs; the ratio is exp(lhs_log - rhs_log), and inf when that
    overflows or the right side vanishes, so a degenerate operator fails
    the check.

    Every cell of the given cube is evaluated.  Padding u with zero cells
    (and A, b, c with any finite values) does not change the result on a
    dyadic h (module docstring), so the caller chooses the cube.
    """
    d = u.ndim
    n = u.shape[0]
    _require_positive("alpha", alpha)
    _require_positive("carleman_C", carleman_C)
    if alpha0 is not None and alpha < alpha0:
        raise ValueError("alpha must be at least the admissible floor alpha0")
    if u.shape != (n,) * d:
        raise ValueError(f"u must be a cube grid, got shape {u.shape}")
    _require_on_grid(u.shape, A, b, c)
    for name, value in (("u", u), ("A", A), ("b", b), ("c", c)):
        if value is not None:
            _require_finite(name, value)
    rho = weight.rho
    centers = CubeDomain(d, n * h, h, "periodic").centers_1d()

    umax = float(np.abs(u).max())
    if umax == 0.0:
        return CarlemanCheck(-math.inf, -math.inf, 0.0)
    u = u / umax  # ratio is scale-invariant; normalize for conditioning
    big = np.nonzero(np.abs(u) > SUPPORT_TOL)
    r = np.sqrt(sum(centers[i] ** 2 for i in big))
    if np.any(r >= rho):
        raise ValueError("u must vanish outside the rho-ball")
    if np.any(r <= 2.0 * h):
        raise ValueError("u must vanish in a punctured neighborhood of the origin")
    if any(np.any((i < 2) | (i >= n - 2)) for i in big):
        raise ValueError("u must vanish on a two-cell margin at the cube boundary")

    active, ge, us, os_ = _active_integrands(u, A, b, c, h)
    pts = np.stack([centers[i] for i in active], axis=-1)
    lw = weight.log_weight(pts)

    log_cell = d * math.log(h)
    lhs1 = _logsum((1.0 - 2.0 * alpha) * lw, ge) + math.log(alpha * rho**2) + log_cell
    lhs2 = _logsum((-1.0 - 2.0 * alpha) * lw, us) + 3.0 * math.log(alpha) + log_cell
    lhs_log = float(np.logaddexp(lhs1, lhs2))
    rhs_log = _logsum(
        (2.0 - 2.0 * alpha) * lw, os_
    ) + math.log(carleman_C * rho**4) + log_cell
    try:
        ratio = math.exp(lhs_log - rhs_log)  # inf when rhs_log is -inf
    except OverflowError:
        ratio = math.inf
    return CarlemanCheck(lhs_log, rhs_log, ratio)


def annular_bump(r: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    """Smooth radial bump at the radii ``r``, supported on the annulus
    [r_in, r_out]: each smoothstep rises over 0.4 of the annulus width, and
    every point outside the open annulus gets an exact 0.0."""
    w = 0.4 * (r_out - r_in)
    return _plateau(r, r_in, r_out, w, w)


def carleman_trial(
    seed: int,
    d: int,
    h: float,
    rho: Optional[float] = None,
    mu: Optional[float] = None,
    alpha_mult: Optional[float] = None,
) -> dict:
    """One seeded trial of the weighted inequality.

    Draws a constant elliptic matrix (occasionally a gently varying diagonal
    one), a smooth annular bump away from the origin, weight parameters with
    a comfortable admissibility margin, and alpha at (or just above) the
    admissible floor; returns the check plus the drawn configuration.
    ``rho``, ``mu`` and the alpha multiplier can be pinned by the caller
    (the CLI flags); unset ones are drawn from the seed.  The grid is the
    smallest cube that holds the bump and the checker's two-cell zero margin,
    n = 2 (ceil(r_out / h) + 2) cells per axis.
    """
    for name, value in (("rho", rho), ("mu", mu)):
        if value is not None:
            _require_positive(name, value)
    if alpha_mult is not None and not 1.0 <= alpha_mult < math.inf:
        raise ValueError(f"alpha_mult must be finite and >= 1 (alpha >= alpha0), "
                         f"got {alpha_mult}")
    rng = np.random.default_rng(seed)
    theta1 = 1.0 + 0.12 * rng.random()
    rho = (0.8 + 0.45 * rng.random()) if rho is None else float(rho)
    variable_A = rng.random() < 0.25
    theta2 = 4e-4 * rng.random() if variable_A else 0.0
    mu_floor = carleman_mu_floor(d, theta1, theta2, rho)
    if mu is None:
        mu = mu_floor + 0.03 + 0.08 * rng.random()
    elif mu <= mu_floor:
        theta2, variable_A = 0.0, False  # pinned mu keeps admissibility
    mu = float(mu)
    with_drift = rng.random() < 0.3
    norm_b = 0.25 * rng.random() if with_drift else 0.0
    norm_c = 0.25 * rng.random() if with_drift else 0.0
    if with_drift:
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
    r_in = (0.45 + 0.08 * rng.random()) * rho
    r_out = (0.78 + 0.07 * rng.random()) * rho

    # the bump plus the checker's two-cell zero margin on every side
    n = 2 * (math.ceil(r_out / h) + 2)
    dom = CubeDomain(d, n * h, h, "periodic")
    # the cell centres as an open grid: x[k] varies along axis k only
    x = np.ix_(*[dom.centers_1d()] * d)
    unit = (None,) * d  # a constant broadcasts to the grid with unit leading axes
    if variable_A:
        amp = theta2 * 2.0 * rho / math.pi  # slope pi/(2 rho) times amp
        base = 0.5 * (theta1 + 1.0 / theta1)
        a_scalar = base + amp * np.sin(math.pi * x[0] / (2.0 * rho))
        A = a_scalar[..., None, None] * np.eye(d)  # (n, 1, ..., 1, d, d)
        A0 = np.eye(d) * base
    else:
        A0 = constant_spd_field(seed, dom, theta1)[(0,) * d]
        A = A0[unit]
    b, c = ((norm_b * direction)[unit], np.full((1,) * d, norm_c)) if with_drift \
        else (None, None)

    # the radius of each cell centre, its squares summed over the axes in order
    u = annular_bump(np.sqrt(sum(xk**2 for xk in x)), r_in, r_out)
    if d >= 2:
        u = u * (1.0 + 0.3 * np.cos(2.0 * math.pi * x[0] / rho))

    mu1 = mu_one(theta1, mu)
    p = ModelParams(d=d, theta1=theta1, theta2=theta2, norm_b=norm_b, norm_c=norm_c)
    C, alpha0 = carleman_constants(p, rho, mu, mu1)
    if alpha_mult is None:
        alpha_mult = 1.0 + 0.02 * rng.random()
    alpha = alpha0 * alpha_mult
    weight = WeightFunction(rho=rho, mu=mu, A0=A0, theta1=theta1)
    chk = check_carleman_inequality(u, A, b, c, h, weight, alpha, C, alpha0=alpha0)
    return {
        "seed": seed, "d": d, "h": h, "theta1": theta1, "theta2": theta2,
        "rho": rho, "mu": mu, "alpha": alpha, "alpha0": alpha0,
        "carleman_C": C, "norm_b": norm_b, "norm_c": norm_c,
        "lhs_log": chk.lhs_log, "rhs_log": chk.rhs_log, "ratio": chk.ratio,
    }
