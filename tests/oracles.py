"""Independent high-precision oracles for the test suite.

Everything here is a direct, formula-by-formula transcription evaluated with
mpmath at 60 significant digits.  It deliberately shares no code with the
production package: the production path works in log-space double precision,
the oracle works in extended precision and takes logs at the end.  Tests
compare the two.

Values that underflow double precision (the unique-continuation constants do,
spectacularly) are exposed as natural logarithms.

The references below are not mpmath transcriptions.
:func:`roll_difference` and :func:`roll_centered_diff` are the neighbour
differences written with ``np.roll`` (wrapped, or with a Dirichlet ghost
written over the rolled face cell); the production stencils read their
neighbours by slicing and must reproduce them bit for bit.
:func:`carleman_check_whole_cube` is the weighted-inequality checker
evaluated on every cell of the cube, in double precision, with ``einsum``,
the ``np.roll`` gradient and every coefficient as a grid.  The production
checker also evaluates the whole cube it is given, but takes the weights
and sums only at the cells where u, its gradient energy or its operator
image is nonzero, in real arithmetic, and takes coefficients that
broadcast to the grid; it must reproduce this reference bit for bit.
:func:`cutoff_operator_value_hessian` is the cutoff's operator value from
its full gradient and d x d Hessian, contracted with ``einsum``; the
production form reads only eta', eta'' and u.A.u and must agree to rounding.
:func:`delta_sweep_ratios_per_placement` is the delta sweep's ratios
measured one placement at a time: its own squared norm and prefix table,
then one run search, gather and sum per placement.  The production sweep
squares psi once and finds the runs of all placements of one radius in one
search; it must reproduce these ratios bit for bit.
:func:`phase_on_grid` is the synthesized fields' cosine evaluated on every
cell, the cell centers contracted with the wave vector by ``tensordot``;
the production profile is one axis's cosine shaped to broadcast and must
reproduce it bit for bit.  :func:`site_masses_by_slices` sums each site's
unit cube and T-window on its own, selecting the cells by their center
coordinates; the production sums go one axis at a time over prefix sums
and must agree to rounding.  :func:`on_grid` copies every coefficient array
of a field out to the full grid; a field stores each array only along the
axes it varies on, and every result must be the same bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath as mp
import numpy as np
from scipy.special import logsumexp

from uclab.carleman import FD_STEP, SUPPORT_TOL, CarlemanCheck
from uclab.discretization import apply_operator
from uclab.geometry import CubeDomain, ball_runs, generate_sequence

mp.mp.dps = 60

E = mp.e


def eps_sampling(d, theta1, theta2, G=1):
    """Admissibility margin of the sampling/equidistribution theorems."""
    return 1 - 33 * E * d * (mp.sqrt(d) + 2) * theta1**6 * G * theta2


def eps_quc(d, theta1, theta2, R):
    """Admissibility margin of the local quantitative estimate."""
    return 1 - 33 * E * d * R * theta1**6 * theta2


def side_length(d, theta1):
    return int(mp.ceil(2 * (mp.sqrt(d) + 2) * (2 * E * theta1 + 1)))


def rho_mu_mu1(d, theta1, theta2, R, D0, eps0):
    rho = 2 * E * theta1 * R + 2 * D0
    mu = 33 * d * rho * theta1 ** mp.mpf("5.5") * theta2 + rho * eps0 / (
        2 * E * R * mp.sqrt(theta1)
    )
    if mp.sqrt(theta1) * mu <= 1:
        mu1 = mp.exp(mp.sqrt(theta1) * mu)
    else:
        mu1 = E * mp.sqrt(theta1) * mu
    return rho, mu, mu1


def carleman_C_alpha0(d, theta1, theta2, rho, mu, mu1, norm_b, norm_c):
    C_mu = mu - 33 * d * theta1 ** mp.mpf("5.5") * theta2 * rho
    Ct = (
        2
        * d**2
        * theta1**8
        * mp.exp(4 * mu * mp.sqrt(theta1))
        * mu1**4
        * (3 * mu**2 + (9 * rho * theta2 + 3) * mu + 1)
        / C_mu
    )
    at0 = (
        11
        * d**4
        * theta1 ** mp.mpf("16.5")
        * mp.exp(6 * mu * mp.sqrt(theta1))
        * mu1**6
        * (3 * rho * theta2 + mu + 1) ** 2
        * (1 + mu * (mu + 1) / C_mu)
    )
    C = 6 * Ct
    alpha0 = max(
        at0,
        C * rho**2 * norm_b**2 * theta1 ** mp.mpf("1.5"),
        C ** mp.mpf(1 / 3) * rho ** mp.mpf(4 / 3) * norm_c ** mp.mpf(2 / 3) * mp.sqrt(theta1),
    )
    return C, alpha0


def cacciopoli(r, norm_V, norm_b, norm_c, theta1, cprime=1):
    return (
        2 * norm_V**2
        + 1
        + 2 * norm_b**2
        + 8 * theta1**2 * cprime / r**2
        + 2 * norm_c
    )


def alpha_terms(d, theta1, theta2, R, D0, rho, mu, C, beta, norm_b, K_V, M=1, cprime=1,
                norm_V=0, norm_c=0):
    alpha1 = (16 * rho**4 * C * K_V**2 * theta1 ** mp.mpf("1.5")) ** mp.mpf(1 / 3)
    gap = rho / (mp.sqrt(theta1) * E * R * mu)
    cac = cacciopoli(D0 / 2, norm_V, norm_b, norm_c, theta1, cprime)
    bracket = (
        3 * theta1**2
        + 3 * theta1**2 * d**2 / (2 * E * theta1 * R) ** 2
        + 3 * (theta2 * d**2 + norm_b) ** 2
        + 4 * theta1 * cac
    )
    arg = (
        8 * C * rho**3 * mp.sqrt(theta1) * R * beta / (E**2 * mu**2)
        * (M / D0) ** 4
        * bracket
    )
    alpha3 = mp.log(arg) / (2 * mp.log(gap))
    if alpha3 < 0:
        alpha3 = mp.mpf(0)
    return alpha1, alpha3, gap


def log_c_quc(d, theta1, theta2, R, D0, delta, beta, norm_V, norm_b, norm_c,
              K_V, M=1, cprime=1):
    """Natural log of the local mass-fraction constant, end to end."""
    eps0 = eps_quc(d, theta1, theta2, R)
    rho, mu, mu1 = rho_mu_mu1(d, theta1, theta2, R, D0, eps0)
    C, alpha0 = carleman_C_alpha0(d, theta1, theta2, rho, mu, mu1, norm_b, norm_c)
    alpha1, alpha3, _ = alpha_terms(
        d, theta1, theta2, R, D0, rho, mu, C, beta, norm_b, K_V, M, cprime,
        norm_V, norm_c,
    )
    alpha_star = max(alpha0, alpha1, mp.mpf(1), alpha3)
    cac = cacciopoli(delta / 2, norm_V, norm_b, norm_c, theta1, cprime)
    denom = (
        3 * theta1**2
        + 768 * theta1**2 * d**2 / delta**2
        + 3 * (theta2 * d**2 + norm_b) ** 2
        + 4 * theta1 * cac
    )
    T1 = 4 * mu1**2 * mp.sqrt(theta1) * delta**2 / (3 * R * rho * C * M**4) / denom
    return mp.log(T1) + 2 * alpha_star * mp.log(delta / (4 * mu1 * theta1 * R)), {
        "eps0": eps0,
        "rho": rho,
        "mu": mu,
        "mu1": mu1,
        "carleman_C": C,
        "alpha0": alpha0,
        "alpha1": alpha1,
        "alpha3": alpha3,
        "alpha_star": alpha_star,
        "cac_delta_half": cac,
        "cac_D0_half": cacciopoli(D0 / 2, norm_V, norm_b, norm_c, theta1, cprime),
    }


def log_c_quc_lower(d, theta1, theta2, R, delta, beta, norm_V, norm_b, norm_c, K1=1):
    """Natural log of the closed-form lower bound on the local constant."""
    eps0 = eps_quc(d, theta1, theta2, R)
    C1 = (
        K1 * theta1 ** mp.mpf("-15.5") * mp.exp(-10 * theta1)
        / ((1 + theta2) * (theta1 + theta2**2))
    )
    C2 = 10 * E * theta1**2
    C3 = K1 * theta1**25 * mp.exp(15 * theta1) * (1 + theta2) ** 2
    expo = (
        C3 / eps0
        * (1 + norm_V ** mp.mpf(2 / 3) + norm_b**2 + norm_c ** mp.mpf(2 / 3))
        * R**3
        - mp.log(eps0)
        + mp.log(beta)
    )
    return mp.log(C1) + expo * mp.log(delta / (C2 * R))


def log_c_sfuc(d, theta1, theta2, G, delta, norm_V, norm_b, norm_c, K2=1):
    """Natural log of the scale-free sampling constant."""
    eps2 = eps_sampling(d, theta1, theta2, G)
    D1 = (
        K2 * theta1 ** (mp.mpf("-15.5") - d) * mp.exp(-10 * theta1)
        / ((1 + G * theta2) * (theta1 + G**2 * theta2**2))
    )
    D2 = K2 * theta1**2
    D3 = K2 * theta1**25 * mp.exp(15 * theta1) * (1 + G * theta2) ** 2
    expo = (
        D3 / eps2
        * (
            1
            + G ** mp.mpf(4 / 3) * norm_V ** mp.mpf(2 / 3)
            + G**2 * norm_b**2
            + G ** mp.mpf(4 / 3) * norm_c ** mp.mpf(2 / 3)
        )
        - mp.log(eps2)
    )
    return mp.log(D1) + expo * mp.log(delta / (G * D2)), expo


def log_gamma(d, theta1, theta2, G, delta, energy, norm_b, norm_c, K2=1):
    """Natural log of the admissible spectral half-width."""
    eps2 = eps_sampling(d, theta1, theta2, G)
    D1 = (
        K2 * theta1 ** (mp.mpf("-15.5") - d) * mp.exp(-10 * theta1)
        / ((1 + G * theta2) * (theta1 + G**2 * theta2**2))
    )
    D2 = K2 * theta1**2
    D3 = K2 * theta1**25 * mp.exp(15 * theta1) * (1 + G * theta2) ** 2
    expo = (
        D3 / eps2
        * (
            1
            + G ** mp.mpf(4 / 3) * abs(mp.mpf(energy)) ** mp.mpf(2 / 3)
            + G**2 * norm_b**2
            + G ** mp.mpf(4 / 3) * norm_c ** mp.mpf(2 / 3)
        )
        - mp.log(eps2)
    )
    log_gamma_sq = mp.log(D1) - 4 * mp.log(G) + expo * mp.log(delta / (G * D2))
    return log_gamma_sq / 2


def weight_profile(r, mu):
    """Radial weight profile via adaptive high-order quadrature."""
    r = mp.mpf(r)
    mu = mp.mpf(mu)
    if r == 0:
        return mp.mpf(0)

    def integrand(t):
        if t == 0:
            return mu
        return (1 - mp.exp(-mu * t)) / t

    integral = mp.quad(integrand, [0, r])
    return r * mp.exp(-integral)


def ein(x):
    """Ein(x) = euler_gamma + log(x) + E1(x); Ein(0) = 0."""
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0)
    return mp.euler + mp.log(x) + mp.e1(x)


def weight_profile_closed_form(r, mu):
    """Same profile via the exponential-integral identity (second route)."""
    r = mp.mpf(r)
    mu = mp.mpf(mu)
    if r == 0:
        return mp.mpf(0)
    return r * mp.exp(-ein(mu * r))


def canonical_sampling_values():
    """End-to-end values for the canonical configuration used in acceptance:
    d=1, theta1=1, theta2=0, G=1, delta=1/4, all norms zero, free constants 1.
    """
    d = 1
    theta1 = mp.mpf(1)
    theta2 = mp.mpf(0)
    delta = mp.mpf(1) / 4
    T = side_length(d, theta1)
    R = mp.sqrt(d) + 2
    D0 = R / 2
    beta = 2 * mp.mpf(T) ** d
    lq, inter = log_c_quc(
        d, theta1, theta2, R, D0, delta, beta,
        norm_V=mp.mpf(0), norm_b=mp.mpf(0), norm_c=mp.mpf(0), K_V=mp.mpf(0),
    )
    ls, expo = log_c_sfuc(d, theta1, theta2, mp.mpf(1), delta, 0, 0, 0)
    return {
        "T": T,
        "eps2": eps_sampling(d, theta1, theta2, 1),
        "log_c_quc": lq,
        "log_c_sfuc": ls,
        "sfuc_exponent": expo,
        **inter,
    }


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0 here."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def roll_shift(u, axis, step, ghost=None):
    """u[i + step] along ``axis`` from ``np.roll``: wrapped, or with the
    cell past the face set to the face cell times ``ghost``."""
    out = np.roll(u, -step, axis=axis)
    if ghost is not None and step:
        face = -1 if step > 0 else 0
        np.moveaxis(out, axis, 0)[face] = ghost * np.moveaxis(u, axis, 0)[face]
    return out


def roll_difference(u, axis, ahead, behind, ghost=None):
    """u[i + ahead] - u[i + behind] along ``axis`` from two rolls."""
    return roll_shift(u, axis, ahead, ghost) - roll_shift(u, axis, behind, ghost)


def roll_centered_diff(u, axis, h):
    """(u[i+1] - u[i-1]) / (2h) along ``axis``, wrapped, from two rolls."""
    return roll_difference(u, axis, 1, -1) / (2.0 * h)


def _logsum(terms_log, weights):
    mask = weights > 0.0
    if not np.any(mask):
        return -math.inf
    return float(logsumexp(terms_log[mask], b=weights[mask]))


def carleman_check_whole_cube(u, A, b, c, h, weight, alpha, carleman_C, alpha0=None):
    """The weighted-inequality check with every stencil pass, contraction and
    mask taken over the whole cube (same arguments and result as
    ``uclab.carleman.check_carleman_inequality``); A, b and c are
    broadcast to full grids first."""
    d = u.ndim
    n = u.shape[0]
    A = np.broadcast_to(A, u.shape + (d, d)).copy()
    b = None if b is None else np.broadcast_to(b, u.shape + (d,)).copy()
    c = None if c is None else np.broadcast_to(c, u.shape).copy()
    if alpha0 is not None and alpha < alpha0:
        raise ValueError("alpha must be at least the admissible floor alpha0")
    rho = weight.rho
    pts = CubeDomain(d, n * h, h, "periodic").center_grid()
    r = np.sqrt((pts**2).sum(axis=-1))

    umax = float(np.abs(u).max())
    if umax == 0.0:
        return CarlemanCheck(-math.inf, -math.inf, 0.0)
    u = u / umax
    outside = r >= rho
    if np.any(np.abs(u[outside]) > SUPPORT_TOL):
        raise ValueError("u must vanish outside the rho-ball")
    near0 = r <= 2.0 * h
    if np.any(np.abs(u[near0]) > SUPPORT_TOL):
        raise ValueError("u must vanish in a punctured neighborhood of the origin")
    edge = np.zeros_like(u, dtype=bool)
    for axd in range(d):
        sl = [slice(None)] * d
        sl[axd] = [0, 1, -2, -1]
        edge[tuple(sl)] = True
    if np.any(np.abs(u[edge]) > SUPPORT_TOL):
        raise ValueError("u must vanish on a two-cell margin at the cube boundary")

    grad = np.stack([roll_centered_diff(u, axd, h) for axd in range(d)], axis=-1)
    grad_energy = np.real(
        np.einsum("...i,...ij,...j->...", np.conj(grad), A, grad)
    )
    op_u = apply_operator(A, b, c, u, h)
    op_sq = np.abs(op_u) ** 2
    u_sq = np.abs(u) ** 2

    active = (grad_energy > 0.0) | (op_sq > 0.0) | (u_sq > 0.0)
    lw = weight.log_weight(pts[active])
    ge, us, os_ = grad_energy[active], u_sq[active], op_sq[active]

    log_cell = d * math.log(h)
    lhs1 = _logsum((1.0 - 2.0 * alpha) * lw, ge) + math.log(alpha * rho**2) + log_cell
    lhs2 = _logsum((-1.0 - 2.0 * alpha) * lw, us) + 3.0 * math.log(alpha) + log_cell
    lhs_log = float(np.logaddexp(lhs1, lhs2))
    rhs_log = _logsum(
        (2.0 - 2.0 * alpha) * lw, os_
    ) + math.log(carleman_C * rho**4) + log_cell
    try:
        ratio = math.exp(lhs_log - rhs_log)
    except OverflowError:
        ratio = math.inf
    return CarlemanCheck(lhs_log, rhs_log, ratio)


def cutoff_operator_value_hessian(cutoff, A, points, b=None):
    """-div(A grad eta) + b.grad eta at points away from the origin (the
    arguments of ``uclab.carleman.cutoff_operator_value``), from the full
    gradient eta' u and Hessian eta'' u u^T + (eta'/s)(I - u u^T) of the
    radial cutoff; A's derivatives by centered differences of ``FD_STEP``."""
    pts = np.asarray(points, dtype=float)
    d = cutoff.d
    s = np.sqrt((pts**2).sum(axis=-1))
    der = cutoff.radial_derivative(s)
    der2 = cutoff.radial_second_derivative(s)
    unit = pts / s[..., None]
    outer = unit[..., :, None] * unit[..., None, :]
    grad = der[..., None] * unit
    hess = der2[..., None, None] * outer + (der / s)[..., None, None] * (np.eye(d) - outer)
    dA = np.empty(pts.shape[:-1] + (d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = FD_STEP
        dA[..., i, :, :] = (A(pts + e) - A(pts - e)) / (2.0 * FD_STEP)
    div_A = np.einsum("...iij->...j", dA)  # sum_i d_i a[i, j]
    op = -np.einsum("...j,...j->...", div_A, grad)
    op = op - np.einsum("...ij,...ij->...", A(pts), hess)
    if b is not None:
        op = op + np.einsum("...j,...j->...", b(pts), grad)
    return op


def delta_sweep_ratios_per_placement(psi, domain, G, deltas, seq_mode, seq_seeds):
    """The ratios of ``uclab.verifier.delta_sweep`` (same arguments), each
    placement measured alone: at each delta, the mean over the sequence
    seeds of the placement's prefix-table mass over psi's squared norm."""
    total = domain.norm_sq(psi)
    c = domain.block_cells(G)
    dens = (domain.cell_volume * np.abs(psi) ** 2).reshape(-1, domain.n // c, c)
    prefix = np.zeros(dens.shape[:2] + (c + 1,))
    np.cumsum(dens, axis=-1, out=prefix[..., 1:])
    flat = prefix.reshape(-1)
    ratios = []
    for delta in deltas:
        vals = []
        for s in seq_seeds:
            seq = generate_sequence(G, delta, domain.L, domain.d, seq_mode, seed=s)
            _, rows, lo, hi = ball_runs([seq], domain)
            base = rows * (seq.cells_per_axis * (c + 1)) + lo // c
            vals.append(float((flat[base + hi] - flat[base + lo]).sum()) / total)
        ratios.append(float(np.mean(vals)))
    return ratios


if __name__ == "__main__":
    vals = canonical_sampling_values()
    for k, v in vals.items():
        print(f"{k:>16} = {mp.nstr(v, 22)}")


def phase_on_grid(domain, k, phase):
    """cos(2 pi k.x / L + phase) on every cell of ``domain``, ``k`` a
    d-vector: the center grid contracted with ``k`` by ``tensordot``."""
    pts = domain.center_grid()
    arg = 2.0 * math.pi * np.tensordot(pts, k, axes=([-1], [0])) / domain.L
    return np.cos(arg + phase)


def on_grid(field):
    """``field`` with each of A, b, c and V materialized on the full grid by
    ``np.broadcast_to(x, grid).copy()``."""
    shape, d = field.domain.shape, field.domain.d
    return dataclasses.replace(field, **{
        name: np.broadcast_to(x, shape + x.shape[d:]).copy()
        for name, x in (("A", field.A), ("b", field.b), ("c", field.c), ("V", field.V))})


def site_masses_by_slices(psi_ext, T, L, h):
    """(unit_mass, window_mass) of the sites -(L-1)/2 ... (L-1)/2 of each
    axis for ``psi_ext`` on the 3L cube: per site and box, the cells whose
    centers lie within 1/2 (unit cube) or T/2 (window) of the site along
    every axis, summed as one slice."""
    d = psi_ext.ndim
    n = psi_ext.shape[0]
    x = -1.5 * L + (np.arange(n) + 0.5) * h
    dens = np.abs(psi_ext) ** 2 * h**d
    sites = range(-(L - 1) // 2, (L - 1) // 2 + 1)
    masses = []
    for half in (0.5, T / 2.0):
        boxes = [np.flatnonzero(np.abs(x - k) < half) for k in sites]
        mass = np.empty((L,) * d)
        for idx in np.ndindex(mass.shape):
            mass[idx] = dens[np.ix_(*(boxes[i] for i in idx))].sum()
        masses.append(mass)
    return tuple(masses)
