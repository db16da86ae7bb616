"""Coefficient fields: construction, validation, and the self-adjoint form.

A field holds the matrix ``A``, drift ``b``, zeroth-order ``c`` and potential
``V`` on the cell-centered cube grid with declared ellipticity/Lipschitz
constants.  One shape rule, ``_require_on_grid``, serves every coefficient
array: d leading axes of extent n or 1, so an array stores only the axes it
varies on.  Validation and norms read the stored cells; only ``assemble``
and :func:`make_self_adjoint`, which read face cells, broadcast to the grid,
and ``extend`` keeps the stored extents.  Matrix norms are row-sum norms.
Builders and checks read the boundary condition from ``CubeDomain.bc``; only
:func:`divergence_centered`, which also serves raw arrays, takes it as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from uclab.constants import bound_error
from uclab.geometry import CubeDomain

__all__ = [
    "CoefficientField",
    "estimate_ellipticity",
    "estimate_lipschitz",
    "periodic_centered_diff",
    "periodic_gradient",
    "periodic_gradient_energy",
    "divergence_centered",
    "make_self_adjoint",
    "check_boundary_conditions",
    "constant_spd_field",
    "save_field",
    "load_field",
    "synthesize_dir_cross_field",
    "synthesize_random_field",
]


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """(A, b, c, V), each stored on the grid axes it varies on, with declared constants."""

    domain: CubeDomain
    A: np.ndarray          # grid + (d, d), real symmetric
    b: np.ndarray          # grid + (d,), complex
    c: np.ndarray          # grid, complex
    V: np.ndarray          # grid, real
    declared_theta1: float
    declared_theta2: float

    def __post_init__(self):
        _require_on_grid(self.domain.shape, self.A, self.b, self.c, self.V)
        for name in ("A", "b", "c", "V"):
            _require_finite(name, getattr(self, name))
        if bad := (bound_error(">=", 1, declared_theta1=self.declared_theta1)
                   or bound_error(">=", 0, declared_theta2=self.declared_theta2)):
            raise ValueError(bad)
        if not np.array_equal(self.A, np.swapaxes(self.A, -1, -2)):
            raise ValueError("A must be exactly symmetric cellwise")
        # assemble's spectral floor rests on a PSD second-order part
        scale = float(np.abs(self.A).max())
        lowest = np.linalg.eigvalsh(self.A)[..., 0]
        bad = int(np.count_nonzero(lowest < -1e-12 * scale))
        if bad:
            raise ValueError(
                f"A must be positive semidefinite in every cell; {bad} cells "
                "have a negative eigenvalue"
            )

    @property
    def norm_V(self) -> float:
        return float(np.abs(self.V).max())

    @property
    def norm_b(self) -> float:
        return float(np.sqrt((np.abs(self.b) ** 2).sum(axis=-1)).max())

    @property
    def norm_c(self) -> float:
        return float(np.abs(self.c).max())

    def is_real(self) -> bool:
        return not (np.iscomplexobj(self.b) and self.b.any()) and not any(
            np.iscomplexobj(x) and x.imag.any() for x in (self.c, self.V))


def _require_finite(name: str, value) -> None:
    """Raise a ValueError naming ``value`` when it holds a NaN or inf."""
    finite = np.isfinite(value)
    if not finite.all():
        bad = int(np.count_nonzero(~finite))
        raise ValueError(f"{name} must be finite; {bad} entries are NaN or inf")


def _require_on_grid(grid: tuple[int, ...], A, b, c, V=None) -> None:
    """The shape rule of every coefficient array.  Raise a ValueError naming
    the first of ``A``, ``b``, ``c`` and ``V`` (None is absent) whose shape
    is not one axis of extent n or 1 per axis of ``grid``, then (d, d),
    (d,), nothing and nothing: an array that broadcasts to it; or naming a
    complex ``A`` (a dtype test: no pass over the cells)."""
    d = len(grid)
    for name, value, tail in (("A", A, (d, d)), ("b", b, (d,)), ("c", c, ()), ("V", V, ())):
        shape = np.shape(value)
        if value is not None and (len(shape) != d + len(tail) or shape[d:] != tail
                                  or any(k not in (1, n) for k, n in zip(shape, grid))):
            raise ValueError(f"{name} of shape {shape} does not broadcast to {grid} + {tail}")
    if np.iscomplexobj(A):
        raise ValueError(f"A must be a real matrix field, got {np.asarray(A).dtype}")


def estimate_ellipticity(A: np.ndarray) -> float:
    """max over cells of max(lambda_max, 1/lambda_min), clamped to >= 1.

    Raises when any cell fails positive definiteness.
    """
    w = np.linalg.eigvalsh(A)
    lo = w[..., 0]
    hi = w[..., -1]
    bad = int(np.count_nonzero(lo <= 0.0))
    if bad:
        raise ValueError(f"{bad} cells are not positive definite")
    return max(1.0, float(hi.max()), float((1.0 / lo).max()))


def estimate_lipschitz(A: np.ndarray, h: float) -> float:
    """max over axis-adjacent cell pairs of ||dA||_rowsum / h (a lower bound
    on the true constant, converging under refinement for C^1 fields)."""
    worst = 0.0
    for ax in range(A.ndim - 2):
        diff = np.abs(np.diff(A, axis=ax))
        rowsum = diff.sum(axis=-1).max(axis=-1)  # row-sum norm per pair
        if rowsum.size:
            worst = max(worst, float(rowsum.max()))
    return worst / h


def _neighbour(u: np.ndarray, axis: int, ahead: int, behind: Optional[int] = None,
               ghost: Optional[float] = None) -> np.ndarray:
    """u[i + ahead], minus u[i + behind] when ``behind`` is given, along
    ``axis`` (steps in {-1, 0, 1}), read by slicing.  With ``ghost`` None
    the faces wrap (periodic); otherwise the ghost cell past a (Dirichlet)
    face is the face cell times ``ghost``.  Each cell is the arithmetic of
    ``np.roll`` with the face cell overwritten, without the rolled copies."""
    n = u.shape[axis]
    out = np.empty_like(u)

    def cells(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    def read(start, stop, step):  # u at cells start + step ... stop - 1 + step
        if stop == start + 1 and not 0 <= start + step < n:  # past a face
            j = (start + step) % n
            return u[cells(j, j + 1)] if ghost is None else ghost * u[cells(start, stop)]
        return u[cells(start + step, stop + step)]

    for start, stop in [(1, n - 1)] + [(i, i + 1) for i in {0, n - 1}]:
        where = out[cells(start, stop)]
        if behind is None:
            where[...] = read(start, stop, ahead)
        else:
            np.subtract(read(start, stop, ahead), read(start, stop, behind), out=where)
    return out


def periodic_centered_diff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """(u[i+1] - u[i-1]) / (2h) along ``axis`` with periodic wrapping."""
    diff = _neighbour(u, axis, 1, -1)
    diff /= 2.0 * h
    return diff


def periodic_gradient(u: np.ndarray, h: float) -> list[np.ndarray]:
    """The :func:`periodic_centered_diff` of ``u`` along each axis."""
    return [periodic_centered_diff(u, ax, h) for ax in range(u.ndim)]


def periodic_gradient_energy(grad: list[np.ndarray], A: np.ndarray) -> np.ndarray:
    """conj(grad u).A.grad u per cell for a real ``A``, from the centered
    differences ``grad`` = ``periodic_gradient(u, h)``; the (i, j) terms are
    summed in row-major order, each formed as einsum forms it:
    (Re g_i A_ij) Re g_j + (Im g_i A_ij) Im g_j.  ``A`` broadcasts to the
    grid: d leading axes of extent n or 1, then (d, d).  The terms are
    formed in two scratch arrays (one for the imaginary parts) and added in
    place to one array that starts at +0.0 and so never holds -0.0; the
    sums round as nested ``sum`` calls do."""
    d = len(grad)
    parts = [(g.real, g.imag) if np.iscomplexobj(g) else (g,) for g in grad]
    shape = grad[0].shape
    energy = np.zeros(shape)
    term = np.empty(shape)
    im = np.empty(shape) if any(len(p) == 2 for p in parts) else None
    for i in range(d):
        for j in range(d):
            a = A[..., i, j]
            np.multiply(parts[i][0], a, out=term)
            term *= parts[j][0]
            if len(parts[i]) == 2:  # the imaginary parts
                np.multiply(parts[i][1], a, out=im)
                im *= parts[j][1]
                term += im
            energy += term
    return energy


def divergence_centered(
    bgrid: np.ndarray, h: float, bc: Literal["dirichlet", "periodic"]
) -> np.ndarray:
    """Centered-difference divergence of a vector grid: wrapped at periodic
    faces; at a Dirichlet face the ghost cell is the face cell with the
    normal component negated, the ``vector`` parity of
    ``discretization.reflect_block``.

    The operator assembly subtracts exactly this quantity, so self-adjoint
    fields built by :func:`make_self_adjoint` produce exactly real diagonals,
    and on a Dirichlet cube it is the divergence the mirrored field has on
    the 3L cube.
    """
    ghost = -1.0 if bc == "dirichlet" else None
    total = 0
    for ax in range(bgrid.shape[-1]):
        total = total + _neighbour(bgrid[..., ax], ax, 1, -1, ghost) / (2.0 * h)
    return total


def make_self_adjoint(
    b_tilde: np.ndarray, c_tilde: np.ndarray, domain: CubeDomain
) -> tuple[np.ndarray, np.ndarray]:
    """Self-adjoint lower-order coefficients on ``domain``: b = i*b_tilde and
    c = c_tilde + i*div(b_tilde)/2 with the centered discrete divergence of
    the domain's boundary condition."""
    b_tilde = np.asarray(b_tilde, dtype=float)
    c_tilde = np.asarray(c_tilde, dtype=float)
    b = 1j * b_tilde
    grid = np.broadcast_to(b_tilde, domain.shape + (domain.d,))  # a ghost reads its face
    c = c_tilde + 0.5j * divergence_centered(grid, domain.h, domain.bc)
    return b, c


def check_boundary_conditions(field: CoefficientField) -> dict:
    """Report worst violations of the coefficient boundary conditions of
    the field's domain.

    Dirichlet-compatibility requires the off-diagonal entries of A to vanish
    on the faces; periodic compatibility requires every entry's opposite-face
    traces to differ by at most one Lipschitz step across the seam.
    """
    dom = field.domain
    d, h, t2 = dom.d, dom.h, field.declared_theta2
    tol = 10.0 * h * max(t2, 1e-12)
    report: dict = {"bc": dom.bc, "tolerance": tol}
    worst = 0.0
    if dom.bc == "dirichlet":
        idx = np.arange(d)
        for ax in range(d):
            for face in (0, -1):
                offdiag = np.take(field.A, face, axis=ax)  # a copy
                offdiag[..., idx, idx] = 0.0
                worst = max(worst, float(np.abs(offdiag).max()))
        report["kind"] = "offdiagonal_face_trace"
    else:
        # only the second-order coefficients carry the periodicity condition
        for ax in range(d):
            first = np.take(field.A, 0, axis=ax)
            last = np.take(field.A, -1, axis=ax)
            jump = float(np.abs(first - last).max())
            worst = max(worst, jump - h * t2)
        worst = max(worst, 0.0)
        report["kind"] = "wraparound_jump_excess"
    report["worst_violation"] = worst
    report["ok"] = bool(worst <= tol)
    return report


def save_field(path, field: CoefficientField) -> None:
    """Self-describing field file: header (d, L, h, bc, layout row-major,
    declared constants) plus the raw grids."""
    dom = field.domain
    np.savez(
        path,
        header_d=dom.d, header_L=dom.L, header_h=dom.h,
        header_bc=dom.bc, header_layout="row-major",
        declared_theta1=field.declared_theta1,
        declared_theta2=field.declared_theta2,
        A=field.A, b=field.b, c=field.c, V=field.V,
    )


def load_field(path) -> CoefficientField:
    """Exact (bit-for-bit) inverse of :func:`save_field`."""
    with np.load(path, allow_pickle=False) as data:
        dom = CubeDomain(
            int(data["header_d"]), float(data["header_L"]),
            float(data["header_h"]), str(data["header_bc"]),
        )
        return CoefficientField(
            domain=dom, A=data["A"], b=data["b"], c=data["c"], V=data["V"],
            declared_theta1=float(data["declared_theta1"]),
            declared_theta2=float(data["declared_theta2"]),
        )


def _phase(domain: CubeDomain, axis: int, k: int, phase: float) -> np.ndarray:
    """cos(2 pi k x / L + phase) of the cell centers x along ``axis``, shaped
    to broadcast against the grid (extent 1 on the other axes); integer k
    keeps it periodic."""
    arg = 2.0 * math.pi * (domain.centers_1d() * k) / domain.L
    return np.cos(arg + phase).reshape((1,) * axis + (-1,) + (1,) * (domain.d - 1 - axis))


def _bounded_potential(rng: np.random.Generator, norm_V: float,
                      shape: tuple[int, ...]) -> np.ndarray:
    """i.i.d. uniform potential on [-norm_V, norm_V] drawn from ``rng``, one
    zero cell (no draw) when norm_V is 0; norm_V must be finite and >= 0."""
    if bad := bound_error(">=", 0, norm_V=norm_V):
        raise ValueError(bad)
    return rng.uniform(-norm_V, norm_V, size=shape) if norm_V > 0 else np.zeros((1,) * len(shape))


def constant_spd_field(seed: int, domain: CubeDomain, theta1: float) -> np.ndarray:
    """Constant symmetric positive-definite A with the spectrum pinned to
    [1/theta1, theta1] (so the ellipticity estimate is exactly theta1, when
    theta1 > 1), stored as one cell: ``A[(0,) * d]`` is the matrix.  A is
    diagonal on a Dirichlet domain, which keeps it Dirichlet-compatible,
    and randomly rotated on a periodic one."""
    rng = np.random.default_rng(seed)
    d = domain.d
    lam = np.exp(rng.uniform(-math.log(theta1), math.log(theta1), size=d)) \
        if theta1 > 1.0 else np.ones(d)
    if theta1 > 1.0:
        lam[0] = theta1
        if d > 1:
            lam[1] = 1.0 / theta1
    if domain.bc == "dirichlet" or d == 1:
        A0 = np.diag(lam)
    else:
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A0 = Q @ np.diag(lam) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
    return A0.reshape((1,) * d + (d, d))


def synthesize_dir_cross_field(
    seed: int,
    domain: CubeDomain,
    theta1: float,
    norm_V: float = 0.0,
) -> CoefficientField:
    """Dirichlet-compatible field with genuinely nonzero off-diagonal
    coefficients shaped to vanish on every face (d >= 2).

    Eigenvalues are mid +/- s(x) with the envelope peaking near 1, so the
    measured ellipticity sits at theta1 up to grid quantization; the declared
    Lipschitz constant is measured from the realized grid.
    """
    if domain.d < 2:
        raise ValueError("cross-coefficient construction needs d >= 2")
    if bad := bound_error(">", 1, theta1=theta1):  # off-diagonals need theta1 > 1
        raise ValueError(bad)
    V = _bounded_potential(np.random.default_rng(seed), norm_V, domain.shape)
    d = domain.d
    envelope = math.prod(np.meshgrid(*[domain.sine_mode(1)] * d, indexing="ij", sparse=True))
    mid = 0.5 * (theta1 + 1.0 / theta1)
    smax = 0.5 * (theta1 - 1.0 / theta1)
    A = np.zeros(domain.shape + (d, d))
    idx = np.arange(d)
    A[..., idx, idx] = mid
    A[..., 0, 1] = smax * envelope
    A[..., 1, 0] = smax * envelope
    return CoefficientField(
        domain=domain, A=A,
        b=np.zeros((1,) * d + (d,), dtype=complex),
        c=np.zeros((1,) * d, dtype=complex),
        V=V,
        declared_theta1=estimate_ellipticity(A),
        declared_theta2=estimate_lipschitz(A, domain.h),
    )


# relative tolerance of synthesize_random_field's measured constants
SYNTHESIS_TOL = 0.05


def synthesize_random_field(
    seed: int,
    domain: CubeDomain,
    target_theta1: float = 1.0,
    target_theta2: float = 0.0,
    norm_V: float = 0.0,
    norm_b: float = 0.0,
    norm_c: float = 0.0,
    sa: bool = False,
) -> CoefficientField:
    """Low-frequency trigonometric synthesis hitting the declared constants.

    With a zero Lipschitz target A is a constant matrix whose spectrum pins
    the ellipticity target exactly.  Otherwise the log-amplitude of a scalar
    (diagonal) A is a two-mode cosine along a random axis, divided by its
    largest magnitude over the cell centers, so the ellipticity measured on
    the grid hits its target exactly on every grid; the mode mixture is
    bisected until the measured Lipschitz constant lands within
    ``SYNTHESIS_TOL`` of its target.  On a Dirichlet domain A is diagonal
    and every cosine has phase zero.  Each array keeps only the axes it varies on.
    Raises when the Lipschitz target is unreachable at the grid's frequency
    resolution, when a measured constant misses its target by more than
    ``SYNTHESIS_TOL`` relative, and on a target or norm that is not finite or
    below its floor (theta1 >= 1, the rest >= 0).  Deterministic per seed.
    """
    if bad := (bound_error(">=", 1, target_theta1=target_theta1)
               or bound_error(">=", 0, target_theta2=target_theta2, norm_V=norm_V,
                              norm_b=norm_b, norm_c=norm_c)):
        raise ValueError(bad)
    rng = np.random.default_rng(seed)
    d, n, h = domain.d, domain.n, domain.h
    unit = (1,) * d
    beta = math.log(target_theta1)

    def draw_phase() -> float:
        # phase zero keeps each cosine even about the faces of a Dirichlet domain
        return float(rng.uniform(0, 2 * math.pi)) if domain.bc == "periodic" else 0.0

    if target_theta2 == 0.0 or beta == 0.0:
        if target_theta2 > 0.0:
            raise ValueError("cannot vary A with unit ellipticity target")
        A = constant_spd_field(seed, domain, target_theta1)
    else:
        axis = int(rng.integers(d))
        phase = draw_phase()

        def profile(wmix: float, kbase: int) -> np.ndarray:
            f = wmix * _phase(domain, axis, kbase, phase) + (1.0 - wmix) * _phase(
                domain, axis, 2 * kbase, 2 * phase
            )
            # the sampled max |f| is 1, so max(a, 1/a) is exp(beta) = theta1
            return np.exp(beta * (f / np.abs(f).max()))

        def measured(wmix: float, kbase: int) -> float:
            a = profile(wmix, kbase)
            return float(np.abs(np.diff(a, axis=axis)).max()) / h

        kmax = max(1, n // 8)
        c1 = measured(1.0, 1)
        if target_theta2 < c1 * (1.0 - SYNTHESIS_TOL):
            raise ValueError(
                f"Lipschitz target {target_theta2} below the k=1 floor {c1:.3g}"
            )
        kbase = max(1, int(target_theta2 / c1))
        while kbase > 1 and measured(1.0, kbase) > target_theta2:
            kbase -= 1
        while measured(0.0, kbase) < target_theta2:
            kbase += 1
            if kbase > kmax:
                raise ValueError(
                    f"Lipschitz target {target_theta2} above the frequency cutoff"
                )
        wlo, whi = 0.0, 1.0
        for _ in range(40):
            wmid = 0.5 * (wlo + whi)
            if measured(wmid, kbase) < target_theta2:
                whi = wmid
            else:
                wlo = wmid
        a = profile(0.5 * (wlo + whi), kbase)
        A = a[..., None, None] * np.eye(d)

    V = _bounded_potential(rng, norm_V, domain.shape)

    if norm_b > 0.0:
        prof = _phase(domain, int(rng.integers(d)), 1, draw_phase())
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        b_tilde = norm_b * prof[..., None] * direction
    else:
        b_tilde = np.zeros(unit + (d,))

    if norm_c > 0.0:
        c_tilde = norm_c * _phase(domain, int(rng.integers(d)), 1, draw_phase())
    else:
        c_tilde = np.zeros(unit)

    if sa:
        b, c = make_self_adjoint(b_tilde, c_tilde, domain)
    else:
        b, c = b_tilde.astype(complex), c_tilde.astype(complex)

    field = CoefficientField(
        domain=domain, A=A, b=b, c=c, V=V,
        declared_theta1=target_theta1, declared_theta2=target_theta2,
    )
    got1 = estimate_ellipticity(field.A)
    if abs(got1 - target_theta1) > SYNTHESIS_TOL * target_theta1:
        raise ValueError(f"ellipticity target missed: {got1} vs {target_theta1}")
    if target_theta2 > 0.0:
        got2 = estimate_lipschitz(field.A, h)
        if abs(got2 - target_theta2) > SYNTHESIS_TOL * target_theta2:
            raise ValueError(f"Lipschitz target missed: {got2} vs {target_theta2}")
    return field
