"""Divergence-form finite differences and cube extensions.

Assembly uses the flux (face-averaged) form for the second-order part and a
skew-symmetrized form for the drift term, so that self-adjoint coefficient
sets produce exactly Hermitian matrices.  A naive centered drift stencil plus
a diagonal zeroth-order term cannot be entrywise Hermitian: the imaginary
divergence correction sits on the diagonal while its counterpart lives on the
off-diagonals.  Writing the drift as (b.grad + grad.(b .))/2 and moving the
leftover -div(b)/2 into the diagonal keeps the scheme second-order consistent
for arbitrary coefficients and structurally Hermitian for self-adjoint ones.

The boundary condition is the field's ``domain.bc``.  Dirichlet boundaries
eliminate ghost cells by odd reflection (the zero sits exactly on the face,
keeping second-order eigenvalue accuracy); the drift term uses a zero ghost,
which preserves the skew structure, and its -div(b)/2 correction takes
:func:`~uclab.fields.divergence_centered`, whose Dirichlet ghost is the face
cell with the normal component negated (the drift parity of :func:`extend`),
so the extended operator applied to the mirrored solution is this operator
on the base cube.  Periodic boundaries wrap indices.  Every neighbour is
read by one helper, ``fields._neighbour``, with the boundary's ghost rule;
it serves both the coefficient values and the stencil columns: shifting the
flat index grid gives each entry's column, and shifting a grid of ones with
the ghost sign (-1 odd, 0 dropped) gives its sign.

Spectral floor.  When A is positive semidefinite in every cell (checked by
:class:`~uclab.fields.CoefficientField`), the second-order part P is PSD.
With D the centered difference (odd ghost at Dirichlet faces, wrapped at
periodic ones), the mixed terms (i != j) are exactly D_i^T a_ij D_j, so
P = D^T A D + sum_i (F_i - D_i^T a_ii D_i), where F_i is the flux part along
axis i.  The first term is a cellwise quadratic form in A.  Each bracket is
>= 0: |u(+) - u(-)|^2 <= 2(|u(+) - u|^2 + |u - u(-)|^2), and a_{i+-1/2} is
the face average of a_ii, so summing a_ii |D_i u|^2 over cells gives at most
the flux form sum over faces of a_f |u' - u|^2 / h^2 (at a Dirichlet face the
two agree, both giving 2 a_ii |u|^2 / h^2).  By Weyl's inequality the lowest
eigenvalue of a Hermitian H is then at least that of H - P, which is the
drift plus the diagonal Re(c + V - div(b)/2); its Gershgorin bound,
min over cells of Re(c + V - div(b)/2) - sum_axes (|b_+| + |b_-|)/(4h), is
``DiscreteOperator.spectral_floor``.

One function, :func:`extend`, carries a solution and its coefficients to the
3L cube; the rule is the domain's boundary condition and the extended
operator comes back as a validated :class:`~uclab.fields.CoefficientField`
on the 3L domain.  A periodic domain is tiled; on a Dirichlet domain the
solution reflects oddly, the diagonal/parallel matrix entries evenly, mixed
entries oddly, and the drift component normal to the face oddly with the
tangential components even.  (The drift parities are the
orientation-consistent ones: the normal component is a direction and flips
with it, which is exactly what keeps the differential inequality invariant
under the reflection.)

:func:`extension_check` measures that step for an eigenpair on every cell
of the 3L cube, with the operator assembled from the extended field: the
extension obeys the base cube's boundary condition there (a tiling is
periodic, an odd mirror's outer ghosts are the next mirror's cells).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from uclab.fields import (
    CoefficientField,
    _neighbour,
    _require_on_grid,
    check_boundary_conditions,
    divergence_centered,
    periodic_centered_diff,
    periodic_gradient,
)
from uclab.geometry import CubeDomain

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DiscreteOperator",
    "assemble",
    "apply_operator",
    "closed_form_covers",
    "extend",
    "extension_check",
    "reflect_block",
    "residual_inequality_check",
]


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Sparse operator with its grid and a lower bound on its spectrum.

    ``spectral_floor`` is set by :func:`assemble`; it bounds the lowest
    eigenvalue from below whenever the matrix is Hermitian (module
    docstring).  ``constant_coefficients`` is ``(A0, shift)`` when the
    operator is -div(A0 grad u) + shift u with a constant matrix A0 and a
    real constant shift = c + V, no drift and, on a Dirichlet cube, a
    diagonal A0: the translation-invariant case whose eigenpairs
    ``spectral.eigensolve`` writes down in closed form.  Otherwise None.
    """

    matrix: sp.csr_matrix
    domain: CubeDomain
    spectral_floor: float
    constant_coefficients: Optional[tuple[np.ndarray, float]] = None

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.matrix @ np.asarray(psi).reshape(-1)
        return out.reshape(self.domain.shape)

    def hermiticity_defect(self) -> float:
        """Largest entry of H - H^* (should be ~1e-16*scale for
        self-adjoint coefficient sets)."""
        diff = self.matrix - self.matrix.getH()
        return 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())


def closed_form_covers(domain: CubeDomain, A0: np.ndarray) -> bool:
    """The closed-form rule for a constant A0: any A0 periodic, a diagonal one Dirichlet."""
    return domain.bc == "periodic" or not np.any(A0 - np.diag(np.diag(A0)))


def _constant_coefficients(
    field: CoefficientField, lower: np.ndarray
) -> Optional[tuple[np.ndarray, float]]:
    """``(A0, shift)`` of a drift-free field whose A and ``lower`` = c + V
    are constant in space, with a real shift and, on a Dirichlet cube, a
    diagonal A0; None otherwise."""
    A0 = field.A[(0,) * field.domain.d]
    shift = lower.flat[0]
    if not (np.all(field.A == A0) and np.all(lower == shift) and shift.imag == 0.0
            and closed_form_covers(field.domain, A0)):
        return None
    return A0.copy(), float(shift.real)


def assemble(field: CoefficientField) -> DiscreteOperator:
    """Sparse matrix of -div(A grad u) + b.grad u + (c + V) u on the grid."""
    import scipy.sparse as sp

    domain = field.domain
    d, n, h = domain.d, domain.n, domain.h
    bc = domain.bc
    shape = domain.shape
    N = n**d
    dtype = float if field.is_real() else complex
    # a Dirichlet ghost reads its face cell, so A and b enter on the full grid
    A, b = (np.broadcast_to(x, shape + x.shape[d:]) for x in (field.A, field.b))

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    arange = np.arange(N)
    flat = arange.reshape(shape)
    ones = np.ones(shape)

    def shifted(arr, axis, step, ghost_sign):  # a Dirichlet ghost: face cell * sign
        return _neighbour(arr, axis, step, ghost=ghost_sign if bc == "dirichlet" else None)

    def emit(offsets: list[tuple[int, int]], coeff: np.ndarray, ghost_sign: float):
        """Add one stencil entry: ``offsets`` is a list of (axis, step); a
        Dirichlet ghost folds onto its mirror cell times ``ghost_sign``."""
        col, sign = flat, ones
        for axis, step in offsets:
            col = shifted(col, axis, step, 1)
            sign = sign * shifted(ones, axis, step, ghost_sign)
        keep = (sign != 0.0).reshape(-1)
        rows.append(arange[keep])
        cols.append(col.reshape(-1)[keep])
        vals.append((coeff * sign).reshape(-1)[keep].astype(dtype))

    diag = np.zeros(shape, dtype=dtype)

    # flux form of the diagonal second-order part (odd ghost)
    for ax in range(d):
        a = A[..., ax, ax]
        a_plus = 0.5 * (a + shifted(a, ax, +1, +1.0))
        a_minus = 0.5 * (a + shifted(a, ax, -1, +1.0))
        diag += ((a_plus + a_minus) / h**2).astype(dtype)
        emit([(ax, +1)], -a_plus / h**2, -1.0)
        emit([(ax, -1)], -a_minus / h**2, -1.0)

    # mixed second-order terms (odd ghost)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            a = A[..., i, j]
            if not np.any(a):
                continue
            for s1 in (+1, -1):
                a_sh = shifted(a, i, s1, -1.0)
                for s2 in (+1, -1):
                    emit([(i, s1), (j, s2)], -(s1 * s2) * a_sh / (4.0 * h**2), -1.0)

    # skew-symmetrized drift (the ghost entry is dropped); ``radius`` is the
    # Gershgorin radius of the drift rows, an overestimate at Dirichlet faces
    radius = 0.0
    constant = None
    if np.any(b):
        for ax in range(d):
            bcomp = b[..., ax]
            b_plus = bcomp + shifted(bcomp, ax, +1, +1.0)
            b_minus = bcomp + shifted(bcomp, ax, -1, +1.0)
            emit([(ax, +1)], b_plus / (4.0 * h), 0.0)
            emit([(ax, -1)], -b_minus / (4.0 * h), 0.0)
            radius = radius + (np.abs(b_plus) + np.abs(b_minus)) / (4.0 * h)
        lower = field.c - 0.5 * divergence_centered(b, h, bc) + field.V
    else:
        lower = field.c + field.V
        constant = _constant_coefficients(field, lower)
    diag += (lower.real if dtype is float else lower).astype(dtype)
    spectral_floor = float(np.min(np.real(lower) - radius))

    rows.append(arange)
    cols.append(arange)
    vals.append(diag.reshape(-1))

    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    ).tocsr()
    return DiscreteOperator(matrix=H, domain=domain, spectral_floor=spectral_floor,
                            constant_coefficients=constant)


def apply_operator(
    A: np.ndarray,
    b: Optional[np.ndarray],
    c: Optional[np.ndarray],
    u: np.ndarray,
    h: float,
    *,
    grad: Optional[list[np.ndarray]] = None,
) -> np.ndarray:
    """Matrix-free periodic-stencil application of the operator
    -div(A grad u) + b.grad u + c u; ``c`` is the whole zeroth-order
    coefficient, and a None ``b`` or ``c`` is absent.

    Index arithmetic matches :func:`assemble` with periodic wrapping, so for
    data that is genuinely periodic (or compactly supported away from the
    boundary) the result is exact on interior cells.  Each coefficient
    broadcasts to u's grid: d leading axes of extent n or 1, then (d, d)
    for ``A`` and (d,) for ``b``; any other shape raises a ValueError that
    names it.  A constant therefore costs O(1) and gives the bits of its
    full grid: its face average 0.5 (a + a) is a exactly, and its centered
    divergence is exactly 0, so that term is skipped (``out`` starts at
    +0.0 and only gains sums, so it never holds -0.0 and subtracting a zero
    leaves it unchanged).  The centered differences of u are computed once;
    a caller that holds them passes ``grad`` = ``periodic_gradient(u, h)``.
    """
    d = u.ndim
    _require_on_grid(u.shape, A, b, c)
    any_complex = any(np.iscomplexobj(x) for x in (u, b, c) if x is not None)
    # every term is added in place to ``out``; the sums and their order are
    # those of ``out = out + term``
    out = np.zeros(u.shape, dtype=complex if any_complex else float)
    if grad is None:
        grad = periodic_gradient(u, h)
    # each whole-cube term is formed in place and dropped once it is added,
    # so at most two temporaries live besides ``out``; every product keeps
    # the coefficient as its first operand and every sum its operand order,
    # which gives the bits of the whole-array expressions
    for ax in range(d):
        a = A[..., ax, ax]
        flux = _neighbour(u, ax, 0, +1)
        np.multiply(0.5 * (a + _neighbour(a, ax, +1)), flux, out=flux)
        behind = _neighbour(u, ax, 0, -1)
        np.multiply(0.5 * (a + _neighbour(a, ax, -1)), behind, out=behind)
        flux += behind
        del behind
        flux /= h**2
        out += flux
        del flux
    for i in range(d):
        for j in range(d):
            if i == j or not np.any(A[..., i, j]):
                continue
            out -= periodic_centered_diff(A[..., i, j] * grad[j], i, h)
    if b is not None and np.any(b):
        for ax in range(d):
            bcomp = b[..., ax]
            drift = periodic_centered_diff(bcomp * u, ax, h)
            np.add(bcomp * grad[ax], drift, out=drift)
            drift *= 0.5
            out += drift
            del drift
        div = divergence_centered(b, h, "periodic")
        if np.any(div):
            out -= 0.5 * div * u
        del div
    if c is not None:
        out += c * u
    return out


# parity of each quantity under reflection across a face normal to axis p
def reflect_block(arr: np.ndarray, axis: int, kind: str) -> np.ndarray:
    """Mirror ``arr`` across a face normal to ``axis`` with the sign rules.

    ``kind``: ``psi`` (odd), ``scalar`` (even: c, V, zeta), ``vector`` (drift:
    normal component odd, tangential even), ``matrix`` (mixed rows/columns of
    the reflected axis odd, the rest even); the last axis of a vector or
    matrix block is its dimension d.
    """
    flipped = np.flip(arr, axis=axis)
    if kind == "psi":  # negated: * -1.0 gives another sign to a complex zero imaginary part
        return -flipped
    if kind == "scalar":
        return flipped
    normal = np.where(np.arange(arr.shape[-1]) == axis, -1.0, 1.0)  # -1 on the normal component
    return flipped * {"vector": normal, "matrix": np.outer(normal, normal)}[kind]


def _jump_allowance(psi: np.ndarray, h: float) -> float:
    """The interface jump allowed at a seam of the extension of ``psi``:
    10*h*|grad psi|_sup, with |grad psi|_sup = max over axes of max|diff|/h."""
    return 10.0 * h * max(np.abs(np.diff(psi, axis=ax)).max() / h for ax in range(psi.ndim))


def dirichlet_trace_excess(psi: np.ndarray, h: float) -> float:
    """How far the boundary layer of ``psi`` exceeds half the allowed
    interface jump; <= 0 means a clean zero trace."""
    worst = max(float(np.abs(np.take(psi, i, axis=ax)).max())
                for ax in range(psi.ndim) for i in (0, -1))
    return worst - 0.5 * _jump_allowance(psi, h)


# reflect_block kind of each extended array
_PARITY = {
    "psi": "psi", "A": "matrix", "b": "vector", "c": "scalar", "V": "scalar",
    "zeta": "scalar",
}


def extend(
    psi: np.ndarray, field: CoefficientField, zeta: Optional[np.ndarray] = None
) -> tuple[np.ndarray, CoefficientField, Optional[np.ndarray]]:
    """Extend ``psi``, ``field`` and ``zeta`` to the 3L cube around the domain.

    The rule is the domain's boundary condition: a periodic problem is tiled
    three times per axis, a Dirichlet one is mirrored with the parities of
    :func:`reflect_block`.  Returns ``(psi3, field3, zeta3)``, with ``field3``
    on ``CubeDomain(d, 3L, h, bc)``; ``zeta3`` is None when ``zeta`` is.
    A coefficient keeps its stored extents: an axis of extent 1 stays so
    unless the mirror flips a sign there, as on a constant normal drift.
    """
    dom = field.domain
    d, bc = dom.d, dom.bc
    for name, u in (("psi", psi), ("zeta", zeta)):
        if u is not None and np.shape(u) != dom.shape:
            raise ValueError(f"grid function shape mismatch: {name} has shape {np.shape(u)}, "
                             f"not the field's grid {dom.shape}")
    rep = check_boundary_conditions(field)
    if not rep["ok"]:
        name = "periodic" if bc == "periodic" else "Dirichlet"
        raise ValueError(f"{name} compatibility violated by {rep['worst_violation']:.3g}")
    if bc == "dirichlet":
        excess = dirichlet_trace_excess(psi, dom.h)
        if excess > 0.0:
            raise ValueError(f"psi boundary trace too large by {excess:.3g}")
    parts = dict(A=field.A, b=field.b, c=field.c, V=field.V, psi=psi, zeta=zeta)
    for ax in range(d):
        for name, arr in parts.items():
            if arr is None:
                continue
            side = arr if bc == "periodic" else reflect_block(arr, ax, _PARITY[name])
            # an extent-1 axis the rule leaves unchanged stays extent 1
            if arr.shape[ax] > 1 or not np.array_equal(side, arr):
                k = dom.n // arr.shape[ax]  # n copies of a sign-flipped unit axis
                parts[name] = np.concatenate([side] * k + [arr] * k + [side] * k, axis=ax)
    psi3, zeta3 = parts.pop("psi"), parts.pop("zeta")
    field3 = replace(field, domain=CubeDomain(d, 3 * dom.L, dom.h, bc), **parts)
    return psi3, field3, zeta3


def extension_check(field: CoefficientField, psi: np.ndarray, lam: float) -> dict:
    """Extend the eigenpair ``(psi, lam)`` of ``field`` and |H psi - lam psi|
    to the 3L cube and measure two gates.  ``interface_jump_rel``: the worst
    jump of psi3 across the lower seam of each axis over 10*h*|grad psi|_sup;
    the wrap jump on a periodic cube, and on a Dirichlet one 2|psi| on a face,
    which :func:`extend` bounds by the allowance, so it cannot fail there.
    ``residual``: the worst excess of |H3 psi3| over |lam psi3| + |zeta3| on
    the 3L cube, H3 = ``assemble(field3)``, over max(|lam|, 1)."""
    zeta = assemble(field).apply(psi) - lam * psi
    psi3, field3, zeta3 = extend(psi, field, zeta=np.abs(zeta))
    n = field.domain.n
    jump = max(float(np.abs(np.take(psi3, n - 1, axis=ax) - np.take(psi3, n, axis=ax)).max())
               for ax in range(psi.ndim))
    viol = residual_inequality_check(psi3, lam, zeta3, assemble(field3).apply(psi3))
    return {
        # a constant psi has no jump and no allowance
        "interface_jump_rel": jump and float(jump / _jump_allowance(psi, field.domain.h)),
        "residual": viol / max(abs(lam), 1.0),
    }


def residual_inequality_check(
    psi: np.ndarray,
    V_compare: np.ndarray | float,
    zeta: np.ndarray | float,
    op_psi: np.ndarray,
) -> float:
    """Worst cellwise violation of |Op psi| <= |V psi| + |zeta|.

    ``op_psi`` is the discrete operator applied to psi (assembled matrix or
    matrix-free).  Nonpositive return means the inequality holds.
    """
    viol = np.abs(op_psi) - np.abs(np.asarray(V_compare) * psi) - np.abs(zeta)
    return float(viol.max())
