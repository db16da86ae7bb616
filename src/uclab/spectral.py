"""Eigensolves of the assembled operator and spectral-projector samples.

Three paths, chosen from the operator.  A constant-coefficient operator
(``DiscreteOperator.constant_coefficients``: constant A0, no drift, a real
constant c + V, and a diagonal A0 on a Dirichlet cube) is translation
invariant, so its eigenpairs are written down in closed form.  Both boundary
conditions take lambda(k) = sum_i 4 a_ii sin^2(pi k_i/P)/h^2
+ sum_{i != j} a_ij sin(2 pi k_i/P) sin(2 pi k_j/P)/h^2 + shift, the symbol
of the torus of period P (:func:`torus_symbol`, its one home):

- periodic, P = n, modes k in {0..n-1}^d.  The pair {k, -k mod n} gives one
  cos and one sin mode of the phase 2 pi ((m.k) mod n)/n at cell index m, a
  self-conjugate k only the cos mode; both members take lambda from the
  row-major smaller of the two, so the pair is bit-equal;
- Dirichlet, P = 2n, modes k in {1..n}^d, with the product of the sine
  modes sin(pi k_i (m_i + 1/2)/n) (``CubeDomain.sine_mode``), the odd
  reflection of the assembly; A0 is diagonal, so mixed terms add exact zeros.

All N eigenvalues are formed and sorted by (lambda, row-major mode index);
vectors are formed only for the ``count`` lowest, with integer phases and
divided by their exact discrete norms (N or N/2 periodic; n/2 per Dirichlet
axis, n at k = n).  No BLAS reduction enters, so these eigenpairs do not
depend on the BLAS thread count, and inside a degenerate eigenspace the basis
is this canonical one rather than a solver's round-off.

Any other operator takes the dense Hermitian path (LAPACK ``evr``, only the
``count`` lowest pairs) up to DENSE_CUTOFF unknowns or for a ``count`` of N - 1
or more, and otherwise ARPACK shift-invert Lanczos, deterministic through a
seeded start vector; each path returns min(count, N) pairs.  The shift is
``spectral_floor - 1``, below the lower bound on the spectrum that
``discretization.assemble`` computes (Weyl's inequality with a positive
semidefinite second-order part), so the lowest eigenvalues are the ones
nearest it.  Because the shift sits below the
spectrum, M = H - sigma I is Hermitian positive definite: it needs no
pivoting, and its sparsity pattern is symmetric, so SuperLU factorizes it
once with the minimum-degree ordering of the pattern of M^T + M
(``MMD_AT_PLUS_A``), about half the fill of the default column ordering
(COLAMD), and the factorization is handed to Lanczos as the inverse
operator.

Lanczos stops at the residual gate below, not at machine precision.  ARPACK
accepts a Ritz pair (theta, v) of M^-1, unit v, once
||M^-1 v - theta v|| <= tol |theta|.  With lambda = sigma + 1/theta,
H v - lambda v = -M (M^-1 v - theta v) / theta, so
||H v - lambda v|| <= ||M||_2 tol <= ||M||_1 tol.  ``eigsh`` gets
tol = RESIDUAL_TOL max|H| / ||M||_1 (the largest column sum of |M|, which
bounds ||M||_2 as M is Hermitian), so every accepted pair meets the gate's
own bound RESIDUAL_TOL max|H|.

The eigensolve and the projector sample run on one BLAS thread
(``_one_blas_thread``).  On matrices of this size a second BLAS thread only
spins, and its split of the reductions changes the last bits of ARPACK's and
LAPACK's output, so with the pin every path reproduces its bytes whatever
``OPENBLAS_NUM_THREADS`` the process started with.

scipy is imported at the first solve, not with this module, so a process
that never solves never loads it.  Finding the libraries to pin imports
``scipy.linalg`` first, so that scipy's OpenBLAS is mapped when the process
is searched for them (``_openblas_setters``).

Every path is checked against the matrix: the residual ||H v - lambda v||
of each returned pair must stay below RESIDUAL_TOL times the largest entry
of H, or the solve raises, so a wrong closed form fails loudly.  The
residual is relative to ||v||, so the vectors are checked too: max |V^* V - I|
must stay below ORTHONORMALITY_TOL, since the records read mass fractions as
Rayleigh quotients that assume it.

Slices are sorted eigenpairs; projector samples are normalized linear
combinations of slice members within an energy window of half-width gamma
about E, which obey ||(H - E) psi|| <= gamma ||psi|| up to solver residuals.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from uclab.constants import DIMENSION_ERROR, is_dimension
from uclab.discretization import DiscreteOperator, closed_form_covers

__all__ = ["SpectrumSlice", "eigensolve", "projector_sample", "torus_symbol"]

DENSE_CUTOFF = 256      # dense and Lanczos cost about the same here (README)
HERMITICITY_TOL = 1e-9  # allowed |H - H^*| relative to the largest entry
RESIDUAL_TOL = 1e-9     # allowed ||H v - lambda v|| relative to the largest entry
ORTHONORMALITY_TOL = 1e-10  # allowed max |V^* V - I|


@dataclass(frozen=True, eq=False)
class SpectrumSlice:
    """Sorted eigenpairs with their solver residual bound."""

    eigenvalues: np.ndarray     # (k,)
    eigenvectors: np.ndarray    # (N, k), l2-orthonormal columns
    residual_bound: float
    shape: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def grid_vector(self, i: int) -> np.ndarray:
        return self.eigenvectors[:, i].reshape(self.shape)

    def select(self, idx) -> "SpectrumSlice":
        """The members ``idx`` (indices or a boolean mask), same residual
        bound."""
        return SpectrumSlice(
            eigenvalues=self.eigenvalues[idx],
            eigenvectors=self.eigenvectors[:, idx],
            residual_bound=self.residual_bound,
            shape=self.shape,
        )

    def orthonormality_defect(self) -> float:
        g = self.eigenvectors.conj().T @ self.eigenvectors
        return float(np.abs(g - np.eye(len(self))).max())

@functools.cache
def _openblas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS mapped into this
    process, found once from ``/proc/self/maps`` (numpy and scipy each bring
    their own); empty where there is none or no such file.

    scipy is imported only at the first solve, so this imports
    ``scipy.linalg`` before it reads the maps: otherwise a first call made
    before any solve would find numpy's library alone, cache that, and leave
    scipy's LAPACK and ARPACK on all their threads.
    """
    import scipy.linalg  # maps scipy's OpenBLAS into the process

    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in (line.split(None, 5) for line in fh)
                     if len(parts) == 6 and "openblas" in parts[5].rsplit("/", 1)[-1]}
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        fn = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            setters.append(fn)
    return tuple(setters)


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, and restore
    each library's previous count on every exit, a raise included.

    Does nothing when no OpenBLAS is loaded (another BLAS such as MKL, or an
    OS without ``/proc/self/maps``): there the bytes may still depend on the
    BLAS thread count.  The count is process-wide, so calls from several
    Python threads at once may restore each other's counts.
    """
    setters = _openblas_setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


def torus_symbol(domain, A0: np.ndarray, shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The row-major modes k, shape (d, N), and the eigenvalues lambda(k) of
    -div(A0 grad) + shift on a ``CubeDomain``: the torus symbol of period n,
    k in {0..n-1}^d, when periodic and 2n, k in {1..n}^d, when Dirichlet,
    where an A0 that is not diagonal raises a ValueError naming it."""
    d, n, periodic = domain.d, domain.n, domain.bc == "periodic"
    if not closed_form_covers(domain, A0):
        raise ValueError(f"A0 must be diagonal on a Dirichlet cube, got {A0.tolist()}")
    P, k = (n, np.arange(n)) if periodic else (2 * n, np.arange(1, n + 1))
    idx = np.indices((n,) * d).reshape(d, n**d)  # row-major
    s2 = np.sin(np.pi * k / P) ** 2
    t = np.sin(2.0 * np.pi * k / P)
    lam = (sum(4.0 * A0[i, i] * s2[idx[i]] for i in range(d)) + sum(
        A0[i, j] * t[idx[i]] * t[idx[j]]
        for i in range(d) for j in range(d) if i != j)) / domain.h**2 + shift
    return k[idx], lam


def _closed_form_pairs(op: DiscreteOperator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` lowest eigenpairs of a constant-coefficient operator
    (module docstring), sorted by (eigenvalue, row-major mode index)."""
    dom = op.domain
    d, n, periodic = dom.d, dom.n, dom.bc == "periodic"
    modes, lam = torus_symbol(dom, *op.constant_coefficients)
    N = lam.size
    if periodic:
        conj = np.ravel_multi_index(-modes % n, (n,) * d)
        rep = np.minimum(np.arange(N), conj)
        lam = lam[rep]
    sel = np.argsort(lam, kind="stable")[:count]
    if periodic:  # the modes and the cell indices both run over {0..n-1}^d
        phase = 2.0 * np.pi * ((modes.T @ modes[:, rep[sel]]) % n) / n
        vecs = np.where(sel > rep[sel], np.sin(phase), np.cos(phase))
        vecs /= np.sqrt(np.where(conj[sel] == sel, N, N / 2))
    else:
        vecs = np.ones((N, len(sel)))
        for i in range(d):  # the cell index along axis i is k_i - 1
            ki = modes[i, sel]
            vecs *= dom.sine_mode(ki)[modes[i] - 1] / np.sqrt(np.where(ki == n, n, n / 2))
    return lam[sel], vecs


@_one_blas_thread()
def eigensolve(op: DiscreteOperator, count: int, seed: int = 0) -> SpectrumSlice:
    """The ``count`` lowest eigenpairs of a Hermitian operator.

    Closed form for a constant-coefficient operator, dense up to
    DENSE_CUTOFF unknowns or for a ``count`` of N - 1 or more, shift-invert
    Lanczos otherwise (module docstring); min(count, N) pairs on every path.
    Runs on one BLAS thread and is deterministic for a fixed matrix and
    seed.  Raises ``ValueError`` when ``count`` fails the dimension rule, the
    operator is not Hermitian, a returned pair's residual exceeds RESIDUAL_TOL
    times the largest entry of H, or the vectors' orthonormality defect
    exceeds ORTHONORMALITY_TOL.
    """
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if not is_dimension(count):
        raise ValueError(DIMENSION_ERROR.format("count", count))
    H = op.matrix
    N = H.shape[0]
    scale = float(np.abs(H.data).max()) if H.nnz else 1.0
    if op.hermiticity_defect() > HERMITICITY_TOL * scale:
        raise ValueError("operator is not Hermitian within tolerance")

    if op.constant_coefficients is not None:
        vals, vecs = _closed_form_pairs(op, count)
    elif N <= DENSE_CUTOFF or count >= N - 1:  # eigsh takes k < N - 1 on complex H
        vals, vecs = sla.eigh(H.toarray(), subset_by_index=[0, min(count, N) - 1],
                              driver="evr")
    else:
        sigma = op.spectral_floor - 1.0
        shifted = (H - sigma * sp.identity(N, dtype=H.dtype, format="csr")).tocsc()
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
        inverse = spla.LinearOperator((N, N), matvec=lu.solve, dtype=H.dtype)
        v0 = np.random.default_rng(seed).standard_normal(N)
        tol = RESIDUAL_TOL * scale / spla.norm(shifted, 1)
        vals, vecs = spla.eigsh(H, k=count, sigma=sigma, which="LM", v0=v0,
                                OPinv=inverse, tol=tol)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    resid = H @ vecs - vecs * vals
    residual_bound = float(
        np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0))
    )
    if not residual_bound <= RESIDUAL_TOL * scale:
        raise ValueError(f"eigenpair residual {residual_bound:.3g} exceeds "
                         f"{RESIDUAL_TOL:g} x max|H| = {RESIDUAL_TOL * scale:.3g}")
    sl = SpectrumSlice(
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        residual_bound=residual_bound,
        shape=op.domain.shape,
    )
    defect = sl.orthonormality_defect()
    if not defect <= ORTHONORMALITY_TOL:
        raise ValueError(f"eigenvector orthonormality defect {defect:.3g} exceeds "
                         f"{ORTHONORMALITY_TOL:g}")
    return sl


@_one_blas_thread()
def projector_sample(spectrum_slice: SpectrumSlice, coefficients: np.ndarray) -> np.ndarray:
    """Normalized combination of slice members with the given coefficients,
    on the grid."""
    sl = spectrum_slice
    if len(sl) == 0:
        raise ValueError("empty spectral slice")
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (len(sl),):
        raise ValueError("one coefficient per slice member required")
    psi = sl.eigenvectors @ coefficients
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("zero combination")
    return (psi / norm).reshape(sl.shape)
