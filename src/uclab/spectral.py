"""Eigensolves of the assembled operator and spectral-projector samples.

Dense Hermitian decomposition at desk scale, ARPACK shift-invert Lanczos for
the ``count`` lowest eigenpairs of larger matrices (deterministic through a
seeded start vector).  The shift is ``spectral_floor - 1``, below the lower
bound on the spectrum that ``discretization.assemble`` computes (Weyl's
inequality with a positive semidefinite second-order part), so the lowest
eigenvalues are the ones nearest it.  Because the shift sits below the
spectrum, M = H - sigma I is Hermitian positive definite: it needs no
pivoting, and its sparsity pattern is symmetric, so SuperLU factorizes it
once with the minimum-degree ordering of the pattern of M^T + M
(``MMD_AT_PLUS_A``), about half the fill of the default column ordering
(COLAMD), and the factorization is handed to Lanczos as the inverse
operator.

Slices are sorted eigenpairs; projector samples are normalized linear
combinations of slice members within an energy window of half-width gamma
about E, which obey ||(H - E) psi|| <= gamma ||psi|| up to solver residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from uclab.discretization import DiscreteOperator

__all__ = ["SpectrumSlice", "eigensolve", "projector_sample"]

DENSE_CUTOFF = 2048
HERMITICITY_TOL = 1e-9  # allowed |H - H^*| relative to the largest entry


@dataclass(frozen=True)
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

    def dump(self, prefix) -> None:
        """Eigenpair dump: <prefix>.csv (index, eigenvalue) and
        <prefix>.npy (vectors)."""
        with open(f"{prefix}.csv", "w") as fh:
            fh.write("index,eigenvalue\n")
            for i, lam in enumerate(self.eigenvalues):
                fh.write(f"{i},{float(lam)!r}\n")
        np.save(f"{prefix}.npy", self.eigenvectors)


def eigensolve(op: DiscreteOperator, count: int, seed: int = 0) -> SpectrumSlice:
    """The ``count`` lowest eigenpairs of a Hermitian operator.

    Dense path below DENSE_CUTOFF unknowns, shift-invert Lanczos above it
    (module docstring).  Deterministic for a fixed matrix and seed.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    H = op.matrix
    N = H.shape[0]
    scale = float(np.abs(H.data).max()) if H.nnz else 1.0
    if op.hermiticity_defect() > HERMITICITY_TOL * scale:
        raise ValueError("operator is not Hermitian within tolerance")

    if N <= DENSE_CUTOFF:
        vals, vecs = np.linalg.eigh(H.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        sigma = op.spectral_floor - 1.0
        shifted = (H - sigma * sp.identity(N, dtype=H.dtype, format="csr")).tocsc()
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")
        inverse = spla.LinearOperator((N, N), matvec=lu.solve, dtype=H.dtype)
        v0 = np.random.default_rng(seed).standard_normal(N)
        vals, vecs = spla.eigsh(H, k=count, sigma=sigma, which="LM", v0=v0,
                                OPinv=inverse)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    resid = H @ vecs - vecs * vals
    residual_bound = float(
        np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0))
    )
    return SpectrumSlice(
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        residual_bound=residual_bound,
        shape=op.domain.shape,
    )


def projector_sample(
    spectrum_slice: SpectrumSlice,
    coefficients: Optional[np.ndarray] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Normalized combination of slice members, on the grid.

    The coefficients are given or drawn from ``seed``; one of the two is
    required, so every sample is reproducible.
    """
    sl = spectrum_slice
    if len(sl) == 0:
        raise ValueError("empty spectral slice")
    if coefficients is None:
        if seed is None:
            raise ValueError("projector_sample needs coefficients or a seed")
        coefficients = np.random.default_rng(seed).standard_normal(len(sl))
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (len(sl),):
        raise ValueError("one coefficient per slice member required")
    psi = sl.eigenvectors @ coefficients
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("zero combination")
    return (psi / norm).reshape(sl.shape)
