"""Eigensolves of the assembled operator and spectral-projector samples.

Dense Hermitian decomposition at desk scale, ARPACK shift-invert for larger
matrices (deterministic through a seeded start vector).  The lowest-count
path shifts to ``spectral_floor - 1``, the lower bound on the spectrum that
``discretization.assemble`` computes (Weyl's inequality with a positive
semidefinite second-order part), so the shift sits just below the bottom of
the spectrum and the ``count`` lowest eigenvalues are the ones nearest it.
Windows shift to their centre.  Slices collect the
eigenpairs inside an energy window; projector samples are normalized linear
combinations of slice members, which obey the window bound
||(H - E) psi|| <= gamma ||psi|| up to solver residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla

from uclab.discretization import DiscreteOperator

__all__ = ["SpectrumSlice", "eigensolve", "projector_sample"]

DENSE_CUTOFF = 2048
HERMITICITY_TOL = 1e-9  # allowed |H - H^*| relative to the largest entry


@dataclass(frozen=True)
class SpectrumSlice:
    """Sorted eigenpairs with their window and solver residual bound."""

    eigenvalues: np.ndarray     # (k,)
    eigenvectors: np.ndarray    # (N, k), l2-orthonormal columns
    window: Optional[tuple[float, float]]
    residual_bound: float
    shape: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def grid_vector(self, i: int) -> np.ndarray:
        return self.eigenvectors[:, i].reshape(self.shape)

    def orthonormality_defect(self) -> float:
        g = self.eigenvectors.conj().T @ self.eigenvectors
        return float(np.abs(g - np.eye(len(self))).max())

    def dump(self, prefix) -> None:
        """Eigenpair dump: <prefix>.csv (index, eigenvalue) and
        <prefix>.npy (vectors)."""
        with open(f"{prefix}.csv", "w") as fh:
            fh.write("index,eigenvalue\n")
            for i, lam in enumerate(self.eigenvalues):
                fh.write(f"{i},{lam!r}\n")
        np.save(f"{prefix}.npy", self.eigenvectors)


def eigensolve(
    op: DiscreteOperator,
    window: Optional[tuple[float, float]] = None,
    count: Optional[int] = None,
    seed: int = 0,
) -> SpectrumSlice:
    """Eigenpairs of a Hermitian operator, by window or by count (lowest).

    Dense path below DENSE_CUTOFF unknowns, shift-invert Lanczos above it.
    An empty window is legal and yields an empty slice.  Deterministic for a
    fixed matrix and seed.
    """
    if (window is None) == (count is None):
        raise ValueError("specify exactly one of window or count")
    H = op.matrix
    N = H.shape[0]
    scale = float(np.abs(H.data).max()) if H.nnz else 1.0
    if op.hermiticity_defect() > HERMITICITY_TOL * scale:
        raise ValueError("operator is not Hermitian within tolerance")

    if N <= DENSE_CUTOFF:
        dense = H.toarray()
        vals, vecs = np.linalg.eigh(dense)
        if count is not None:
            idx = np.arange(min(count, N))
        else:
            lo, hi = window
            idx = np.nonzero((vals >= lo) & (vals <= hi))[0]
        vals, vecs = vals[idx], vecs[:, idx]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(N)
        if count is not None:
            sigma = op.spectral_floor - 1.0
            vals, vecs = spla.eigsh(H, k=count, sigma=sigma, which="LM", v0=v0)
        else:
            lo, hi = window
            center = 0.5 * (lo + hi)
            k = 8
            while True:
                k_eff = min(k, N - 2)
                vals, vecs = spla.eigsh(H, k=k_eff, sigma=center, which="LM", v0=v0)
                # eigsh returns the k eigenvalues nearest the centre, so once
                # one lies beyond the half-width every window member is here
                if np.abs(vals - center).max() > 0.5 * (hi - lo) or k_eff == N - 2:
                    break
                k *= 2
            keep = (vals >= lo) & (vals <= hi)
            vals, vecs = vals[keep], vecs[:, keep]
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    if len(vals):
        resid = H @ vecs - vecs * vals
        residual_bound = float(
            np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0))
        )
    else:
        residual_bound = 0.0
    return SpectrumSlice(
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        window=window,
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
