"""Eigensolver and projector-sample tests."""

import math

import numpy as np
import pytest

import uclab.spectral as spectral
from uclab.discretization import assemble
from uclab.fields import CoefficientField, constant_spd_field, synthesize_random_field
from uclab.geometry import CubeDomain
from uclab.spectral import eigensolve, projector_sample


def periodic_laplacian(L=3.0, h=1 / 32, V=None):
    dom = CubeDomain(1, L, h, "periodic")
    return assemble(CoefficientField(
        dom,
        np.ones(dom.shape + (1, 1)),
        np.zeros(dom.shape + (1,), complex),
        np.zeros(dom.shape, complex),
        V if V is not None else np.zeros(dom.shape),
        1.0,
        0.0,
    ))


class TestEigensolve:
    def test_circulant_closed_form(self):
        L, h = 3.0, 1 / 32
        H = periodic_laplacian(L, h)
        sl = eigensolve(H, count=H.n_cells)
        k = np.arange(H.n_cells)
        ref = np.sort(4.0 / h**2 * np.sin(math.pi * k * h / L) ** 2)
        assert np.abs(sl.eigenvalues - ref).max() < 1e-10 * ref.max()

    def test_constant_potential_shifts_spectrum(self):
        H0 = periodic_laplacian()
        Hs = periodic_laplacian(V=2.5 * np.ones(H0.domain.shape))
        a = eigensolve(H0, count=6).eigenvalues
        b = eigensolve(Hs, count=6).eigenvalues
        assert np.abs(b - (a + 2.5)).max() < 1e-9

    def test_orthonormality_contract(self):
        sl = eigensolve(periodic_laplacian(), count=12)
        assert sl.orthonormality_defect() <= 1e-8
        assert sl.residual_bound <= 1e-8

    def test_empty_window_is_legal(self):
        H = periodic_laplacian()
        sl = eigensolve(H, window=(-3.0, -1.0))
        assert len(sl) == 0

    def test_window_stable_under_tiny_perturbation(self):
        H = periodic_laplacian()
        full = eigensolve(H, count=10)
        vals = full.eigenvalues
        gaps = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > 1e-3]
        lo = 0.5 * (vals[gaps[0] - 1] + vals[gaps[0]])  # midpoints of real gaps
        hi = 0.5 * (vals[gaps[1] - 1] + vals[gaps[1]])
        n0 = len(eigensolve(H, window=(lo, hi)))
        n1 = len(eigensolve(H, window=(lo - 1e-10, hi + 1e-10)))
        n2 = len(eigensolve(H, window=(lo + 1e-10, hi - 1e-10)))
        assert n0 == n1 == n2 > 0

    def test_sparse_path_matches_dense(self):
        dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
        fld = synthesize_random_field(2, dom, 1.0, 0.0, norm_V=1.0, bc="dirichlet")
        H = assemble(fld)
        dense = np.sort(np.linalg.eigvalsh(H.matrix.toarray()))[:4]
        old = spectral.DENSE_CUTOFF
        spectral.DENSE_CUTOFF = 10
        try:
            sparse = eigensolve(H, count=4)
        finally:
            spectral.DENSE_CUTOFF = old
        assert np.abs(sparse.eigenvalues - dense).max() < 1e-8

    def test_rejects_non_hermitian(self):
        dom = CubeDomain(1, 3.0, 1 / 8, "periodic")
        fld = CoefficientField(
            dom, np.ones(dom.shape + (1, 1)),
            (0.5 + 0.5j) * np.ones(dom.shape + (1,)),  # non-self-adjoint drift
            np.zeros(dom.shape, complex), np.zeros(dom.shape), 1.0, 0.0,
        )
        H = assemble(fld)
        with pytest.raises(ValueError):
            eigensolve(H, count=3)

    def test_requires_exactly_one_selector(self):
        H = periodic_laplacian()
        with pytest.raises(ValueError):
            eigensolve(H)
        with pytest.raises(ValueError):
            eigensolve(H, count=2, window=(0.0, 1.0))


class TestWindowedLanczos:
    """The shift-invert window path, forced on a small Dirichlet grid."""

    @pytest.fixture
    def counted(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", 10)
        calls = []
        eigsh = spectral.spla.eigsh

        def counting_eigsh(*args, **kwargs):
            calls.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "eigsh", counting_eigsh)
        return calls

    @staticmethod
    def operator():
        dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
        return assemble(synthesize_random_field(4, dom, 1.3, 0.0, norm_V=0.5,
                                                bc="dirichlet"))

    def test_window_reaching_past_the_bottom_takes_one_call(self, counted):
        H = self.operator()
        dense = np.linalg.eigvalsh(H.matrix.toarray())
        lo, hi = dense[0] - 1.0, 0.5 * (dense[3] + dense[4])
        sl = eigensolve(H, window=(lo, hi))
        assert counted == [8]
        ref = dense[(dense >= lo) & (dense <= hi)]
        assert len(sl) == len(ref) == 4
        assert np.abs(sl.eigenvalues - ref).max() <= 1e-8

    def test_empty_window_below_the_spectrum_takes_one_call(self, counted):
        sl = eigensolve(self.operator(), window=(-3.0, -1.0))
        assert counted == [8] and len(sl) == 0


class TestCountPathShift:
    """The lowest-count Lanczos path, forced on a small periodic grid."""

    def test_shifts_below_the_floor_and_matches_dense_on_degenerate_spectrum(
        self, monkeypatch
    ):
        # rotated constant A, norm_V = 0: the +-k Fourier modes pair up, so
        # the spectrum above lambda_0 = 0 is degenerate
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        H = assemble(CoefficientField(
            dom, constant_spd_field(3, dom, 2.0),
            np.zeros(dom.shape + (2,)), np.zeros(dom.shape), np.zeros(dom.shape),
            2.0, 0.0,
        ))
        dense = np.linalg.eigvalsh(H.matrix.toarray())
        assert np.abs(np.diff(dense[1:7])).min() < 1e-9  # degenerate pairs present
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", 10)
        sigmas = []
        eigsh = spectral.spla.eigsh

        def spying_eigsh(*args, **kwargs):
            sigmas.append(kwargs["sigma"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "eigsh", spying_eigsh)
        sl = eigensolve(H, count=6)
        assert H.spectral_floor == 0.0
        assert sigmas == [H.spectral_floor - 1.0]
        assert np.abs(sl.eigenvalues - dense[:6]).max() <= 1e-8
        assert sl.residual_bound <= 1e-8


class TestProjectorSample:
    def test_single_member_residual_only(self):
        H = periodic_laplacian()
        sl = eigensolve(H, count=3)
        E = float(sl.eigenvalues[1])
        win = eigensolve(H, window=(E - 1e-9, E + 1e-9))
        psi = projector_sample(win, coefficients=np.ones(len(win)))
        r = np.linalg.norm(H.matrix @ psi.ravel() - E * psi.ravel())
        assert r <= 10 * win.residual_bound + 1e-12

    def test_two_edge_members_saturate_the_window(self):
        # distinct eigenvalues at the window edges with equal weights give
        # ||(H-E)psi|| = gamma exactly (orthogonal decomposition)
        H = periodic_laplacian()
        full = eigensolve(H, count=6)
        vals = full.eigenvalues
        distinct = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > 1e-6]
        i = distinct[0]
        lam0, lam1 = vals[i - 1], vals[i]
        E = 0.5 * (lam0 + lam1)
        gamma = 0.5 * (lam1 - lam0)
        win = eigensolve(H, window=(lam0 - 1e-9, lam1 + 1e-9))
        coeff = np.zeros(len(win))
        coeff[np.argmin(np.abs(win.eigenvalues - lam0))] = 1.0
        coeff[np.argmin(np.abs(win.eigenvalues - lam1))] = 1.0
        psi = projector_sample(win, coefficients=coeff / math.sqrt(2.0))
        r = np.linalg.norm(H.matrix @ psi.ravel() - E * psi.ravel())
        assert abs(r - gamma) <= 1e-6 * gamma

    def test_random_draws_satisfy_window_bound(self):
        H = periodic_laplacian()
        full = eigensolve(H, count=8)
        lo, hi = full.eigenvalues[0], full.eigenvalues[5]
        E = 0.5 * (lo + hi)
        gamma = 0.5 * (hi - lo)
        win = eigensolve(H, window=(lo - 1e-9, hi + 1e-9))
        for seed in range(20):
            psi = projector_sample(win, seed=seed)
            r = np.linalg.norm(H.matrix @ psi.ravel() - E * psi.ravel())
            assert r <= gamma + 10 * win.residual_bound + 1e-10

    def test_needs_coefficients_or_seed(self):
        win = eigensolve(periodic_laplacian(), count=3)
        with pytest.raises(ValueError, match="coefficients or a seed"):
            projector_sample(win)

    def test_empty_slice_rejected(self):
        H = periodic_laplacian()
        empty = eigensolve(H, window=(-2.0, -1.0))
        with pytest.raises(ValueError):
            projector_sample(empty, seed=0)


class TestDump:
    def test_eigenpair_dump(self, tmp_path):
        sl = eigensolve(periodic_laplacian(), count=4)
        sl.dump(tmp_path / "eig")
        rows = (tmp_path / "eig.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue"
        assert len(rows) == 5
        vecs = np.load(tmp_path / "eig.npy")
        assert vecs.shape == sl.eigenvectors.shape
