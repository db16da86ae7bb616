"""Eigensolver and projector-sample tests."""

import math

import numpy as np
import pytest

import uclab.spectral as spectral
from uclab.discretization import assemble
from uclab.fields import (
    CoefficientField,
    constant_spd_field,
    make_self_adjoint,
    synthesize_random_field,
)
from uclab.geometry import CubeDomain
from uclab.spectral import SpectrumSlice, eigensolve, projector_sample


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

    def test_sparse_path_matches_dense(self):
        dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
        fld = synthesize_random_field(2, dom, 1.0, 0.0, norm_V=1.0)
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

class TestCountPathShift:
    """The lowest-count Lanczos path, forced on small grids."""

    @pytest.fixture
    def spies(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", 10)
        calls = {"splu": [], "eigsh": []}
        splu, eigsh = spectral.spla.splu, spectral.spla.eigsh

        def spying_splu(*args, **kwargs):
            calls["splu"].append((args, kwargs))
            return splu(*args, **kwargs)

        def spying_eigsh(*args, **kwargs):
            calls["eigsh"].append((args, kwargs))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral.spla, "splu", spying_splu)
        monkeypatch.setattr(spectral.spla, "eigsh", spying_eigsh)
        return calls

    def test_shifts_below_the_floor_and_matches_dense_on_degenerate_spectrum(
        self, spies
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
        sl = eigensolve(H, count=6)
        assert H.spectral_floor == 0.0
        sigma = H.spectral_floor - 1.0

        # one factorization of H - sigma I, symmetric ordering, CSC
        [(args, kwargs)] = spies["splu"]
        assert kwargs == {"permc_spec": "MMD_AT_PLUS_A"}
        shifted = args[0]
        assert shifted.format == "csc" and shifted.dtype == H.matrix.dtype
        ref = H.matrix.toarray() - sigma * np.eye(H.n_cells)
        assert np.array_equal(shifted.toarray(), ref)

        # one Lanczos run at that shift, on that factorization
        [(args, kwargs)] = spies["eigsh"]
        assert kwargs["sigma"] == sigma
        assert kwargs["OPinv"] is not None

        assert np.abs(sl.eigenvalues - dense[:6]).max() <= 1e-8
        assert sl.residual_bound <= 1e-8

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_complex_hermitian_matches_dense(self, spies, bc):
        # self-adjoint complex drift: H is complex Hermitian, so H - sigma I
        # is built and factorized in complex arithmetic
        dom = CubeDomain(2, 3.0, 1 / 8, bc)
        rng = np.random.default_rng(17)
        A = np.zeros(dom.shape + (2, 2))
        A[..., 0, 0] = rng.uniform(0.8, 1.4, dom.shape)
        A[..., 1, 1] = rng.uniform(0.8, 1.4, dom.shape)
        b, c = make_self_adjoint(rng.uniform(-1.0, 1.0, dom.shape + (2,)),
                                 rng.uniform(-0.5, 0.5, dom.shape), dom)
        H = assemble(CoefficientField(dom, A, b, c, rng.uniform(-1.0, 1.0, dom.shape),
                                      1.4, 0.0))
        assert np.iscomplexobj(H.matrix) and np.abs(H.matrix.data.imag).max() > 0.1
        dense = np.linalg.eigvalsh(H.matrix.toarray())
        sl = eigensolve(H, count=5)
        [(args, _)] = spies["splu"]
        assert args[0].dtype == H.matrix.dtype
        assert len(spies["eigsh"]) == 1
        assert np.abs(sl.eigenvalues - dense[:5]).max() <= 1e-8
        assert sl.residual_bound <= 1e-8
        assert sl.orthonormality_defect() <= 1e-8


def window(sl, lo, hi):
    """The members of a count slice inside [lo, hi], as run_trial cuts them."""
    return sl.select((sl.eigenvalues >= lo) & (sl.eigenvalues <= hi))


class TestProjectorSample:
    def test_single_member_residual_only(self):
        H = periodic_laplacian()
        sl = eigensolve(H, count=3)
        E = float(sl.eigenvalues[1])
        win = window(sl, E - 1e-9, E + 1e-9)
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
        win = window(full, lam0 - 1e-9, lam1 + 1e-9)
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
        win = window(full, lo - 1e-9, hi + 1e-9)
        assert len(win) == 7  # the window closes over the pair at hi
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
        empty = SpectrumSlice(np.empty(0), np.empty((H.n_cells, 0)), 0.0,
                              H.domain.shape)
        with pytest.raises(ValueError, match="empty spectral slice"):
            projector_sample(empty, seed=0)


class TestDump:
    def test_eigenpair_dump(self, tmp_path):
        sl = eigensolve(periodic_laplacian(), count=4)
        sl.dump(tmp_path / "eig")
        rows = (tmp_path / "eig.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue"
        assert len(rows) == 5
        assert [float(r.split(",")[1]) for r in rows[1:]] == sl.eigenvalues.tolist()
        vecs = np.load(tmp_path / "eig.npy")
        assert vecs.shape == sl.eigenvectors.shape
