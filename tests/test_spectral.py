"""Eigensolver and projector-sample tests."""

import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import uclab.spectral as spectral
from uclab.discretization import assemble, closed_form_covers
from uclab.fields import (
    CoefficientField,
    constant_spd_field,
    make_self_adjoint,
    synthesize_dir_cross_field,
    synthesize_random_field,
)
from uclab.geometry import CubeDomain
from uclab.spectral import SpectrumSlice, eigensolve, projector_sample, torus_symbol
from uclab.verifier import placement_gram


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
        sl = eigensolve(H, count=H.matrix.shape[0])
        k = np.arange(H.matrix.shape[0])
        ref = np.sort(4.0 / h**2 * np.sin(math.pi * k * h / L) ** 2)
        assert np.abs(sl.eigenvalues - ref).max() < 1e-10 * ref.max()

    def test_constant_potential_shifts_spectrum(self):
        H0 = periodic_laplacian()
        Hs = periodic_laplacian(V=2.5 * np.ones(H0.domain.shape))
        a = eigensolve(H0, count=6).eigenvalues
        b = eigensolve(Hs, count=6).eigenvalues
        assert np.abs(b - (a + 2.5)).max() < 1e-9
        # the dense path agrees with the closed form
        dense = eigensolve(dataclasses.replace(Hs, constant_coefficients=None), count=6)
        assert np.abs(dense.eigenvalues - b).max() < 1e-9

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

    def test_potential_field_above_the_cutoff_runs_lanczos(self, monkeypatch):
        # N = 576 lies between DENSE_CUTOFF and the old 2048 cutoff
        H = _lanczos_operator()
        assert H.matrix.shape[0] == 576
        calls = []

        def spy(owner, attr):
            fn = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *a, **k: calls.append(attr) or fn(*a, **k))

        for owner, attr in ((spla, "splu"), (spla, "eigsh"), (sla, "eigh")):
            spy(owner, attr)
        sl = eigensolve(H, count=6)
        assert calls == ["splu", "eigsh"]
        monkeypatch.undo()
        ref = sla.eigh(H.matrix.toarray(), eigvals_only=True)[:6]
        assert np.abs(sl.eigenvalues - ref).max() < 1e-10

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


def _lanczos_operator():
    """A potential field above DENSE_CUTOFF (N = 576): the Lanczos path."""
    dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
    H = assemble(synthesize_random_field(2, dom, 1.0, 0.0, norm_V=1.0))
    assert H.matrix.shape[0] > spectral.DENSE_CUTOFF and H.constant_coefficients is None
    return H


def _complex_lanczos_operator():
    """A complex Hermitian field above DENSE_CUTOFF (N = 289)."""
    dom = CubeDomain(2, 17 / 16, 1 / 16, "periodic")
    H = assemble(synthesize_random_field(3, dom, 1.2, norm_V=0.5, norm_b=0.3, sa=True))
    assert H.matrix.shape[0] > spectral.DENSE_CUTOFF and np.iscomplexobj(H.matrix.data)
    return H


def _dense_operator():
    """A potential field below DENSE_CUTOFF (N = 48): the dense path."""
    H = assemble(synthesize_random_field(0, CubeDomain(1, 3.0, 1 / 16, "periodic"),
                                         1.3, norm_V=0.5))
    assert H.matrix.shape[0] <= spectral.DENSE_CUTOFF and H.constant_coefficients is None
    return H


class TestCount:
    @pytest.mark.parametrize("path", ["closed form", "dense", "lanczos"])
    @pytest.mark.parametrize("count", [2.5, 0, -2, True,  # True had given one pair
                                       pytest.param(10**400, id="huge")])
    def test_bad_count_is_one_error_on_every_path(self, path, count):
        # the dimension rule's message, not a wording of its own
        H = {"closed form": periodic_laplacian, "dense": _dense_operator,
             "lanczos": _lanczos_operator}[path]()
        with pytest.raises(ValueError, match=r"^count must be an integer >= 1 that a double "
                           rf"holds, got {re.escape(repr(count))}$"):
            eigensolve(H, count=count)

    def test_numpy_integer_count_accepted(self):
        sl = eigensolve(periodic_laplacian(), count=np.int64(3))
        assert len(sl) == 3

    @pytest.mark.parametrize("operator", ["real", "complex"])
    def test_count_of_n_or_more_gives_every_pair_on_the_lanczos_path(self, operator):
        # Lanczos cannot serve count >= N, nor count = N - 1 on a complex
        # operator: such a count takes the dense solve (else ARPACK warned
        # and scipy raised a TypeError)
        H = _lanczos_operator() if operator == "real" else _complex_lanczos_operator()
        N = H.matrix.shape[0]
        lower = eigensolve(H, count=N - 1)
        scale = np.abs(H.matrix.data).max()
        for count in (N, N + 5):
            sl = eigensolve(H, count=count)
            assert len(sl) == N and sl.eigenvectors.shape == (N, N)
            assert np.abs(sl.eigenvalues[:N - 1] - lower.eigenvalues).max() <= 1e-10 * scale


class TestLanczosStop:
    """ARPACK stops at the residual gate: tol = RESIDUAL_TOL max|H| / ||H - sigma I||_1."""

    def test_eigsh_gets_the_gate_derived_tol(self, monkeypatch):
        H = _lanczos_operator()
        shifts, tols = [], []
        splu, eigsh = spla.splu, spla.eigsh
        monkeypatch.setattr(spla, "splu", lambda *a, **k: shifts.append(a[0]) or splu(*a, **k))
        monkeypatch.setattr(spla, "eigsh",
                            lambda *a, **k: tols.append(k["tol"]) or eigsh(*a, **k))
        sl = eigensolve(H, count=6)
        [shifted], [tol] = shifts, tols
        scale = np.abs(H.matrix.data).max()
        assert tol == spectral.RESIDUAL_TOL * scale / np.abs(shifted).sum(axis=0).max()
        # the largest column sum of |H - sigma I|, formed densely
        N = H.matrix.shape[0]
        dense = np.abs(H.matrix.toarray() - (H.spectral_floor - 1.0) * np.eye(N))
        assert tol == pytest.approx(spectral.RESIDUAL_TOL * scale / dense.sum(axis=0).max(),
                                    rel=1e-14)
        assert 1e-10 < tol < spectral.RESIDUAL_TOL
        assert sl.residual_bound <= spectral.RESIDUAL_TOL * scale

    @pytest.mark.parametrize("factor,raises", [(2.0, True), (0.5, False)])
    def test_residual_gate_on_the_lanczos_path(self, monkeypatch, factor, raises):
        # eigenvalues moved by eps give residuals of exactly |eps| on unit
        # vectors, so the gate fires just above RESIDUAL_TOL max|H|
        H = _lanczos_operator()
        eps = factor * spectral.RESIDUAL_TOL * np.abs(H.matrix.data).max()
        eigsh = spla.eigsh

        def perturbed(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return vals + eps, vecs

        monkeypatch.setattr(spla, "eigsh", perturbed)
        context = (pytest.raises(ValueError, match=r"^eigenpair residual .* exceeds 1e-09")
                   if raises else contextlib.nullcontext())
        with context:
            eigensolve(H, count=6)


class TestCountPathShift:
    """The lowest-count Lanczos path, forced on small grids."""

    @pytest.fixture
    def spies(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", 10)
        calls = {"splu": [], "eigsh": []}
        splu, eigsh = spla.splu, spla.eigsh

        def spying_splu(*args, **kwargs):
            calls["splu"].append((args, kwargs))
            return splu(*args, **kwargs)

        def spying_eigsh(*args, **kwargs):
            calls["eigsh"].append((args, kwargs))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", spying_splu)
        monkeypatch.setattr(spla, "eigsh", spying_eigsh)
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
        # clear the constant data, so the solve takes the Lanczos path
        assert H.constant_coefficients is not None
        sl = eigensolve(dataclasses.replace(H, constant_coefficients=None), count=6)
        assert H.spectral_floor == 0.0
        sigma = H.spectral_floor - 1.0

        # one factorization of H - sigma I, symmetric ordering, CSC
        [(args, kwargs)] = spies["splu"]
        assert kwargs == {"permc_spec": "MMD_AT_PLUS_A"}
        shifted = args[0]
        assert shifted.format == "csc" and shifted.dtype == H.matrix.dtype
        ref = H.matrix.toarray() - sigma * np.eye(H.matrix.shape[0])
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


def constant_field(dom, A, shift=0.0):
    d = dom.d
    return CoefficientField(dom, A, np.zeros(dom.shape + (d,)), np.zeros(dom.shape),
                            shift * np.ones(dom.shape), 2.0, 0.0)


class TestClosedForm:
    """Constant-coefficient operators: eigenpairs written down, checked
    against the matrix."""

    @pytest.mark.parametrize("d,h", [(1, 1 / 16), (2, 1 / 6), (3, 1 / 3)])
    @pytest.mark.parametrize("bc,A", [("periodic", "rotated"), ("dirichlet", "diagonal"),
                                      ("periodic", "identity"), ("dirichlet", "identity")])
    def test_every_pair_matches_dense(self, d, h, bc, A):
        dom = CubeDomain(d, 3.0, h, bc)
        grid = (np.broadcast_to(np.eye(d), dom.shape + (d, d)).copy() if A == "identity"
                else constant_spd_field(7, dom, 2.0))
        if A == "rotated" and d > 1:
            assert np.any(grid[..., 0, 1])
        H = assemble(constant_field(dom, grid, shift=0.7))
        assert H.constant_coefficients is not None
        sl = eigensolve(H, count=H.matrix.shape[0])
        dense = np.linalg.eigh(H.matrix.toarray())[0]
        assert np.abs(sl.eigenvalues - dense).max() <= 1e-10 * np.abs(dense).max()
        assert sl.residual_bound <= 1e-10
        assert sl.orthonormality_defect() <= 1e-12

    @pytest.mark.parametrize("bc,d,h", [("periodic", 2, 1 / 4), ("periodic", 3, 1 / 2),
                                        ("dirichlet", 1, 1 / 16), ("dirichlet", 2, 1 / 4)])
    def test_symbol_is_the_spectrum_of_the_assembled_matrix(self, bc, d, h):
        # a rotated A0 with theta1 > 1 on the periodic cubes, a diagonal one
        # on the Dirichlet cubes, and a shift
        dom = CubeDomain(d, 3.0, h, bc)
        grid = constant_spd_field(5, dom, 1.7)
        A0 = grid[(0,) * d]
        if bc == "periodic":
            assert np.any(A0[0, 1])
        modes, lam = torus_symbol(dom, A0, 0.7)
        first = 0 if bc == "periodic" else 1
        assert np.array_equal(modes, np.indices(dom.shape).reshape(d, -1) + first)
        dense = np.linalg.eigvalsh(assemble(constant_field(dom, grid, shift=0.7)).matrix.toarray())
        assert np.abs(np.sort(lam) - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_symbol_refuses_a_non_diagonal_matrix_on_a_dirichlet_cube(self):
        A0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert torus_symbol(CubeDomain(2, 3.0, 1 / 4, "periodic"), A0)[1].size == 144
        with pytest.raises(ValueError, match=r"^A0 must be diagonal on a Dirichlet cube, got "
                                             r"\[\[2.0, 0.5\], \[0.5, 1.0\]\]$"):
            torus_symbol(CubeDomain(2, 3.0, 1 / 4, "dirichlet"), A0)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
    def test_one_rule_decides_the_symbol_and_the_closed_form_path(self, bc):
        # a constant rotated A0 on a Dirichlet cube takes the numerical path
        # and the symbol refuses it; a diagonal one, or any periodic one, takes both
        dom = CubeDomain(2, 3.0, 1 / 4, bc)
        for A0 in (np.array([[2.0, 0.5], [0.5, 1.0]]), np.diag([2.0, 1.0])):
            covered = closed_form_covers(dom, A0)
            assert covered == (bc == "periodic" or not A0[0, 1])
            grid = np.broadcast_to(A0, dom.shape + (2, 2))
            op = assemble(constant_field(dom, grid))
            assert (op.constant_coefficients is not None) == covered
            if not covered:
                with pytest.raises(ValueError, match="^A0 must be diagonal"):
                    torus_symbol(dom, A0)

    def test_clusters_are_bit_equal_and_canonical(self):
        # A = I, d = 2, periodic: the lowest cluster above 0 holds the four
        # modes (+-1, 0), (0, +-1), one cos and one sin mode per pair
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        H = assemble(constant_field(dom, np.broadcast_to(np.eye(2), dom.shape + (2, 2)).copy()))
        sl = eigensolve(H, count=5)
        assert sl.eigenvalues[0] == 0.0
        assert np.unique(sl.eigenvalues[1:]).size == 1
        m = np.indices(dom.shape)
        phase = 2 * np.pi * m / dom.n
        cos_y, sin_y, cos_x, sin_x = (f(phase[ax]) for ax in (1, 0) for f in (np.cos, np.sin))
        # row-major mode order: (0, 1), (0, n-1), (1, 0), (n-1, 0)
        for i, mode in enumerate((cos_y, sin_y, cos_x, sin_x), start=1):
            expect = mode / np.sqrt(dom.n**2 / 2)
            assert np.abs(sl.grid_vector(i) - expect).max() <= 1e-14

    def test_wrong_constant_data_fails_loudly(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        H = assemble(constant_field(dom, constant_spd_field(3, dom, 2.0)))
        A0, shift = H.constant_coefficients
        wrong = dataclasses.replace(H, constant_coefficients=(A0, shift + 1e-3))
        with pytest.raises(ValueError, match="residual"):
            eigensolve(wrong, count=4)

    def test_non_orthonormal_vectors_fail_loudly(self, monkeypatch):
        # scaled vectors keep their residual relative to ||v||, so only the
        # orthonormality check sees them
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        H = assemble(constant_field(dom, constant_spd_field(3, dom, 2.0)))
        closed_form = spectral._closed_form_pairs

        def scaled(op, count):
            vals, vecs = closed_form(op, count)
            return vals, 1.01 * vecs

        monkeypatch.setattr(spectral, "_closed_form_pairs", scaled)
        with pytest.raises(ValueError, match="^eigenvector orthonormality defect 0.0201"):
            eigensolve(H, count=4)

    def test_dense_path_returns_only_the_count_lowest(self, monkeypatch):
        calls = []
        eigh = sla.eigh

        def spying_eigh(*args, **kwargs):
            calls.append(kwargs)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigh", spying_eigh)
        H = _dense_operator()
        sl = eigensolve(H, count=5)
        assert calls == [{"subset_by_index": [0, 4], "driver": "evr"}]
        assert sl.eigenvectors.shape == (H.matrix.shape[0], 5)
        dense = np.linalg.eigvalsh(H.matrix.toarray())[:5]
        assert np.abs(sl.eigenvalues - dense).max() <= 1e-10 * np.abs(dense).max()


# one pattern per formula that had more than one home: the Dirichlet sine
# phase, the radius of the cell centres, the Cacciopoli gradient term, the
# dominating-site argument's 2 e theta1 R, (2 e theta1 + 1) R and 2 T^d, the
# test that A0 is diagonal on a Dirichlet cube, a record's margin and the
# rounding of a window side
ONE_HOME = {
    "sine phase": r"% \(4 \* n\)|\+ L / 2\.0\) / L",
    "centre radius": r"centers_1d\(\)\] \* ",
    "gradient term": r"\b8\.0 \* [\w.]*theta1\*\*2",
    "annulus radius": r"2\.0 \* EULER \* [\w.]*theta1 \* ",
    "window ball radius": r"2\.0 \* EULER \* [\w.]*theta1 \+ 1\.0",
    "site beta": r"ldexp\(float\(T\)|2\.0 \* float\(T\) \*\* ",
    "dirichlet diagonal test": r"np\.diag\(np\.diag\(",
    "record margin": r"math\.log\([\w.]*ratio\) - [\w.]*log_bound",
    "window side rounding": r"math\.ceil\(2\.0 \* ",
}


@pytest.mark.parametrize("formula", sorted(ONE_HOME))
def test_each_closed_form_is_written_once(formula):
    # the sine phase was written in spectral, fields and cli, the radius in
    # verifier and carleman, the gradient term in constants and verifier;
    # 2 e theta1 R twice in constants and twice in carleman, (2 e theta1 + 1) R
    # and 2 T^d in constants and geometry, the diagonal test in discretization
    # and spectral, the window side's rounding in constants and geometry
    src = Path(spectral.__file__).parent
    hits = [p.name for p in sorted(src.glob("*.py"))
            for _ in re.findall(ONE_HOME[formula], p.read_text())]
    assert len(hits) == 1, f"the {formula} is written in {hits}"


def _variable_fields():
    """Fields that are not constant-coefficient, each for one reason, small
    enough (N = 225) for the dense path."""
    per = CubeDomain(2, 3.0, 1 / 5, "periodic")
    dirichlet = CubeDomain(2, 3.0, 1 / 5, "dirichlet")
    rotated = CoefficientField(
        dirichlet, constant_spd_field(3, per, 2.0), np.zeros(dirichlet.shape + (2,)),
        np.zeros(dirichlet.shape), np.zeros(dirichlet.shape), 2.0, 0.0)
    return {
        "potential": synthesize_random_field(0, per, 1.3, norm_V=0.5),
        "drift": synthesize_random_field(1, per, 1.3, norm_b=0.4, sa=True),
        "variable-A": synthesize_random_field(2, per, 1.3, 0.6),
        "dirichlet-cross": synthesize_dir_cross_field(3, dirichlet, 1.4),
        "dirichlet-constant-offdiagonal": rotated,
    }


@pytest.mark.parametrize("name", sorted(_variable_fields()))
def test_other_fields_take_the_numerical_paths(name, monkeypatch):
    H = assemble(_variable_fields()[name])
    assert H.constant_coefficients is None
    calls = {"closed": 0, "eigh": 0, "splu": 0, "eigsh": 0}

    def spy(owner, attr, key):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    spy(spectral, "_closed_form_pairs", "closed")
    spy(sla, "eigh", "eigh")
    spy(spla, "splu", "splu")
    spy(spla, "eigsh", "eigsh")
    dense = eigensolve(H, count=3)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 10)
    lanczos = eigensolve(H, count=3)
    assert calls == {"closed": 0, "eigh": 1, "splu": 1, "eigsh": 1}
    assert np.abs(dense.eigenvalues - lanczos.eigenvalues).max() <= 1e-8


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
            coeff = np.random.default_rng(seed).standard_normal(len(win))
            psi = projector_sample(win, coeff)
            r = np.linalg.norm(H.matrix @ psi.ravel() - E * psi.ravel())
            assert r <= gamma + 10 * win.residual_bound + 1e-10

    def test_empty_slice_rejected(self):
        H = periodic_laplacian()
        empty = SpectrumSlice(np.empty(0), np.empty((H.matrix.shape[0], 0)), 0.0,
                              H.domain.shape)
        with pytest.raises(ValueError, match="empty spectral slice"):
            projector_sample(empty, np.empty(0))


class TestDump:
    def test_eigenpair_dump(self, tmp_path):
        # a slice's eigenpairs, as `verify --dump-eigenpairs` writes them
        # through cli.main, read back as the slice that was solved
        import json

        from uclab.cli import main
        from uclab.verifier import TrialConfig, solve_field

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ds": [1], "norm_Vs": [1.0], "bcs": ["periodic"],
                                   "seeds": [0], "h_per_G": 16}))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--dump-eigenpairs"]) == 0
        _, _, sl = solve_field(TrialConfig(d=1, bc="periodic", L_over_G=3, norm_V=1.0,
                                           delta_over_G=0.25, seed=0, h_per_G=16))
        rows = (out / "eigenpairs" / "eigenpairs_000.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue"
        assert len(rows) == len(sl) + 1
        assert [float(r.split(",")[1]) for r in rows[1:]] == sl.eigenvalues.tolist()
        vecs = np.load(out / "eigenpairs" / "eigenpairs_000.npy")
        assert vecs.shape == sl.eigenvectors.shape


# the thread-count setters of the loaded OpenBLAS libraries, taken before any
# test replaces the lookup
_SETTERS = spectral._openblas_setters()


def _blas_counts() -> list:
    """Each loaded OpenBLAS's thread count, read by setting 1 and back."""
    counts = [set_threads(1) for set_threads in _SETTERS]
    for set_threads, count in zip(_SETTERS, counts):
        set_threads(count)
    return counts


# the number of setters found in a fresh interpreter; with argv[1] == "scipy"
# scipy.linalg is imported first, otherwise nothing has imported scipy yet
_COUNT_SETTERS = """
import sys
if sys.argv[1] == "scipy":
    import scipy.linalg
import uclab.spectral
assert (sys.argv[1] == "scipy") == ("scipy" in sys.modules)
print(len(uclab.spectral._openblas_setters()))
"""


def test_setters_found_whatever_was_imported_first():
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    children = {first: subprocess.Popen([sys.executable, "-c", _COUNT_SETTERS, first],
                                        env=env, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
                for first in ("uclab", "scipy")}
    outputs = {first: child.communicate(timeout=120) for first, child in children.items()}
    for first, child in children.items():
        assert child.returncode == 0, outputs[first][1]
    counts = {first: int(out) for first, (out, _) in outputs.items()}
    if counts["scipy"] == 0:
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
    assert counts["uclab"] == counts["scipy"]


class TestOneBlasThread:
    """The eigensolve, the projector sample and the placement gram pin
    OpenBLAS to one thread and hand the caller's count back."""

    @staticmethod
    @contextlib.contextmanager
    def _caller_at(threads):
        # the caller's count, whatever the process started with
        if not _SETTERS:
            pytest.skip("no OpenBLAS with openblas_set_num_threads_local is loaded")
        before = [set_threads(threads) for set_threads in _SETTERS]
        try:
            yield len(_SETTERS)
        finally:
            for set_threads, count in zip(_SETTERS, before):
                set_threads(count)

    @pytest.fixture
    def two_threads(self):
        with self._caller_at(2) as libraries:
            yield libraries

    @staticmethod
    def _fields():
        # one operator per path: closed form, dense (N = 225), and (with a
        # cutoff of 10 unknowns) Lanczos
        dom = CubeDomain(2, 3.0, 1 / 5, "periodic")
        return (assemble(constant_field(dom, constant_spd_field(3, dom, 2.0))),
                assemble(synthesize_random_field(0, dom, 1.3, norm_V=0.5)))

    def test_solvers_run_on_one_thread(self, two_threads, monkeypatch):
        seen = []

        def spy(owner, attr):
            fn = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                seen.append((attr, _blas_counts()))
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapper)

        for owner, attr in ((spectral, "_closed_form_pairs"), (sla, "eigh"),
                            (spla, "eigsh")):
            spy(owner, attr)
        const, variable = self._fields()
        eigensolve(const, count=4)
        eigensolve(variable, count=4)
        monkeypatch.setattr(spectral, "DENSE_CUTOFF", 10)
        eigensolve(variable, count=4)
        assert seen == [(attr, [1] * two_threads)
                        for attr in ("_closed_form_pairs", "eigh", "eigsh")]

    def test_caller_count_restored(self, two_threads):
        const, variable = self._fields()
        sl = eigensolve(const, count=4)
        assert _blas_counts() == [2] * two_threads
        eigensolve(variable, count=4)
        assert _blas_counts() == [2] * two_threads
        projector_sample(sl, np.ones(len(sl)))
        assert _blas_counts() == [2] * two_threads
        placement_gram(sl.eigenvectors, np.arange(0, sl.eigenvectors.shape[0], 3))
        assert _blas_counts() == [2] * two_threads
        A0, shift = const.constant_coefficients
        wrong = dataclasses.replace(const, constant_coefficients=(A0, shift + 1e-3))
        with pytest.raises(ValueError, match="residual"):
            eigensolve(wrong, count=4)
        assert _blas_counts() == [2] * two_threads
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            eigensolve(variable, count=0)
        assert _blas_counts() == [2] * two_threads

    def test_no_library_found_leaves_results_unchanged(self, monkeypatch):
        # without a library the context touches no count; at one caller
        # thread the results are the pinned ones, bit for bit
        const, variable = self._fields()
        ball = np.arange(0, variable.matrix.shape[0], 3)

        def outputs():
            out = []
            for op in (const, variable):
                sl = eigensolve(op, count=4)
                coeff = np.random.default_rng(1).standard_normal(len(sl))
                out += [sl.eigenvalues, sl.eigenvectors, projector_sample(sl, coeff),
                        placement_gram(sl.eigenvectors, ball)]
            return out

        with self._caller_at(1):
            pinned = outputs()
        monkeypatch.setattr(spectral, "_openblas_setters", lambda: ())
        with self._caller_at(1):
            assert all(np.array_equal(a, b) for a, b in zip(pinned, outputs()))
        seen = []
        eigh = sla.eigh

        def spying_eigh(*args, **kwargs):
            seen.append(_blas_counts())
            return eigh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigh", spying_eigh)
        with self._caller_at(2) as libraries:
            eigensolve(variable, count=4)
        assert seen == [[2] * libraries]
