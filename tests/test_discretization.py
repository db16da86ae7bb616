"""Operator assembly and extension tests against closed forms."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import apply_operator_expressions, on_grid, same_bits
from uclab.discretization import (
    apply_operator,
    assemble,
    extend,
    extension_check,
    reflect_block,
    residual_inequality_check,
)
from uclab.fields import (
    CoefficientField,
    constant_spd_field,
    divergence_centered,
    estimate_ellipticity,
    make_self_adjoint,
    periodic_gradient,
    synthesize_dir_cross_field,
    synthesize_random_field,
)
from uclab.geometry import CubeDomain


def laplacian_field(dom, V=None):
    d = dom.d
    return CoefficientField(
        dom,
        np.broadcast_to(np.eye(d), dom.shape + (d, d)).copy(),
        np.zeros(dom.shape + (d,), dtype=complex),
        np.zeros(dom.shape, dtype=complex),
        V if V is not None else np.zeros(dom.shape),
        1.0,
        0.0,
    )


class TestAssembly:
    def test_periodic_circulant_spectrum(self):
        L, h = 3.0, 1 / 32
        dom = CubeDomain(1, L, h, "periodic")
        H = assemble(laplacian_field(dom))
        ev = np.sort(np.linalg.eigvalsh(H.matrix.toarray()))
        k = np.arange(dom.n)
        ref = np.sort(4.0 / h**2 * np.sin(math.pi * k * h / L) ** 2)
        assert np.abs(ev - ref).max() < 1e-9

    def test_dirichlet_tridiagonal_with_sine_eigenvectors(self):
        L, h = 3.0, 1 / 32
        dom = CubeDomain(1, L, h, "dirichlet")
        H = assemble(laplacian_field(dom)).matrix.toarray()
        n = dom.n
        assert abs(H[0, 0] * h**2 - 3.0) < 1e-12  # face cell absorbs the mirror ghost
        assert abs(H[1, 1] * h**2 - 2.0) < 1e-12
        assert abs(H[0, 1] * h**2 + 1.0) < 1e-12
        x = dom.centers_1d()
        for k in (1, 2, 5):
            v = np.sin(k * math.pi * (x + L / 2) / L)
            lam = 4.0 / h**2 * math.sin(k * math.pi * h / (2 * L)) ** 2
            assert np.abs(H @ v - lam * v).max() < 1e-9

    def test_separable_spectrum_for_diagonal_constant_A(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        a1, a2 = 2.0, 0.5
        A = np.broadcast_to(np.diag([a1, a2]), dom.shape + (2, 2)).copy()
        fld = CoefficientField(
            dom, A, np.zeros(dom.shape + (2,), complex),
            np.zeros(dom.shape, complex), np.zeros(dom.shape), 2.0, 0.0,
        )
        ev = np.sort(np.linalg.eigvalsh(assemble(fld).matrix.toarray()))
        n = dom.n
        oned = 4.0 / dom.h**2 * np.sin(math.pi * np.arange(n) / n) ** 2
        ref = np.sort((a1 * oned[:, None] + a2 * oned[None, :]).ravel())
        assert np.abs(ev - ref).max() < 1e-9

    def test_nonsymmetric_A_rejected_at_field_level(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        # the second pair is off by a relative 5e-6, which a relative
        # tolerance would accept
        for a01, a10 in ((0.1, 0.0), (1e-6, 1e-6 * (1 + 5e-6))):
            A = np.broadcast_to(np.eye(2), dom.shape + (2, 2)).copy()
            A[..., 0, 1] = a01
            A[..., 1, 0] = a10
            with pytest.raises(ValueError, match="exactly symmetric"):
                CoefficientField(
                    dom, A, np.zeros(dom.shape + (2,)), np.zeros(dom.shape),
                    np.zeros(dom.shape), 1.0, 0.0,
                )

    def test_hermitian_exactly_under_self_adjointness(self):
        for bc in ("periodic", "dirichlet"):
            dom = CubeDomain(2, 3.0, 1 / 8, bc)
            fld = synthesize_random_field(
                5, dom, 1.3, 0.6, norm_V=0.5, norm_b=0.8, norm_c=0.4, sa=True,
            )
            H = assemble(fld)
            assert H.hermiticity_defect() == 0.0
            ev = np.linalg.eigvalsh(H.matrix.toarray())
            assert np.isrealobj(ev)

    def test_real_matrix_for_real_fields(self):
        dom = CubeDomain(1, 3.0, 1 / 8)
        H = assemble(laplacian_field(dom))
        assert H.matrix.dtype == np.float64

    def test_complex_potential_keeps_its_imaginary_part(self):
        # b = c = 0 and V = i: the diagonal keeps Im V, and the eigensolver
        # rejects the operator by name instead of solving its real part
        from uclab.spectral import eigensolve

        dom = CubeDomain(2, 3.0, 1 / 4, "periodic")
        fld = dataclasses.replace(laplacian_field(dom), b=np.zeros(dom.shape + (2,)),
                                  c=np.zeros(dom.shape), V=np.full(dom.shape, 1j))
        assert not fld.is_real() and fld.norm_V == 1.0
        H = assemble(fld)
        assert H.matrix.dtype == np.complex128
        assert np.all(H.matrix.diagonal().imag == 1.0)
        assert H.constant_coefficients is None
        with pytest.raises(ValueError, match="not Hermitian"):
            eigensolve(H, count=1)


def _reference_shift_columns(mind, axis, step, n, bc, fold):
    """Column multi-indices and signs of a one-cell shift: ``odd`` maps a
    Dirichlet ghost onto its mirror cell with a sign flip, ``drop`` zeroes it."""
    out = mind.copy()
    j = out[:, axis] + step
    sign = np.ones(len(mind))
    if bc == "periodic":
        out[:, axis] = j % n
        return out, sign
    low, high = j < 0, j > n - 1
    if fold == "odd":
        jf = np.where(high, 2 * n - 1 - j, np.where(low, -1 - j, j))
        sign = np.where(low | high, -sign, sign)
    else:
        jf = np.clip(j, 0, n - 1)
        sign = np.where(low | high, 0.0, sign)
    out[:, axis] = jf
    return out, sign


def _reference_shifted_values(arr, axis, step, bc, fold_sign):
    out = np.roll(arr, -step, axis=axis)
    if bc == "dirichlet":
        sl = [slice(None)] * arr.ndim
        sl[axis] = slice(-step, None) if step > 0 else slice(None, -step)
        out[tuple(sl)] = fold_sign * np.flip(arr[tuple(sl)], axis=axis)
    return out


def reference_assemble(field):
    """Assembly through a multi-index column builder: an N x d index array,
    a per-axis ghost fold and ``np.ravel_multi_index``, from every
    coefficient on the full grid."""
    field = on_grid(field)
    dom = field.domain
    d, n, h, bc, shape = dom.d, dom.n, dom.h, dom.bc, dom.shape
    N = n**d
    dtype = float if field.is_real() else complex
    mind = np.stack(np.unravel_index(np.arange(N), shape), axis=-1)
    rows, cols, vals = [], [], []

    def emit(offsets, coeff, fold):
        col_mind, sign = mind, np.ones(N)
        for axis, step in offsets:
            col_mind, s = _reference_shift_columns(col_mind, axis, step, n, bc, fold)
            sign = sign * s
        keep = sign != 0.0
        rows.append(np.arange(N)[keep])
        cols.append(np.ravel_multi_index(tuple(col_mind[keep].T), shape))
        vals.append((coeff.reshape(-1) * sign)[keep].astype(dtype))

    diag = np.zeros(shape, dtype=dtype)
    for ax in range(d):
        a = field.A[..., ax, ax]
        a_plus = 0.5 * (a + _reference_shifted_values(a, ax, +1, bc, +1.0))
        a_minus = 0.5 * (a + _reference_shifted_values(a, ax, -1, bc, +1.0))
        diag += ((a_plus + a_minus) / h**2).astype(dtype)
        emit([(ax, +1)], -a_plus / h**2, "odd")
        emit([(ax, -1)], -a_minus / h**2, "odd")
    for i in range(d):
        for j in range(d):
            a = field.A[..., i, j]
            if i == j or not np.any(a):
                continue
            for s1 in (+1, -1):
                a_sh = _reference_shifted_values(a, i, s1, bc, -1.0)
                for s2 in (+1, -1):
                    emit([(i, s1), (j, s2)], -(s1 * s2) * a_sh / (4.0 * h**2), "odd")
    if np.any(field.b):
        for ax in range(d):
            bcomp = field.b[..., ax]
            emit([(ax, +1)], (bcomp + _reference_shifted_values(bcomp, ax, +1, bc, 1.0))
                 / (4.0 * h), "drop")
            emit([(ax, -1)], -(bcomp + _reference_shifted_values(bcomp, ax, -1, bc, 1.0))
                 / (4.0 * h), "drop")
        lower = field.c - 0.5 * divergence_centered(field.b, h, bc) + field.V
    else:
        lower = field.c + field.V
    diag += (lower.real if dtype is float else lower).astype(dtype)
    rows.append(np.arange(N))
    cols.append(np.arange(N))
    vals.append(diag.reshape(-1))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    ).tocsr()


def mixed_field(seed, dom, complex_drift=True):
    """Variable rotated A (nonzero mixed entries on every face), drift, c, V."""
    rng = np.random.default_rng(seed)
    d = dom.d
    # rotated A from the periodic twin, so Dirichlet domains fold mixed terms
    A0 = constant_spd_field(seed, dataclasses.replace(dom, bc="periodic"), 1.5)
    A = A0 * (1.0 + 0.2 * rng.random(dom.shape))[..., None, None]
    b = rng.standard_normal(dom.shape + (d,))
    c = rng.standard_normal(dom.shape)
    if complex_drift:
        b = b + 1j * rng.standard_normal(dom.shape + (d,))
        c = c + 1j * rng.standard_normal(dom.shape)
    return CoefficientField(dom, A, b, c, rng.standard_normal(dom.shape), 2.0, 1.0)


class TestConstantCoefficients:
    """``assemble`` records (A0, c + V) exactly for translation-invariant
    operators, read from the field, and None otherwise."""

    def test_recorded_from_the_field(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        A = constant_spd_field(3, dom, 2.0)
        fld = CoefficientField(dom, A, np.zeros(dom.shape + (2,), complex),
                               np.full(dom.shape, 0.5 + 0j), np.full(dom.shape, 0.25),
                               2.0, 0.0)
        A0, shift = assemble(fld).constant_coefficients
        assert np.array_equal(A0, A[0, 0]) and shift == 0.75

    @pytest.mark.parametrize("change", ["V", "c-imaginary", "b", "A"])
    def test_none_when_not_translation_invariant(self, change):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        fld = laplacian_field(dom)
        cell = (0, 0)
        if change == "V":
            V = fld.V.copy()
            V[cell] = 1.0
            fld = dataclasses.replace(fld, V=V)
        elif change == "c-imaginary":
            fld = dataclasses.replace(fld, c=np.full(dom.shape, 0.5j))
        elif change == "b":
            fld = dataclasses.replace(fld, b=np.full(dom.shape + (2,), 0.1j))
        else:
            A = fld.A.copy()
            A[cell] *= 1.5
            fld = dataclasses.replace(fld, A=A)
        assert assemble(laplacian_field(dom)).constant_coefficients is not None
        assert assemble(fld).constant_coefficients is None

    def test_dirichlet_needs_diagonal_A0(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
        rotated = constant_spd_field(3, CubeDomain(2, 3.0, 1 / 8, "periodic"), 2.0)
        fld = dataclasses.replace(laplacian_field(dom), A=rotated)
        assert assemble(fld).constant_coefficients is None
        diagonal = dataclasses.replace(fld, A=constant_spd_field(3, dom, 2.0))
        assert assemble(diagonal).constant_coefficients is not None


class TestAssemblyMatchesMultiIndexBuilder:
    @pytest.mark.parametrize("d,h", [(1, 1 / 16), (2, 1 / 8), (3, 1 / 4)])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_csr_bytes_identical(self, d, h, bc):
        dom = CubeDomain(d, 3.0, h, bc)
        flds = [
            mixed_field(d, dom),
            mixed_field(d + 5, dom, complex_drift=False),
            synthesize_random_field(5, dom, 1.3, 0.6, norm_V=0.5, norm_b=0.8,
                                    norm_c=0.4, sa=True),
            laplacian_field(dom),
        ]
        if d >= 2:
            flds.append(synthesize_dir_cross_field(2, dom, 1.5, norm_V=0.3))
        for fld in flds:
            got, ref = assemble(fld).matrix, reference_assemble(fld)
            assert got.data.dtype == ref.data.dtype
            assert got.data.tobytes() == ref.data.tobytes()
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.indptr, ref.indptr)


def random_spd_field(seed, dom):
    """Cellwise-random SPD A (no face condition), self-adjoint variable
    drift and c from ``make_self_adjoint``, and a bounded potential."""
    rng = np.random.default_rng(seed)
    d = dom.d
    G = rng.standard_normal(dom.shape + (d, d))
    A = G @ np.swapaxes(G, -1, -2) + 0.05 * np.eye(d)
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    b, c = make_self_adjoint(rng.standard_normal(dom.shape + (d,)),
                             rng.standard_normal(dom.shape), dom)
    return CoefficientField(dom, A, b, c, rng.uniform(-1.0, 1.0, dom.shape), 2.0, 1.0)


class TestSpectralFloor:
    """``spectral_floor`` bounds the lowest eigenvalue of the assembled
    matrix from below (Weyl's inequality with a PSD second-order part)."""

    @pytest.mark.parametrize("d,L,h", [(1, 3.0, 1 / 16), (2, 3.0, 1 / 8), (3, 2.0, 1 / 4)])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_floor_below_dense_lowest_eigenvalue(self, d, L, h, bc):
        dom = CubeDomain(d, L, h, bc)
        rng = np.random.default_rng(d)
        flds = [
            random_spd_field(10 + d, dom),
            random_spd_field(20 + d, dom),
            synthesize_random_field(5, dom, 1.3, 0.0, norm_V=0.5, norm_b=2.0,
                                    norm_c=0.4, sa=True),
            laplacian_field(dom, V=rng.uniform(-1.0, 1.0, dom.shape)),
        ]
        if d >= 2:
            flds.append(synthesize_dir_cross_field(3, dom, 1.5, norm_V=0.7))
        for fld in flds:
            H = assemble(fld)
            assert H.hermiticity_defect() <= 1e-13 * np.abs(H.matrix.data).max()
            lam0 = np.linalg.eigvalsh(H.matrix.toarray())[0]
            assert math.isfinite(H.spectral_floor)
            assert H.spectral_floor <= lam0

    def test_floor_is_the_potential_minimum_without_drift(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        V = np.random.default_rng(0).uniform(-1.0, 1.0, dom.shape)
        assert assemble(laplacian_field(dom, V=V)).spectral_floor == V.min()


class TestMatrixFreeOperator:
    @pytest.mark.parametrize("d,h", [(1, 1 / 16), (2, 1 / 8), (3, 1 / 4)])
    def test_apply_operator_matches_assembled_periodic(self, d, h):
        dom = CubeDomain(d, 3.0, h, "periodic")
        fld = mixed_field(11 + d, dom)
        rng = np.random.default_rng(d)
        # complex V too: c is complex, so the assembled diagonal keeps Im V
        fld = dataclasses.replace(fld, V=fld.V + 1j * rng.standard_normal(dom.shape))
        u = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        ref = assemble(fld).apply(u)
        got = apply_operator(fld.A, fld.b, fld.c + fld.V, u, dom.h)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("complex_u", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("drift", [False, True], ids=["no-drift", "drift"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constants_equal_their_grids(self, d, drift, complex_u):
        # coefficients with unit leading axes, and for d >= 2 an A that is a
        # profile along axis 0, give the bits of their full grids
        rng = np.random.default_rng(d + 3 * drift + 7 * complex_u)
        shape = ((40,), (16, 16), (8, 8, 8))[d - 1]
        u = rng.standard_normal(shape)
        u[np.abs(u) > 1.0] = 0.0
        if complex_u:
            u = u + 1j * rng.standard_normal(shape)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A0 = Q @ np.diag(rng.uniform(0.5, 2.0, d)) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        unit = (None,) * d
        b0, c0 = (rng.standard_normal(d)[unit], np.full((1,) * d, rng.standard_normal())) \
            if drift else (None, None)
        profile = rng.uniform(0.5, 2.0, (shape[0],) + (1,) * (d - 1))[..., None, None]
        for A in [A0[unit]] + ([profile * A0] if d >= 2 else []):
            grids = [None if x is None else np.broadcast_to(x, shape + x.shape[d:]).copy()
                     for x in (A, b0, c0)]
            want = apply_operator(*grids, u, 1 / 8)
            assert same_bits(apply_operator(A, b0, c0, u, 1 / 8), want)
            assert same_bits(
                apply_operator(A, b0, c0, u, 1 / 8, grad=periodic_gradient(u, 1 / 8)), want)

    @pytest.mark.parametrize("complex_u", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_in_place_terms_give_the_expression_bits(self, d, complex_u):
        # a variable diagonal and a variable mixed A; no drift, a real and a
        # complex variable drift and zeroth-order term; u with zeros and -0.0
        rng = np.random.default_rng(40 + d + 3 * complex_u)
        shape = ((40,), (16, 16), (8, 8, 8))[d - 1]
        u = rng.standard_normal(shape)
        if complex_u:
            u = u + 1j * rng.standard_normal(shape)
        u[rng.random(shape) < 0.3] = 0.0
        u[rng.random(shape) < 0.1] = -0.0
        M = 0.1 * rng.standard_normal(shape + (d, d))
        diag = rng.uniform(1.0, 2.0, shape)[..., None, None] * np.eye(d)
        b0, c0 = rng.standard_normal(shape + (d,)), rng.standard_normal(shape)
        drifts = [(None, None), (b0, c0),
                  (b0 + 1j * rng.standard_normal(b0.shape), c0 + 1j * rng.standard_normal(shape))]
        for A in (diag, diag + M + np.swapaxes(M, -1, -2)):
            for b, c in drifts:
                assert same_bits(apply_operator(A, b, c, u, 1 / 8),
                                 apply_operator_expressions(A, b, c, u, 1 / 8))

    @pytest.mark.parametrize("name,shape", [
        ("A", (2, 2)), ("A", (8, 7, 2, 2)), ("A", (1, 1, 2)), ("b", (2,)),
        ("b", (8, 8, 1)), ("c", ()), ("c", (8, 2)),
    ])
    def test_rejects_a_coefficient_off_the_grid(self, name, shape):
        u = np.random.default_rng(0).standard_normal((8, 8))
        coeffs = {"A": np.ones((1, 1, 2, 2)), "b": None, "c": None, name: np.ones(shape)}
        with pytest.raises(ValueError, match=rf"^{name} of shape"):
            apply_operator(coeffs["A"], coeffs["b"], coeffs["c"], u, 1 / 8)


class TestPeriodicExtension:
    def make(self, seed=7):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        fld = synthesize_random_field(
            seed, dom, 1.2, 0.5, norm_V=0.6, norm_b=0.4, norm_c=0.2, sa=True
        )
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        return dom, fld, psi

    def test_constant_extends_constant(self):
        dom = CubeDomain(1, 3.0, 1 / 8, "periodic")
        psi3, fld3, _ = extend(np.ones(dom.shape), laplacian_field(dom))
        assert np.all(psi3 == 1.0) and np.all(fld3.A == np.eye(1))

    def test_smooth_periodic_function_extends_smoothly(self):
        L = 3.0
        dom = CubeDomain(1, L, 1 / 64, "periodic")
        x = dom.centers_1d()
        psi = np.sin(2 * math.pi * x / L)
        psi3, fld3, _ = extend(psi, laplacian_field(dom))
        x3 = fld3.domain.centers_1d()
        assert np.abs(psi3 - np.sin(2 * math.pi * x3 / L)).max() < 1e-12

    def test_exact_periodicity_of_extension(self):
        dom, fld, psi = self.make()
        psi3, fld3, _ = extend(psi, fld)
        n = dom.n
        assert np.array_equal(psi3[:n], psi3[n:2 * n])
        assert np.array_equal(fld3.A[:, :n], fld3.A[:, n:2 * n])

    def test_operator_commutes_on_interior_bitwise(self):
        dom, fld, psi = self.make()
        psi3, fld3, _ = extend(psi, fld)
        op_base = apply_operator(fld.A, fld.b, fld.c + fld.V, psi, dom.h)
        op_ext = apply_operator(fld3.A, fld3.b, fld3.c + fld3.V, psi3, dom.h)
        n = dom.n
        mid = (slice(n, 2 * n),) * 2
        assert np.array_equal(op_ext[mid], op_base)

    def test_incompatible_field_rejected(self):
        dom = CubeDomain(1, 3.0, 1 / 8, "periodic")
        x = dom.centers_1d()
        A = (1.0 + 0.3 * x)[:, None, None].copy()  # non-periodic slope
        fld = CoefficientField(
            dom, A, np.zeros(dom.shape + (1,)), np.zeros(dom.shape),
            np.zeros(dom.shape), 1.5, 0.3,
        )
        with pytest.raises(ValueError):
            extend(np.ones(dom.shape), fld)


    @pytest.mark.parametrize("name", ["psi", "zeta"])
    def test_rejects_a_grid_function_off_the_field_grid(self, name):
        # a 5-cell psi on a 24-cell periodic field came back as a 60-cell
        # psi3 next to a 72-cell field3
        dom = CubeDomain(1, 3.0, 1 / 8, "periodic")
        grid_functions = {"psi": np.ones(dom.shape), "zeta": np.ones(dom.shape), name: np.ones(5)}
        with pytest.raises(ValueError, match=rf"^grid function shape mismatch: {name} has "
                                             r"shape \(5,\), not the field's grid \(24,\)$"):
            extend(grid_functions["psi"], laplacian_field(dom), zeta=grid_functions["zeta"])


class TestDirichletExtension:
    def test_sine_mode_becomes_global_sine(self):
        L, h = 3.0, 1 / 16
        dom = CubeDomain(1, L, h, "dirichlet")
        x = dom.centers_1d()
        psi = np.sin(math.pi * (x + L / 2) / L)
        psi3, fld3, _ = extend(psi, laplacian_field(dom))
        x3 = fld3.domain.centers_1d()
        assert np.abs(psi3 - np.sin(math.pi * (x3 + L / 2) / L)).max() < 1e-12

    def test_diagonal_constant_A_unchanged(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
        fld = laplacian_field(dom)
        psi = np.zeros(dom.shape)
        _, fld3, _ = extend(psi, fld)
        assert np.all(fld3.A == np.eye(2))

    def test_symmetry_and_cellwise_spectrum_preserved(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
        fld = synthesize_dir_cross_field(4, dom, 1.5)
        psi = np.zeros(dom.shape)
        A3 = extend(psi, fld)[1].A
        assert np.array_equal(A3, np.swapaxes(A3, -1, -2))
        # sign conjugation preserves every cell's eigenvalues: the base block
        # and its mirror have identical spectra cell by cell
        n = dom.n
        base = np.linalg.eigvalsh(A3[n:2 * n, n:2 * n])
        mirror = np.linalg.eigvalsh(np.flip(A3[:n, n:2 * n], axis=0))
        assert np.abs(base - mirror).max() < 1e-12
        assert abs(estimate_ellipticity(A3) - estimate_ellipticity(fld.A)) < 1e-12

    def test_composition_order_immaterial(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
        fld = synthesize_dir_cross_field(4, dom, 1.5)
        A3 = extend(np.zeros(dom.shape), fld)[1].A
        a_e = fld.A
        for ax in (1, 0):  # reversed axis order
            a_e = np.concatenate(
                [reflect_block(a_e, ax, "matrix"), a_e,
                 reflect_block(a_e, ax, "matrix")],
                axis=ax,
            )
        assert np.array_equal(a_e, A3)

    def test_each_parity_is_one_sign_on_the_flipped_block(self):
        # psi is negated, which flips the sign of a zero imaginary part as
        # well; scalars keep theirs; the normal drift component and the mixed
        # normal-tangential entries of A change sign
        rng = np.random.default_rng(0)
        psi = rng.standard_normal((4, 5, 3)) + 0j
        b, A = rng.standard_normal((4, 5, 3, 3)), rng.standard_normal((4, 5, 3, 3, 3))
        ax = 1
        sign = np.array([1.0, -1.0, 1.0])
        assert reflect_block(psi, ax, "psi").tobytes() == np.negative(np.flip(psi, ax)).tobytes()
        assert np.all(np.signbit(reflect_block(psi, ax, "psi").imag))
        assert reflect_block(psi, ax, "scalar").tobytes() == np.flip(psi, ax).tobytes()
        assert np.array_equal(reflect_block(b, ax, "vector"), np.flip(b, ax) * sign)
        assert np.array_equal(reflect_block(A, ax, "matrix"),
                              np.flip(A, ax) * sign[:, None] * sign[None, :])

    def test_drift_parities_preserve_the_operator(self):
        # with the orientation-consistent drift parities, the discrete
        # operator of the extension is the odd extension of the operator
        L, h = 3.0, 1 / 32
        dom = CubeDomain(1, L, h, "periodic")
        x = dom.centers_1d()
        psi = np.sin(2 * math.pi * (x + L / 2) / L)  # odd about the left face
        A = np.ones(dom.shape + (1, 1))
        b = (0.4 + 0.1 * np.cos(2 * math.pi * x / L))[:, None].astype(complex)
        op = apply_operator(A, b, None, psi, h)
        # mirror data across the face at -L/2 (odd psi, flipped drift)
        psi_m = -psi[::-1]
        b_m = -b[::-1]
        op_m = apply_operator(A, b_m, None, psi_m, h)
        assert np.abs(op_m + op[::-1]).max() < 1e-10

    @pytest.mark.parametrize("d,h", [(1, 1 / 16), (2, 1 / 8), (3, 1 / 4)])
    @pytest.mark.parametrize("sa", [True, False], ids=["self-adjoint", "general"])
    def test_extension_restricts_to_the_base_operator(self, d, h, sa):
        # the reflection principle as an identity: the extended operator
        # applied to the mirrored psi is the base operator on the middle block
        dom = CubeDomain(d, 3.0, h, "dirichlet")
        rng = np.random.default_rng(10 * d + sa)
        flds = [synthesize_random_field(seed, dom, 1.3, 0.6, norm_V=0.5, norm_b=0.8,
                                        norm_c=0.4, sa=sa) for seed in range(3)]
        if d >= 2:  # variable off-diagonal A, white-noise drift and c
            b, c = rng.standard_normal(dom.shape + (d,)), rng.standard_normal(dom.shape)
            b, c = make_self_adjoint(b, c, dom) if sa else (b + 1j * b[..., ::-1], c)
            flds.append(dataclasses.replace(
                synthesize_dir_cross_field(3, dom, 1.5, norm_V=0.5), b=b, c=c))
        middle = (slice(dom.n, 2 * dom.n),) * d
        for fld in flds:
            psi = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
            base = assemble(fld).apply(psi)
            psi3, fld3, _ = extend(psi, fld)
            ext = apply_operator(fld3.A, fld3.b, fld3.c + fld3.V, psi3, h)[middle]
            assert np.abs(ext - base).max() <= 1e-12 * np.abs(base).max()

    def test_trace_violation_rejected(self):
        dom = CubeDomain(1, 3.0, 1 / 16, "dirichlet")
        psi = np.ones(dom.shape)  # no zero trace
        with pytest.raises(ValueError):
            extend(psi, laplacian_field(dom))

    def test_lipschitz_preserved_across_interior_faces(self):
        dom = CubeDomain(2, 3.0, 1 / 16, "dirichlet")
        fld = synthesize_dir_cross_field(6, dom, 1.4)
        psi = np.zeros(dom.shape)
        _, fld3, _ = extend(psi, fld)
        from uclab.fields import estimate_lipschitz

        lip_base = estimate_lipschitz(fld.A, dom.h)
        lip_ext = estimate_lipschitz(fld3.A, dom.h)
        # off-diagonals vanish at the face, so the mirrored jump stays within
        # one quantization step of the declared constant
        assert lip_ext <= lip_base + 10.0 * dom.h * fld.declared_theta2 + 1e-9


class TestExtensionCheck:
    def test_wrap_jump_fails_the_allowance(self):
        # a ramp on a periodic cube jumps by L - h across the wrap, far more
        # than 10 h times its unit slope
        dom = CubeDomain(1, 3.0, 1 / 16, "periodic")
        res = extension_check(laplacian_field(dom), dom.centers_1d(), 0.0)
        assert res["interface_jump_rel"] == pytest.approx((dom.L - dom.h) / (10.0 * dom.h))

    def test_constant_eigenfunction_has_no_jump(self):
        # the closed-form ground state of a constant A is exactly constant: its
        # seam jump and its allowance 10 h |grad psi|_sup are both zero
        from uclab.spectral import eigensolve

        fld = synthesize_random_field(0, CubeDomain(1, 3.0, 1 / 16, "periodic"), 1.3)
        sl = eigensolve(assemble(fld), count=2, seed=0)
        psi = sl.grid_vector(0)
        assert np.all(psi == psi[0])
        res = extension_check(fld, psi, float(sl.eigenvalues[0]))
        assert res["interface_jump_rel"] == 0.0 and res["residual"] <= 1e-12


class TestResidualInequality:
    def test_eigenpair_with_matching_potential(self):
        dom = CubeDomain(1, 3.0, 1 / 32, "dirichlet")
        H = assemble(laplacian_field(dom))
        vals, vecs = np.linalg.eigh(H.matrix.toarray())
        psi = vecs[:, 0].reshape(dom.shape)
        lam = vals[0]
        viol = residual_inequality_check(psi, lam, 0.0, H.apply(psi))
        assert viol <= 1e-9 * abs(lam)

    def test_projector_pair_exact_triangle(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        fld = synthesize_random_field(2, dom, 1.2, 0.0, norm_V=1.0)
        H = assemble(fld)
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(dom.shape)
        E = 0.7
        op_psi = H.apply(psi)
        zeta = op_psi - E * psi
        viol = residual_inequality_check(psi, E, np.abs(zeta), op_psi)
        assert viol <= 1e-12

    def test_inflated_zeta_passes_with_margin(self):
        dom = CubeDomain(1, 3.0, 1 / 16, "periodic")
        H = assemble(laplacian_field(dom))
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(dom.shape)
        op_psi = H.apply(psi)
        zeta = np.abs(op_psi) + 1.0
        viol = residual_inequality_check(psi, 0.0, zeta, op_psi)
        assert viol <= -1.0 + 1e-12
