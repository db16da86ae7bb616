"""Coefficient-field construction and validation tests."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import uclab.fields
from oracles import (
    on_grid,
    phase_on_grid,
    roll_centered_diff,
    roll_difference,
    roll_shift,
    same_bits,
)
from uclab.discretization import assemble
from uclab.fields import (
    CoefficientField,
    _bounded_potential,
    _neighbour,
    _phase,
    check_boundary_conditions,
    constant_spd_field,
    divergence_centered,
    estimate_ellipticity,
    estimate_lipschitz,
    make_self_adjoint,
    periodic_centered_diff,
    periodic_gradient,
    periodic_gradient_energy,
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


class TestEllipticity:
    def test_identity(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        assert estimate_ellipticity(laplacian_field(dom).A) == 1.0

    def test_explicit_diagonal(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        A = np.broadcast_to(np.diag([2.0, 0.5]), dom.shape + (2, 2)).copy()
        assert estimate_ellipticity(A) == 2.0

    def test_matches_rayleigh_sampling(self):
        rng = np.random.default_rng(0)
        dom = CubeDomain(2, 3.0, 1 / 4, "periodic")
        fld = synthesize_random_field(5, dom, 1.6, 1.2)
        got = estimate_ellipticity(fld.A)
        xi = rng.standard_normal((1000, 2))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        quad = np.einsum("ki,...ij,kj->...k", xi, fld.A, xi)
        brute = max(float(quad.max()), float((1.0 / quad).max()))
        assert brute <= got + 1e-6
        assert got - brute < 0.05 * got  # 1000 directions nearly exhaust the extremes

    def test_flags_indefinite_cells(self):
        dom = CubeDomain(1, 3.0, 1 / 4)
        A = np.ones(dom.shape + (1, 1))
        A[0] = -1.0
        with pytest.raises(ValueError):
            estimate_ellipticity(A)


class TestPositiveSemidefiniteA:
    @staticmethod
    def field(A):
        dom = CubeDomain(2, 3.0, 1 / 4)
        return CoefficientField(
            dom, A, np.zeros(dom.shape + (2,)), np.zeros(dom.shape),
            np.zeros(dom.shape), 1.0, 0.0,
        )

    def test_indefinite_cells_rejected_and_counted(self):
        A = np.broadcast_to(np.eye(2), (12, 12, 2, 2)).copy()
        A[0, 0] = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3, -1
        A[5, 7] = -np.eye(2)
        A[11, 3] = np.diag([1.0, -1e-9])
        with pytest.raises(ValueError, match="3 cells have a negative eigenvalue"):
            self.field(A)

    def test_semidefinite_and_roundoff_accepted(self):
        A = np.broadcast_to(np.eye(2), (12, 12, 2, 2)).copy()
        A[0, 0] = [[1.0, 1.0], [1.0, 1.0]]  # singular, eigenvalues 2, 0
        A[1, 1] = 0.0
        A[2, 2] = np.diag([1.0, -1e-13])  # below the roundoff threshold
        self.field(A)


class TestFiniteCoefficients:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["A", "b", "c", "V"])
    def test_non_finite_rejected_naming_the_array(self, name, bad):
        dom = CubeDomain(2, 3.0, 1 / 4, "periodic")
        arrays = {
            "A": np.broadcast_to(np.eye(2), dom.shape + (2, 2)).copy(),
            "b": np.zeros(dom.shape + (2,), complex),
            "c": np.zeros(dom.shape, complex),
            "V": np.zeros(dom.shape),
        }
        arrays[name][(3, 5)] = bad  # one cell, every component of A and b
        with pytest.raises(ValueError,
                           match=rf"^{name} must be finite; {arrays[name][3, 5].size} entries"):
            CoefficientField(dom, declared_theta1=1.0, declared_theta2=0.0, **arrays)


class TestRealA:
    @staticmethod
    def complex_A(dom):
        A = np.eye(2, dtype=complex)
        A[0, 1] = A[1, 0] = 0.3j  # A == A.T, and eigvalsh reads it as Hermitian
        return np.broadcast_to(A, dom.shape + (2, 2)).copy()

    def test_field_rejects_a_complex_A(self):
        dom = CubeDomain(2, 3.0, 1 / 4, "periodic")
        with pytest.raises(ValueError, match=r"^A must be a real matrix field"):
            CoefficientField(dom, self.complex_A(dom), np.zeros(dom.shape + (2,)),
                             np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0)

    def test_apply_operator_rejects_a_complex_A(self):
        from uclab.discretization import apply_operator

        dom = CubeDomain(2, 3.0, 1 / 4, "periodic")
        with pytest.raises(ValueError, match=r"^A must be a real matrix field"):
            apply_operator(self.complex_A(dom), None, None, np.ones(dom.shape), dom.h)


class TestScalarConstants:
    @pytest.mark.parametrize("name, bad", [
        ("declared_theta1", math.nan), ("declared_theta1", math.inf),
        ("declared_theta1", 0.5), ("declared_theta2", math.nan),
        ("declared_theta2", math.inf), ("declared_theta2", -0.5),
    ])
    def test_field_rejects_a_bad_declared_constant(self, name, bad):
        dom = CubeDomain(1, 3.0, 1 / 4, "periodic")
        constants = {"declared_theta1": 1.0, "declared_theta2": 0.0, name: bad}
        floor = 1 if name == "declared_theta1" else 0
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number >= {floor}, got "):
            CoefficientField(dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
                             np.zeros(dom.shape), np.zeros(dom.shape), **constants)

    @pytest.mark.parametrize("name, bad", [
        ("norm_V", math.nan), ("norm_V", -1.0), ("norm_b", math.nan), ("norm_b", -1.0),
        ("norm_c", math.nan), ("norm_c", math.inf), ("target_theta1", math.nan),
        ("target_theta1", 0.5), ("target_theta2", math.nan), ("target_theta2", -0.5),
        ("target_theta2", math.inf),
    ])
    def test_random_synthesis_rejects_a_bad_constant(self, name, bad):
        dom = CubeDomain(1, 3.0, 1 / 16, "periodic")
        floor = 1 if name == "target_theta1" else 0
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number >= {floor}, got "):
            synthesize_random_field(0, dom, **{"target_theta1": 1.3, name: bad})

    @pytest.mark.parametrize("kwargs, message", [
        ({"norm_V": math.nan}, "norm_V must be a finite number >= 0, got nan"),
        ({"norm_V": -1.0}, "norm_V must be a finite number >= 0, got -1.0"),
        ({"theta1": math.nan}, "theta1 must be a finite number > 1, got nan"),
        ({"theta1": math.inf}, "theta1 must be a finite number > 1, got inf"),
    ])
    def test_cross_synthesis_rejects_a_bad_constant(self, kwargs, message):
        dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
        with pytest.raises(ValueError, match=f"^{message}"):
            synthesize_dir_cross_field(0, dom, **{"theta1": 1.3, **kwargs})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_potential_rejects_a_bad_bound(self, bad):
        with pytest.raises(ValueError, match="^norm_V must be a finite number >= 0, got "):
            _bounded_potential(np.random.default_rng(0), bad, (4,))


class TestLipschitz:
    def test_constant_field_zero(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        assert estimate_lipschitz(laplacian_field(dom).A, dom.h) == 0.0

    def test_linear_slope_recovered(self):
        dom = CubeDomain(1, 3.0, 1 / 128)
        x = dom.centers_1d()
        eps = 0.173
        A = (1.0 + eps * x)[:, None, None].copy()
        got = estimate_lipschitz(A, dom.h)
        assert abs(got - eps) < dom.h

    def test_row_sum_convention(self):
        dom = CubeDomain(2, 2.0, 1.0)
        A = np.zeros(dom.shape + (2, 2))
        A[..., 0, 0] = 1.0
        A[..., 1, 1] = 1.0
        A[1, :, 0, 1] = 0.25  # jump of 0.25 in both off-diagonal slots of row 0
        A[1, :, 1, 0] = 0.25
        # row-sum norm of the difference matrix is 0.25 (one off-diag per row)
        assert abs(estimate_lipschitz(A, dom.h) - 0.25) < 1e-12

    def test_monotone_under_refinement(self):
        vals = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            dom = CubeDomain(1, 3.0, h)
            x = dom.centers_1d()
            A = np.exp(0.3 * np.sin(2 * math.pi * x / 3.0))[:, None, None].copy()
            vals.append(estimate_lipschitz(A, h))
        assert vals[0] <= vals[1] + 1e-8 <= vals[2] + 2e-8


class TestSelfAdjoint:
    def test_zero_drift_keeps_c_real(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        b, c = make_self_adjoint(
            np.zeros(dom.shape + (2,)), np.ones(dom.shape), dom
        )
        assert not b.any()
        assert not c.imag.any()

    def test_analytic_divergence(self):
        L = 3.0
        dom = CubeDomain(1, L, 1 / 128, "periodic")
        x = dom.centers_1d()
        bt = np.sin(2 * math.pi * x / L)[:, None]
        _, c = make_self_adjoint(bt, np.zeros(dom.shape), dom)
        exact = (math.pi / L) * np.cos(2 * math.pi * x / L)
        assert np.abs(c.imag - exact).max() < 2e-4  # O(h^2)

    def test_dirichlet_synthesis_assembles_exactly_hermitian(self):
        # the drift divergence follows the domain's Dirichlet faces
        dom = CubeDomain(2, 3.0, 1 / 8)
        fld = synthesize_random_field(
            3, dom, 1.2, 0.4, norm_b=0.7, norm_c=0.3, sa=True
        )
        assert assemble(fld).hermiticity_defect() == 0.0

    def test_assembled_hermiticity_defect_vanishes_under_refinement(self):
        defects = []
        for h_per in (8, 16, 32):
            dom = CubeDomain(1, 3.0, 1.0 / h_per, "periodic")
            fld = synthesize_random_field(
                3, dom, 1.2, 0.4, norm_b=0.7, norm_c=0.3, sa=True
            )
            defects.append(assemble(fld).hermiticity_defect())
        scale = 1.0 / (1.0 / 32) ** 2
        assert all(dd <= 1e-12 * scale for dd in defects)


class TestBoundaryConditions:
    def test_diagonal_passes_dirichlet(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        rep = check_boundary_conditions(laplacian_field(dom))
        assert rep["ok"] and rep["worst_violation"] == 0.0

    def test_constant_passes_periodic(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        fld = CoefficientField(
            dom, constant_spd_field(1, dom, 1.5),
            np.zeros(dom.shape + (2,)), np.zeros(dom.shape), np.zeros(dom.shape),
            1.5, 0.0,
        )
        rep = check_boundary_conditions(fld)
        assert rep["ok"] and rep["worst_violation"] == 0.0

    def test_face_vanishing_profile_passes_dirichlet(self):
        dom = CubeDomain(2, 3.0, 1 / 16)
        fld = synthesize_dir_cross_field(2, dom, 1.4)
        rep = check_boundary_conditions(fld)
        assert rep["ok"]
        assert np.abs(fld.A[..., 0, 1]).max() > 0.1  # genuinely non-diagonal

    def test_constant_is_one_stored_cell(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        A = constant_spd_field(3, dom, 2.0)
        assert A.shape == (1, 1, 2, 2)
        assert np.array_equal(A[0, 0], A[0, 0].T) and A[0, 0, 0, 1] != 0.0

    def test_rotated_constant_fails_dirichlet(self):
        dom = CubeDomain(2, 3.0, 1 / 8)
        # constant_spd_field rotates A only on a periodic domain
        A = constant_spd_field(3, replace(dom, bc="periodic"), 2.0)
        assert np.abs(A[..., 0, 1]).max() > 0.0
        fld = CoefficientField(
            dom, A, np.zeros(dom.shape + (2,)), np.zeros(dom.shape),
            np.zeros(dom.shape), 2.0, 0.0,
        )
        rep = check_boundary_conditions(fld)
        assert not rep["ok"]


class TestSynthesis:
    def test_zero_lipschitz_target_gives_constant(self):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")  # rotated A
        fld = synthesize_random_field(9, dom, 1.3, 0.0)
        assert estimate_lipschitz(fld.A, dom.h) == 0.0
        assert abs(estimate_ellipticity(fld.A) - 1.3) < 1e-12

    def test_seed_reproducibility_bit_identical(self):
        dom = CubeDomain(2, 3.0, 1 / 16, "periodic")  # random phases
        a = synthesize_random_field(11, dom, 1.4, 0.8, norm_V=0.5, sa=True)
        b = synthesize_random_field(11, dom, 1.4, 0.8, norm_V=0.5, sa=True)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.c, b.c)

    def test_targets_hit_within_band(self):
        for bc in ("periodic", "dirichlet"):
            dom = CubeDomain(2, 3.0, 1 / 32, bc)
            for seed_, t1, t2 in ((1, 1.4, 0.8), (2, 1.2, 0.5), (3, 1.7, 2.0)):
                fld = synthesize_random_field(seed_, dom, t1, t2)
                assert abs(estimate_ellipticity(fld.A) - t1) <= 0.05 * t1
                assert abs(estimate_lipschitz(fld.A, dom.h) - t2) <= 0.05 * t2

    def test_ellipticity_exact_on_a_coarse_grid(self):
        # the two-mode profile's maximum falls between cell centers on this
        # grid; the sampled maximum sets the amplitude
        dom = CubeDomain(1, 3.0, 1 / 4, "dirichlet")
        fld = synthesize_random_field(1, dom, 4 / 3, 1.3)
        assert abs(estimate_ellipticity(fld.A) - 4 / 3) <= 1e-12

    def test_unreachable_target_rejected(self):
        dom = CubeDomain(1, 3.0, 1 / 8, "periodic")
        with pytest.raises(ValueError):
            synthesize_random_field(1, dom, 1.0001, 50.0)

    def test_potential_bounded_by_norm(self):
        dom = CubeDomain(1, 3.0, 1 / 8, "periodic")
        fld = synthesize_random_field(4, dom, 1.0, 0.0, norm_V=0.7)
        assert np.abs(fld.V).max() <= 0.7

    def test_symmetry_exact_after_synthesis(self):
        dom = CubeDomain(2, 3.0, 1 / 16)
        for seed_ in range(4):
            # rotated constant A on the periodic twin
            fld = synthesize_random_field(seed_, replace(dom, bc="periodic"), 1.3, 0.0)
            assert np.array_equal(fld.A, np.swapaxes(fld.A, -1, -2))
            fld2 = synthesize_dir_cross_field(seed_, dom, 1.3)
            assert np.array_equal(fld2.A, np.swapaxes(fld2.A, -1, -2))


class TestPhaseReference:
    @pytest.mark.parametrize("phase", [0.0, 2.1])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_profile_broadcasts_to_the_grid_cosine(self, d, k, phase):
        dom = CubeDomain(d, 3.0, 1 / 8, "periodic")
        for axis in range(d):
            got = np.broadcast_to(_phase(dom, axis, k, phase), dom.shape)
            assert same_bits(got, phase_on_grid(dom, k * np.eye(d)[axis], phase))

    @pytest.mark.parametrize("extra", [{}, {"norm_V": 0.5, "norm_b": 0.8},
                                       {"norm_b": 0.4, "norm_c": 0.7, "sa": True}],
                             ids=["plain", "drift", "c-sa"])
    @pytest.mark.parametrize("theta2", [0.0, 0.6])
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_synthesis_matches_the_grid_cosine(self, monkeypatch, d, bc, theta2, extra):
        # the same synthesis with every cosine evaluated on the whole grid
        dom = CubeDomain(d, 3.0, {1: 1 / 32, 2: 1 / 16, 3: 1 / 8}[d], bc)
        got = synthesize_random_field(5, dom, 1.3, theta2, **extra)
        monkeypatch.setattr(
            uclab.fields, "_phase",
            lambda domain, axis, k, phase: phase_on_grid(domain, k * np.eye(domain.d)[axis],
                                                         phase))
        want = synthesize_random_field(5, dom, 1.3, theta2, **extra)
        # a profile is stored along its axis only; compare the full grids
        got, want = on_grid(got), on_grid(want)
        for name in ("A", "b", "c", "V"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert (got.declared_theta1, got.declared_theta2) == \
            (want.declared_theta1, want.declared_theta2)


class TestDivergence:
    def test_periodic_wraps(self):
        dom = CubeDomain(1, 2.0, 1 / 4)
        b = np.arange(8.0)[:, None]
        div = divergence_centered(b, dom.h, "periodic")
        assert div[0] == (b[1, 0] - b[-1, 0]) / (2 * dom.h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_faces_mirror_the_normal_component(self, d):
        # the Dirichlet divergence is the periodic one of the field mirrored
        # with reflect_block's vector parity, on the middle block of 3L
        from uclab.discretization import reflect_block

        rng = np.random.default_rng(d)
        n = (16, 8, 6)[d - 1]
        b = rng.standard_normal((n,) * d + (d,)) + 1j * rng.standard_normal((n,) * d + (d,))
        b3 = b
        for ax in range(d):
            side = reflect_block(b3, ax, "vector")
            b3 = np.concatenate([side, b3, side], axis=ax)
        middle = (slice(n, 2 * n),) * d
        assert np.array_equal(divergence_centered(b, 0.1, "dirichlet"),
                              divergence_centered(b3, 0.1, "periodic")[middle])

    def test_centered_difference_is_exact_inside(self):
        dom = CubeDomain(1, 2.0, 1 / 64)
        x = dom.centers_1d()
        div = divergence_centered((x**2)[:, None], dom.h, "dirichlet")
        assert np.abs(div[1:-1] - 2 * x[1:-1]).max() < 1e-12  # exact for quadratics
        assert div[0] == (x[1] ** 2 + x[0] ** 2) / (2 * dom.h)  # ghost -b[0]
        assert div[-1] == -(x[-1] ** 2 + x[-2] ** 2) / (2 * dom.h)  # ghost -b[-1]


def handwritten_dirichlet_divergence(bgrid, h):
    """The Dirichlet divergence written out: centered differences, with a
    ghost cell equal to minus the face cell at each face."""
    out = np.zeros(bgrid.shape[:-1], dtype=bgrid.dtype)
    for ax in range(bgrid.shape[-1]):
        comp = np.moveaxis(bgrid[..., ax], ax, 0)
        padded = np.concatenate([-comp[:1], comp, -comp[-1:]])
        der = (padded[2:] - padded[:-2]) / (2 * h)
        out = out + np.moveaxis(der, 0, ax)
    return out


def einsum_gradient_energy(u, A, h):
    """conj(grad u).A.grad u as one einsum, the form the interior gradient
    check used before the shared function."""
    grad = np.stack([periodic_centered_diff(u, ax, h) for ax in range(u.ndim)], axis=-1)
    return np.real(np.einsum("...i,...ij,...j->...", np.conj(grad), A, grad))


class TestDivergenceReference:
    @pytest.mark.parametrize("h", [1 / 16, 1 / 32, 0.013])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_handwritten_stencil(self, d, h):
        rng = np.random.default_rng(10 * d + int(1 / h))
        n = (24, 12, 6)[d - 1]
        for complex_ in (False, True):
            b = rng.standard_normal((n,) * d + (d,))
            if complex_:
                b = b + 1j * rng.standard_normal(b.shape)
            got = divergence_centered(b, h, "dirichlet")
            assert np.array_equal(got, handwritten_dirichlet_divergence(b, h))


class TestGradientEnergy:
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_einsum_form_on_every_cell(self, d, complex_):
        rng = np.random.default_rng(d + 3 * complex_)
        shape = ((32,), (16, 16), (8, 8, 8))[d - 1]
        M = rng.standard_normal(shape + (d, d))
        A = M @ np.swapaxes(M, -1, -2) + 0.1 * np.eye(d)  # full SPD per cell
        u = rng.standard_normal(shape)
        if complex_:
            u = u + 1j * rng.standard_normal(shape)
        got = periodic_gradient_energy(periodic_gradient(u, 0.05), A)
        assert got.dtype == np.float64
        assert np.array_equal(got, einsum_gradient_energy(u, A, 0.05))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_in_place_sums_round_as_nested_sums(self, d, complex_):
        # zeros in u and negative entries in A make signed zeros
        u, A0 = signed_zero_data(d, complex_, seed=40 + d)
        A = np.broadcast_to(A0, u.shape + (d, d)).copy()
        grad = periodic_gradient(u, 0.05)
        assert same_bits(periodic_gradient_energy(grad, A),
                         nested_sum_gradient_energy(grad, A))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_A_equals_its_grid(self, d, complex_):
        u, A0 = signed_zero_data(d, complex_, seed=50 + d)
        grad = periodic_gradient(u, 0.05)
        grid = np.broadcast_to(A0, u.shape + (d, d)).copy()
        assert same_bits(periodic_gradient_energy(grad, A0),
                         periodic_gradient_energy(grad, grid))


def signed_zero_data(d, complex_, seed):
    """u on (10,)*d with about a third of its entries 0.0 or -0.0, and a
    rotated SPD matrix with negative entries."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((10,) * d)
    u[u > 0.8] = 0.0
    u[u < -0.8] = -0.0
    if complex_:
        u = u + 1j * np.where(rng.random(u.shape) < 0.3, -0.0, rng.standard_normal(u.shape))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A0 = Q @ np.diag(rng.uniform(0.5, 2.0, d)) @ Q.T
    return u, 0.5 * (A0 + A0.T)


def nested_sum_gradient_energy(grad, A):
    """The gradient energy as nested Python sums of fresh arrays."""
    parts = [(g.real, g.imag) if np.iscomplexobj(g) else (g,) for g in grad]
    return sum(
        sum((gi * A[..., i, j]) * gj for gi, gj in zip(parts[i], parts[j]))
        for i in range(len(grad)) for j in range(len(grad))
    )


class TestWrappedDifferences:
    """The slicing neighbour read, wrapped or with a Dirichlet ghost sign,
    equals its np.roll form bit for bit."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equal_to_rolls(self, d, n, complex_):
        rng = np.random.default_rng(10 * d + n)
        # a size-1 axis next to the n-cell ones
        u = rng.standard_normal((n,) * d + (1,))
        u[u > 0.8] = 0.0
        u[u < -0.8] = -0.0
        if complex_:
            u = u + 1j * rng.standard_normal(u.shape)
        for ax in range(d + 1):
            assert same_bits(periodic_centered_diff(u, ax, 0.3),
                             roll_centered_diff(u, ax, 0.3))
            for ghost in (None, -1.0, 0.0, 1.0):  # periodic, odd, dropped, even
                for step in (-1, 0, 1):
                    assert same_bits(_neighbour(u, ax, step, ghost=ghost),
                                     roll_shift(u, ax, step, ghost))
                # (1, 0) is the forward difference; (0, 1) and (0, -1) are
                # the flux differences of apply_operator, (1, -1) the centered
                for ahead, behind in itertools.permutations((-1, 0, 1), 2):
                    assert same_bits(_neighbour(u, ax, ahead, behind, ghost),
                                     roll_difference(u, ax, ahead, behind, ghost))

    @pytest.mark.parametrize("ghost", [None, 1])
    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 1), (3, 4, 2)])
    def test_index_grid(self, shape, ghost):
        # assemble's column map: a Dirichlet ghost is its mirror cell's index
        flat = np.arange(math.prod(shape)).reshape(shape)
        for ax in range(len(shape)):
            for step in (-1, 1):
                assert same_bits(_neighbour(flat, ax, step, ghost=ghost),
                                 roll_shift(flat, ax, step, ghost))


class TestFieldFiles:
    def test_save_load_roundtrip_bit_for_bit(self, tmp_path):
        dom = CubeDomain(2, 3.0, 1 / 8, "periodic")
        fld = synthesize_random_field(1, dom, 1.2, 0.5, norm_V=0.4,
                                      norm_b=0.3, sa=True)
        path = tmp_path / "field.npz"
        from uclab.fields import load_field, save_field

        save_field(path, fld)
        back = load_field(path)
        assert back.domain == fld.domain
        assert np.array_equal(back.A, fld.A)
        assert np.array_equal(back.b, fld.b)
        assert np.array_equal(back.c, fld.c)
        assert np.array_equal(back.V, fld.V)
        assert back.declared_theta1 == fld.declared_theta1
