"""A field stores each coefficient only along the grid axes it varies on.

Every builder's field, and the same field with every array materialized on
the full grid (``oracles.on_grid``), give the same assembled matrix, the
same boundary-condition report, norms and realness, bit for bit, and the
same extension: ``extend`` keeps the stored extents, and on the grid its
arrays are the full field's up to the sign of a mirrored zero, with the same
assembled matrix.  Validation reads only the stored cells.
"""

import math

import numpy as np
import pytest

import uclab.verifier
from oracles import on_grid, same_bits
from uclab.cli import main
from uclab.discretization import assemble, extend
from uclab.fields import (
    CoefficientField,
    check_boundary_conditions,
    constant_spd_field,
    load_field,
    make_self_adjoint,
    save_field,
    synthesize_dir_cross_field,
    synthesize_random_field,
)
from uclab.geometry import CubeDomain
from uclab.verifier import TrialConfig, benchmark_field

NAMES = ("A", "b", "c", "V")
H_OF_D = {1: 1 / 16, 2: 1 / 8, 3: 1 / 4}


def trial_field(bc, norm_V):
    return benchmark_field(TrialConfig(d=2, bc=bc, L_over_G=3, norm_V=norm_V,
                                       delta_over_G=0.25, seed=1, h_per_G=8))


def assert_same_operator(fld, full):
    got, want = assemble(fld), assemble(full)
    for attr in ("data", "indices", "indptr"):
        assert same_bits(getattr(got.matrix, attr), getattr(want.matrix, attr)), attr
    assert same_bits(np.float64(got.spectral_floor), np.float64(want.spectral_floor))
    if want.constant_coefficients is None:
        assert got.constant_coefficients is None
    else:
        assert same_bits(got.constant_coefficients[0], want.constant_coefficients[0])
        assert got.constant_coefficients[1] == want.constant_coefficients[1]


def assert_same_downstream(fld):
    full = on_grid(fld)
    # the case is a real one: some array is stored on fewer cells
    assert any(getattr(fld, k).shape != getattr(full, k).shape for k in NAMES)
    assert_same_operator(fld, full)

    # a sine product: small on the faces, as a Dirichlet extension needs
    dom = fld.domain
    sine = np.sin(math.pi * (dom.centers_1d() + dom.L / 2.0) / dom.L)
    psi = math.prod(np.meshgrid(*[sine] * dom.d, indexing="ij"))
    zeta = np.random.default_rng(dom.d).standard_normal(dom.shape)
    (psi3, fld3, zeta3), (psi3w, fld3w, zeta3w) = (extend(psi, f, zeta) for f in (fld, full))
    assert same_bits(psi3, psi3w) and same_bits(zeta3, zeta3w)
    assert fld3.domain == fld3w.domain
    # where the mirror negates a stored +0.0 the full grid holds -0.0
    grid3 = on_grid(fld3)
    for k in NAMES:
        got, want = getattr(grid3, k), getattr(fld3w, k)
        assert got.dtype == want.dtype and np.array_equal(got, want), k
        assert same_bits(got + 0.0, want + 0.0), k
    assert_same_operator(fld3, fld3w)

    assert check_boundary_conditions(fld) == check_boundary_conditions(full)
    for attr in ("norm_V", "norm_b", "norm_c"):
        assert getattr(fld, attr) == getattr(full, attr), attr
    assert fld.is_real() == full.is_real()


@pytest.mark.parametrize("norm_V", [0.0, 1.0])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_benchmark_field(bc, norm_V):
    assert_same_downstream(trial_field(bc, norm_V))


@pytest.mark.parametrize("extra", [{}, {"norm_V": 0.5, "norm_b": 0.8},
                                   {"norm_b": 0.4, "norm_c": 0.7, "sa": True}],
                         ids=["plain", "drift", "sa"])
@pytest.mark.parametrize("theta2", [0.0, 0.6])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_synthesize_random_field(d, bc, theta2, extra):
    dom = CubeDomain(d, 3.0, H_OF_D[d], bc)
    assert_same_downstream(synthesize_random_field(5, dom, 1.3, theta2, **extra))


@pytest.mark.parametrize("d", [2, 3])
def test_synthesize_dir_cross_field(d):
    dom = CubeDomain(d, 3.0, H_OF_D[d], "dirichlet")
    assert_same_downstream(synthesize_dir_cross_field(2, dom, 1.5, norm_V=0.3))


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_make_self_adjoint_of_a_profile(bc):
    # the Dirichlet divergence of a constant normal component is nonzero on
    # the faces, so it must be taken on the full grid
    dom = CubeDomain(2, 3.0, 1 / 8, bc)
    b_tilde = np.cos(dom.centers_1d())[:, None, None] * np.array([0.3, -0.2])
    c_tilde = np.full((1, 1), 0.4)
    got = make_self_adjoint(b_tilde, c_tilde, dom)
    want = make_self_adjoint(np.broadcast_to(b_tilde, dom.shape + (2,)).copy(),
                             np.broadcast_to(c_tilde, dom.shape).copy(), dom)
    assert got[0].shape == (dom.n, 1, 2)
    assert same_bits(np.broadcast_to(got[0], dom.shape + (2,)).copy(), want[0])
    assert same_bits(got[1], want[1])


def test_cacciopoli_check_identity_field(monkeypatch, tmp_path):
    seen = []
    check = uclab.verifier.cacciopoli_check

    def spy(psi, fld, *args, **kwargs):
        seen.append((psi, fld, args, kwargs))
        return check(psi, fld, *args, **kwargs)

    monkeypatch.setattr(uclab.verifier, "cacciopoli_check", spy)
    assert main(["cacciopoli-check", "--out", str(tmp_path)]) == 0
    (psi, fld, args, kwargs), = seen
    assert all(getattr(fld, k).shape[:fld.domain.d] == (1,) * fld.domain.d for k in NAMES)
    assert_same_downstream(fld)
    assert check(psi, fld, *args, **kwargs) == check(psi, on_grid(fld), *args, **kwargs)


def test_validation_reads_the_stored_cells(monkeypatch):
    dom = CubeDomain(3, 3.0, 1 / 8, "periodic")
    profile = synthesize_random_field(1, dom, 1.3, 0.6).A  # before the spy
    assert sorted(profile.shape[:3]) == [1, 1, dom.n]
    cells = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        cells.append(math.prod(np.shape(a)[:-2]))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    unit = (1, 1, 1)
    for A, stored in ((constant_spd_field(3, dom, 1.3), 1), (profile, dom.n)):
        cells.clear()
        fld = CoefficientField(dom, A, np.zeros(unit + (3,)), np.zeros(unit), np.zeros(unit),
                               1.3, 0.6)
        assert cells == [stored]
        # the extension validates its field on 3 n cells of a profile, not (3 n)^3
        cells.clear()
        extend(np.zeros(dom.shape), fld)
        assert cells == [3 * stored if stored > 1 else 1]


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_extension_keeps_the_stored_extents(bc):
    dom = CubeDomain(3, 3.0, 1 / 8, bc)
    fld = synthesize_random_field(1, dom, 1.3, 0.6)
    fld3 = extend(np.zeros(dom.shape), fld)[1]
    # a periodic tiling, and the Dirichlet mirror of a diagonal A, of zero
    # b and of an even c and V, change no unit axis
    assert not np.any(fld.A - np.eye(3) * fld.A)
    for k in NAMES:
        stored = getattr(fld, k).shape[:3]
        assert getattr(fld3, k).shape[:3] == tuple(1 if m == 1 else 3 * m for m in stored), k


def test_extension_spreads_a_sign_flipped_unit_axis():
    # the normal component of a constant drift is odd across a Dirichlet face
    # normal to axis 0 and even across one normal to axis 1
    dom = CubeDomain(2, 3.0, 1 / 8, "dirichlet")
    unit = (1, 1)
    fld = CoefficientField(dom, np.eye(2).reshape(unit + (2, 2)), np.array([[[0.5, 0.0]]]),
                           np.zeros(unit), np.zeros(unit), 1.0, 0.0)
    sine = np.sin(math.pi * (dom.centers_1d() + dom.L / 2.0) / dom.L)
    fld3 = extend(np.outer(sine, sine), fld)[1]
    assert fld3.b.shape == (3 * dom.n, 1, 2)
    assert np.array_equal(fld3.b[:, 0, 0], np.repeat([-0.5, 0.5, -0.5], dom.n))
    assert not fld3.b[..., 1].any()
    assert all(getattr(fld3, k).shape[:2] == unit for k in ("A", "c", "V"))
    assert_same_downstream(fld)


def test_field_file_keeps_the_stored_axes(tmp_path):
    fld = trial_field("periodic", 0.0)
    path = tmp_path / "field.npz"
    save_field(path, fld)
    back = load_field(path)
    assert back.domain == fld.domain
    for k in NAMES:
        assert getattr(back, k).shape[:2] == (1, 1)
        assert same_bits(getattr(back, k), getattr(fld, k)), k
    assert (back.declared_theta1, back.declared_theta2) == \
        (fld.declared_theta1, fld.declared_theta2)
