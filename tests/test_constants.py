"""Constant-evaluation tests against hand values and the mpmath oracle."""

import math
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oracles
from uclab.constants import (
    FreeConstants,
    LocalGeometry,
    ModelParams,
    UcConstantReport,
    alpha_star,
    annulus_radius,
    c_sfuc_exponent,
    cacciopoli_gradient_term,
    cacciopoli_prefactor,
    carleman_constants,
    carleman_mu_rho,
    local_epsilon,
    log_c_quc,
    log_c_quc_lower_bound,
    log_c_sfuc,
    log_gamma_window,
    mu_one,
    sampling_epsilon,
    sampling_geometry,
    sampling_report,
    scale_parameters,
    side_length_T,
    site_beta,
    window_ball_radius,
)

E = math.e
FC = FreeConstants()

# Frozen by running tests/oracles.py (60-digit arithmetic) for the canonical
# configuration d=1, theta1=1, theta2=0, G=1, delta=1/4, norms 0, frees 1.
CANONICAL = {
    "T": 39,
    "eps2": 1.0,
    "mu": 1.1839397205857212,
    "mu1": 3.2182818284590452,
    "rho": 19.309690970754271,
    "carleman_C": 1084963.7076358429,
    "alpha0": 225763734.35741509,
    "alpha3": 22.009328017837461,
    "alpha_star": 225763734.35741509,
    "cac_delta_half": 513.0,
    "cac_D0_half": 15.222222222222222,
    "log_c_quc": -2275720429.7675717,
    "log_c_sfuc": -4531830.3498610481,
    "sfuc_exponent": 3269017.3724721106,
}


# the local estimate on a unit annulus: R = 1, D0 = R/2, no potential, beta = 1
UNIT = LocalGeometry(R=1.0, D0=0.5, K_V=0.0, beta=1.0)

# the bound of each dataclass field, as the bound rule's message states it
FIELD_BOUNDS = {
    "theta1": ">= 1", "theta2": ">= 0", "norm_V": ">= 0", "norm_b": ">= 0",
    "norm_c": ">= 0", "G": "> 0", "delta": "> 0", "L": "> 0",
    "R": "> 0", "D0": "> 0", "K_V": ">= 0", "beta": ">= 1",
    "K1": "> 0", "K2": "> 0", "M": ">= 1", "Cprime": ">= 1",
}


def canonical_params():
    return ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.25)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestAdmissibility:
    def test_vanishing_lipschitz_gives_one(self):
        for d in (1, 2, 3):
            p = ModelParams(d=d, theta1=1.7, theta2=0.0, G=2.0)
            assert sampling_epsilon(p) == 1.0

    def test_small_lipschitz_value(self):
        p = ModelParams(d=1, theta1=1.0, theta2=1e-3, G=1.0)
        expected = 1.0 - 33.0 * E * 3.0 * 1e-3
        got = sampling_epsilon(p)
        assert rel_err(got, expected) < 1e-15
        assert abs(got - 0.7309) < 1e-4

    def test_inadmissible_is_flagged_not_raised(self):
        p = ModelParams(d=1, theta1=1.0, theta2=1.0, G=1.0)
        got = sampling_epsilon(p)
        assert got < 0
        assert abs(got - (1.0 - 99.0 * E)) < 1e-10
        assert abs(got + 268.1) < 0.01

    def test_product_past_the_double_range_is_flagged_not_raised(self):
        # theta1^6 is no double above theta1 ~ 1e51: with theta2 = 0 the
        # margin is still exactly 1, and a product that is no double is -inf
        assert sampling_epsilon(ModelParams(d=1, theta1=3e306)) == 1.0
        big = ModelParams(d=1, theta1=1e52, theta2=1e-3)
        assert sampling_epsilon(big) == -math.inf
        assert local_epsilon(big, UNIT) == -math.inf

    def test_affine_in_theta2_with_printed_slope_and_root(self):
        d, t1, G = 2, 1.2, 1.5
        slope = -33.0 * E * d * (math.sqrt(d) + 2.0) * t1**6 * G
        vals = []
        for t2 in (0.0, 1e-4, 2e-4, 5e-4):
            vals.append(
                sampling_epsilon(ModelParams(d=d, theta1=t1, theta2=t2, G=G))
            )
        for t2, v in zip((0.0, 1e-4, 2e-4, 5e-4), vals):
            assert rel_err(v, 1.0 + slope * t2) < 1e-12
        root = -1.0 / slope
        at_root = sampling_epsilon(ModelParams(d=d, theta1=t1, theta2=root, G=G))
        assert abs(at_root) < 1e-12


class TestFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, name", [
        *((ModelParams, f) for f in (
            "d", "theta1", "theta2", "norm_V", "norm_b", "norm_c", "G",
            "delta", "L",
        )),
        *((LocalGeometry, f) for f in ("R", "D0", "K_V", "beta")),
        *((FreeConstants, f) for f in ("K1", "K2", "M", "Cprime")),
    ])
    def test_non_finite_rejected_naming_the_field(self, cls, name, bad):
        required = {ModelParams: {"d": 2}, LocalGeometry: UNIT.__dict__}.get(cls, {})
        message = r"^d must be an integer >= 1 that a double holds, got " if name == "d" else \
            rf"^{name} must be a finite number {FIELD_BOUNDS[name]}, got "
        with pytest.raises(ValueError, match=message):
            cls(**{**required, name: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [log_c_sfuc, c_sfuc_exponent, log_gamma_window])
    def test_non_finite_energy_rejected(self, fn, bad):
        # a NaN energy read as a NaN constant, an infinite one as -inf or inf
        with pytest.raises(ValueError, match="^energy must be finite"):
            fn(canonical_params(), FC, energy=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("theta2", [0.0, 1.0], ids=["admissible", "inadmissible"])
    def test_sampling_report_rejects_non_finite_energy(self, theta2, bad):
        # not a report flagged as leaving the double range at log_gamma
        with pytest.raises(ValueError, match="^energy must be finite"):
            sampling_report(ModelParams(d=1, theta2=theta2), energy=bad)


class TestLocalGeometry:
    @pytest.mark.parametrize("name, bad", [
        ("R", 0.0), ("R", -1.0), ("D0", 0.0), ("K_V", -0.1), ("beta", 0.99),
    ])
    def test_out_of_range_rejected(self, name, bad):
        message = rf"^{name} must be a finite number {FIELD_BOUNDS[name]}, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            replace(UNIT, **{name: bad})

    def test_not_a_model_parameter(self):
        assert not {"R", "D0", "K_V", "beta"} & {f.name for f in fields(ModelParams)}

    def test_sampling_route_values(self):
        # R = sqrt(d) + 2, D0 = R/2, K_V = norm_V, beta = 2 T^d
        for d, t1, nv in ((1, 1.0, 0.0), (2, 1.2, 0.5), (3, 1.7, 2.0)):
            p = ModelParams(d=d, theta1=t1, norm_V=nv)
            geo = sampling_geometry(p)
            R = math.sqrt(d) + 2.0
            assert geo == LocalGeometry(R=R, D0=R / 2.0, K_V=nv,
                                        beta=2.0 * side_length_T(d, t1) ** d)
        assert sampling_geometry(ModelParams(d=2, theta1=1.2)).beta == 2 * 52**2

    def test_the_dominating_site_geometry_reads_its_homes(self):
        # 2 e theta1 R, (2 e theta1 + 1) R and 2 T^d, bit for bit as each
        # caller wrote them before they had one home
        for d, t1 in ((1, 1.0), (2, 1.3), (3, 1.7), (5, 40.0)):
            R = math.sqrt(d) + 2.0
            assert annulus_radius(t1, R) == 2.0 * E * t1 * R
            assert window_ball_radius(d, t1) == (2.0 * E * t1 + 1.0) * R
            T = side_length_T(d, t1)
            assert T == math.ceil(2.0 * R * (2.0 * E * t1 + 1.0))
            assert site_beta(d, T) == 2.0 * float(T) ** d
            assert sampling_geometry(ModelParams(d=d, theta1=t1)).beta == site_beta(d, T)
        with pytest.raises(OverflowError):
            site_beta(400, 39)


class TestSideLength:
    def test_hand_values(self):
        assert side_length_T(1, 1.0) == 39
        assert side_length_T(4, 1.0) == 52

    def test_nondecreasing_in_theta1(self):
        prev = 0
        for t1 in (1.0, 1.1, 1.5, 2.0, 3.0):
            T = side_length_T(2, t1)
            assert T >= prev
            prev = T

    def test_largest_dimension(self):
        # the dimension rule stops at the largest double, whose root is a double
        R = math.sqrt(sys.float_info.max) + 2.0
        assert side_length_T(int(sys.float_info.max), 1.0) == math.ceil(2.0 * R * (2.0 * E + 1.0))

    def test_a_side_past_the_double_range_is_named(self):
        with pytest.raises(OverflowError, match=r"^window side 2\*inf is past the double "
                           r"range at d=1, theta1=1e\+308$"):
            side_length_T(1, 1e308)

    def test_a_dimension_past_the_digit_limit_is_refused(self):
        # repr() refuses an int of over 4300 digits: the refusal carries
        # Python's digit-limit message, as for any other key of such a value
        with pytest.raises(ValueError) as d_info:
            ModelParams(d=10**5000)
        with pytest.raises(ValueError) as g_info:
            ModelParams(d=1, G=10**5000)
        assert str(d_info.value) == str(g_info.value)
        assert str(d_info.value).startswith("Exceeds the limit (4300 digits)")


class TestMuRho:
    def test_hand_values_unit_case(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.0)
        mu, mu1, rho = carleman_mu_rho(p, UNIT, eps0=1.0)
        assert rel_err(rho, 2.0 * E + 1.0) < 1e-15
        assert rel_err(mu, (2.0 * E + 1.0) / (2.0 * E)) < 1e-15
        assert rel_err(mu1, E * mu) < 1e-15  # sqrt(theta1)*mu > 1 branch

    def test_small_eps_limit(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.0)
        mu, mu1, _ = carleman_mu_rho(p, UNIT, eps0=1e-12)
        assert mu < 1e-11
        assert abs(mu1 - 1.0) < 1e-11  # exp branch near zero

    def test_lipschitz_term_split(self):
        p = ModelParams(d=1, theta1=1.0, theta2=1e-3)
        eps0 = local_epsilon(p, UNIT)
        mu, _, rho = carleman_mu_rho(p, UNIT, eps0)
        lip = 33.0 * p.d * p.theta1**5.5 * p.theta2 * rho
        assert rel_err(mu - lip, rho * eps0 / (2.0 * E * UNIT.R)) < 1e-12

    @pytest.mark.parametrize("eps0", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_eps(self, eps0):
        # a NaN eps0 returned (nan, nan, rho)
        p = ModelParams(d=1)
        with pytest.raises(ValueError, match="^admissibility margin eps0 must be positive$"):
            carleman_mu_rho(p, UNIT, eps0=eps0)


class TestCarlemanConstants:
    def test_zero_lower_order_collapses_alpha0(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.0)
        mu, mu1, rho = carleman_mu_rho(p, UNIT, 1.0)
        C, alpha0 = carleman_constants(p, rho, mu, mu1)
        # with b = c = 0 the max collapses to the first branch
        C2, alpha0_b = carleman_constants(
            ModelParams(d=1, theta1=1.0, theta2=0.0, norm_b=0.0),
            rho, mu, mu1,
        )
        assert alpha0 == alpha0_b and C == C2

    def test_against_oracle(self):
        mu_o = (2.0 * E + 1.0) / (2.0 * E)
        rho_o = 2.0 * E + 1.0
        mu1_o = E * mu_o
        p = ModelParams(d=1, theta1=1.0, theta2=0.0)
        C, alpha0 = carleman_constants(p, rho_o, mu_o, mu1_o)
        C_ref, alpha0_ref = oracles.carleman_C_alpha0(1, 1, 0, rho_o, mu_o, mu1_o, 0, 0)
        assert rel_err(C, float(C_ref)) < 1e-12
        assert rel_err(alpha0, float(alpha0_ref)) < 1e-12

    def test_alpha0_monotone_in_drift_norm(self):
        p0 = ModelParams(d=2, theta1=1.1, theta2=0.0)
        mu, mu1, rho = carleman_mu_rho(p0, UNIT, 1.0)
        prev = -1.0
        for nb in (0.0, 0.5, 1.0, 4.0, 16.0):
            p = ModelParams(d=2, theta1=1.1, theta2=0.0, norm_b=nb)
            _, alpha0 = carleman_constants(p, rho, mu, mu1)
            assert alpha0 >= prev
            prev = alpha0

    def test_rejects_insufficient_mu(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.1)
        with pytest.raises(ValueError):
            carleman_constants(p, rho=10.0, mu=1e-3, mu1=1.0)

    @pytest.mark.parametrize("mu,finite", [
        (109.0, (True, True)), (119.0, (True, False)), (200.0, (False, False)),
    ])
    def test_a_bound_past_the_double_range_is_inf(self, mu, finite):
        # at the parent, exp(6 mu) raised OverflowError from mu = 118.3 on
        p = ModelParams(d=1, theta1=1.0, theta2=0.0)
        got = carleman_constants(p, 1.0, mu, mu_one(1.0, mu))
        assert tuple(math.isfinite(x) for x in got) == finite

    def test_the_report_names_the_bound_that_left_the_range(self):
        # C is a double, alpha0 is not; at the parent the OverflowError of
        # alpha0 flagged carleman_C
        rep = sampling_report(ModelParams(d=2, theta1=140.0))
        assert rep.out_of_range == "carleman_alpha0"


class TestCacciopoli:
    def test_hand_value(self):
        assert cacciopoli_prefactor(1.0, theta1=1.0, cprime=1.0) == 9.0

    def test_large_radius_limit(self):
        assert abs(cacciopoli_prefactor(1e9) - 1.0) < 1e-9

    def test_doubling_quarters_gradient_term(self):
        for r in (0.1, 0.5, 2.0):
            a = cacciopoli_prefactor(r, theta1=1.3, cprime=2.0) - 1.0
            b = cacciopoli_prefactor(2.0 * r, theta1=1.3, cprime=2.0) - 1.0
            assert rel_err(a, 4.0 * b) < 1e-12

    def test_a_radius_whose_square_underflows_is_past_the_double_range(self):
        # r**2 underflowed to 0.0 and 8 theta1^2 Cprime / r**2 raised
        # ZeroDivisionError; a subnormal r**2 already gave inf
        for r in (1e-300, 1e-170, 5e-324, 1e-160):
            assert cacciopoli_prefactor(r) == math.inf
        assert cacciopoli_prefactor(1e-150) == 1.0 + 8.0 / 1e-150**2

    def test_a_theta1_whose_square_overflows_is_past_the_double_range(self):
        # theta1**2 raised OverflowError; an r**2 that underflows gave inf
        assert cacciopoli_prefactor(1.0, theta1=1e200) == math.inf
        assert cacciopoli_gradient_term(1.0, 1e200) == math.inf

    def test_a_norm_whose_square_overflows_is_past_the_double_range(self):
        # norm_V**2 and norm_b**2 raised OverflowError
        assert cacciopoli_prefactor(1.0, norm_V=1e200) == math.inf
        assert cacciopoli_prefactor(1.0, norm_b=1e200) == math.inf
        assert cacciopoli_prefactor(1.0, norm_V=10**400) == math.inf
        assert cacciopoli_prefactor(0.3, 1.5, 0.7, 2.0, 1.7, 2.0) == (
            2.0 * 1.5**2 + 1.0 + 2.0 * 0.7**2 + 8.0 * 1.7**2 * 2.0 / 0.3**2 + 2.0 * 2.0)
        # the report still names the first constant of the chain that left the range
        assert sampling_report(ModelParams(d=1, norm_V=1e200)).out_of_range == "alpha1"
        assert sampling_report(ModelParams(d=1, norm_b=1e200)).out_of_range == "carleman_C"

    def test_the_prefactor_reads_the_gradient_term(self):
        for r, theta1, cprime in ((0.3, 1.0, 1.0), (0.7, 1.3, 2.5), (1e-150, 1.0, 1.0)):
            assert cacciopoli_prefactor(r, theta1=theta1, cprime=cprime) == \
                1.0 + cacciopoli_gradient_term(r, theta1, cprime)
        assert cacciopoli_gradient_term(0.5, 1.3) == 8.0 * 1.3**2 / 0.5**2

    def test_monotone(self):
        base = cacciopoli_prefactor(0.5, 1.0, 1.0, 1.0)
        assert cacciopoli_prefactor(0.4, 1.0, 1.0, 1.0) > base
        assert cacciopoli_prefactor(0.5, 2.0, 1.0, 1.0) > base
        assert cacciopoli_prefactor(0.5, 1.0, 2.0, 1.0) > base
        assert cacciopoli_prefactor(0.5, 1.0, 1.0, 2.0) > base
        assert pytest.raises(ValueError, cacciopoli_prefactor, 0.0)


class TestAlphaStar:
    def test_zero_potential_bound_kills_alpha1(self):
        p = canonical_params()
        geo = sampling_geometry(p)
        mu, mu1, rho = carleman_mu_rho(p, geo, 1.0)
        C, alpha0 = carleman_constants(p, rho, mu, mu1)
        a1, a3, a_star = alpha_star(p, geo, FC, C, alpha0, mu, rho)
        assert a1 == 0.0
        assert a_star >= 1.0

    def test_canonical_against_oracle(self):
        p = canonical_params()
        geo = sampling_geometry(p)
        mu, mu1, rho = carleman_mu_rho(p, geo, 1.0)
        C, alpha0 = carleman_constants(p, rho, mu, mu1)
        a1, a3, a_star = alpha_star(p, geo, FC, C, alpha0, mu, rho)
        assert rel_err(a3, CANONICAL["alpha3"]) < 1e-10
        assert rel_err(a_star, CANONICAL["alpha_star"]) < 1e-10

    def test_rejects_closed_gap(self):
        p = canonical_params()
        with pytest.raises(ValueError):
            alpha_star(p, sampling_geometry(p), FC, 1.0, 1.0, mu=100.0, rho=1.0)


class TestCqucChain:
    def test_canonical_log_value(self):
        rep = sampling_report(canonical_params())
        assert rel_err(rep.log_c_quc, CANONICAL["log_c_quc"]) < 1e-10
        assert rep.log_c_quc < 0.0  # mass fraction at most one

    def test_halving_delta_scales_power_factor_exactly(self):
        p = canonical_params()
        geo = sampling_geometry(p)
        mu, mu1, rho = carleman_mu_rho(p, geo, 1.0)
        C, alpha0 = carleman_constants(p, rho, mu, mu1)
        _, _, a_star = alpha_star(p, geo, FC, C, alpha0, mu, rho)

        def log_t1(delta):
            cac = cacciopoli_prefactor(delta / 2.0, 0.0, 0.0, 0.0, 1.0, 1.0)
            denom = 3.0 + 768.0 / delta**2 + 4.0 * cac
            return math.log(4.0 * mu1**2 * delta**2 / (3.0 * geo.R * rho * C)) - math.log(denom)

        d1, d2 = 0.25, 0.125
        la = log_c_quc(p, geo, FC, mu1, rho, C, a_star)
        lb = log_c_quc(replace(p, delta=d2), geo, FC, mu1, rho, C, a_star)
        power_shift = (lb - log_t1(d2)) - (la - log_t1(d1))
        assert rel_err(power_shift, -2.0 * a_star * math.log(2.0)) < 1e-12

    def test_increasing_in_delta(self):
        p = canonical_params()
        geo = sampling_geometry(p)
        mu, mu1, rho = carleman_mu_rho(p, geo, 1.0)
        C, alpha0 = carleman_constants(p, rho, mu, mu1)
        _, _, a_star = alpha_star(p, geo, FC, C, alpha0, mu, rho)
        logs = []
        for delta in (0.05, 0.1, 0.2, 0.4, 0.8):
            logs.append(log_c_quc(replace(p, delta=delta), geo, FC, mu1, rho, C, a_star))
        assert all(b > a for a, b in zip(logs, logs[1:]))


class TestCqucLowerBound:
    def test_exponent_collapses_to_C3(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, delta=0.25)
        C3 = 1.0 * math.exp(15.0)
        got = log_c_quc_lower_bound(p, UNIT, FC)
        expected = -10.0 + C3 * math.log(0.25 / (10.0 * E))
        assert rel_err(got, expected) < 1e-12

    def test_vanishing_eps_drives_bound_to_zero(self):
        small = ModelParams(d=1, theta1=1.0, theta2=1.108e-2, delta=0.25)
        tiny_eps = local_epsilon(small, UNIT)
        assert 0.0 < tiny_eps < 0.01
        big = ModelParams(d=1, theta1=1.0, theta2=0.0, delta=0.25)
        assert log_c_quc_lower_bound(small, UNIT, FC) < log_c_quc_lower_bound(big, UNIT, FC) - 1e6

    def test_against_oracle(self):
        p = ModelParams(d=2, theta1=1.2, theta2=1e-4, delta=0.7,
                        norm_V=0.4, norm_b=0.1, norm_c=0.2)
        geo = LocalGeometry(R=1.5, D0=0.75, K_V=0.4, beta=3.0)
        got = log_c_quc_lower_bound(p, geo, FC)
        ref = oracles.log_c_quc_lower(2, 1.2, 1e-4, 1.5, 0.7, 3.0, 0.4, 0.1, 0.2)
        assert rel_err(got, float(ref)) < 1e-12

    def test_rejects_outside_regime(self):
        with pytest.raises(ValueError):
            log_c_quc_lower_bound(
                ModelParams(d=1, delta=0.25), replace(UNIT, R=0.5, D0=0.25), FC
            )
        with pytest.raises(ValueError):
            log_c_quc_lower_bound(
                ModelParams(d=1, delta=3.0), replace(UNIT, R=2.0, D0=1.0), FC
            )


class TestCsfuc:
    def test_canonical_log_value(self):
        got = log_c_sfuc(canonical_params(), FC)
        assert rel_err(got, CANONICAL["log_c_sfuc"]) < 1e-10
        ref, expo = oracles.log_c_sfuc(1, 1, 0, 1, 0.25, 0, 0, 0)
        assert rel_err(got, float(ref)) < 1e-10
        assert rel_err(c_sfuc_exponent(canonical_params(), FC), float(expo)) < 1e-10

    def test_doubling_K2_scales_pieces_linearly(self):
        p = ModelParams(d=2, theta1=1.1, theta2=1e-4, G=1.5, delta=0.3, norm_V=0.5)
        ref = oracles.log_c_sfuc(2, 1.1, 1e-4, 1.5, 0.3, 0.5, 0, 0, K2=2)[0]
        got = log_c_sfuc(p, FreeConstants(K2=2.0))
        assert rel_err(got, float(ref)) < 1e-12

    def test_monotone_decreasing_in_each_parameter(self):
        base = dict(d=2, theta1=1.05, theta2=5e-5, G=1.0, delta=0.2,
                    norm_V=0.3, norm_b=0.2, norm_c=0.1)
        l0 = log_c_sfuc(ModelParams(**base), FC)
        for key, values in {
            "norm_V": (0.5, 1.0, 2.0),
            "norm_b": (0.4, 0.8, 1.6),
            "norm_c": (0.3, 0.9, 2.7),
            "theta2": (1e-4, 2e-4, 4e-4),
            "theta1": (1.1, 1.3, 1.6),
        }.items():
            prev = l0
            for v in values:
                cur = log_c_sfuc(ModelParams(**{**base, key: v}), FC)
                assert cur < prev, key
                prev = cur

    def test_log_affine_in_log_delta_with_printed_slope(self):
        p0 = dict(d=1, theta1=1.2, theta2=1e-4, G=1.0, norm_V=0.7)
        expo = c_sfuc_exponent(ModelParams(**p0, delta=0.1), FC)
        deltas = [0.05, 0.08, 0.13, 0.21, 0.34, 0.45]
        logs = [log_c_sfuc(ModelParams(**p0, delta=dd), FC) for dd in deltas]
        for (da, la), (db, lb) in zip(zip(deltas, logs), zip(deltas[1:], logs[1:])):
            slope = (lb - la) / (math.log(db) - math.log(da))
            assert rel_err(slope, expo) < 1e-9

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            log_c_sfuc(ModelParams(d=1, G=1.0, delta=0.6), FC)


class TestGammaWindow:
    def test_even_in_energy(self):
        p = ModelParams(d=2, theta1=1.1, theta2=1e-4, G=1.0, delta=0.2)
        assert log_gamma_window(p, FC, 2.3) == log_gamma_window(p, FC, -2.3)

    def test_zero_energy_matches_sfuc_with_potential_dropped(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.25, norm_V=5.0)
        lg = log_gamma_window(p, FC, 0.0)
        p0 = replace(p, norm_V=0.0)
        expected = 0.5 * (log_c_sfuc(p0, FC) - 4.0 * math.log(p.G))
        assert rel_err(lg, expected) < 1e-12

    def test_against_oracle(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.25)
        got = log_gamma_window(p, FC, 1.0)
        ref = oracles.log_gamma(1, 1, 0, 1, 0.25, 1.0, 0, 0)
        assert rel_err(got, float(ref)) < 1e-10

    def test_projector_margin_inequality(self):
        # delta^2 G^2 gamma^2 stays below a quarter of the spectral constant
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=2.0, delta=0.5)
        lg = log_gamma_window(p, FC, 1.0)
        ls = log_c_sfuc(p, FC, energy=1.0)
        lhs = 2.0 * math.log(p.delta * p.G) + 2.0 * lg
        assert lhs < ls + math.log(0.25) + 1e-9


class TestScaling:
    def test_identity_at_unit_scale(self):
        p = ModelParams(d=2, theta1=1.3, theta2=1e-4, G=1.0, delta=0.3, norm_V=0.5)
        assert scale_parameters(p) == p

    def test_field_transforms(self):
        p = ModelParams(d=1, theta1=1.0, theta2=0.1, G=2.0, delta=0.5, L=6.0,
                        norm_V=1.0, norm_b=1.0, norm_c=1.0)
        q = scale_parameters(p)
        assert q.G == 1.0 and q.delta == 0.25 and q.L == 3.0
        assert q.theta2 == 0.2 and q.norm_b == 2.0
        assert q.norm_c == 4.0 and q.norm_V == 4.0

    def test_sfuc_invariant_bitwise(self):
        import random

        rng = random.Random(7)
        for _ in range(100):
            d = rng.choice([1, 2, 3])
            t1 = 1.0 + rng.random()
            G = 0.3 + 3.0 * rng.random()
            cap = 1.0 / (33.0 * E * d * (math.sqrt(d) + 2.0) * t1**6 * G)
            p = ModelParams(
                d=d, theta1=t1, theta2=rng.random() * 0.9 * cap, G=G,
                delta=G * (0.01 + 0.48 * rng.random()),
                norm_V=2.0 * rng.random(), norm_b=rng.random(), norm_c=rng.random(),
            )
            assert log_c_sfuc(p, FC) == log_c_sfuc(scale_parameters(p), FC)


class TestReport:
    def test_canonical_report_values(self):
        rep = sampling_report(canonical_params())
        assert rep.admissible and rep.epsilon == 1.0 and rep.T == 39
        for key, field in [
            ("mu", "mu"), ("mu1", "mu1"), ("rho", "rho"),
            ("carleman_C", "carleman_C"), ("alpha0", "carleman_alpha0"),
            ("alpha_star", "alpha_star"),
            ("cac_delta_half", "cac_delta_half"), ("cac_D0_half", "cac_D0_half"),
            ("log_c_quc", "log_c_quc"), ("log_c_sfuc", "log_c_sfuc"),
            ("sfuc_exponent", "sfuc_exponent"),
        ]:
            assert rel_err(getattr(rep, field), CANONICAL[key]) < 1e-10, key
        assert rep.alpha_star == max(
            rep.carleman_alpha0, rep.alpha1, rep.alpha2, rep.alpha3
        )

    @pytest.mark.parametrize("d", [10**6, int(sys.float_info.max)], ids=["1e6", "largest"])
    def test_huge_dimension_flags_beta(self, d):
        # beta = 2 T^d leaves the double range, up to the largest dimension
        rep = sampling_report(ModelParams(d=d))
        assert rep.epsilon == 1.0 and rep.T == side_length_T(d, 1.0)
        assert not rep.admissible and rep.out_of_range == "beta"

    @pytest.mark.parametrize("p", [
        ModelParams(d=1, theta1=1e308), ModelParams(d=1, theta1=1e308, theta2=0.5),
    ], ids=["theta1", "theta1-theta2"])
    def test_window_side_past_the_double_range_flags_T(self, p):
        # T comes first: its overflow is flagged like any later constant's;
        # theta1 reaches it, and a d that would is refused
        rep = sampling_report(p)
        assert not rep.admissible and rep.out_of_range == "T"
        assert math.isnan(rep.T) and math.isnan(rep.beta) and math.isnan(rep.log_c_sfuc)
        assert rep.epsilon == (1.0 if p.theta2 == 0.0 else -math.inf)
        for d in (10**615, 10**616, 10**617):
            with pytest.raises(ValueError,
                               match=r"^d must be an integer >= 1 that a double holds"):
                ModelParams(d=d)

    def test_margin_of_the_largest_dimension(self):
        # 33 e d R theta2 is past the double range for theta2 = 0.5
        rep = sampling_report(ModelParams(d=int(sys.float_info.max), theta2=0.5))
        assert rep.epsilon == -math.inf and not rep.admissible and rep.out_of_range == ""

    def test_inadmissible_flagged_report(self):
        rep = sampling_report(ModelParams(d=1, theta2=1.0))
        assert not rep.admissible and rep.epsilon < 0
        assert math.isnan(rep.mu)

    def test_admissible_is_not_an_argument(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'admissible'"):
            UcConstantReport(epsilon=1.0, T=5, admissible=False)

    def test_report_dict_is_flat(self):
        d = sampling_report(canonical_params()).to_dict()
        assert d["params.delta"] == 0.25
        assert d["free_constants.K2"] == 1.0
        assert all(not isinstance(v, dict) for v in d.values())

    def test_report_gives_the_geometry_it_used_in_units_of_G(self):
        p = ModelParams(d=2, theta1=1.2, G=2.0, delta=0.5, L=6.0, norm_V=0.5)
        rep = sampling_report(p)
        geo = sampling_geometry(scale_parameters(p))
        assert (rep.R, rep.D0, rep.K_V, rep.beta) == (geo.R, geo.D0, geo.K_V, geo.beta)
        assert rep.K_V == 2.0  # G^2 norm_V
        assert rep.log_c_quc == log_c_quc(
            scale_parameters(p), geo, FC, rep.mu1, rep.rho, rep.carleman_C, rep.alpha_star)
        flagged = sampling_report(ModelParams(d=1, theta2=1.0))
        assert math.isnan(flagged.R) and math.isnan(flagged.beta)


@seed(20240817)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([1, 2, 3]),
    t1=st.floats(1.0, 2.0),
    t2_frac=st.floats(0.0, 0.9),
    G=st.floats(0.3, 3.0),
    delta_frac=st.floats(0.02, 0.98),
    nv=st.floats(0.0, 2.0),
    nb=st.floats(0.0, 1.0),
    nc=st.floats(0.0, 1.0),
)
def test_admissible_sweep_properties(d, t1, t2_frac, G, delta_frac, nv, nb, nc):
    """alpha_star >= 1 and the local constant stays a mass fraction in (0, 1]."""
    cap = 1.0 / (33.0 * E * d * (math.sqrt(d) + 2.0) * t1**6 * G)
    p = ModelParams(
        d=d, theta1=t1, theta2=t2_frac * cap, G=G, delta=0.5 * G * delta_frac,
        norm_V=nv, norm_b=nb, norm_c=nc,
    )
    rep = sampling_report(p)
    assert rep.admissible
    assert rep.alpha_star >= 1.0
    assert rep.log_c_quc <= 0.0
    assert math.isfinite(rep.log_c_quc)
    assert math.isfinite(rep.log_c_sfuc)


@seed(20261018)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 2, 3]), t1=st.floats(1.0, 1e3))
@example(d=2, t1=44.0)  # at the parent: admissible with log_c_sfuc = -inf
@example(d=2, t1=48.0)  # at the parent: OverflowError in the closed-form bound
def test_report_finite_or_flagged(d, t1):
    """Across the ellipticity range the report never raises: every log_*
    field is finite, or the report is flagged with the constant that left
    the double range."""
    rep = sampling_report(ModelParams(d=d, theta1=t1))
    fields = rep.to_dict()
    logs = {k: v for k, v in fields.items() if k.startswith("log_")}
    if rep.out_of_range:
        assert not rep.admissible and rep.out_of_range in fields
        assert math.isnan(fields[rep.out_of_range])
    else:
        assert rep.admissible and all(math.isfinite(v) for v in logs.values()), logs
