"""Weight profile, cutoff, and weighted-inequality tests."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
import uclab.carleman as carleman
from uclab.carleman import (
    _EIN_CUT,
    SUPPORT_TOL,
    WeightFunction,
    annular_bump,
    build_radial_cutoff,
    carleman_trial,
    check_carleman_inequality,
    check_pointwise_cutoff_bound,
    cutoff_operator_value,
    ein,
    log_phi,
    phi,
)
from uclab.constants import ModelParams, carleman_constants, carleman_mu_floor, mu_one
from uclab.geometry import CubeDomain

E = math.e


def identity_field(d):
    return lambda x: np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy()


class TestProfile:
    def test_two_independent_oracles_agree(self):
        rng = np.random.default_rng(0)
        rs = np.concatenate([[0.0, 1e-6, 1e-4, 0.5, 1.0], rng.uniform(0.0, 3.0, 20)])
        for mu in (1e-6, 0.1, 1.0, 2.7):
            quad = np.array([float(oracles.weight_profile(r, mu)) for r in rs])
            closed = np.array(
                [float(oracles.weight_profile_closed_form(r, mu)) for r in rs]
            )
            assert np.abs(quad - closed).max() < 1e-10
            assert np.abs(phi(rs, mu) - quad).max() < 1e-12

    def test_vanishing_mu_limit(self):
        r = np.linspace(0.0, 2.0, 50)
        assert np.abs(phi(r, 1e-14) - r).max() < 1e-12

    def test_dominated_by_identity(self):
        r = np.linspace(0.0, 5.0, 500)
        assert np.all(phi(r, 1.3) <= r + 1e-15)

    def test_strictly_increasing_and_ratio_nonincreasing(self):
        r = np.linspace(1e-6, 3.0, 2000)
        p = phi(r, 0.7)
        assert np.all(np.diff(p) > 0.0)
        assert np.all(np.diff(p / r) <= 1e-15)

    def test_floor_beyond_the_knee(self):
        mu = 1.8
        r = np.linspace(1.0 / mu, 4.0, 300)
        assert np.all(phi(r, mu) >= 1.0 / (E * mu) - 1e-12)

    def test_hand_value_at_one(self):
        got = phi(1.0, 1.0)
        ref = float(oracles.weight_profile(1.0, 1.0))
        assert abs(got - ref) < 1e-12

    def test_ein_against_extended_precision(self):
        assert ein(0.0) == 0.0 and isinstance(ein(0.5), float)
        cut = _EIN_CUT
        xs = np.concatenate([
            np.logspace(-8.0, math.log10(60.0), 3000),
            [np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)],
        ])
        got = ein(xs)
        assert got.shape == xs.shape
        abs_err = rel_err = 0.0
        for x, g in zip(xs, got):
            ref = oracles.ein(x)
            err = abs(oracles.mp.mpf(float(g)) - ref)
            abs_err = max(abs_err, float(err))
            rel_err = max(rel_err, float(err / ref))
        assert abs_err <= 2e-15
        assert rel_err <= 1e-15

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            phi(-0.1, 1.0)
        with pytest.raises(ValueError):
            ein(np.array([-1.0]))

    @pytest.mark.parametrize("evaluate", [phi, log_phi])
    def test_both_profiles_reject_a_negative_radius_at_zero_mu(self, evaluate):
        # at mu = 0, ein(mu r) is ein(-0.0) = 0, and log_phi returned log(-1) = NaN
        with pytest.raises(ValueError, match=r"^radial profile is defined for r >= 0"):
            evaluate(np.array([-1.0]), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input_naming_it(self, bad):
        # NaN passed the x < 0 guard, and inf gave nan through inf*0 and inf - inf
        for evaluate, name in ((ein, "x"), (lambda r: phi(r, 1.0), "r"),
                               (lambda r: log_phi(r, 1.0), "r")):
            for x in (bad, np.array([0.5, bad])):
                with pytest.raises(ValueError, match=rf"^{name} must be finite; 1 entries"):
                    evaluate(x)

    @pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_bad_mu_naming_it(self, mu):
        # ein blamed x: "evaluated on x >= 0 only" for a negative mu, and
        # "x must be finite" for a NaN or infinite one
        for evaluate in (phi, log_phi):
            with pytest.raises(ValueError, match=r"^mu must be a finite number >= 0, got "):
                evaluate(np.array([0.0, 0.5]), mu)

    def test_zero_mu_is_the_identity(self):
        r = np.linspace(0.0, 2.0, 9)
        assert phi(0.5, 0.0) == 0.5 and np.array_equal(phi(r, 0.0), r)


class TestWeightFunction:
    def test_zero_at_center_and_euclidean_sigma(self):
        wf = WeightFunction(rho=1.5, mu=0.8, A0=np.eye(2), theta1=1.0)
        assert wf(np.zeros(2)) == 0.0
        x = np.array([[0.3, -0.4], [1.0, 0.0]])
        assert np.abs(wf.sigma(x) - np.array([0.5, 1.0])).max() < 1e-15

    def test_envelope_bounds_random_configs(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 4))
            theta1 = 1.0 + rng.random()
            lam = np.exp(rng.uniform(-math.log(theta1), math.log(theta1), d)) \
                if theta1 > 1.0 else np.ones(d)
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            A0 = Q @ np.diag(lam) @ Q.T
            wf = WeightFunction(
                rho=0.5 + 2.0 * rng.random(), mu=0.05 + 3.0 * rng.random(),
                A0=0.5 * (A0 + A0.T), theta1=theta1,
            )
            pts = rng.uniform(-wf.rho, wf.rho, size=(4000, d))
            res = wf.bound_slacks(pts)
            assert res["lower"] >= -1e-10
            assert res["upper"] >= -1e-10
            if not math.isnan(res["outer_floor"]):
                assert res["outer_floor"] >= -1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sigma_equals_einsum_form(self, d):
        """The in-place quadratic form rounds as the three-operand einsum
        does, for a rotated A0 with off-diagonal entries."""
        rng = np.random.default_rng(40 + d)
        theta1 = 1.8
        lam = np.exp(rng.uniform(-math.log(theta1), math.log(theta1), d))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A0 = Q @ np.diag(lam) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        if d > 1:
            assert np.abs(A0[0, 1]) > 1e-3
        wf = WeightFunction(rho=1.3, mu=0.7, A0=A0, theta1=theta1)
        A0_inv = np.linalg.inv(A0)
        for shape in [(5000,), (17, 23), ()]:
            x = rng.standard_normal(shape + (d,)) * 10.0 ** rng.uniform(-3.0, 3.0, shape + (1,))
            q = np.einsum("...i,ij,...j->...", x, A0_inv, x)
            want = np.sqrt(np.maximum(q, 0.0))
            got = wf.sigma(x)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="coordinates"):
            wf.sigma(np.zeros((4, d + 1)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_rho_and_mu(self, value):
        for name in ("rho", "mu"):
            kw = {"rho": 1.0, "mu": 1.0, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got "):
                WeightFunction(A0=np.eye(2), theta1=1.0, **kw)

    @pytest.mark.parametrize("theta1", [math.nan, math.inf, 0.5])
    def test_rejects_bad_theta1(self, theta1):
        with pytest.raises(ValueError, match=r"^theta1 must be a finite number >= 1, got "):
            WeightFunction(rho=1.0, mu=1.0, A0=np.eye(2), theta1=theta1)

    def test_rejects_bad_A0(self):
        with pytest.raises(ValueError):
            WeightFunction(rho=1.0, mu=1.0, A0=np.diag([2.0, 1.0]), theta1=1.2)
        with pytest.raises(ValueError):
            WeightFunction(rho=1.0, mu=1.0, A0=-np.eye(2), theta1=1.0)

    def test_rejects_nearly_symmetric_A0(self):
        # eigvalsh would read only the lower triangle, inv both
        A0 = np.array([[1.0, 0.3], [0.3 * (1.0 + 5e-6), 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            WeightFunction(rho=1.0, mu=1.0, A0=A0, theta1=2.0)


def logsum_cases():
    """(name, exponents, weights) for the log-sum-exp helper."""
    rng = np.random.default_rng(23)
    n = 3000
    spread = rng.uniform(-5000.0, 50.0, n)
    weights = rng.random(n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    # every term but the max in the subnormal band of the shifted exponent,
    # once with unit weights and a max of exactly 0 (the sum is log1p(s)),
    # once with weights large enough to lift those terms to 1e-12 of the max
    band = np.concatenate([[0.0], rng.uniform(-744.0, -709.0, n - 1)])
    rng.shuffle(band)
    band_heavy = band + 3.7
    heavy = 10.0 ** rng.uniform(290.0, 300.0, n)
    heavy[np.argmax(band)] = 1.0
    ties = rng.uniform(-900.0, 0.0, 1000)
    tie_at = rng.choice(1000, 8, replace=False)
    ties[tie_at] = 2.5
    tie_w = rng.random(1000) + 0.5
    zero_at_max = spread.copy()
    zero_w = weights.copy()
    zero_w[np.argmax(zero_at_max)] = 0.0
    zero_w[::7] = 0.0
    zero_at_max[::7] = math.nan  # a zero weight drops its term, NaN or not
    single = np.zeros(n)
    single[1234] = 0.37
    nonfinite = spread.copy()
    nonfinite[::5] = -math.inf
    return [
        ("most_underflow", spread, weights),
        ("subnormal_band_unit", band, np.ones(n)),
        ("subnormal_band_heavy", band_heavy, heavy),
        ("ties_at_max", ties, tie_w),
        ("zero_weight_at_max", zero_at_max, zero_w),
        ("single_weight", spread, single),
        ("minus_inf_terms", nonfinite, weights),
        ("plus_inf_term", np.array([1.0, math.inf, -3.0]), np.array([1.0, 2.0, 0.5])),
        ("one_term", np.array([-12.5]), np.array([3.0])),
    ]


def grouping_cases(seed):
    """Two draws whose result shows how the sums were grouped.

    ``many_ties``: about 300 ties at the max, weights summing to about 1.05,
    every other term below exp's zero, so the result is log(m) and shows
    every bit of the sum m.  ``interleaved``: one max term of weight 1 at
    exactly 0, so the result is log1p(s), with the nonzero terms of s
    interleaved with underflowing ones; both sums must run over the
    full-length array to keep scipy's pairwise grouping."""
    rng = np.random.default_rng(seed)
    n = 3000
    many_ties = np.where(rng.random(n) < 0.1, 0.0, -800.0 - 100.0 * rng.random(n))
    tie_mass = 10.0 ** rng.uniform(-3.0, 0.0, n)
    tie_mass *= 1.05 / tie_mass[many_ties == 0.0].sum()
    interleaved = np.where(rng.random(n) < 0.3, rng.uniform(-4.0, -1e-3, n), -2000.0)
    interleaved[17] = 0.0
    weights = 10.0 ** rng.uniform(-2.0, 2.0, n)
    weights[17] = 1.0
    return [("many_ties", many_ties, tie_mass), ("interleaved", interleaved, weights)]


class TestLogsum:
    @pytest.mark.parametrize("case", logsum_cases(), ids=lambda c: c[0])
    def test_bit_equal_to_scipy(self, case):
        """``_logsum`` returns the bits of scipy's logsumexp over the
        positive weights (the reference in ``oracles``)."""
        _, t, w = case
        with np.errstate(all="ignore"):
            want = oracles._logsum(t, w)
        got = carleman._logsum(t, w)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert isinstance(got, float)

    def test_sums_group_as_scipys(self):
        """A sum over the kept terms only rounds differently in about a third
        of these draws; eight seeds of each must all match."""
        for seed in range(8):
            for name, t, w in grouping_cases(seed):
                assert carleman._logsum(t, w) == oracles._logsum(t, w), (name, seed)

    def test_band_case_is_in_the_subnormal_band(self):
        """The band cases sit where they claim: every shifted exponent but
        the max lies in (-745, -708], and those terms move the result."""
        _, t, w = logsum_cases()[1]
        x = np.delete(t - t.max(), np.argmax(t))
        assert np.all((x > -745.0) & (x <= -708.0))
        assert carleman._logsum(t, w) > 0.0  # log1p of the subnormal sum

    def test_all_weights_zero_is_minus_inf(self):
        t = np.array([0.0, 5.0, -2.0])
        assert carleman._logsum(t, np.zeros(3)) == -math.inf
        assert carleman._logsum(t, np.array([-1.0, 0.0, -0.0])) == -math.inf


class TestRadialCutoff:
    def test_plateaus(self):
        cut = build_radial_cutoff(0.25, 3.0, 1.5, 1.0, d=2)
        assert cut.value(np.array(0.0)) == 0.0
        assert cut.value(np.array(0.25 / 4 * 0.9)) == 0.0
        mid = 0.5 * (0.125 + cut.r3)
        assert cut.value(np.array(mid)) == 1.0
        assert cut.value(np.array(cut.r4 * 1.01)) == 0.0

    def test_quintic_peak_slope(self):
        cut = build_radial_cutoff(0.25, 3.0, 1.5, 1.0, d=1)
        s = np.linspace(cut.r1, cut.r2, 200001)
        width = cut.r2 - cut.r1
        peak = np.abs(cut.radial_derivative(s)).max()
        assert abs(peak - 15.0 / (8.0 * width)) < 1e-6 / width

    def test_measured_M_independent_of_delta(self):
        ms = [
            build_radial_cutoff(delta, 3.0, 1.5, 1.0, d=2).measured_M
            for delta in (0.1, 0.2, 0.4)
        ]
        assert max(ms) - min(ms) < 1e-6 * max(ms)

    def test_derivative_bound_normalization(self):
        # sup of max(|grad|, |lap|) stays within (M/width)^2 on each annulus
        cut = build_radial_cutoff(0.3, 2.0, 1.0, 1.1, d=3)
        for lo, hi, scale in ((cut.r1, cut.r2, cut.delta), (cut.r3, cut.r4, cut.D0)):
            s = np.linspace(lo, hi, 5001)
            worst = np.maximum(
                np.abs(cut.radial_derivative(s)),
                np.abs(cut.radial_second_derivative(s)
                       + (cut.d - 1) * cut.radial_derivative(s) / s),
            ).max()
            assert worst <= (cut.measured_M / scale) ** 2 + 1e-9

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            build_radial_cutoff(2.0, 3.0, 1.5, 1.0)


class TestPointwiseCutoffBound:
    def test_identity_field_nonnegative_slack(self):
        cut = build_radial_cutoff(0.25, 3.0, 1.5, 1.0, d=2)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-cut.r4 * 1.05, cut.r4 * 1.05, size=(5000, 2))
        pts = pts[np.sqrt((pts**2).sum(-1)) > 0.05]
        res = check_pointwise_cutoff_bound(
            cut, identity_field(2), pts, theta1=1.0, theta2=0.0
        )
        assert res.worst_slack >= -1e-12

    def test_radial_coefficient_against_analytic_oracle(self):
        # A = a(|x|) I with a(s) = 1.1 + 0.05 sin(s): closed-form operator
        cut = build_radial_cutoff(0.5, 1.0, 1.0, 1.2, d=2)

        def a_scalar(s):
            return 1.1 + 0.05 * np.sin(s)

        def A(x):
            s = np.sqrt((x**2).sum(axis=-1))
            return a_scalar(s)[..., None, None] * np.eye(2)

        rng = np.random.default_rng(2)
        pts = rng.uniform(-cut.r4, cut.r4, size=(3000, 2))
        pts = pts[np.sqrt((pts**2).sum(-1)) > 0.2]
        got = cutoff_operator_value(cut, A, pts)
        s = np.sqrt((pts**2).sum(-1))
        a_prime = 0.05 * np.cos(s)
        eta_p = cut.radial_derivative(s)
        lap = cut.radial_laplacian(s)
        ref = -(a_prime * eta_p + a_scalar(s) * lap)
        assert np.abs(got - ref).max() < 1e-5

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_radial_form_matches_hessian_oracle(self, d):
        # a rotated, slowly varying A and a varying drift; the radial form
        # needs only eta', eta'' and u.A.u, the oracle the full Hessian
        cut = build_radial_cutoff(0.4, 1.0, 0.8, 1.1, d=d)
        rng = np.random.default_rng(10 + d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        base = rng.uniform(0.9, 1.1, d)
        k = rng.standard_normal((d, d))

        def A(x):
            diag = base + 0.05 * np.sin(x @ k.T)
            return np.einsum("ik,...k,jk->...ij", Q, diag, Q)

        def b(x):
            return 0.3 * np.cos(x @ k + 0.5)

        pts = rng.uniform(-cut.r4, cut.r4, size=(4000, d))
        pts = pts[np.sqrt((pts**2).sum(-1)) > 0.02]
        for drift in (None, b):
            got = cutoff_operator_value(cut, A, pts, b=drift)
            ref = oracles.cutoff_operator_value_hessian(cut, A, pts, b=drift)
            assert np.abs(ref).max() > 1.0
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_drift_doubling_grows_envelope_quadratically(self):
        cut = build_radial_cutoff(0.25, 3.0, 1.5, 1.0, d=2)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-cut.r4, cut.r4, size=(2000, 2))
        pts = pts[np.sqrt((pts**2).sum(-1)) > 0.05]
        nb = 3.0
        bfun = lambda x: np.full(x.shape[:-1] + (2,), nb / math.sqrt(2.0))
        res1 = check_pointwise_cutoff_bound(
            cut, identity_field(2), pts, 1.0, 0.0, norm_b=nb, b=bfun
        )
        bfun2 = lambda x: 2.0 * bfun(x)
        res2 = check_pointwise_cutoff_bound(
            cut, identity_field(2), pts, 1.0, 0.0, norm_b=2.0 * nb, b=bfun2
        )
        assert res1.worst_slack >= -1e-12
        assert res2.worst_slack >= -1e-12
        # the envelope's drift term grows exactly quadratically
        g2 = cut.radial_derivative(np.sqrt((pts**2).sum(-1))) ** 2
        growth = 3.0 * ((2 * nb) ** 2 - nb**2) * g2
        assert np.all(growth >= 0.0)


def bump_1d(n, h, r_in, r_out):
    ax = (np.arange(n) + 0.5 - n / 2.0) * h
    return annular_bump(np.abs(ax), r_in, r_out), ax


SUPPORT_GATES = {
    "outside": "outside the rho-ball",
    "origin": "punctured neighborhood of the origin",
    "margin": "two-cell margin",
}


def support_setup(d, gate, h=1 / 32):
    """A bump with max|u| = 1 exactly and the cells that each break ``gate``
    alone: the nearest one outside the rho-ball and off the margin (on the
    sphere r = rho in d = 1), the farthest one within 2h of the origin, or
    the inner margin rows inside a ball that reaches them."""
    n = 64
    rho = 1.05 if gate == "margin" else 59 / 64  # a cell center when d = 1
    pts = CubeDomain(d, n * h, h, "periodic").center_grid()
    r = np.sqrt((pts**2).sum(axis=-1))
    u = annular_bump(r, 0.3, 0.6)
    u = u / np.abs(u).max()
    mid = (n // 2,) * (d - 1)
    off_margin = (np.abs(pts) < n * h / 2.0 - 2.0 * h).all(axis=-1)
    outside = np.where((r >= rho) & off_margin, r, np.inf)
    origin = np.where(r <= 2.0 * h, r, -np.inf)
    cells = {
        "outside": [np.unravel_index(np.argmin(outside), r.shape)],
        "origin": [np.unravel_index(np.argmax(origin), r.shape)],
        "margin": [(1,) + mid, (n - 2,) + mid] + ([mid + (1,)] if d > 1 else []),
    }[gate]
    A = np.broadcast_to(np.eye(d), u.shape + (d, d)).copy()
    wf = WeightFunction(rho=rho, mu=0.1, A0=np.eye(d), theta1=1.0)
    p = ModelParams(d=d, theta1=1.0, theta2=0.0)
    C, alpha0 = carleman_constants(p, rho, 0.1, mu_one(1.0, 0.1))
    return u, A, wf, C, alpha0, h, cells


def random_case(d, seed, support, complex_u, drift, n=None):
    """Random data for the checker on the cube (-1, 1)^d.

    ``support``: "inner" (an annulus well inside the cube, plus a few values
    below SUPPORT_TOL on the margin corners, where the stencil wraps, and
    next to the origin, where the weight makes them dominate the sums at
    large alpha) or "margin" (values up to the two-cell margin).  The
    default ``n`` makes h = 1/48, 1/20 or 1/12, which are not powers of two.
    """
    rng = np.random.default_rng(seed)
    n = n or {1: 96, 2: 40, 3: 24}[d]
    h = 2.0 / n
    rho = 1.3 if support == "margin" else 0.9
    pts = CubeDomain(d, n * h, h, "periodic").center_grid()
    r = np.sqrt((pts**2).sum(axis=-1))
    idx = np.indices(r.shape)
    keep = (r > 2.0 * h) & (r < rho) & ~((idx < 2) | (idx >= n - 2)).any(axis=0)
    if support == "inner":
        keep &= (r > 0.2) & (r < 0.5)
    u = rng.standard_normal(r.shape)
    if complex_u:
        u = u + 1j * rng.standard_normal(r.shape)
    u = np.where(keep, u, 0.0)
    if support == "inner":
        tiny = SUPPORT_TOL * np.abs(u).max()
        u[(0,) * d] = 0.3 * tiny
        u[(n - 1,) + (0,) * (d - 1)] = -0.2 * tiny
        u[(n // 2,) * d] = 0.5 * tiny
    M = rng.standard_normal(r.shape + (d, d))
    A = 0.2 * (M @ np.swapaxes(M, -1, -2)) + np.eye(d)
    b = c = None
    if drift:
        b = rng.standard_normal(r.shape + (d,))
        c = rng.standard_normal(r.shape)
        if complex_u:
            b = b + 1j * rng.standard_normal(r.shape + (d,))
            c = c + 1j * rng.standard_normal(r.shape)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A0 = Q @ np.diag(rng.uniform(0.6, 1.6, d)) @ Q.T
    wf = WeightFunction(rho=rho, mu=0.2, A0=0.5 * (A0 + A0.T), theta1=2.0)
    return u, A, b, c, h, wf


class TestCarlemanInequality:
    def make_setup(self, n=128, h=1 / 64, rho=0.95, mu=0.1):
        u, ax = bump_1d(n, h, 0.3, 0.6)
        A = np.ones((n, 1, 1))
        wf = WeightFunction(rho=rho, mu=mu, A0=np.eye(1), theta1=1.0)
        p = ModelParams(d=1, theta1=1.0, theta2=0.0)
        C, alpha0 = carleman_constants(p, rho, mu, mu_one(1.0, mu))
        return u, A, wf, C, alpha0, h

    def test_zero_function(self):
        u, A, wf, C, alpha0, h = self.make_setup()
        res = check_carleman_inequality(0.0 * u, A, None, None, h, wf, alpha0, C)
        assert res.ratio == 0.0

    @pytest.mark.parametrize("scale", [0.0, 1e-200])
    def test_vanishing_right_side_fails(self, scale):
        # the operator term underflows to zero: the ratio is inf, not a pass
        u, A, wf, C, alpha0, h = self.make_setup()
        res = check_carleman_inequality(u, scale * A, None, None, h, wf, alpha0, C)
        assert res.rhs_log == -math.inf and res.ratio == math.inf

    def test_unrepresentable_ratio_is_inf(self):
        # lhs_log - rhs_log above log(float max) overflows exp
        u, A, wf, C, alpha0, h = self.make_setup()
        res = check_carleman_inequality(u, 1e-158 * A, None, None, h, wf, alpha0, C)
        assert res.lhs_log - res.rhs_log > math.log(sys.float_info.max)
        assert res.ratio == math.inf

    def test_bump_ratio_below_one_and_refines(self):
        ratios = []
        for h, n in ((1 / 64, 128), (1 / 128, 256), (1 / 256, 512)):
            u, A, wf, C, alpha0, _ = self.make_setup(n=n, h=h)
            res = check_carleman_inequality(u, A, None, None, h, wf, alpha0, C)
            assert res.ratio <= 1.0 + 10.0 * h
            ratios.append(res.ratio)
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_homogeneity_bitwise(self):
        u, A, wf, C, alpha0, h = self.make_setup()
        r1 = check_carleman_inequality(u, A, None, None, h, wf, alpha0, C).ratio
        r2 = check_carleman_inequality(2.0 * u, A, None, None, h, wf, alpha0, C).ratio
        assert r1 == r2

    def test_rejects_support_violations(self):
        # each support check fails on its own, in d = 1 and d = 2
        for d in (1, 2):
            for gate, message in SUPPORT_GATES.items():
                u, A, wf, C, alpha0, h, cells = support_setup(d, gate)
                for cell in cells:
                    for value in (0.5, np.nextafter(SUPPORT_TOL, 1.0)):
                        bad = u.copy()
                        bad[cell] = value
                        with pytest.raises(ValueError, match=message):
                            check_carleman_inequality(bad, A, None, None, h, wf, alpha0, C)

    def test_value_of_support_tol_passes(self):
        for d in (1, 2):
            for gate in SUPPORT_GATES:
                u, A, wf, C, alpha0, h, cells = support_setup(d, gate)
                for cell in cells:
                    ok = u.copy()
                    ok[cell] = SUPPORT_TOL
                    res = check_carleman_inequality(ok, A, None, None, h, wf, alpha0, C)
                    ref = oracles.carleman_check_whole_cube(
                        ok, A, None, None, h, wf, alpha0, C
                    )
                    assert res == ref

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["u", "A", "b", "c"])
    def test_rejects_non_finite_input_naming_it(self, name, bad):
        # one bad cell inside the bump; before the check, a NaN in A gave a
        # finite ratio and one in u a NaN ratio
        u, A, wf, C, alpha0, h, _ = support_setup(2, "outside")
        args = {"u": u, "A": A, "b": np.full(u.shape + (2,), 0.1),
                "c": np.full(u.shape, 0.2)}
        cell = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        args[name] = args[name].copy()
        args[name][cell + (0,) * (args[name].ndim - 2)] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite; 1 entries"):
            check_carleman_inequality(args["u"], args["A"], args["b"], args["c"], h,
                                      wf, alpha0, C)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["alpha", "carleman_C"])
    def test_rejects_a_bad_alpha_or_constant_naming_it(self, name, bad):
        # a NaN ratio, or a math domain error that named neither input
        u, A, wf, C, alpha0, h = self.make_setup()
        args = {"alpha": alpha0, "carleman_C": C, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got "):
            check_carleman_inequality(u, A, None, None, h, wf, **args)

    @pytest.mark.parametrize("shape", [(48, 64), (64, 48)])
    def test_rejects_a_non_cube_grid(self, shape):
        # cut one axis of the 64-cell cube to its middle 48 cells; the bump
        # and its two-cell margin still fit
        u, A, wf, C, alpha0, h, _ = support_setup(2, "outside")
        keep = tuple(slice((64 - k) // 2, (64 + k) // 2) for k in shape)
        with pytest.raises(ValueError, match=r"cube grid, got shape \(\d+, \d+\)"):
            check_carleman_inequality(u[keep], A[keep], None, None, h, wf, alpha0, C)

    @pytest.mark.parametrize("name,shape", [
        ("A", (2, 2)), ("A", (64, 32, 2, 2)), ("b", (2,)), ("b", (1, 1, 3)), ("c", ()),
        ("c", (1, 64, 1)),
    ])
    def test_rejects_a_coefficient_off_the_grid(self, name, shape):
        # a bare (d, d) A, (d,) drift or scalar c has no leading grid axes
        u, A, wf, C, alpha0, h, _ = support_setup(2, "outside")
        args = {"A": A, "b": None, "c": None, name: np.full(shape, 0.5)}
        with pytest.raises(ValueError, match=rf"^{name} of shape"):
            check_carleman_inequality(u, args["A"], args["b"], args["c"], h, wf, alpha0, C)

    def test_rejects_complex_A(self):
        u, A, wf, C, alpha0, h = self.make_setup()
        with pytest.raises(ValueError, match="real matrix field"):
            check_carleman_inequality(u, A + 0j, None, None, h, wf, alpha0, C)

    def test_rejects_alpha_below_floor(self):
        u, A, wf, C, alpha0, h = self.make_setup()
        with pytest.raises(ValueError):
            check_carleman_inequality(
                u, A, None, None, h, wf, 0.5 * alpha0, C, alpha0=alpha0
            )

    def test_seeded_trials_pass_in_both_dimensions(self):
        for d in (1, 2):
            for seed in range(3):
                rec = carleman_trial(seed, d, 1 / 64)
                assert rec["ratio"] <= 1.0 + 10.0 * rec["h"], rec
                assert rec["alpha"] >= rec["alpha0"]


def with_logsum_inputs(monkeypatch, module, check, *args):
    """Run ``check`` and record the (exponents, weights) passed to the
    log-sum-exp helper of ``module``."""
    seen = []
    logsum = module._logsum

    def spy(terms_log, weights):
        seen.append((terms_log.copy(), weights.copy()))
        return logsum(terms_log, weights)

    with monkeypatch.context() as m:
        m.setattr(module, "_logsum", spy)
        return check(*args), seen


def assert_same_check(monkeypatch, first, second):
    """Run two (module, check, args) and assert equal results and equal
    per-cell exponents and weights of the three log-sum-exps, in order."""
    (res, sums), (ref, ref_sums) = (
        with_logsum_inputs(monkeypatch, module, check, *args)
        for module, check, args in (first, second)
    )
    assert res == ref
    assert math.isfinite(res.lhs_log) and math.isfinite(res.rhs_log)
    assert len(sums) == len(ref_sums) == 3
    for got, want in zip(sums, ref_sums):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestWindowMatchesWholeCube:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("support", ["inner", "margin"])
    @pytest.mark.parametrize("complex_u,drift", [(False, False), (False, True), (True, True)])
    def test_bitwise_equal(self, monkeypatch, d, support, complex_u, drift):
        u, A, b, c, h, wf = random_case(d, 7 * d, support, complex_u, drift)
        for alpha in (3.0, 400.0):
            args = (u, A, b, c, h, wf, alpha, 5.0)
            assert_same_check(
                monkeypatch, (carleman, check_carleman_inequality, args),
                (oracles, oracles.carleman_check_whole_cube, args),
            )

    def test_trials_match_whole_cube(self, monkeypatch):
        # seeds 0-3 in d = 1 and 2 draw variable A, drift and constant fields;
        # the reference gets the drift as complex arrays with zero imaginary part
        def whole_cube_complex_drift(u, A, b, c, *rest, **kw):
            b, c = (None if x is None else x + 0j for x in (b, c))
            return oracles.carleman_check_whole_cube(u, A, b, c, *rest, **kw)

        fast = [carleman_trial(s, d, 1 / 64) for d in (1, 2) for s in range(4)]
        monkeypatch.setattr(carleman, "check_carleman_inequality", whole_cube_complex_drift)
        slow = [carleman_trial(s, d, 1 / 64) for d in (1, 2) for s in range(4)]
        assert fast == slow
        assert any(rec["norm_b"] > 0.0 for rec in fast)
        assert any(rec["theta2"] > 0.0 for rec in fast)


class TestConstantCoefficients:
    """Coefficients with unit leading axes, and an A that is a profile along
    the first axis, give the checker the same result, bit for bit, as the
    full grids they broadcast to."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("complex_u,drift", [(False, False), (False, True), (True, True)])
    def test_bitwise_equal_to_grids(self, monkeypatch, d, complex_u, drift):
        u, _, b, c, h, wf = random_case(d, 11 * d, "inner", complex_u, drift)
        rng = np.random.default_rng(d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A0 = Q @ np.diag(rng.uniform(0.6, 1.6, d)) @ Q.T
        A0 = 0.5 * (A0 + A0.T)
        unit = (None,) * d
        b0, c0 = (None, None) if not drift else (b[(0,) * d][unit], c[(0,) * d][unit])
        profile = rng.uniform(0.8, 1.2, (u.shape[0],) + (1,) * (d - 1))[..., None, None]
        for A in [A0[unit]] + ([profile * A0] if d >= 2 else []):
            grids = [None if x is None else np.broadcast_to(x, u.shape + x.shape[d:]).copy()
                     for x in (A, b0, c0)]
            for alpha in (3.0, 400.0):
                assert_same_check(
                    monkeypatch,
                    (carleman, check_carleman_inequality, (u, A, b0, c0, h, wf, alpha, 5.0)),
                    (carleman, check_carleman_inequality, (u, *grids, h, wf, alpha, 5.0)),
                )


class TestCubeSize:
    """The checker's result does not depend on the zero cells around u,
    which lets carleman_trial size the cube to its bump."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("support", ["inner", "margin"])
    @pytest.mark.parametrize("complex_u,drift",
                             [(False, False), (False, True), (True, False), (True, True)])
    def test_zero_padding_is_bitwise_neutral(self, monkeypatch, d, support, complex_u, drift):
        n = {1: 64, 2: 32, 3: 16}[d]  # h = 1/32, 1/16, 1/8
        u, A, b, c, h, wf = random_case(d, 5 * d, support, complex_u, drift, n=n)
        idx = np.indices(u.shape)
        u[((idx < 2) | (idx >= n - 2)).any(axis=0)] = 0.0
        for k in (1, 2, 3, 4):
            # coefficients on the new cells: the opposite side's values
            A_k, b_k, c_k = (None if x is None else np.pad(
                x, [(k, k)] * d + [(0, 0)] * (x.ndim - d), mode="wrap") for x in (A, b, c))
            for alpha in (3.0, 400.0):
                assert_same_check(
                    monkeypatch,
                    (carleman, check_carleman_inequality, (u, A, b, c, h, wf, alpha, 5.0)),
                    (carleman, check_carleman_inequality,
                     (np.pad(u, k), A_k, b_k, c_k, h, wf, alpha, 5.0)),
                )

    def test_trial_cube_has_no_slack(self, monkeypatch):
        seen = []
        check = carleman.check_carleman_inequality

        def spy(u, *args, **kw):
            seen.append(u)
            return check(u, *args, **kw)

        monkeypatch.setattr(carleman, "check_carleman_inequality", spy)
        for d in (1, 2):
            for seed in range(4):
                for h in (1 / 16, 1 / 32, 1 / 64):
                    for rho in (None, 0.8, 1.25):
                        carleman_trial(seed, d, h, rho=rho)
        assert len(seen) == 72
        for u in seen:
            # along axis 0, the outermost nonzero cells on either side
            hit = np.flatnonzero((u != 0).any(axis=tuple(range(1, u.ndim))))
            assert hit[0] in (2, 3)
            assert u.shape[0] - 1 - hit[-1] in (2, 3)


class TestPinnedTrialParameters:
    def test_rho_mu_alpha_overrides(self):
        rec = carleman_trial(0, 1, 1 / 64, rho=1.0, mu=0.08, alpha_mult=1.5)
        assert rec["rho"] == 1.0 and rec["mu"] == 0.08
        assert abs(rec["alpha"] / rec["alpha0"] - 1.5) < 1e-12
        assert rec["ratio"] <= 1.0 + 10.0 / 64.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_mu_pinned_at_the_floor_drops_the_variable_A(self, d):
        # seed 0 draws a variable A (theta2 > 0); a pinned mu at or below its
        # floor 33 d theta1^(11/2) theta2 rho keeps the trial admissible with
        # the constant A instead
        rng = np.random.default_rng(0)
        theta1, rho = 1.0 + 0.12 * rng.random(), 0.8 + 0.45 * rng.random()
        assert rng.random() < 0.25  # the variable-A draw
        theta2 = 4e-4 * rng.random()
        floor = carleman_mu_floor(d, theta1, theta2, rho)
        assert carleman_trial(0, d, 1 / 64)["theta2"] == theta2 > 0.0
        assert carleman_trial(0, d, 1 / 64, mu=2.0 * floor)["theta2"] == theta2
        for mu in (floor, 0.5 * floor):
            rec = carleman_trial(0, d, 1 / 64, mu=mu)
            assert rec["mu"] == mu and rec["theta2"] == 0.0
            assert rec["ratio"] <= 1.0 + 10.0 / 64.0 and rec["alpha"] >= rec["alpha0"]

    def test_alpha_mult_below_one_rejected(self):
        with pytest.raises(ValueError):
            carleman_trial(0, 1, 1 / 64, alpha_mult=0.5)

    @pytest.mark.parametrize("name,value", [
        ("rho", math.nan), ("rho", math.inf), ("rho", -1.0), ("mu", math.nan),
        ("mu", math.inf), ("mu", 0.0), ("alpha_mult", math.nan), ("alpha_mult", math.inf),
    ])
    def test_rejects_bad_pinned_parameter(self, name, value):
        with pytest.raises(ValueError, match=name):
            carleman_trial(0, 1, 1 / 64, **{name: value})

    def test_a_constant_past_the_double_range_is_named_with_mu(self):
        # at the parent, math.exp(6 mu sqrt(theta1)) raised OverflowError
        with pytest.raises(ValueError, match=r"^mu=119\.0: the constant alpha0 "):
            carleman_trial(0, 1, 1 / 64, mu=119.0)
        with pytest.raises(ValueError, match=r"^mu=200\.0: the constant carleman_C "):
            carleman_trial(0, 1, 1 / 64, mu=200.0)

    @pytest.mark.parametrize("mu", [2.0, 3.0])
    def test_an_alpha_too_large_to_resolve_the_ratio_raises(self, mu):
        # at mu = 3 (alpha = 2.3e18) lhs_log and rhs_log rounded to one double
        # and the parent returned a ratio of exactly 1.0; at mu = 2 the
        # rounding error of the exponents is O(1)
        with pytest.raises(ValueError, match=r"^alpha=\S+ is too large to resolve the ratio"):
            carleman_trial(0, 2, 1 / 64, mu=mu)


class TestFootprint:
    def test_a_trial_holds_at_most_eight_whole_cube_arrays(self):
        # the largest criterion-4 grid at the workload's largest rho; n is the
        # trial's own rule at its largest r_out = 0.85 rho
        h, rho = 1 / 256, 1.25
        n = 2 * (math.ceil(0.85 * rho / h) + 2)
        cube = n * n * np.dtype(float).itemsize
        carleman_trial(0, 2, h, rho=rho)  # lazy imports and caches first
        peaks = []
        for seed in range(6):
            tracemalloc.start()
            try:
                carleman_trial(seed, 2, h, rho=rho)
                peaks.append(tracemalloc.get_traced_memory()[1] / cube)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8.0, peaks
