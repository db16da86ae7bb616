"""End-to-end observability experiment tests."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import oracles
import uclab.geometry as geometry
import uclab.verifier as verifier
from uclab.cli import write_rows_csv, write_rows_jsonl
from uclab.constants import FreeConstants, ModelParams, cacciopoli_prefactor, log_c_sfuc
from uclab.fields import CoefficientField, periodic_centered_diff, synthesize_random_field
from uclab.geometry import CubeDomain, ball_cells, generate_sequence, mask
from uclab.spectral import SpectrumSlice
from uclab.verifier import (
    ObservabilityRecord,
    TrialConfig,
    cacciopoli_check,
    delta_sweep,
    mass_prefix,
    observability_ratio,
    placement_gram,
    run_trial,
    scaling_identity,
    solve_field,
    verify_equidistribution,
    worst_ratio,
)


def ratio_of(psi, seq, dom):
    prefix, total = mass_prefix(psi, dom, seq.G)
    (ratio,) = observability_ratio(prefix, [seq], dom, total)
    return ratio


def make_record(**fields):
    """An inequality-pair record on the d=1, L=3, h=1/16 cube, with ``fields``
    in place of the defaults."""
    base = dict(psi_kind="inequality_pair", d=1, bc="periodic", G=1.0, delta=0.25,
                L=3.0, h=1 / 16, theta1=1.0, theta2=0.0, norm_V=0.0, energy=0.0,
                eigen_index=0, seed=0, ratio=0.5, worst_ratio=0.5, log_bound=-1e6,
                zeta_norm_sq=0.0, residual_violation=0.0)
    return ObservabilityRecord(**{**base, **fields})


def entry_sweep(psi):
    dom = CubeDomain(1, 3.0, 1 / 16, "periodic")
    p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
    return delta_sweep(psi, dom, 1.0, [0.1, 0.2, 0.3, 0.4], p)


class TestObservabilityRatio:
    def test_support_inside_one_ball_gives_one(self):
        dom = CubeDomain(1, 3.0, 1 / 64, "periodic")
        seq = generate_sequence(1.0, 0.25, 3.0, 1, "centered")
        x = dom.centers_1d()
        psi = np.where(np.abs(x) < 0.2, 1.0, 0.0)
        assert ratio_of(psi, seq, dom) == 1.0

    def test_vanishing_on_mask_gives_zero(self):
        dom = CubeDomain(1, 3.0, 1 / 64, "periodic")
        seq = generate_sequence(1.0, 0.25, 3.0, 1, "centered")
        m = mask(seq, dom)
        psi = np.where(m, 0.0, 1.0)
        assert ratio_of(psi, seq, dom) == 0.0

    def test_constant_function_recovers_area_fraction(self):
        target = math.pi / 16.0
        errs = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            dom = CubeDomain(2, 3.0, h, "periodic")
            seq = generate_sequence(1.0, 0.25, 3.0, 2, "centered")
            r = ratio_of(np.ones(dom.shape), seq, dom)
            errs.append(abs(r - target))
        assert errs[-1] < 0.01 and errs[-1] <= errs[0]

    @pytest.mark.parametrize("complex_psi", [False, True])
    @pytest.mark.parametrize("d, h_per_G", [(1, 32), (2, 16), (3, 8)])
    def test_run_mass_matches_mask_mass(self, d, h_per_G, complex_psi):
        # prefix differences over the runs against the boolean gather over
        # the mask: same cells, summed in another order; the flat cell
        # indices a trial gathers by are the mask's cells in its order
        dom = CubeDomain(d, 3.0, 1 / h_per_G, "periodic")
        rng = np.random.default_rng(d)
        psi = rng.standard_normal(dom.shape)
        if complex_psi:
            psi = psi + 1j * rng.standard_normal(dom.shape)
        prefix, total = mass_prefix(psi, dom, 1.0)
        assert total == dom.norm_sq(psi)
        for frac in (1e-3, 0.125, 0.3, 0.499):
            seqs = [generate_sequence(1.0, frac, 3.0, d, "centered")]
            seqs += [generate_sequence(1.0, frac, 3.0, d, "uniform_random", seed=sd)
                     for sd in range(3)]
            ratios = observability_ratio(prefix, seqs, dom, total)
            assert ratios.shape == (len(seqs),)
            for seq, ratio in zip(seqs, ratios):
                m = mask(seq, dom)
                want = dom.norm_sq(psi, where=m)
                assert abs(ratio * total - want) <= 1e-12 * want
                assert np.array_equal(ball_cells(seq, dom), np.flatnonzero(m))
        # a boolean where is read against the grid, so it must have its shape
        for wrong in (m[None], m[..., :-1]):
            with pytest.raises(ValueError, match="is not a boolean grid of shape"):
                dom.norm_sq(psi, where=wrong)

    @pytest.mark.parametrize("d, h_per_G", [(1, 32), (2, 16), (3, 8)])
    def test_vanishing_on_balls_gives_exact_zero(self, d, h_per_G):
        dom = CubeDomain(d, 3.0, 1 / h_per_G, "periodic")
        seq = generate_sequence(1.0, 0.3, 3.0, d, "uniform_random", seed=1)
        psi = np.random.default_rng(0).standard_normal(dom.shape)
        psi[mask(seq, dom)] = 0.0
        assert ratio_of(psi, seq, dom) == 0.0

    def test_prefix_for_another_G_rejected(self):
        dom = CubeDomain(2, 3.0, 1 / 16, "periodic")
        seq = generate_sequence(1.0, 0.25, 3.0, 2, "centered")
        psi = np.ones(dom.shape)
        prefix, total = mass_prefix(psi, dom, 3.0)
        with pytest.raises(ValueError, match="G-blocks"):
            observability_ratio(prefix, [seq], dom, total)
        with pytest.raises(ValueError, match=r"^G/h must be a whole number >= 1, got G=0.7 and h"):
            mass_prefix(psi, dom, 0.7)

    # psi is checked where it enters a delta sweep; a record's psi comes
    # from a solve only
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_psi_rejected(self, bad):
        psi = np.ones(48)
        psi[5] = bad
        with pytest.raises(ValueError, match="^psi must be finite"):
            entry_sweep(psi)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError, match="^zero grid function"):
            entry_sweep(np.zeros(48))


class TestWorstRatio:
    @staticmethod
    def span_and_cells(k, seed=0, N=300):
        rng = np.random.default_rng(seed)
        V, _ = np.linalg.qr(rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k)))
        return V, np.flatnonzero(rng.random(N) < 0.3)

    @staticmethod
    def fraction(psi, cells):
        return float((np.abs(psi[cells]) ** 2).sum() / (np.abs(psi) ** 2).sum())

    def test_basis_independent_minimum_over_the_span(self):
        V, cells = self.span_and_cells(3)
        gram = placement_gram(V, cells)
        w = worst_ratio(gram)
        assert abs(w - oracles.reference_worst_ratio(V, cells)) <= 1e-15
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert abs(worst_ratio(placement_gram(V @ Q, cells)) - w) <= 1e-13
        coeffs = rng.standard_normal((500, 3)) + 1j * rng.standard_normal((500, 3))
        assert min(self.fraction(V @ c, cells) for c in coeffs) >= w - 1e-13
        _, vecs = np.linalg.eigh(gram)
        assert abs(self.fraction(V @ vecs[:, 0], cells) - w) <= 1e-13  # attained

    def test_rayleigh_quotients_are_the_mass_fractions(self):
        V, cells = self.span_and_cells(4, seed=2)
        gram = placement_gram(V, cells)
        assert gram.shape == (4, 4)
        assert np.abs(gram - gram.conj().T).max() == 0.0
        coeffs = np.random.default_rng(3).standard_normal((20, 4))
        for c in [*np.eye(4), *coeffs]:
            want = self.fraction(V @ c, cells)
            assert abs((c @ gram @ c).real / (c @ c) - want) <= 1e-13 * want
        # a principal minor is the gram of those columns
        members = np.array([1, 3])
        assert abs(worst_ratio(gram[np.ix_(members, members)])
                   - worst_ratio(placement_gram(V[:, members], cells))) <= 1e-15

    def test_single_member_is_its_ratio(self):
        V, cells = self.span_and_cells(1)
        assert abs(worst_ratio(placement_gram(V, cells))
                   - self.fraction(V[:, 0], cells)) <= 1e-15

    def test_degenerate_records_agree_with_default_ordering_reference(self, monkeypatch):
        # d=2 periodic, norm_V = 0: constant A without potential, degenerate
        # +-k eigenspaces, in which each solver returns its own basis
        cfgs = [TrialConfig(d=2, bc="periodic", L_over_G=3, norm_V=0.0,
                            delta_over_G=dg, seed=s)
                for s in (0, 1) for dg in (0.125, 0.25)]
        new = verify_equidistribution(cfgs)

        def default_ordering(op, count, seed=0):
            H = op.matrix
            v0 = np.random.default_rng(seed).standard_normal(H.shape[0])
            vals, vecs = spla.eigsh(H, k=count, sigma=op.spectral_floor - 1.0,
                                    which="LM", v0=v0)
            order = np.argsort(vals)
            return SpectrumSlice(vals[order], vecs[:, order], 0.0, op.domain.shape)

        monkeypatch.setattr(verifier, "eigensolve", default_ordering)
        ref = verify_equidistribution(cfgs)
        assert len(new) == len(ref) == 8
        for a, b in zip(new, ref):
            assert abs(a.energy - b.energy) <= 1e-9
            assert abs(a.worst_ratio - b.worst_ratio) <= 1e-9


class TestTrials:
    def test_dirichlet_ground_state_cross_checked_against_direct_sum(self):
        # pipeline ratio for the ground state of the plain second-difference
        # operator equals a direct summation of the sampled sine mode
        from uclab.discretization import assemble
        from uclab.spectral import eigensolve

        L, h = 3.0, 1 / 32
        dom = CubeDomain(1, L, h, "dirichlet")
        fld = CoefficientField(
            dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
            np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0,
        )
        H = assemble(fld)
        sl = eigensolve(H, count=1)
        psi = sl.grid_vector(0)
        lam = float(sl.eigenvalues[0])
        assert abs(lam - math.pi**2 / L**2) < 5e-3
        seq = generate_sequence(1.0, 0.25, L, 1, "uniform_random", seed=4)
        pipeline = ratio_of(psi, seq, dom)
        x = dom.centers_1d()
        sine = np.sin(math.pi * (x + L / 2) / L)
        inside = np.zeros(dom.shape, dtype=bool)
        for z in seq.centers.ravel():
            inside |= np.abs(x - z) < seq.delta
        direct = (sine[inside] ** 2).sum() / (sine**2).sum()
        assert abs(pipeline - direct) < 1e-10
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.25, L=L)
        bound_log = log_c_sfuc(p, FreeConstants())
        assert math.log(pipeline) > bound_log

    def test_trial_margins_positive_with_exact_residual(self):
        tc = TrialConfig(d=1, bc="dirichlet", L_over_G=3, norm_V=0.0,
                         delta_over_G=0.25, seed=0)
        recs = run_trial(tc, solve_field(tc))
        for r in recs:
            assert r.margin > 0.0
            assert r.residual_violation <= 1e-10

    def test_records_reproducible_bit_for_bit(self):
        tc = TrialConfig(d=2, bc="periodic", L_over_G=3, norm_V=1.0,
                         delta_over_G=0.125, seed=1)
        a = [r.to_dict() for r in run_trial(tc, solve_field(tc))]
        b = [r.to_dict() for r in run_trial(tc, solve_field(tc))]
        assert a == b

    def test_zeta_term_reported_separately(self):
        tc = TrialConfig(d=1, bc="periodic", L_over_G=3, norm_V=1.0,
                         delta_over_G=0.25, seed=2)
        recs = run_trial(tc, solve_field(tc))
        for r in recs:
            assert r.zeta_term >= 0.0
            assert isinstance(r.zeta_dominates, bool)
        proj = next(r for r in recs if r.psi_kind == "projector_sample")
        # projector pairs have solver-residual zeta only
        assert proj.zeta_norm_sq < 1e-16

    def test_margin_positive_across_small_suite(self):
        cfgs = [
            TrialConfig(d=d, bc=bc, L_over_G=3, norm_V=nv, delta_over_G=0.25,
                        seed=s, h_per_G=16)
            for d in (1, 2) for bc in ("dirichlet", "periodic")
            for nv in (0.0, 1.0) for s in (0, 1)
        ]
        recs = verify_equidistribution(cfgs)
        assert len(recs) == 2 * len(cfgs)
        assert all(r.margin > 0.0 for r in recs)
        assert all(r.residual_violation <= 1e-10 for r in recs)
        # both solutions lie in the window's span, so neither beats its minimum
        assert all(0.0 < r.worst_ratio <= r.ratio + 1e-12 for r in recs)

    def test_margin_gate_fails_when_bound_exceeds_ratio(self, monkeypatch):
        # log_c_sfuc = 0 puts the bounds at 1 and 1/2; these mask fractions
        # (balls of radius G/8 in d = 2) lie far below both
        monkeypatch.setattr(verifier, "log_c_sfuc", lambda *a, **k: 0.0)
        tc = TrialConfig(d=2, bc="periodic", L_over_G=3, norm_V=1.0,
                         delta_over_G=0.125, seed=0, h_per_G=16)
        recs = run_trial(tc, solve_field(tc))
        assert len(recs) == 2
        assert all(r.margin < 0.0 for r in recs)
        assert all(r.margin == math.log(r.ratio) - r.log_bound for r in recs)

    def test_records_take_theta2_from_the_field(self):
        from dataclasses import replace

        tc = TrialConfig(d=1, bc="periodic", L_over_G=3, norm_V=1.0,
                         delta_over_G=0.25, seed=0, h_per_G=16)
        fld, H, sl = solve_field(tc)
        recs = run_trial(tc, (replace(fld, declared_theta2=1e-4), H, sl))
        assert [r.theta2 for r in recs] == [1e-4, 1e-4]
        p = ModelParams(d=1, theta1=fld.declared_theta1, theta2=1e-4,
                        norm_V=1.0, G=tc.G, delta=tc.delta, L=tc.L)
        pair = next(r for r in recs if r.psi_kind == "inequality_pair")
        assert pair.log_bound == log_c_sfuc(p, FreeConstants())
        assert pair.log_bound < log_c_sfuc(replace(p, theta2=0.0), FreeConstants())

    def test_zero_ratio_margin_is_minus_infinity(self):
        dom = CubeDomain(1, 3.0, 1 / 16, "periodic")
        seq = generate_sequence(1.0, 0.25, 3.0, 1, "centered")
        psi = np.where(mask(seq, dom), 0.0, 1.0)
        vec = (psi / np.linalg.norm(psi)).reshape(-1, 1)
        gram = placement_gram(vec, ball_cells(seq, dom))
        assert gram[0, 0] == 0.0
        rec = make_record(ratio=0.0, worst_ratio=worst_ratio(gram))
        assert rec.ratio == 0.0 and rec.worst_ratio == 0.0
        assert rec.margin == -math.inf


class TestDeltaSweep:
    def test_constant_function_slope_is_dimension(self):
        dom = CubeDomain(2, 3.0, 1 / 128, "periodic")
        p = ModelParams(d=2, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=3.0)
        res = delta_sweep(
            np.ones(dom.shape), dom, 1.0, [0.125, 0.175, 0.25, 0.35, 0.45], p,
            seq_mode="uniform_random", seq_seeds=range(5),
        )
        assert res.r_squared >= 0.99
        assert res.slope_in_bracket(2)
        assert abs(res.slope - 2.0) < 0.05

    def test_slope_invariant_under_function_scaling(self):
        dom = CubeDomain(1, 3.0, 1 / 128, "periodic")
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=3.0)
        x = dom.centers_1d()
        psi = 1.3 + np.sin(2 * math.pi * x / 3.0)
        deltas = [0.1, 0.15, 0.22, 0.33, 0.45]
        r1 = delta_sweep(psi, dom, 1.0, deltas, p)
        r2 = delta_sweep(2.0 * psi, dom, 1.0, deltas, p)
        assert r1.slope == r2.slope

    def test_ground_state_slope_in_bracket(self):
        L = 3.0
        dom = CubeDomain(1, L, 1 / 128, "dirichlet")
        x = dom.centers_1d()
        psi = np.sin(math.pi * (x + L / 2) / L)
        p = ModelParams(d=1, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=L)
        res = delta_sweep(psi, dom, 1.0, [0.1, 0.15, 0.22, 0.33, 0.45], p,
                          seq_mode="uniform_random", seq_seeds=range(5))
        assert res.slope_in_bracket(1)
        assert res.slope <= res.exponent_bound

    def test_needs_four_points(self):
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        with pytest.raises(ValueError):
            delta_sweep(np.ones(dom.shape), dom, 1.0, [0.1, 0.2, 0.3], p)

    def test_repeated_radii_are_not_four_points(self):
        # four equal radii leave a rank-deficient fit that reads R^2 = 1
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        for deltas in ([0.2] * 4, [0.1, 0.2, 0.3, 0.3]):
            with pytest.raises(ValueError, match=r"4 distinct delta values, got \[0\.[12]"):
                delta_sweep(np.ones(dom.shape), dom, 1.0, deltas, p)

    @pytest.mark.parametrize("field,value", [("d", 2), ("G", 0.5), ("L", 5.0)])
    def test_model_must_describe_the_cube(self, field, value):
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(**{**dict(d=1, G=1.0, delta=0.2, L=3.0), field: value})
        with pytest.raises(ValueError, match="swept cube"):
            delta_sweep(np.ones(dom.shape), dom, 1.0, [0.1, 0.2, 0.3, 0.4], p)

    def test_empty_seed_list_rejected(self):
        # the mean over no seeds is NaN, which must not pass as a fit
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        with pytest.raises(ValueError, match="sequence seed"):
            delta_sweep(np.ones(dom.shape), dom, 1.0, [0.1, 0.2, 0.3, 0.4], p,
                        seq_seeds=())

    def test_nan_function_rejected(self):
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        with pytest.raises(ValueError, match="^psi must be finite"):
            delta_sweep(np.full(dom.shape, np.nan), dom, 1.0,
                        [0.1, 0.2, 0.3, 0.4], p)

    def test_nan_ratio_flagged_degenerate(self, monkeypatch):
        import uclab.verifier as verifier

        monkeypatch.setattr(verifier, "observability_ratio",
                            lambda prefix, seqs, domain, total: np.full(len(seqs), math.nan))
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        res = delta_sweep(np.ones(dom.shape), dom, 1.0, [0.1, 0.2, 0.3, 0.4], p)
        assert res.degenerate and math.isnan(res.r_squared)

    def test_degenerate_flagged(self):
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        seq = generate_sequence(1.0, 0.45, 3.0, 1, "centered")
        psi = np.where(mask(seq, dom), 0.0, 1.0)
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        res = delta_sweep(psi, dom, 1.0, [0.41, 0.43, 0.44, 0.45], p)
        assert res.degenerate


class TestSweepBitIdentity:
    """A sweep measures each delta's placements together; every ratio keeps
    the bits of the per-placement loop (``oracles``), on the shrunk grids
    of the benchmark's sweep workload."""

    @pytest.mark.parametrize("kind", ["constant", "smooth"])
    @pytest.mark.parametrize("d, h", [(2, 1 / 32), (3, 1 / 16)])
    def test_ratios_equal_the_per_placement_loop(self, d, h, kind):
        L = 3.0
        dom = CubeDomain(d, L, h, "periodic")
        if kind == "constant":
            psi = np.ones(dom.shape)
        else:
            psi = 0.5 + np.prod(np.cos(np.pi * dom.center_grid() / L) ** 2, axis=-1)
        deltas = [float(x) for x in np.geomspace(0.125, 0.45, 9)]
        p = ModelParams(d=d, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=L)
        res = delta_sweep(psi, dom, 1.0, deltas, p, seq_mode="uniform_random",
                          seq_seeds=range(4))
        assert res.ratios == oracles.delta_sweep_ratios_per_placement(
            psi, dom, 1.0, deltas, "uniform_random", range(4))


class TestRunTables:
    """A sweep keeps the run tables of its last ``RUN_TABLE_CACHE_SIZE``
    placement stacks, keyed by the grid and the placements: another grid
    function on the same placements searches no runs, and every ratio
    keeps its bits."""

    DELTAS = [0.125, 0.2, 0.3, 0.45]

    @staticmethod
    def count_run_searches(monkeypatch):
        verifier._run_table.cache_clear()
        calls = []

        def counted(seqs, domain):
            calls.append(len(seqs))
            return geometry.ball_runs(seqs, domain)

        monkeypatch.setattr(verifier, "ball_runs", counted)
        return calls

    @staticmethod
    def stack(G=1.0, delta=0.2, L=3.0, d=2, seed=0, h=1 / 20):
        seqs = [generate_sequence(G, delta, L, d, "uniform_random", seed=s)
                for s in (seed, seed + 1)]
        return seqs, CubeDomain(d, L, h, "periodic")

    def test_second_grid_function_searches_no_runs(self, monkeypatch):
        calls = self.count_run_searches(monkeypatch)
        L = 3.0
        p = ModelParams(d=2, theta1=1.0, theta2=0.0, G=1.0, delta=0.2, L=L)
        dom = CubeDomain(2, L, 1 / 16, "periodic")
        delta_sweep(np.ones(dom.shape), dom, 1.0, self.DELTAS, p,
                    seq_mode="uniform_random", seq_seeds=range(3))
        assert calls == [3] * len(self.DELTAS)
        # the boundary condition does not move a run: a Dirichlet cube of
        # the same geometry reads the same tables
        dom = CubeDomain(2, L, 1 / 16, "dirichlet")
        psi = 0.5 + np.prod(np.cos(np.pi * dom.center_grid() / L) ** 2, axis=-1)
        res = delta_sweep(psi, dom, 1.0, self.DELTAS, p,
                          seq_mode="uniform_random", seq_seeds=range(3))
        assert calls == [3] * len(self.DELTAS)
        assert res.ratios == oracles.delta_sweep_ratios_per_placement(
            psi, dom, 1.0, self.DELTAS, "uniform_random", range(3))

    @pytest.mark.parametrize("change", [
        dict(delta=0.3), dict(seed=2), dict(G=0.6), dict(h=1 / 40),
        dict(L=5.0), dict(d=1),
    ])
    def test_another_stack_misses(self, monkeypatch, change):
        calls = self.count_run_searches(monkeypatch)
        ratios = []
        for kw in ({}, {}, change):
            seqs, dom = self.stack(**kw)
            prefix, total = mass_prefix(np.ones(dom.shape), dom, seqs[0].G)
            ratios.append(observability_ratio(prefix, seqs, dom, total))
        assert calls == [2, 2]  # the repeated stack hits, the changed one misses
        verifier._run_table.cache_clear()
        assert np.array_equal(ratios[2], observability_ratio(prefix, seqs, dom, total))

    def test_tables_are_read_only(self):
        seqs, dom = self.stack()
        table = verifier._run_table(tuple(seqs), dom.d, dom.L, dom.h)
        for array in vars(table).values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_mismatched_prefix_searches_no_runs(self, monkeypatch):
        # the prefix table is checked before the run table is looked up
        calls = self.count_run_searches(monkeypatch)
        seqs, dom = self.stack()
        prefix, total = mass_prefix(np.ones(dom.shape), dom, 0.5)  # half the stack's G
        with pytest.raises(ValueError, match="prefix table does not match"):
            observability_ratio(prefix, seqs, dom, total)
        with pytest.raises(ValueError, match="need at least one placement"):
            observability_ratio(prefix, [], dom, total)
        assert calls == [] and verifier._run_table.cache_info().currsize == 0

    def test_cache_never_exceeds_its_bound(self):
        verifier._run_table.cache_clear()
        bound = verifier.RUN_TABLE_CACHE_SIZE
        assert bound >= 9  # one sweep's deltas: 9 in the benchmark, 5 in the CLI
        dom = CubeDomain(1, 3.0, 1 / 16, "periodic")
        prefix, total = mass_prefix(np.ones(dom.shape), dom, 1.0)
        for seed in range(bound + 3):
            seq = generate_sequence(1.0, 0.2, 3.0, 1, "uniform_random", seed=seed)
            observability_ratio(prefix, [seq], dom, total)
            assert verifier._run_table.cache_info().currsize == min(seed + 1, bound)


class TestMaskFraction:
    def test_mask_fraction_L_independent_exactly(self):
        fr = []
        for L in (3, 5, 7):
            dom = CubeDomain(1, float(L), 1 / 32, "periodic")
            seq = generate_sequence(1.0, 0.25, float(L), 1, "centered")
            fr.append(ratio_of(np.ones(dom.shape), seq, dom))
        assert fr[0] == fr[1] == fr[2]


class TestScalingIdentity:
    def test_unit_scale_is_exact_zero(self):
        out = scaling_identity(0, 1, G=1.0, delta=0.25)
        assert out["norm_defect"] == 0.0
        assert out["constant_log_diff"] == 0.0

    def test_general_scale_within_float_bookkeeping(self):
        for seed in range(5):
            out = scaling_identity(seed, 2, G=2.0, delta=0.4)
            assert out["norm_defect"] <= 1e-12
            assert out["constant_log_diff"] == 0.0

    def test_hundred_point_parameter_sweep(self):
        import random

        rng = random.Random(3)
        E = math.e
        for _ in range(100):
            d = rng.choice([1, 2, 3])
            t1 = 1.0 + rng.random()
            G = 0.25 * rng.randint(1, 12)
            cap = 1.0 / (33.0 * E * d * (math.sqrt(d) + 2.0) * t1**6 * G)
            p = ModelParams(
                d=d, theta1=t1, theta2=rng.random() * 0.9 * cap, G=G,
                delta=G * (0.02 + 0.45 * rng.random()),
                norm_V=rng.random(), norm_b=rng.random(), norm_c=rng.random(),
            )
            from uclab.constants import scale_parameters

            assert log_c_sfuc(p, FreeConstants()) == log_c_sfuc(
                scale_parameters(p), FreeConstants()
            )


class TestCacciopoli:
    def d1_setup(self, k=2, h=1 / 256):
        L = 3.0
        dom = CubeDomain(1, L, h, "dirichlet")
        x = dom.centers_1d()
        psi = np.sin(k * math.pi * (x + L / 2) / L)
        fld = CoefficientField(
            dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
            np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0,
        )
        return dom, psi, fld, L

    def test_constant_function_trivial(self):
        dom = CubeDomain(1, 3.0, 1 / 64, "dirichlet")
        fld = CoefficientField(
            dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
            np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0,
        )
        res = cacciopoli_check(np.ones(dom.shape), fld, 0.3, 0.8, 0.4)
        assert res["lhs"] == 0.0 and res["holds"]

    def test_sine_mode_against_closed_form(self):
        # both sides are elementary integrals of sin^2/cos^2; the annulus
        # radii sit on cell edges so the midpoint sums see clean boundaries
        h = 1 / 4096
        dom, psi, fld, L = self.d1_setup(k=2, h=h)
        r1, r2, r = 1280 * h, 3328 * h, 1664 * h  # 0.3125, 0.8125, 0.40625
        res = cacciopoli_check(psi, fld, r1, r2, r)
        w = 2.0 * math.pi / L  # frequency of sin(k pi (x+L/2)/L), k=2

        def int_cos2(a, b):
            # integral of cos(w x + phi)^2 over the two annulus components
            return sum(
                0.5 * (t - s) + (math.sin(2 * (w * t + w * L / 2))
                                 - math.sin(2 * (w * s + w * L / 2))) / (4 * w)
                for s, t in ((-b, -a), (a, b))
            )

        def int_sin2(a, b):
            return sum(
                0.5 * (t - s) - (math.sin(2 * (w * t + w * L / 2))
                                 - math.sin(2 * (w * s + w * L / 2))) / (4 * w)
                for s, t in ((-b, -a), (a, b))
            )

        lhs_exact = w**2 * int_cos2(r1, r2)
        mass_exact = int_sin2(max(r1 - r, 0.0), r2 + r)
        assert abs(res["lhs"] - lhs_exact) < 1e-6
        assert abs(res["rhs"] - res["prefactor"] * mass_exact) < 1e-6
        assert res["holds"]

    def test_homogeneity(self):
        dom, psi, fld, L = self.d1_setup(k=1, h=1 / 64)
        a = cacciopoli_check(psi, fld, 0.3, 0.8, 0.4)
        b = cacciopoli_check(2.0 * psi, fld, 0.3, 0.8, 0.4)
        assert abs(b["lhs"] - 4.0 * a["lhs"]) < 1e-12 * max(1.0, b["lhs"])
        assert abs(b["rhs"] - 4.0 * a["rhs"]) < 1e-12 * max(1.0, b["rhs"])

    def test_annulus_must_fit(self):
        dom, psi, fld, L = self.d1_setup(h=1 / 32)
        with pytest.raises(ValueError):
            cacciopoli_check(psi, fld, 0.5, 1.3, 0.3)

    @pytest.mark.parametrize("name", ["psi", "zeta"])
    def test_rejects_an_array_off_the_grid(self, name):
        # an IndexError from the boolean annulus mask before
        dom, psi, fld, L = self.d1_setup(h=1 / 32)
        given = {"psi": psi, "zeta": np.zeros(dom.shape), name: psi[1:]}
        with pytest.raises(ValueError, match=rf"^{name} has shape \(95,\), not the field's "
                                             r"grid \(96,\)"):
            cacciopoli_check(given["psi"], fld, 0.3, 0.8, 0.4, zeta=given["zeta"])

    @pytest.mark.parametrize("name", ["psi", "zeta"])
    def test_rejects_a_nan_array(self, name):
        # it read as a failed inequality: holds False with lhs NaN
        dom, psi, fld, L = self.d1_setup(h=1 / 32)
        given = {"psi": psi, "zeta": np.zeros(dom.shape)}
        given[name][40] = math.nan
        with pytest.raises(ValueError, match=rf"^{name} must be finite; 1 entries"):
            cacciopoli_check(given["psi"], fld, 0.3, 0.8, 0.4, zeta=given["zeta"])

    @pytest.mark.parametrize("r1, r2", [(0.9, 0.3), (0.5, 0.5)])
    def test_rejects_radii_out_of_order(self, r1, r2):
        # an empty annulus held vacuously: lhs 0.0 and holds True
        dom, psi, fld, L = self.d1_setup(h=1 / 32)
        with pytest.raises(ValueError, match=rf"r1={r1}, r2={r2}"):
            cacciopoli_check(psi, fld, r1, r2, 0.3)


    @staticmethod
    def reference_check(psi, fld, r1, r2, r, zeta=None, cprime=1.0):
        """The check with its gradient energy as one einsum and the
        prefactor's C'-free part written out by hand."""
        dom = fld.domain
        s = np.sqrt((dom.center_grid() ** 2).sum(axis=-1))
        S = (s > r1) & (s < r2)
        S_plus = (s > max(r1 - r, 0.0)) & (s < r2 + r)
        grad = np.stack([periodic_centered_diff(psi, ax, dom.h) for ax in range(dom.d)],
                        axis=-1)
        energy = np.real(np.einsum("...i,...ij,...j->...", np.conj(grad), fld.A, grad))
        lhs = dom.cell_volume * float(energy[S].sum())
        mass_plus = dom.norm_sq(psi, where=S_plus)
        zeta_plus = 0.0 if zeta is None else 2.0 * dom.norm_sq(zeta, where=S_plus)
        cac = cacciopoli_prefactor(r, fld.norm_V, fld.norm_b, fld.norm_c,
                                   fld.declared_theta1, cprime)
        base = 2.0 * fld.norm_V**2 + 1.0 + 2.0 * fld.norm_b**2 + 2.0 * fld.norm_c
        grad_coeff = 8.0 * fld.declared_theta1**2 / r**2
        return {
            "lhs": lhs,
            "rhs": cac * mass_plus + zeta_plus,
            "prefactor": cac,
            "holds": bool(lhs <= cac * mass_plus + zeta_plus),
            "min_cprime": float((lhs - zeta_plus - base * mass_plus)
                                / (grad_coeff * mass_plus)),
        }

    def test_cli_default_case_matches_reference(self):
        dom, psi, fld, L = self.d1_setup(k=2, h=1 / 32)
        args = (psi, fld, 0.1 * L, 0.27 * L, 0.13 * L)
        cprime = FreeConstants().Cprime
        assert cacciopoli_check(*args, cprime=cprime) == \
            self.reference_check(*args, cprime=cprime)

    def test_complex_drift_field_matches_reference(self):
        dom = CubeDomain(2, 3.0, 1 / 16, "periodic")
        fld = synthesize_random_field(3, dom, 1.3, norm_V=0.7, norm_b=0.4,
                                      norm_c=0.3, sa=True)
        assert np.iscomplexobj(fld.b) and fld.b.any()
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
        zeta = rng.standard_normal(dom.shape)
        args = (psi, fld, 0.3, 0.8, 0.39)
        assert cacciopoli_check(*args, zeta=zeta, cprime=0.7) == \
            self.reference_check(*args, zeta=zeta, cprime=0.7)


class TestDerivedFields:
    """A record derives its margin and residual term from its own fields."""

    @pytest.mark.parametrize("ratio, log_bound, delta, G, zeta_norm_sq", [
        (0.5, -1e6, 0.25, 1.0, 0.0),
        (0.0355, -5.1e6, 0.125, 1.0, 7.4e-24),
        (1e-3, -2.0, 0.3, 2.5, 0.9),
        (0.0, -1e6, 0.25, 1.0, 1.0),
        (math.nan, -1e6, 0.25, 1.0, 0.5),
    ])
    def test_derives_the_three_expressions(self, ratio, log_bound, delta, G, zeta_norm_sq):
        rec = make_record(ratio=ratio, log_bound=log_bound, delta=delta, G=G,
                          zeta_norm_sq=zeta_norm_sq)
        margin = math.log(ratio) - log_bound if ratio > 0.0 else -math.inf
        zeta_term = delta**2 * G**2 * zeta_norm_sq
        assert rec.margin.hex() == margin.hex()
        assert rec.zeta_term.hex() == zeta_term.hex()
        assert rec.zeta_dominates is bool(zeta_term > ratio)

    @pytest.mark.parametrize("name", ["margin", "zeta_term", "zeta_dominates"])
    def test_derived_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError, match=name):
            make_record(**{name: 1.0})

    def test_a_changed_ratio_moves_the_margin(self):
        rec = dataclasses.replace(make_record(), ratio=0.25)
        assert rec.margin == math.log(0.25) + 1e6


class TestRecordIO:
    def test_jsonl_roundtrip_and_header_isolation(self, tmp_path):
        tc = TrialConfig(d=1, bc="dirichlet", L_over_G=3, norm_V=0.0,
                         delta_over_G=0.25, seed=0, h_per_G=16)
        recs = run_trial(tc, solve_field(tc))
        path = tmp_path / "records.jsonl"
        write_rows_jsonl(path, (r.to_dict() for r in recs), config={"note": 1})
        import json

        lines = path.read_text().splitlines()
        assert "created_at" in json.loads(lines[0])
        assert len(lines) == 1 + len(recs)
        body = [json.loads(ln) for ln in lines[1:]]
        assert body[0]["psi_kind"] == recs[0].psi_kind
        assert not any("created_at" in b for b in body)

    def test_summary_csv(self, tmp_path):
        tc = TrialConfig(d=1, bc="dirichlet", L_over_G=3, norm_V=0.0,
                         delta_over_G=0.25, seed=0, h_per_G=16)
        recs = run_trial(tc, solve_field(tc))
        path = tmp_path / "summary.csv"
        write_rows_csv(path, [r.to_dict() for r in recs])
        text = path.read_bytes().decode()
        assert "\r" not in text
        rows = text.splitlines()
        assert len(rows) == 1 + len(recs)
        assert rows[0].split(",") == list(recs[0].to_dict())


class TestInputsComputedOnce:
    """Each input of the mass fraction is computed once per trial or sweep."""

    @staticmethod
    def spy(monkeypatch):
        verifier._run_table.cache_clear()  # count from no kept run tables
        calls = {"ball_cells": 0, "ball_runs": 0, "mask": 0, "placement_gram": 0,
                 "worst_ratio": 0, "mass_prefix": 0, "norm_sq": 0, "norm_sq_where": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(verifier, "ball_cells",
                            counted("ball_cells", verifier.ball_cells))
        # the run finder, where the verifier and where ball_cells look it up
        ball_runs = counted("ball_runs", geometry.ball_runs)
        monkeypatch.setattr(verifier, "ball_runs", ball_runs)
        monkeypatch.setattr(geometry, "ball_runs", ball_runs)
        monkeypatch.setattr(verifier, "mask", counted("mask", verifier.mask))
        monkeypatch.setattr(verifier, "placement_gram",
                            counted("placement_gram", verifier.placement_gram))
        monkeypatch.setattr(verifier, "worst_ratio",
                            counted("worst_ratio", verifier.worst_ratio))
        monkeypatch.setattr(verifier, "mass_prefix",
                            counted("mass_prefix", verifier.mass_prefix))
        norm_sq = CubeDomain.norm_sq

        def counted_norm_sq(self, psi, where=None):
            calls["norm_sq" if where is None else "norm_sq_where"] += 1
            return norm_sq(self, psi, where)

        monkeypatch.setattr(CubeDomain, "norm_sq", counted_norm_sq)
        return calls

    def test_run_trial(self, monkeypatch):
        tc = TrialConfig(d=2, bc="periodic", L_over_G=3, norm_V=1.0,
                         delta_over_G=0.25, seed=0, h_per_G=8)
        solved = solve_field(tc)
        calls = self.spy(monkeypatch)
        run_trial(tc, solved)
        # the covered cells and their gram once for the trial's placement,
        # one minimum over the window, and one norm for psi and one for zeta
        # in each of the two records; no gather by where, no mask, no prefix
        # table
        assert calls == {"ball_cells": 1, "ball_runs": 1, "mask": 0,
                         "placement_gram": 1, "worst_ratio": 1, "mass_prefix": 0,
                         "norm_sq": 4, "norm_sq_where": 0}

    def test_verify_equidistribution(self, monkeypatch):
        # each field recurs non-adjacently: the two delta values are the
        # outer loop, seeds and boundary conditions the inner ones
        cfgs = [TrialConfig(d=1, bc=bc, L_over_G=3, norm_V=1.0, delta_over_G=dg,
                            seed=s, h_per_G=8)
                for dg in (0.125, 0.25) for s in (0, 1)
                for bc in ("periodic", "dirichlet")]
        calls = {"benchmark_field": [], "assemble": 0, "eigensolve": 0}

        def spied(name, fn):
            def wrapper(*args, **kwargs):
                if name == "benchmark_field":
                    calls[name].append(args[0].field_key())
                else:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(verifier, name, spied(name, getattr(verifier, name)))
        records = verify_equidistribution(cfgs)
        firsts = list(dict.fromkeys(tc.field_key() for tc in cfgs))
        assert len(firsts) == 4
        assert calls == {"benchmark_field": firsts, "assemble": 4, "eigensolve": 4}
        assert [(r.bc, r.seed, r.delta) for r in records[::2]] == \
            [(tc.bc, tc.seed, tc.delta) for tc in cfgs]

    def test_delta_sweep(self, monkeypatch):
        calls = self.spy(monkeypatch)
        dom = CubeDomain(1, 3.0, 1 / 32, "periodic")
        p = ModelParams(d=1, G=1.0, delta=0.2, L=3.0)
        delta_sweep(np.ones(dom.shape), dom, 1.0, [0.1, 0.2, 0.3, 0.4], p,
                    seq_mode="uniform_random", seq_seeds=range(3))
        # one squaring pass: the prefix table, which also gives the norm;
        # one run finder call per delta for its 3 placements; no mask
        assert calls == {"ball_cells": 0, "ball_runs": 4, "mask": 0,
                         "placement_gram": 0, "worst_ratio": 0, "mass_prefix": 1,
                         "norm_sq": 0, "norm_sq_where": 0}


class TestSuiteDeterminism:
    def test_records_and_eigenpair_dump_repeat(self, monkeypatch):
        # the solves behind `verify --dump-eigenpairs`; field keys first
        # appear in an order that differs from sorted order
        cfgs = [
            TrialConfig(d=1, bc=bc, L_over_G=3, norm_V=1.0, delta_over_G=dg,
                        seed=s, h_per_G=16)
            for dg in (0.125, 0.25) for s in (1, 0)
            for bc in ("periodic", "dirichlet")
        ]
        solves_a, solves_b = {}, {}
        recs_a = [r.to_dict() for r in verify_equidistribution(cfgs, solves=solves_a)]
        recs_b = [r.to_dict() for r in verify_equidistribution(cfgs, solves=solves_b)]
        assert recs_a == recs_b
        firsts: dict = {}
        for tc in cfgs:
            firsts.setdefault(tc.field_key(), tc)
        assert list(firsts) != sorted(firsts)
        assert list(solves_a) == list(solves_b) == list(firsts)
        for key, tc in firsts.items():
            _, _, sl = solve_field(tc)
            for solves in (solves_a, solves_b):
                got = solves[key][2]
                assert np.array_equal(got.eigenvalues, sl.eigenvalues)
                assert np.array_equal(got.eigenvectors, sl.eigenvectors)

        # an entry already in the dict is used as it is, without a new solve
        calls = []
        solve = verifier.solve_field
        monkeypatch.setattr(verifier, "solve_field",
                            lambda tc: calls.append(tc.field_key()) or solve(tc))
        first = next(iter(firsts))
        given = {first: solves_a[first]}
        recs_c = [r.to_dict() for r in verify_equidistribution(cfgs, solves=given)]
        assert calls == list(firsts)[1:]
        assert given[first] is solves_a[first] and list(given) == list(firsts)
        assert recs_c == recs_a
