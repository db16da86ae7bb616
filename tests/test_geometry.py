"""Cube, sequence, mask and site-decomposition tests."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from oracles import site_masses_by_slices
from uclab.constants import ModelParams, sampling_report, side_length_T, window_ball_radius
from uclab.geometry import (
    NEAR_NEIGHBOR_SHIFT,
    CubeDomain,
    EquidistributedSequence,
    _lattice,
    ball_cells,
    ball_runs,
    classify_sites,
    feasible_window_side,
    generate_sequence,
    mask,
    tiling_identity_defect,
    window_containment_margin,
)

E = math.e


class TestCubeDomain:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -3.0])
    @pytest.mark.parametrize("name", ["L", "h"])
    def test_non_finite_rejected_naming_the_field(self, name, bad):
        args = {"d": 2, "L": 3.0, "h": 0.1, name: bad}
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number > 0, got "):
            CubeDomain(**args)

    @pytest.mark.parametrize("bad", [2.5, math.nan, 2.0, 0, -1, "2"])
    def test_dimension_must_be_an_integer_at_least_one(self, bad):
        # 2.5 and NaN passed a d < 1 check and failed later in .shape
        with pytest.raises(ValueError,
                           match=r"^d must be an integer >= 1 that a double holds, got"):
            CubeDomain(bad, 3.0, 0.5)

    def test_numpy_integer_dimension_accepted(self):
        assert CubeDomain(np.int64(2), 3.0, 0.5).shape == (6, 6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_center_grid_is_the_meshgrid_of_the_axis_centers(self, d):
        dom = CubeDomain(d, 3.0, 1 / 8)
        want = np.stack(np.meshgrid(*[dom.centers_1d()] * d, indexing="ij"), -1)
        got = dom.center_grid()
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_center_radius_is_the_norm_of_the_center_grid(self, d):
        dom = CubeDomain(d, 3.0, 1 / 8)
        want = np.linalg.norm(dom.center_grid(), axis=-1)
        got = dom.center_radius()
        assert got.shape == dom.shape
        assert np.abs(got - want).max() <= 1e-15 * want.max()

    @pytest.mark.parametrize("L, h", [(3.0, 1 / 8), (3.0, 3 / 64), (3.0, 0.05),
                                      (5.0, 0.1), (3.0, 1 / 32)])
    def test_sine_mode_is_the_exact_sine(self, L, h):
        # against sin(k pi (x + L/2)/L) at x + L/2 = (m + 1/2) h in 40 digits:
        # the double formula itself loses about k ulps of its argument
        mpmath = pytest.importorskip("mpmath")
        dom = CubeDomain(1, L, h)
        n = dom.n
        k = np.arange(1, n + 1)
        got = dom.sine_mode(k)
        assert got.shape == (n, n) and dom.sine_mode(3).shape == (n,)
        with mpmath.workdps(40):
            want = np.array([[float(mpmath.sin(mpmath.pi * int(kk) * (2 * m + 1) / (2 * n)))
                              for kk in k] for m in range(n)])
        assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("L", [3.0, 5.0])
    @pytest.mark.parametrize("h", [1 / 16, 1 / 32])
    def test_sine_mode_is_bit_equal_to_the_float_formula_on_dyadic_grids(self, L, h):
        # the k = 1 field envelope and the k = 2 Cacciopoli mode keep their bits
        dom = CubeDomain(1, L, h)
        for k in (1, 2):
            want = np.sin(k * math.pi * (dom.centers_1d() + L / 2.0) / L)
            assert np.array_equal(dom.sine_mode(k), want)

    @pytest.mark.parametrize("h", [1 / 8, 3 / 64, 0.1])
    def test_sine_modes_are_orthogonal_with_the_closed_form_norms(self, h):
        # sum_m s_k s_k' = (n/2) delta_kk', and n at k = k' = n
        dom = CubeDomain(1, 3.0, h)
        n = dom.n
        s = dom.sine_mode(np.arange(1, n + 1))
        want = np.diag(np.where(np.arange(1, n + 1) == n, n, n / 2))
        assert np.abs(s.T @ s - want).max() <= 1e-12

    def test_norm_sq_rejects_a_boolean_where_off_the_grid(self):
        dom = CubeDomain(2, 3.0, 0.5)
        psi = np.ones(dom.shape)
        where = np.zeros(dom.shape, dtype=bool)
        where[0, :2] = True
        assert dom.norm_sq(psi, where=where) == 2 * dom.cell_volume
        # a flat mask and a mask of another grid
        for bad in (where.reshape(-1), np.zeros((5, 5), dtype=bool)):
            with pytest.raises(ValueError, match=rf"shape \({bad.shape[0]},.*shape \(6, 6\)"):
                dom.norm_sq(psi, where=bad)

    @pytest.mark.parametrize("where", [[-1], [0, 1], np.ones((6, 6), dtype=int)],
                             ids=["negative-index", "flat-indices", "integer-grid"])
    def test_norm_sq_rejects_a_non_boolean_where(self, where):
        # flat indices would be read silently, a negative one as the last cell
        dom = CubeDomain(2, 3.0, 0.5)
        with pytest.raises(ValueError, match=r"dtype int\d+ and .* is not a boolean grid"):
            dom.norm_sq(np.ones(dom.shape), where=np.asarray(where))

    def test_block_cells_names_the_failing_condition(self):
        assert CubeDomain(1, 3.0, 0.5).block_cells(1.5) == 3
        # 0.5 divides 2.0, but blocks of 4 cells do not tile the 6 of the cube
        with pytest.raises(ValueError, match="^G-blocks of 4 cells do not tile the 6 cells"):
            CubeDomain(1, 3.0, 0.5).block_cells(2.0)
        with pytest.raises(ValueError,
                           match=r"^G/h must be a whole number >= 1, got G=0.7 and h=0.5$"):
            CubeDomain(1, 3.0, 0.5).block_cells(0.7)


class TestSequences:
    def test_centered_1d_hand_case(self):
        s = generate_sequence(1.0, 0.25, 3.0, 1, "centered")
        assert np.array_equal(s.centers.ravel(), np.array([-1.0, 0.0, 1.0]))
        assert s.containment_margin() == 0.25

    def test_random_containment_nonnegative(self):
        for seed_ in range(10):
            s = generate_sequence(1.0, 0.3, 3.0, 2, "uniform_random", seed=seed_)
            assert s.containment_margin() >= 0.0

    def test_seeds_change_centers_not_cardinality(self):
        a = generate_sequence(1.0, 0.2, 5.0, 2, "uniform_random", seed=1)
        b = generate_sequence(1.0, 0.2, 5.0, 2, "uniform_random", seed=2)
        assert a.centers.shape == b.centers.shape == (5, 5, 2)
        assert not np.array_equal(a.centers, b.centers)
        c = generate_sequence(1.0, 0.2, 5.0, 2, "uniform_random", seed=1)
        assert np.array_equal(a.centers, c.centers)

    def test_random_placement_needs_a_seed(self):
        # no draw from OS entropy: the one unseeded path is an error
        with pytest.raises(ValueError, match="needs a seed"):
            generate_sequence(1.0, 0.2, 5.0, 2, "uniform_random")
        with pytest.raises(ValueError, match="needs a seed"):
            generate_sequence(1.0, 0.2, 5.0, 2, "uniform_random", seed=None)

    def test_centered_placement_needs_no_seed(self):
        a = generate_sequence(1.0, 0.2, 5.0, 2, "centered")
        b = generate_sequence(1.0, 0.2, 5.0, 2, "centered", seed=7)
        assert np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, math.nan])
    def test_dimension_must_be_an_integer_at_least_one(self, bad):
        # d = 0 gave an empty sequence, d = -1 a numpy shape error
        want = r"^d must be an integer >= 1 that a double holds, got"
        with pytest.raises(ValueError, match=want):
            generate_sequence(1.0, 0.25, 3.0, bad)
        with pytest.raises(ValueError, match=want):
            EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=bad, centers=np.empty(0))

    def test_numpy_integer_dimension_accepted(self):
        s = generate_sequence(1.0, 0.25, 3.0, np.int64(2), "uniform_random", seed=0)
        assert s.centers.shape == (3, 3, 2) and s.containment_margin() >= 0.0

    def test_rejects_delta_at_half_cell(self):
        with pytest.raises(ValueError):
            generate_sequence(1.0, 0.5, 3.0, 1)
        with pytest.raises(ValueError):
            generate_sequence(1.0, 0.2, 4.0, 1)  # L/G even

    def test_ball_leaving_its_cell_rejected(self):
        # shifted by 0.4 at delta = 0.25, each ball would reach 0.15 past
        # its cell face; the block evaluation would cut it there
        lattice = _lattice(1.0, 3.0, 1, 3)
        with pytest.raises(ValueError, match="leaves its G-cell"):
            EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=1,
                                    centers=lattice + 0.4)
        centers = _lattice(1.0, 3.0, 2, 3)
        centers[2, 0, 1] = math.nextafter(-1.25, -2.0)  # margin just below 0
        with pytest.raises(ValueError, match="leaves its G-cell"):
            EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=2, centers=centers)
        centers[2, 0, 1] = -1.25  # margin exactly 0 is accepted
        assert EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=2,
                                       centers=centers).containment_margin() == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, bad):
        centers = _lattice(1.0, 3.0, 2, 3)
        centers[1, 1, 0] = bad
        with pytest.raises(ValueError, match="centers must be finite"):
            EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=2, centers=centers)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_generated_sequences_accepted(self, d):
        for frac in (1e-3, 0.25, 0.499, 0.4999999):
            for sd in range(20):
                s = generate_sequence(1.0, frac, 3.0, d, "uniform_random", seed=sd)
                assert s.containment_margin() >= 0.0


class TestPlacementValue:
    """A placement is a value: equal, and hashed alike, exactly when G,
    delta, L, d and the center bytes are, with read-only centers."""

    @staticmethod
    def placement(G=1.0, delta=0.2, L=3.0, d=2, seed=0):
        return generate_sequence(G, delta, L, d, "uniform_random", seed=seed)

    def test_same_arguments_give_one_value(self):
        a, b = self.placement(), self.placement()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and a != a.centers

    @pytest.mark.parametrize("change", [
        dict(seed=1), dict(delta=0.3), dict(G=0.6), dict(L=5.0),
    ])
    def test_another_placement_differs(self, change):
        assert self.placement() != self.placement(**change)

    def test_centers_are_read_only(self):
        seq = self.placement()
        with pytest.raises(ValueError, match="read-only"):
            seq.centers[0, 0, 0] += 0.3

    def test_callers_array_stays_writable_and_unaliased(self):
        centers = _lattice(1.0, 3.0, 2, 3)
        seq = EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=2, centers=centers)
        assert centers.flags.writeable and not np.shares_memory(centers, seq.centers)
        centers[0, 0, 0] += 0.3  # would move the ball out of its G-cell
        assert seq.containment_margin() == 0.25

    def test_nested_list_centers_accepted(self):
        centers = _lattice(1.0, 3.0, 2, 3)
        seq = EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=2,
                                      centers=centers.tolist())
        assert seq == EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=2, centers=centers)

    def test_complex_centers_refused(self):
        with pytest.raises(TypeError, match="same_kind"):
            EquidistributedSequence(G=1.0, delta=0.25, L=3.0, d=1,
                                    centers=_lattice(1.0, 3.0, 1, 3) + 0.2j)

    def test_float32_centers_cover_the_float64_cells(self):
        narrow = self.placement(d=3).centers.astype(np.float32)
        seqs = [EquidistributedSequence(G=1.0, delta=0.2, L=3.0, d=3, centers=centers)
                for centers in (narrow, narrow.astype(np.float64))]
        dom = CubeDomain(3, 3.0, 1 / 16)
        assert seqs[0].centers.dtype == np.float64 and seqs[0] == seqs[1]
        assert np.array_equal(ball_cells(seqs[0], dom), ball_cells(seqs[1], dom))


def gather_mask(seq, dom: CubeDomain) -> np.ndarray:
    idx = np.arange(dom.n) // round(seq.G / dom.h)
    own = seq.centers[np.ix_(*([idx] * dom.d))]
    return np.sum((dom.center_grid() - own) ** 2, axis=-1) < seq.delta**2


class TestMask:
    def test_1d_fraction_approaches_interval_covering(self):
        # delta -> G/2: the union of intervals covers everything in 1d
        dom = CubeDomain(1, 3.0, 1 / 256, "periodic")
        s = generate_sequence(1.0, 0.49, 3.0, 1, "centered")
        frac = mask(s, dom).mean()
        assert frac > 0.95

    def test_2d_fraction_converges_to_ball_area_ratio(self):
        target = math.pi / 16.0
        errs = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            dom = CubeDomain(2, 3.0, h, "periodic")
            s = generate_sequence(1.0, 0.25, 3.0, 2, "centered")
            errs.append(abs(mask(s, dom).mean() - target))
        assert errs[-1] < 0.01
        assert errs[-1] <= errs[0]

    def test_balls_disjoint_across_cells(self):
        # mask cells, grouped by owning lattice cell, never overlap: the mask
        # of one ball lies inside its own G-cell
        dom = CubeDomain(2, 3.0, 1 / 32, "periodic")
        s = generate_sequence(1.0, 0.45, 3.0, 2, "uniform_random", seed=0)
        m = mask(s, dom)
        pts = dom.center_grid()
        covered = 0
        for idx in np.ndindex(3, 3):
            z = s.centers[idx]
            inside = ((pts - z) ** 2).sum(axis=-1) < s.delta**2
            covered += int(inside.sum())
        assert covered == int(m.sum())  # no double counting possible

    @pytest.mark.parametrize("h_per_G", [16, 32])
    @pytest.mark.parametrize("d, L_over_G", [(1, 5), (2, 5), (3, 3)])
    def test_block_evaluation_matches_gather_reference(self, d, L_over_G, h_per_G):
        # reference: the owning center gathered per grid cell, reduced over
        # the coordinate axis; the block evaluation must agree bit for bit,
        # and the flat cell indices must be the mask's, sorted and unique
        G = 1.0
        dom = CubeDomain(d, L_over_G * G, G / h_per_G, "periodic")
        for frac in (1e-3, 0.125, 0.3, 0.499):
            seqs = [generate_sequence(G, frac * G, dom.L, d, "centered")]
            seqs += [generate_sequence(G, frac * G, dom.L, d, "uniform_random",
                                       seed=sd) for sd in range(3)]
            for s in seqs:
                m = mask(s, dom)
                assert np.array_equal(m, gather_mask(s, dom))
                cells = ball_cells(s, dom)
                assert np.array_equal(cells, np.flatnonzero(m))
                assert (np.diff(cells) > 0).all()

    def test_center_at_exactly_delta_is_excluded(self):
        # ball centers shifted by h/2 from the lattice points, so the cell
        # center at offset (6h/2, 8h/2) from its ball center lies at distance
        # exactly 10h/2 = delta (all values dyadic, hence exact)
        G, h = 1.0, 1 / 16
        dom = CubeDomain(2, 3.0, h, "periodic")
        base = generate_sequence(G, 0.3125, 3.0, 2, "centered")
        s = EquidistributedSequence(G=G, delta=0.3125, L=3.0, d=2,
                                    centers=base.centers + h / 2)
        i, j = 24 + 3, 24 + 4  # cell centers 7h/2 and 9h/2 right of 0
        x = dom.centers_1d()
        assert (x[i] - h / 2) ** 2 + (x[j] - h / 2) ** 2 == s.delta**2
        m = mask(s, dom)
        assert not m[i, j]
        assert np.array_equal(m, gather_mask(s, dom))
        wider = EquidistributedSequence(G=G, delta=math.nextafter(0.3125, 1.0),
                                        L=3.0, d=2, centers=s.centers)
        assert mask(wider, dom)[i, j]

    @pytest.mark.parametrize("d, L_over_G, h_per_G", [(1, 5, 16), (2, 3, 16), (3, 3, 8)])
    def test_runs_disjoint_inside_their_block(self, d, L_over_G, h_per_G):
        dom = CubeDomain(d, float(L_over_G), 1 / h_per_G, "periodic")
        for frac in (1e-3, 0.125, 0.3, 0.499):
            for sd in range(3):
                s = generate_sequence(1.0, frac, dom.L, d, "uniform_random", seed=sd)
                placement, rows, lo, hi = ball_runs([s], dom)
                assert (placement == 0).all() and (lo < hi).all()
                # every run inside one block of h_per_G cells along the row
                assert (lo // h_per_G == (hi - 1) // h_per_G).all()
                # a row crosses each ball's block at most once
                assert len(set(zip(rows.tolist(), (lo // h_per_G).tolist()))) == len(rows)
                # runs of one row do not overlap
                order = np.lexsort((lo, rows))
                rows, lo, hi = rows[order], lo[order], hi[order]
                same_row = rows[1:] == rows[:-1]
                assert (lo[1:][same_row] >= hi[:-1][same_row]).all()
                assert (hi - lo).sum() == mask(s, dom).sum()

    def test_mask_fraction_counts_only_own_cell(self):
        dom = CubeDomain(1, 3.0, 1 / 64, "periodic")
        s = generate_sequence(1.0, 0.25, 3.0, 1, "centered")
        m = mask(s, dom)
        x = dom.centers_1d()
        expected = np.zeros_like(x, dtype=bool)
        for z in (-1.0, 0.0, 1.0):
            expected |= np.abs(x - z) < 0.25
        assert np.array_equal(m, expected)


def check_stack(seqs, dom: CubeDomain) -> None:
    """The runs of the stack ``seqs`` come in the documented order, are each
    placement's runs found alone, and cover exactly its mask and the gather
    reference's cells."""
    placement, rows, lo, hi = ball_runs(seqs, dom)
    assert (lo < hi).all()
    # by placement, then the ball's block along the last axis, then row
    block = lo // round(seqs[0].G / dom.h)
    key = (placement * seqs[0].cells_per_axis + block) * dom.n ** (dom.d - 1) + rows
    assert (np.diff(key) > 0).all()
    for k, s in enumerate(seqs):
        own = placement == k
        alone = ball_runs([s], dom)
        assert (alone[0] == 0).all()
        for stacked, single in zip((rows, lo, hi), alone[1:]):
            assert np.array_equal(stacked[own], single)
        flags = np.zeros(dom.n**dom.d, dtype=bool)
        for r, a, b in zip(rows[own], lo[own], hi[own]):
            flags[r * dom.n + a:r * dom.n + b] = True
        assert flags.sum() == (hi[own] - lo[own]).sum()
        assert np.array_equal(flags.reshape(dom.shape), mask(s, dom))
        assert np.array_equal(flags.reshape(dom.shape), gather_mask(s, dom))


class TestStackedRuns:
    @seed(2028)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.sampled_from([1, 2, 3]),
        bc=st.sampled_from(["dirichlet", "periodic"]),
        L_over_G=st.sampled_from([1, 3, 5]),
        h_per_G=st.sampled_from([4, 8, 16]),
        delta_frac=st.floats(1e-3, 0.499),
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
    )
    def test_stack_equals_each_placement_alone(self, d, bc, L_over_G, h_per_G,
                                               delta_frac, seeds):
        assume((L_over_G * h_per_G) ** d <= 30_000)
        dom = CubeDomain(d, float(L_over_G), 1 / h_per_G, bc)
        seqs = [generate_sequence(1.0, delta_frac, dom.L, d, "uniform_random", seed=sd)
                for sd in seeds]
        seqs.append(generate_sequence(1.0, delta_frac, dom.L, d, "centered"))
        check_stack(seqs, dom)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_stack_keeps_the_exact_distance_tie(self, bc):
        # the placement of test_center_at_exactly_delta_is_excluded between
        # two random ones: its cell at distance exactly delta stays outside
        G, h = 1.0, 1 / 16
        dom = CubeDomain(2, 3.0, h, bc)
        base = generate_sequence(G, 0.3125, 3.0, 2, "centered")
        tie = EquidistributedSequence(G=G, delta=0.3125, L=3.0, d=2,
                                      centers=base.centers + h / 2)
        seqs = [generate_sequence(G, 0.3125, 3.0, 2, "uniform_random", seed=sd)
                for sd in (0, 1)]
        seqs.insert(1, tie)
        check_stack(seqs, dom)
        placement, rows, lo, hi = ball_runs(seqs, dom)
        i, j = 24 + 3, 24 + 4
        assert not ((placement == 1) & (rows == i) & (lo <= j) & (j < hi)).any()

    @pytest.mark.parametrize("name, other", [
        ("G", dict(G=0.6, delta=0.2, L=3.0, d=2)),
        ("delta", dict(G=1.0, delta=0.25, L=3.0, d=2)),
        ("L", dict(G=1.0, delta=0.2, L=5.0, d=2)),
        ("d", dict(G=1.0, delta=0.2, L=3.0, d=1)),
    ])
    def test_mixed_stack_rejected_naming_the_mismatch(self, name, other):
        dom = CubeDomain(2, 3.0, 1 / 10, "periodic")
        seq = generate_sequence(1.0, 0.2, 3.0, 2, "centered")
        odd = generate_sequence(other["G"], other["delta"], other["L"], other["d"],
                                "uniform_random", seed=0)
        with pytest.raises(ValueError, match=rf"must share {name}, got"):
            ball_runs([seq, odd], dom)
        with pytest.raises(ValueError, match="at least one placement"):
            ball_runs([], dom)

    def test_a_sequence_on_the_domains_lattice_is_accepted(self):
        # L = 3 + 3e-12 is 3 G-cells of 16 cells, as the lattice rule reads
        # it; a second tolerance of 1e-12 on L refused it
        dom = CubeDomain(2, 3.0, 1 / 16, "periodic")
        near = generate_sequence(1.0, 0.25, 3.0 + 3e-12, 2, "centered")
        exact = generate_sequence(1.0, 0.25, 3.0, 2, "centered")
        np.testing.assert_array_equal(ball_cells(near, dom), ball_cells(exact, dom))

    @pytest.mark.parametrize("L, d", [(5.0, 2), (3.0, 1)])
    def test_a_sequence_off_the_domains_lattice_is_refused(self, L, d):
        dom = CubeDomain(2, 3.0, 1 / 16, "periodic")
        seq = generate_sequence(1.0, 0.25, L, d, "centered")
        with pytest.raises(ValueError, match="^sequence and domain are incompatible$"):
            ball_runs([seq], dom)


def periodic_extension_1d(base: np.ndarray) -> np.ndarray:
    return np.tile(base, 3)


class TestSites:
    def test_constant_function_every_site_dominates(self):
        L, h, T = 5, 1 / 8, 3
        psi = np.ones(3 * L * round(1 / h))
        dec = classify_sites(psi, T, L, h)
        assert dec.dominating.all()
        assert np.allclose(dec.unit_mass, 1.0)
        # comparison threshold for |c|^2 = 1: window/(2 T^d) = |c|^2 / 2
        assert np.allclose(dec.window_mass / (2.0 * T**1), 0.5 * dec.unit_mass)

    def test_the_split_is_at_the_beta_of_the_local_estimate(self):
        # d = 1, theta1 = 1: the printed T = 39 fits the 3L cube from L = 19
        # on; a site dominates exactly when its unit mass is >= 1/beta of its
        # window mass, beta the one sampling_report gives the local estimate
        L, h = 19, 1 / 2
        T = side_length_T(1, 1.0)
        beta = sampling_report(ModelParams(d=1)).beta
        psi = np.tile(np.random.default_rng(2).standard_normal(L * 2) ** 3, 3)
        dec = classify_sites(psi, T, L, h)
        assert (T, beta) == (39, 78.0)
        assert np.array_equal(dec.dominating, dec.unit_mass >= dec.window_mass / beta)
        assert 0 < dec.dominating.sum() < L

    def test_single_cube_support_against_brute_force(self):
        L, T = 5, 3
        h = 1 / 8
        cells = round(1 / h)
        n_ext = 3 * L * cells
        rng = np.random.default_rng(0)
        psi = np.zeros(n_ext)
        # support inside the unit cube at site 0 (center of extended grid)
        mid = n_ext // 2
        psi[mid - cells // 2: mid + cells // 2] = rng.standard_normal(cells)
        dec = classify_sites(psi, T, L, h)
        # brute-force window sums from coordinates
        x = -1.5 * L + (np.arange(n_ext) + 0.5) * h
        for si, k in enumerate(range(-(L - 1) // 2, (L - 1) // 2 + 1)):
            unit = (np.abs(psi[np.abs(x - k) < 0.5]) ** 2).sum() * h
            win = (np.abs(psi[np.abs(x - k) < T / 2]) ** 2).sum() * h
            assert abs(unit - dec.unit_mass[si]) < 1e-12
            assert abs(win - dec.window_mass[si]) < 1e-12
        center = (L - 1) // 2
        assert dec.dominating[center]

    def test_mass_splitting_random_functions(self):
        L, T, h = 5, 3, 1 / 8
        rng = np.random.default_rng(7)
        for _ in range(25):
            base = rng.standard_normal(L * round(1 / h))
            psi = periodic_extension_1d(base)
            dec = classify_sites(psi, T, L, h)
            total = dec.total_mass()
            assert dec.weak_mass() < 0.5 * total + 1e-12
            assert 2.0 * dec.dominating_mass() > total - 1e-12

    def test_tiling_identity_even_and_odd_windows(self):
        L, h = 5, 1 / 8
        rng = np.random.default_rng(1)
        base = rng.standard_normal(L * round(1 / h))
        psi = periodic_extension_1d(base)
        for T in (2, 3, 7):
            assert tiling_identity_defect(psi, T, L, h) < 1e-10

    def test_tiling_identity_2d(self):
        L, h = 3, 1 / 8
        rng = np.random.default_rng(2)
        base = rng.standard_normal((L * round(1 / h),) * 2)
        psi = np.tile(base, (3, 3))
        for T in (2, 3, 5):
            assert tiling_identity_defect(psi, T, L, h) < 1e-10

    def test_reflection_extension_tiling_identity(self):
        # the odd mirror extension satisfies the same resummation identity
        from uclab.discretization import extend
        from uclab.fields import CoefficientField

        L, h = 3, 1 / 8
        dom = CubeDomain(1, float(L), h, "dirichlet")
        x = dom.centers_1d()
        psi = np.sin(math.pi * (x + L / 2) / L) + 0.3 * np.sin(
            2 * math.pi * (x + L / 2) / L
        )
        fld = CoefficientField(
            dom, np.ones(dom.shape + (1, 1)), np.zeros(dom.shape + (1,)),
            np.zeros(dom.shape), np.zeros(dom.shape), 1.0, 0.0,
        )
        psi3, _, _ = extend(psi, fld)
        for T in (2, 3, 5):
            assert tiling_identity_defect(psi3, T, L, h) < 1e-10

    @pytest.mark.parametrize("T", [2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_site_masses_match_slice_sums(self, d, T):
        # each box summed on its own, its cells picked by their coordinates
        L, h = 3, 1 / 4
        psi = np.random.default_rng(3).standard_normal((3 * L * 4,) * d)
        dec = classify_sites(psi, T, L, h)
        for got, ref in zip((dec.unit_mass, dec.window_mass),
                            site_masses_by_slices(psi, T, L, h)):
            assert got.shape == ref.shape == (L,) * d
            assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_even_window_needs_an_even_cell_count(self):
        L = 3
        with pytest.raises(ValueError, match="T-window faces must align"):
            classify_sites(np.ones(3 * L * 3), 2, L, 1 / 3)
        assert classify_sites(np.ones(3 * L * 3), 3, L, 1 / 3).dominating.all()

    @pytest.mark.parametrize("T", [0, -1, True, 2.0, np.float64(3.0)])
    def test_window_side_must_be_an_integer_at_least_one(self, T):
        # T = 0 warned and marked every site weak, T = -1 gave negative window
        # masses, and True was read as 1
        psi = periodic_extension_1d(np.sin(np.arange(24.0)))  # L = 3, h = 1/8
        want = rf"^T must be an integer >= 1 that a double holds, got {re.escape(repr(T))}$"
        for check in (classify_sites, tiling_identity_defect):
            with pytest.raises(ValueError, match=want):
                check(psi, T, 3, 1 / 8)

    @pytest.mark.parametrize("L", [True, 3.0, np.float64(3.0), 0, -3, 2])
    def test_site_count_must_be_an_odd_integer_at_least_one(self, L):
        # L = True returned a decomposition and L = 3.0 ended in numpy's
        # casting TypeError
        psi = np.ones(3 * 8 * max(int(L), 1))  # h = 1/8
        want = (rf"^L must be odd, got {L!r}$" if L == 2
                else rf"^L must be an integer >= 1 that a double holds, got {re.escape(repr(L))}$")
        for check in (classify_sites, tiling_identity_defect):
            with pytest.raises(ValueError, match=want):
                check(psi, 1, L, 1 / 8)

    def test_window_exceeding_extension_rejected(self):
        L, h = 3, 1 / 4
        psi = np.ones(3 * L * 4)
        with pytest.raises(ValueError):
            classify_sites(psi, 2 * L + 3, L, h)


class TestWindowContainment:
    def test_printed_side_falls_short(self):
        # the printed window side misses the worst-case reach by ~2+sqrt(d)/2,
        # even for perfectly centered sequences
        for d in (1, 2, 3):
            for t1 in (1.0, 2.0):
                assert window_containment_margin(d, t1) < 0.0
                reach = NEAR_NEIGHBOR_SHIFT + window_ball_radius(d, t1)  # no wobble
                assert side_length_T(d, t1) / 2.0 - reach < 0.0

    def test_printed_side_falls_short_at_the_largest_dimension(self):
        assert window_containment_margin(int(sys.float_info.max), 1.0) < 0.0

    @pytest.mark.parametrize("window", [feasible_window_side, window_containment_margin],
                             ids=["feasible-theta1", "margin-theta1"])
    def test_a_side_past_the_double_range_is_named(self, window):
        # math.ceil of an infinite radius raised a bare OverflowError; theta1
        # reaches it, and a d that would is refused
        with pytest.raises(OverflowError, match=r"^window side 2\*inf is past the double "
                           r"range at d=3, theta1=1e\+308$"):
            window(3, 1e308)
        with pytest.raises(ValueError, match=r"^d must be an integer >= 1 that a double holds"):
            window(10**615, 1.0)

    def test_a_given_side_past_the_double_range_has_minus_infinite_margin(self):
        assert window_containment_margin(1, 1e308, T=5) == -math.inf

    def test_repaired_side_at_the_largest_dimension(self):
        d = int(sys.float_info.max)
        T_ok = feasible_window_side(d, 1.0)
        assert T_ok > side_length_T(d, 1.0)
        assert window_containment_margin(d, 1.0, T=T_ok) >= 0.0

    def test_repaired_side_is_feasible_and_minimal(self):
        for d in (1, 2, 3):
            for t1 in (1.0, 2.0):
                T_ok = feasible_window_side(d, t1)
                assert window_containment_margin(d, t1, T=T_ok) >= 0.0
                assert window_containment_margin(d, t1, T=T_ok - 1) < 0.0

    def test_a_given_side_is_checked_with_theta1(self):
        # theta1 was checked only when T was left to side_length_T
        with pytest.raises(ValueError, match=r"^theta1 must be a finite number >= 1, got nan$"):
            window_containment_margin(1, math.nan, T=39)
        for T in (0, -1, True, 39.0):
            want = rf"^T must be an integer >= 1 that a double holds, got {T!r}$"
            with pytest.raises(ValueError, match=want):
                window_containment_margin(1, 1.0, T=T)

    def test_ball_in_window_numerically(self):
        # direct geometric check with the repaired side: every point of the
        # shifted ball lies in the window cube
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            theta1 = 1.0
            R = math.sqrt(d) + 2.0
            radius = 2.0 * E * theta1 * R + R  # ball radius with D0 = R/2
            T = feasible_window_side(d, theta1)
            k = np.zeros(d)
            kp = k + NEAR_NEIGHBOR_SHIFT * np.eye(d)[0]
            z = kp + rng.uniform(-0.5, 0.5, size=d)
            dirs = rng.standard_normal((500, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            boundary = z + radius * dirs
            assert np.abs(boundary - k).max() <= T / 2.0


@seed(29)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([1, 3, 5]),
    c=st.sampled_from([1, 2, 4]),
    t=st.integers(0, 10),
    sd=st.integers(0, 1000),
)
def test_mass_splitting_and_tiling_on_periodic_extensions(d, L, c, t, sd):
    # any window side up to 2L + 1 that aligns with the grid; an even side
    # needs an even number c of cells per unit
    T = 1 + t % (2 * L + 1)
    T -= (T - 1) * c % 2
    assume((L * c) ** d <= 4096)
    base = np.random.default_rng(sd).standard_normal((L * c,) * d)
    psi = np.tile(base, (3,) * d)
    dec = classify_sites(psi, T, L, 1 / c)
    total = dec.total_mass()
    assert total == pytest.approx(float((base**2).sum()) / c**d, rel=1e-12)
    assert dec.weak_mass() < 0.5 * total * (1 + 1e-12)
    assert 2.0 * dec.dominating_mass() > total * (1 - 1e-12)
    assert tiling_identity_defect(psi, T, L, 1 / c) < 1e-10


@seed(1234)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([1, 2]),
    m=st.sampled_from([1, 3, 5]),
    delta_frac=st.floats(0.05, 0.95),
    sd=st.integers(0, 1000),
)
def test_containment_invariant_random(d, m, delta_frac, sd):
    G = 0.5
    delta = 0.5 * G * delta_frac
    s = generate_sequence(G, delta, m * G, d, "uniform_random", seed=sd)
    assert s.containment_margin() >= 0.0
