"""Cubes, equidistributed ball sequences, observation masks and the
dominating/weak site decomposition.

Conventions: the cube of side ``L`` is centered at the origin; grids are
cell-centered with spacing ``h`` (``L/h`` an integer) and discrete norms are
``h^d * sum(|psi|^2)`` over cell centers.  The Dirichlet sine mode
sin(k pi (x + L/2)/L) has one home, ``CubeDomain.sine_mode``, and so has the
radius of the cell centers, ``CubeDomain.center_radius``; |z|^2 has one,
:func:`abs_sq`, and the radius of a point set one, :func:`euclidean_radius`.
One ball of radius ``delta`` sits in each cell of the ``G``-lattice, and a
sequence whose ball leaves its cell is rejected, so a grid point can only be
covered by the ball of its own lattice cell: its block of ``G/h`` cells per
axis.  A placement is a value: its centers are a read-only float copy taken
once, and two placements are equal, and hash alike, when their G, delta, L,
d and center bytes are, so equal placements have equal runs on one grid.

:func:`ball_runs` is the one home of the ball predicate.  Along the grid's
last axis the covered cells of one block row form a single run, so a
placement is described by one ``[lo, hi)`` pair per row crossing a ball
instead of one flag per cell.  It takes a stack of placements that share
G, delta, L and d and finds the runs of all of them in one pass; a
placement's runs do not depend on the rest of the stack.
:func:`ball_cells` expands the runs of one placement (a stack of one) to
the sorted flat indices of the covered cells: a trial gathers its
eigenvector rows by them, and :func:`mask` sets them in a boolean grid.
A delta sweep reads the runs of all the placements of one radius against
row prefix sums instead.  Lengths are in cells, divided by h before any is
squared, so no square leaves the double range.  The run is exact: with
``p`` the squared distance over the first ``d - 1`` axes in axis order, a
cell is covered when ``fl(p + fl((x - z)^2)) < r^2``, ``r = delta/h``;
rounding is monotone, so the expression does not increase as ``x`` nears
the center ``z`` and the covered cells of a row are contiguous.  The ends
start from ``sqrt(r^2 - p)``, confirmed by the same expression.

:func:`classify_sites` sums ``h^d |psi|^2`` over each site's unit cube and
T-window one axis at a time, each box on its own, as ``mass_prefix`` restarts
per G-block, so a small site's mass is not lost beside large ones.
:func:`tiling_identity_defect` compares the window sums with a direct sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from uclab.constants import (BALL_RADIUS_ERROR, DIMENSION_ERROR, bound_error, is_ball_radius,
                             is_dimension, lattice_error, side_length_T, site_beta,
                             whole_cells, window_ball_radius, window_side)

__all__ = [
    "abs_sq",
    "euclidean_radius",
    "CubeDomain",
    "EquidistributedSequence",
    "SiteDecomposition",
    "generate_sequence",
    "ball_runs",
    "ball_cells",
    "mask",
    "classify_sites",
    "window_containment_margin",
    "feasible_window_side",
    "tiling_identity_defect",
]

BoundaryCondition = Literal["dirichlet", "periodic"]

# the site argument moves each ball to a near neighbor two units along the
# first axis; the window containment must cover that shift
NEAR_NEIGHBOR_SHIFT = 2.0


def abs_sq(z) -> np.ndarray:
    """|z|^2 as a float array for any numeric ``z``: a real z squared as a
    double, so an integer one does not wrap, and a complex z's modulus, a
    new array, squared in place."""
    if np.iscomplexobj(z):
        mod = np.abs(z)
        mod *= mod
        return mod
    return np.square(z, dtype=float)


def euclidean_radius(coords) -> np.ndarray:
    """sqrt of the sum of :func:`abs_sq` over ``coords``, coordinate arrays
    that broadcast together, added in their order."""
    return np.sqrt(sum(abs_sq(x) for x in coords))


def _lattice_axis(spacing: float, L: float, m: int) -> np.ndarray:
    """Centers -L/2 + (j + 1/2) spacing of m cells along one axis, shape (m,)."""
    return -L / 2.0 + (np.arange(m) + 0.5) * spacing


def _lattice(spacing: float, L: float, d: int, m: int) -> np.ndarray:
    """Centers of the m**d cells of side ``spacing``, shape (m,)*d + (d,)."""
    ax = _lattice_axis(spacing, L, m)
    out = np.empty((m,) * d + (d,))
    for k in range(d):  # coordinate k runs over the cell centers along axis k
        out[..., k] = ax.reshape((m,) + (1,) * (d - 1 - k))
    return out


@dataclass(frozen=True)
class CubeDomain:
    """Cell-centered tensor grid on the cube (-L/2, L/2)^d."""

    d: int
    L: float
    h: float
    bc: BoundaryCondition = "dirichlet"

    def __post_init__(self):
        if not is_dimension(self.d):
            raise ValueError(DIMENSION_ERROR.format("d", self.d))
        if bad := bound_error(">", 0, L=self.L, h=self.h):
            raise ValueError(bad)
        if (n := whole_cells(self.L, self.h)) is None or n < 2:
            raise ValueError(lattice_error(2, L=self.L, h=self.h))
        if self.bc not in ("dirichlet", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def n(self) -> int:
        """Cells per axis."""
        return round(self.L / self.h)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def centers_1d(self) -> np.ndarray:
        return _lattice_axis(self.h, self.L, self.n)

    def center_grid(self) -> np.ndarray:
        """Array of shape ``shape + (d,)`` with the cell-center coordinates."""
        return _lattice(self.h, self.L, self.d, self.n)

    def center_radius(self) -> np.ndarray:
        """Distance of each cell center from the origin, shape ``shape``: the
        squares of the coordinates summed over the axes in order."""
        return euclidean_radius(np.ix_(*[self.centers_1d()] * self.d))

    def sine_mode(self, k) -> np.ndarray:
        """sin(k pi (x + L/2)/L) = sin(pi k (m + 1/2)/n) at the cell centers
        x_m of one axis, shape (n,) + the shape of the integer (array) k; the
        phase is reduced exactly, as (2m + 1) k mod 4n, before the sine."""
        k, n = np.asarray(k), self.n
        cells = 2 * np.arange(n).reshape((n,) + (1,) * k.ndim) + 1
        return np.sin(2.0 * np.pi * (cells * k % (4 * n)) / (4 * n))

    def block_cells(self, G: float) -> int:
        """Cells per axis in one cell of the G-lattice, c = G/h; raises
        unless the grid spacing divides G and the blocks tile the cube."""
        if (c := whole_cells(G, self.h)) is None or c < 1:
            raise ValueError(lattice_error(1, G=G, h=self.h))
        if self.n % c:
            raise ValueError(f"G-blocks of {c} cells do not tile the {self.n} cells "
                             "per axis of the cube")
        return c

    def norm_sq(self, psi: np.ndarray, where: Optional[np.ndarray] = None) -> float:
        """``h^d * sum(|psi|^2)`` over the cube, or over a boolean grid ``where``."""
        psi = np.asarray(psi)
        if psi.shape != self.shape:
            raise ValueError("grid function shape mismatch")
        if where is not None:
            where = np.asarray(where)
            if where.dtype != bool or where.shape != self.shape:
                raise ValueError(f"where of dtype {where.dtype} and shape {where.shape} "
                                 f"is not a boolean grid of shape {self.shape}")
            psi = psi[where]
        return self.cell_volume * float(np.sum(abs_sq(psi)))


@dataclass(frozen=True, eq=False)
class EquidistributedSequence:
    """One ball center per cell of the G-lattice inside the cube; a value."""

    G: float
    delta: float
    L: float
    d: int
    centers: np.ndarray  # shape (m,)*d + (d,), m = L/G; read-only

    def __post_init__(self):
        # a complex center is refused, not cast to its real part
        centers = np.asarray(self.centers).astype(float, casting="same_kind")
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        if not is_dimension(self.d):
            raise ValueError(DIMENSION_ERROR.format("d", self.d))
        if bad := bound_error(">", 0, G=self.G, L=self.L):
            raise ValueError(bad)
        if not is_ball_radius(self.delta, self.G):
            raise ValueError(BALL_RADIUS_ERROR)
        m = self.cells_per_axis
        if self.centers.shape != (m,) * self.d + (self.d,):
            raise ValueError("center array shape mismatch")
        if not np.isfinite(self.centers).all():
            raise ValueError("ball centers must be finite")
        margin = self.containment_margin()
        if margin < 0.0:
            raise ValueError(f"a ball leaves its G-cell (containment margin {margin:.6g})")

    def _key(self) -> tuple:
        return self.G, self.delta, self.L, self.d, self.centers.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, EquidistributedSequence) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def cells_per_axis(self) -> int:
        if (m := whole_cells(self.L, self.G)) is None or m < 1:
            raise ValueError(lattice_error(1, L=self.L, G=self.G))
        return m

    def containment_margin(self) -> float:
        """min over cells of G/2 - delta - ||z_j - cell center||_inf; a
        sequence with a negative margin is rejected.  Each axis's offsets
        are read against the lattice's cell centers on that axis, so the
        check builds no (m,)*d + (d,) lattice."""
        m, d = self.cells_per_axis, self.d
        ax = _lattice_axis(self.G, self.L, m)
        off = 0.0
        for k in range(d):
            dist = np.abs(self.centers[..., k] - ax.reshape((m,) + (1,) * (d - 1 - k)))
            off = max(off, float(dist.max()))
        return float(self.G / 2.0 - self.delta - off)


def generate_sequence(
    G: float,
    delta: float,
    L: float,
    d: int,
    mode: Literal["centered", "uniform_random"] = "centered",
    seed: Optional[int] = None,
) -> EquidistributedSequence:
    """Place one delta-ball center per G-cell.

    ``centered`` puts each center at its cell center; ``uniform_random`` draws
    it uniformly from the shrunken cell so the ball stays strictly inside,
    from ``seed``, which it requires.
    """
    if bad := bound_error(">", 0, G=G, L=L):
        raise ValueError(bad)
    if not is_ball_radius(delta, G):
        raise ValueError(BALL_RADIUS_ERROR)
    if (m := whole_cells(L, G)) is None or m % 2 != 1:  # L, G > 0, so m >= 0
        raise ValueError(f"L/G={m} must be odd" if m else lattice_error(1, L=L, G=G))
    if not is_dimension(d):
        raise ValueError(DIMENSION_ERROR.format("d", d))
    lattice = _lattice(G, L, d, m)
    if mode == "centered":
        centers = lattice
    elif mode == "uniform_random":
        if seed is None:
            raise ValueError("uniform_random placement needs a seed")
        rng = np.random.default_rng(seed)
        half = G / 2.0 - delta
        offsets = rng.uniform(-half, half, size=lattice.shape)
        centers = lattice + offsets
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return EquidistributedSequence(G=G, delta=delta, L=L, d=d, centers=centers)


def ball_runs(
    seqs: Sequence[EquidistributedSequence], domain: CubeDomain
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cells whose center lies in some delta-ball, as runs along the last
    axis, for a stack of placements that share G, delta, L and d.

    Returns ``(placement, rows, lo, hi)``: run ``k`` covers cells
    ``lo[k] <= i < hi[k]`` of grid row ``rows[k]``, the flat index over the
    first ``d - 1`` axes, for the balls of ``seqs[placement[k]]``.  Only
    nonempty runs are returned, ordered by placement, then by the ball's
    block along the last axis and then by row; each lies inside the block
    of its ball, so the runs of one placement are disjoint.  A placement's
    runs, their order and their ends do not depend on the rest of the stack.

    Lengths are in cells: ``x``, ``z`` and ``r = delta/h`` are divided by h
    before any is squared.  Per ball and block row, ``p`` is the squared
    distance over the first ``d - 1`` axes, accumulated in axis order.  A
    cell at ``x`` is covered when ``p + (x - z)**2 < r**2`` in floating
    point (a center at exactly distance ``r`` is outside).  Rows with
    ``p >= r**2`` are empty.  On the others the cells left of the center ``z`` (``x < z``)
    are covered on a suffix and the cells right of it on a prefix, since the
    float expression is monotone in ``|x - z|``; each end starts from
    ``sqrt(r**2 - p)`` and moves until the predicate confirms it.
    """
    if not seqs:
        raise ValueError("need at least one placement")
    first_seq = seqs[0]
    for name in ("G", "delta", "L", "d"):
        values = sorted({getattr(seq, name) for seq in seqs})
        if len(values) > 1:
            raise ValueError(f"the placements of one stack must share {name}, got {values}")
    m = first_seq.cells_per_axis
    c = domain.block_cells(first_seq.G)
    if domain.d != first_seq.d or m * c != domain.n:  # one lattice of G-cells
        raise ValueError("sequence and domain are incompatible")
    d = domain.d
    h = domain.h
    x = np.arange(domain.n) + (1 - domain.n) / 2  # the cell centers over h, unrounded
    r2 = (first_seq.delta / h) ** 2
    # one entry per (placement, ball's block on the last axis, grid row):
    # axes (P, m) and then (m, c) per leading grid axis, so the inner axis
    # is a block row
    shape = (len(seqs), m) + (m, c) * (d - 1)
    ball_shape = [len(seqs), m] + [m, 1] * (d - 1)
    # the balls in that order: placement, then block on the last axis
    centers = np.stack([seq.centers for seq in seqs]) / h
    centers = centers.transpose((0, d, *range(1, d), d + 1)).reshape(-1, d)
    p = 0.0
    for k in range(d - 1):
        x_shape = [1] * (2 * d)
        x_shape[2 * k + 2:2 * k + 4] = (m, c)
        p = p + (x.reshape(x_shape) - centers[:, k].reshape(ball_shape)) ** 2
    # one line per (placement, block): its (m, c) axes flatten to grid rows
    p = np.broadcast_to(p, shape).reshape(len(seqs) * m, -1)
    live = p < r2  # fl(p + q) >= p, so the other rows are empty
    p = p[live]
    # each live entry's line, row and ball, repeated per line rather than
    # divided out of its flat index: line q holds the balls q*m**(d-1) + j,
    # j the row's G-cell over the first d - 1 axes in row-major order
    line = np.arange(len(seqs) * m)
    counts = np.count_nonzero(live, axis=1)
    rows = np.flatnonzero(live) - np.repeat(line * live.shape[1], counts)
    row_cell = np.zeros(1, dtype=np.intp)
    for _ in range(d - 1):
        row_cell = (row_cell[:, None] * m + np.arange(domain.n) // c).reshape(-1)
    ball = np.repeat(line * m ** (d - 1), counts) + row_cell[rows]
    placement, first = (np.repeat(v, counts) for v in np.divmod(line, m))
    first *= c
    # x[i] < z exactly for i < split: the sign of a float difference is exact
    z = centers[:, d - 1]
    split = np.clip(np.searchsorted(x, z)[ball], first, first + c)
    z = z[ball]
    x = np.append(x, math.inf)  # index n (and -1) is never covered

    def covered(i):
        return p + (x[i] - z) ** 2 < r2

    def edge(guess, a, b, inside):
        """First index in [a, b] where ``inside`` stops holding, for a
        predicate that holds on a prefix of [a, b)."""
        e = np.clip(guess, a, b)
        while True:
            down = (e > a) & ~inside(e - 1)
            up = (e < b) & inside(e)
            if not (down.any() or up.any()):
                return e
            e = e - down + up

    w = np.sqrt(r2 - p)
    hi = edge(np.ceil(z + w - x[0]).astype(np.intp), split, first + c, covered)
    lo = edge(np.floor(z - w - x[0]).astype(np.intp) + 1, first, split,
              lambda i: ~covered(i))
    keep = lo < hi
    return placement[keep], rows[keep], lo[keep], hi[keep]


def ball_cells(seq: EquidistributedSequence, domain: CubeDomain) -> np.ndarray:
    """Sorted row-major flat indices of the cells that :func:`ball_runs`
    covers for the one placement ``seq``: a gather by them visits cells in
    the order a boolean mask does.  The runs are disjoint, so ordering them
    by first cell orders the cells."""
    _, rows, lo, hi = ball_runs([seq], domain)
    starts = rows * domain.n + lo
    order = np.argsort(starts)
    starts, lengths = starts[order], (hi - lo)[order]
    # cell j of the concatenated runs is j plus its run's start minus the
    # number of cells in the runs before it
    before = np.cumsum(lengths) - lengths
    return np.repeat(starts - before, lengths) + np.arange(lengths.sum())


def mask(seq: EquidistributedSequence, domain: CubeDomain) -> np.ndarray:
    """Boolean grid marking cells whose center lies in some delta-ball.

    The grid is set at :func:`ball_cells`, which reads :func:`ball_runs`,
    the one place the ball predicate is evaluated, so the flags are exactly
    the cells that ``p + (x - z)**2 < delta**2`` admits, the squared
    distance accumulated in axis order; a center at exactly distance
    ``delta`` is outside.
    """
    flags = np.zeros(domain.n**domain.d, dtype=bool)
    flags[ball_cells(seq, domain)] = True
    return flags.reshape(domain.shape)


@dataclass(frozen=True, eq=False)
class SiteDecomposition:
    """Partition of the integer sites of the cube into dominating and weak;
    the arrays have shape (L,)*d, site ``-(L - 1)/2 + j`` at index j."""

    dominating: np.ndarray    # boolean
    unit_mass: np.ndarray     # ||psi||^2 over the unit cube at each site
    window_mass: np.ndarray   # ||psi||^2 over the T-window at each site

    @property
    def weak(self) -> np.ndarray:
        return ~self.dominating

    def weak_mass(self) -> float:
        return float(self.unit_mass[self.weak].sum())

    def dominating_mass(self) -> float:
        return float(self.unit_mass[self.dominating].sum())

    def total_mass(self) -> float:
        return float(self.unit_mass.sum())


def _window_sums(dens: np.ndarray, cells: int, starts: np.ndarray) -> np.ndarray:
    """Sums of ``dens`` over the boxes of ``cells`` cells per axis that start
    at ``starts`` on every axis, shape (len(starts),)*ndim, each box summed
    on its own, so a mass carries the rounding of its own box only."""
    out = dens
    for _ in range(dens.ndim):  # sum the leading axis, stack its boxes last
        out = np.stack([out[s:s + cells].sum(axis=0) for s in starts], axis=-1)
    return out


def classify_sites(
    psi_ext: np.ndarray, T: int, L: int, h: float
) -> SiteDecomposition:
    """Dominating/weak partition from a grid function extended to the 3L cube.

    ``psi_ext`` lives on the cell-centered grid of (-3L/2, 3L/2)^d.  A site is
    dominating when its unit-cube mass is >= 1/beta of its T-window mass, beta
    = 2 T^d (``site_beta``) as in the local estimate; ties count as dominating.
    L and T are integers >= 1, not bools, L odd; a ValueError names the bad one.
    """
    d = psi_ext.ndim
    if not is_dimension(L):
        raise ValueError(DIMENSION_ERROR.format("L", L))
    if L % 2 != 1:
        raise ValueError(f"L must be odd, got {L!r}")
    if (c := whole_cells(1.0, h)) is None or c < 1:
        raise ValueError(lattice_error(1, unit=1.0, h=h))
    if psi_ext.shape != (3 * L * c,) * d:
        raise ValueError("extended grid shape mismatch")
    if not is_dimension(T):
        raise ValueError(DIMENSION_ERROR.format("T", T))
    if T > 2 * L + 1:
        raise ValueError("window side T exceeds the 3L extension")
    # the window is centered on its site's unit cube, (T - 1)/2 units lower
    if (T - 1) * c % 2:
        raise ValueError("T-window faces must align with the grid")

    dens = abs_sq(psi_ext) * h**d
    # the unit cube of the j-th site starts L + j units into the 3L cube
    unit_starts = (L + np.arange(L)) * c
    unit_mass = _window_sums(dens, c, unit_starts)
    window_mass = _window_sums(dens, T * c, unit_starts - (T - 1) * c // 2)
    dominating = unit_mass >= window_mass / site_beta(d, T)
    return SiteDecomposition(dominating=dominating, unit_mass=unit_mass,
                             window_mass=window_mass)


def _window_reach(d: int, theta1: float) -> float:
    """Worst-case reach of the shifted ball (see
    :func:`window_containment_margin`)."""
    return NEAR_NEIGHBOR_SHIFT + math.sqrt(d) / 2.0 + window_ball_radius(d, theta1)


def window_containment_margin(d: int, theta1: float, T: Optional[int] = None) -> float:
    """Signed slack of the ball-in-window containment used by the site
    argument: T/2 minus the worst-case reach of the shifted ball.

    The reach is ``2 + sqrt(d)/2 + (2 e theta1 + 1) R`` with
    ``R = sqrt(d) + 2`` (near-neighbor shift, center wobble within its cell,
    ball radius).  With the printed window side this is negative by about
    ``2 + sqrt(d)/2``: the printed side is too small for the containment as
    stated, which :func:`feasible_window_side` repairs.
    """
    if not is_dimension(d):
        raise ValueError(DIMENSION_ERROR.format("d", d))
    if bad := bound_error(">=", 1, theta1=theta1):
        raise ValueError(bad)
    if T is None:
        T = side_length_T(d, theta1)
    elif not is_dimension(T):
        raise ValueError(DIMENSION_ERROR.format("T", T))
    return T / 2.0 - _window_reach(d, theta1)


def feasible_window_side(d: int, theta1: float) -> int:
    """Smallest integer window side making the containment margin >= 0;
    :func:`~uclab.constants.window_side` raises OverflowError past doubles."""
    if not is_dimension(d):
        raise ValueError(DIMENSION_ERROR.format("d", d))
    if bad := bound_error(">=", 1, theta1=theta1):
        raise ValueError(bad)
    return window_side(_window_reach(d, theta1), d, theta1)


def tiling_identity_defect(psi_ext: np.ndarray, T: int, L: int, h: float) -> float:
    """Relative defect of the window-resummation identity: the sum of T-window
    masses over all sites equals T^d times the base-cube mass."""
    d = psi_ext.ndim
    dec = classify_sites(psi_ext, T, L, h)
    lhs = float(dec.window_mass.sum())
    c = whole_cells(1.0, h)
    base_cube = (slice(L * c, 2 * L * c),) * d
    base = float(abs_sq(psi_ext[base_cube]).sum() * h**d)
    rhs = float(T) ** d * base
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)
