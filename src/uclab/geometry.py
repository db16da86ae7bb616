"""Cubes, equidistributed ball sequences, observation masks and the
dominating/weak site decomposition.

Conventions: the cube of side ``L`` is centered at the origin; grids are
cell-centered with spacing ``h`` (``L/h`` an integer) and discrete norms are
``h^d * sum(|psi|^2)`` over cell centers.  One ball of radius ``delta`` sits
in each cell of the ``G``-lattice, so a grid point can only be covered by the
ball of its own lattice cell.  ``mask`` uses this: it evaluates the distance
block by block, one block of ``G/h`` cells per axis for each ball, and never
gathers a center per grid cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from uclab.constants import EULER, side_length_T

__all__ = [
    "CubeDomain",
    "EquidistributedSequence",
    "SiteDecomposition",
    "generate_sequence",
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


@dataclass(frozen=True)
class CubeDomain:
    """Cell-centered tensor grid on the cube (-L/2, L/2)^d."""

    d: int
    L: float
    h: float
    bc: BoundaryCondition = "dirichlet"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        for name in ("L", "h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        n = self.L / self.h
        if abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ValueError("L/h must be an integer >= 2")
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
        return -self.L / 2.0 + (np.arange(self.n) + 0.5) * self.h

    def center_grid(self) -> np.ndarray:
        """Array of shape ``shape + (d,)`` with the cell-center coordinates."""
        axes = np.meshgrid(*([self.centers_1d()] * self.d), indexing="ij")
        return np.stack(axes, axis=-1)

    def norm_sq(self, psi: np.ndarray, where: Optional[np.ndarray] = None) -> float:
        psi = np.asarray(psi)
        if psi.shape != self.shape:
            raise ValueError("grid function shape mismatch")
        if where is not None:
            psi = psi[where]
        return self.cell_volume * float(np.sum(np.abs(psi) ** 2))


def _lattice(G: float, L: float, d: int, m: int) -> np.ndarray:
    """Centers of the m**d cells of the G-lattice, shape (m,)*d + (d,)."""
    ax = -L / 2.0 + (np.arange(m) + 0.5) * G
    return np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1)


@dataclass(frozen=True)
class EquidistributedSequence:
    """One ball center per cell of the G-lattice inside the cube."""

    G: float
    delta: float
    L: float
    d: int
    centers: np.ndarray  # shape (m,)*d + (d,), m = L/G

    def __post_init__(self):
        if not 0.0 < self.delta < self.G / 2.0:
            raise ValueError("delta must lie in (0, G/2)")
        m = self.cells_per_axis
        if self.centers.shape != (m,) * self.d + (self.d,):
            raise ValueError("center array shape mismatch")

    @property
    def cells_per_axis(self) -> int:
        m = self.L / self.G
        if abs(m - round(m)) > 1e-9:
            raise ValueError("L/G must be an integer")
        return round(m)

    def lattice_points(self) -> np.ndarray:
        """Cell centers of the G-lattice, shape (m,)*d + (d,)."""
        return _lattice(self.G, self.L, self.d, self.cells_per_axis)

    def containment_margin(self) -> float:
        """min over cells of G/2 - delta - ||z_j - cell center||_inf; >= 0 by
        construction."""
        off = np.abs(self.centers - self.lattice_points()).max(axis=-1)
        return float(self.G / 2.0 - self.delta - off.max())


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
    it uniformly from the shrunken cell so the ball stays strictly inside.
    """
    if not 0.0 < delta < G / 2.0:
        raise ValueError("delta must lie in (0, G/2)")
    m = L / G
    if abs(m - round(m)) > 1e-9 or round(m) % 2 != 1:
        raise ValueError("L/G must be an odd positive integer")
    lattice = _lattice(G, L, d, round(m))
    if mode == "centered":
        centers = lattice
    elif mode == "uniform_random":
        rng = np.random.default_rng(seed)
        half = G / 2.0 - delta
        offsets = rng.uniform(-half, half, size=lattice.shape)
        centers = lattice + offsets
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return EquidistributedSequence(G=G, delta=delta, L=L, d=d, centers=centers)


def mask(seq: EquidistributedSequence, domain: CubeDomain) -> np.ndarray:
    """Boolean grid marking cells whose center lies in some delta-ball.

    The grid is viewed in blocks, shape ``(m, c) * d`` with ``m`` G-cells per
    axis and ``c = G/h`` grid cells per G-cell, so block index ``j`` names the
    owning ball.  The squared distance to that ball's center is accumulated
    one axis at a time, in axis order, by broadcasting the 1-d coordinates
    against the centers; that is the same sum, in the same order, as reducing
    the full coordinate difference over its last axis.  A center at exactly
    distance ``delta`` is outside (strict ``<``).
    """
    if domain.d != seq.d or abs(domain.L - seq.L) > 1e-12:
        raise ValueError("sequence and domain are incompatible")
    m = seq.cells_per_axis
    c = round(seq.G / domain.h)
    if abs(seq.G / domain.h - c) > 1e-9 or m * c != domain.n:
        raise ValueError("grid spacing must divide G")
    d = domain.d
    x = domain.centers_1d().reshape(m, c)
    dist2 = 0.0
    for k in range(d):
        x_shape = [1] * (2 * d)
        x_shape[2 * k:2 * k + 2] = (m, c)
        diff = x.reshape(x_shape) - seq.centers[..., k].reshape([m, 1] * d)
        dist2 = dist2 + diff**2
    return (dist2 < seq.delta**2).reshape(domain.shape)


@dataclass(frozen=True)
class SiteDecomposition:
    """Partition of integer sites of the cube into dominating and weak."""

    T: int
    L: int
    sites: np.ndarray         # (m,)*d + (d,) integer site coordinates
    dominating: np.ndarray    # boolean, shape (m,)*d
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


def _window_sums(dens_ext: np.ndarray, cells: int, starts: np.ndarray,
                 d: int) -> np.ndarray:
    """Sums of ``dens_ext`` over all d-dim windows of ``cells`` cells per axis
    anchored at the given start indices (one start array per axis)."""
    # summed-area table with a zero layer in front
    sat = dens_ext
    for ax in range(d):
        sat = np.cumsum(sat, axis=ax)
        pad = [(0, 0)] * d
        pad[ax] = (1, 0)
        sat = np.pad(sat, pad)
    lo = starts
    hi = starts + cells
    # inclusion-exclusion over the 2^d window corners, all windows at once
    out = np.zeros((len(starts),) * d)
    for signs in np.ndindex(*(2,) * d):
        corner = [hi if sign == 0 else lo for sign in signs]
        out += (-1) ** sum(signs) * sat[np.ix_(*corner)]
    return out


def classify_sites(
    psi_ext: np.ndarray, T: int, L: int, h: float
) -> SiteDecomposition:
    """Dominating/weak partition from a grid function extended to the 3L cube.

    ``psi_ext`` lives on the cell-centered grid of (-3L/2, 3L/2)^d.  A site is
    dominating when its unit-cube mass is at least ``1/(2 T^d)`` of its
    T-window mass; ties count as dominating.
    """
    d = psi_ext.ndim
    if L % 2 != 1:
        raise ValueError("L must be an odd integer")
    cells_per_unit = round(1.0 / h)
    if abs(1.0 / h - cells_per_unit) > 1e-9:
        raise ValueError("h must divide 1")
    n_ext = 3 * L * cells_per_unit
    if psi_ext.shape != (n_ext,) * d:
        raise ValueError("extended grid shape mismatch")
    if T > 2 * L + 1:
        raise ValueError("window side T exceeds the 3L extension")

    dens = (np.abs(psi_ext) ** 2) * h**d
    # site k runs over integers -(L-1)/2 .. (L-1)/2; in extended grid indices
    # the unit cube at site k starts at (k + 3L/2 - 1/2) * cells_per_unit
    k0 = -(L - 1) // 2
    site_vals = np.arange(k0, k0 + L)
    unit_starts = (site_vals + (3 * L - 1) / 2.0) * cells_per_unit
    unit_starts = np.round(unit_starts).astype(int)
    win_starts = (site_vals + (3 * L - T) / 2.0) * cells_per_unit
    win_starts_r = np.round(win_starts).astype(int)
    if np.max(np.abs(win_starts - win_starts_r)) > 1e-9:
        raise ValueError("T-window faces must align with the grid")
    unit_mass = _window_sums(dens, cells_per_unit, unit_starts, d)
    window_mass = _window_sums(dens, T * cells_per_unit, win_starts_r, d)
    dominating = unit_mass >= window_mass / (2.0 * float(T) ** d)
    sites = np.stack(
        np.meshgrid(*([site_vals.astype(float)] * d), indexing="ij"), axis=-1
    )
    return SiteDecomposition(
        T=T, L=L, sites=sites, dominating=dominating,
        unit_mass=unit_mass, window_mass=window_mass,
    )


def _window_reach(d: int, theta1: float, center_offset: Optional[float] = None) -> float:
    """Worst-case reach of the shifted ball (see
    :func:`window_containment_margin`); the offset defaults to sqrt(d)/2."""
    if center_offset is None:
        center_offset = math.sqrt(d) / 2.0
    R = math.sqrt(d) + 2.0
    return NEAR_NEIGHBOR_SHIFT + center_offset + (2.0 * EULER * theta1 + 1.0) * R


def window_containment_margin(
    d: int, theta1: float, T: Optional[int] = None, center_offset: Optional[float] = None
) -> float:
    """Signed slack of the ball-in-window containment used by the site
    argument: T/2 minus the worst-case reach of the shifted ball.

    The reach is ``2 + offset + (2 e theta1 + 1) R`` with ``R = sqrt(d) + 2``
    (near-neighbor shift, center wobble within its cell, ball radius).  With
    the printed window side this is negative by about ``2 + sqrt(d)/2``: the
    printed side is too small for the containment as stated, which
    :func:`feasible_window_side` repairs.
    """
    if T is None:
        T = side_length_T(d, theta1)
    return T / 2.0 - _window_reach(d, theta1, center_offset)


def feasible_window_side(d: int, theta1: float) -> int:
    """Smallest integer window side making the containment margin >= 0."""
    return math.ceil(2.0 * _window_reach(d, theta1))


def tiling_identity_defect(psi_ext: np.ndarray, T: int, L: int, h: float) -> float:
    """Relative defect of the window-resummation identity: the sum of T-window
    masses over all sites equals T^d times the base-cube mass."""
    d = psi_ext.ndim
    dec = classify_sites(psi_ext, T, L, h)
    lhs = float(dec.window_mass.sum())
    cells_per_unit = round(1.0 / h)
    lo = L * cells_per_unit
    hi = 2 * L * cells_per_unit
    sl = tuple(slice(lo, hi) for _ in range(d))
    base = float((np.abs(psi_ext[sl]) ** 2).sum() * h**d)
    rhs = float(T) ** d * base
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)
