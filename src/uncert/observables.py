"""Observables as state -> outcome-distribution kernels.

One :class:`Kernel` type covers sharp position/momentum, their convolution
smearings, the marginals of covariant phase-space observables (built by
:func:`phase_marginal` through the parity identity with the generator) and
their warped, possibly non-covariant variants.  The full 2-D joint
distribution and its covariance check follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridMeasure, GridSpec, convolve, convolve_localized, reflect
from .states import (
    MixedState,
    displace_mixed,
    momentum_distribution,
    momentum_grid,
    parity_mixed,
    position_distribution,
)


class MassDeficitError(ValueError):
    """Outcome window too small: it misses a non-negligible part of the mass."""


# ---------------------------------------------------------------------------
# Warp maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Monotone piecewise-linear bijection given by strictly increasing knots.

    Outside the knot range the map continues with the end-segment slopes.
    """

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("need matching 1-D knot arrays with >= 2 entries")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("knots must be finite")
        with np.errstate(all="ignore"):  # an overflowing rise or run reads inf
            runs = np.diff(xs)
            slopes = np.diff(ys) / runs
        if not ((runs > 0).all() and (slopes > 0).all() and np.isfinite(slopes).all()):
            raise ValueError("knots must be strictly increasing in both coordinates, "
                             "with finite slopes")
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "ys", tuple(ys))

    def _eval(self, x, xs, ys):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, ys)
        lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(x < xs[0], ys[0] + (x - xs[0]) * lo_slope, out)
        out = np.where(x > xs[-1], ys[-1] + (x - xs[-1]) * hi_slope, out)
        return out

    def __call__(self, x):
        return self._eval(x, np.asarray(self.xs), np.asarray(self.ys))

    def inverse(self, y):
        return self._eval(y, np.asarray(self.ys), np.asarray(self.xs))

    @property
    def displacement_bound(self) -> float:
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        return float(np.max(np.abs(ys - xs)))

    @property
    def is_shift(self) -> bool:
        """Every slope is 1 to within 1e-12: the map is x -> x + c."""
        slopes = np.diff(self.ys) / np.diff(self.xs)
        return bool((np.abs(slopes - 1.0) <= 1e-12).all())

    @classmethod
    def identity(cls, lo: float, hi: float) -> "PiecewiseLinearMap":
        return cls((lo, hi), (lo, hi))

    @classmethod
    def shift(cls, lo: float, hi: float, offset: float) -> "PiecewiseLinearMap":
        return cls((lo, hi), (lo + offset, hi + offset))


@dataclass(frozen=True)
class WarpMap:
    """Pair of monotone maps (gamma_q, gamma_p) with bounded displacement."""

    gamma_q: PiecewiseLinearMap
    gamma_p: PiecewiseLinearMap

    @property
    def bound_q(self) -> float:
        return self.gamma_q.displacement_bound

    @property
    def bound_p(self) -> float:
        return self.gamma_p.displacement_bound


def pushforward(P: GridMeasure, gmap: PiecewiseLinearMap) -> GridMeasure:
    """Image measure of P under gmap, re-binned onto the same grid.

    Each point mass moves to the output cell containing its image, so total
    mass is conserved exactly; images beyond the grid pile up at the edges.
    """
    g = P.grid
    w = np.zeros(g.n)
    np.add.at(w, _warp_cells(g, gmap), P.weights)
    return GridMeasure(g, w)


def _warp_cells(g: GridSpec, gmap: PiecewiseLinearMap) -> np.ndarray:
    """Index of the cell of g nearest to gmap's image of each point of g,
    clipped to the grid before the integer cast, so an image far past the
    grid, even an overflowing one, lands on the edge cell; nondecreasing
    because gmap is increasing."""
    with np.errstate(over="ignore"):
        cells = np.rint((gmap(g.points()) - g.x_min) / g.dx)
    return np.clip(cells, 0, g.n - 1).astype(int)


# ---------------------------------------------------------------------------
# Observable kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """Maps a MixedState to a normalized GridMeasure of outcomes.

    The outcome is the sharp distribution along `axis` ("q" or "p"),
    convolved with the reflected smearing `measure` (None for a sharp
    kernel) and pushed through the warp map `gmap` (None for an unwarped
    kernel); translation covariance follows from the map.
    """

    axis: str
    measure: GridMeasure | None = None
    gmap: PiecewiseLinearMap | None = None

    def __post_init__(self):
        if self.axis not in ("q", "p"):
            raise ValueError(f"axis must be 'q' or 'p', got {self.axis!r}")

    @property
    def covariant(self) -> bool:
        return self.gmap is None or self.gmap.is_shift

    def smear(self, P: GridMeasure, conv=None) -> GridMeasure:
        """Outcome distribution of any state whose sharp `axis` distribution is P.

        The convolution `conv` defaults to grids.convolve_localized, which
        works on the cells where P is nonzero and suits a localized P such
        as a point mass (O(n_mu) for one cell); pass grids.convolve for a
        spread-out P.  Verification builds one kind of outcome only, a point
        mass's for a shift-warped kernel's resolution: calibration and the
        other resolutions read prefix sums of the smearing measure
        (metrology._CenteredWindows) or, unwarped, its overall width.
        """
        mu = self.measure
        out = P if mu is None else (conv or convolve_localized)(P, reflect(mu))
        return out if self.gmap is None else pushforward(out, self.gmap)

    def outcome_distribution(self, rho: MixedState) -> GridMeasure:
        sharp = position_distribution(rho) if self.axis == "q" else momentum_distribution(rho)
        return self.smear(sharp, convolve)


def marginal_measures(gen: MixedState):
    """Smearing measures (mu_m, nu_m) of the observable generated by gen.

    Both come from the parity-transformed generator: mu_m is its position
    distribution, nu_m its momentum distribution.
    """
    flipped = parity_mixed(gen)
    return position_distribution(flipped), momentum_distribution(flipped)


def phase_marginal(gen: MixedState, axis: str, warp: WarpMap | None = None) -> Kernel:
    """Marginal along `axis` of the covariant observable generated by gen,
    pushed through warp's map for that axis when a warp is given (the
    warped observable may then be non-covariant).

    Computed through the convolution identity with the parity marginal
    measure, built for this axis only; the 2-D joint-distribution route is
    kept as a cross-check in :func:`joint_distribution`.
    """
    flipped = parity_mixed(gen)
    measure = position_distribution(flipped) if axis == "q" else momentum_distribution(flipped)
    gmap = None if warp is None else (warp.gamma_q if axis == "q" else warp.gamma_p)
    return Kernel(axis, measure, gmap)


# ---------------------------------------------------------------------------
# 2-D joint distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceObservable:
    """Covariant observable: generator state plus 2-D outcome grid.

    The q outcome grid must be a subset of the state grid translates
    (q values are multiples of dx) and the p outcome grid a subset of the
    Fourier-conjugate grid, so displacement covariance is grid-exact.
    """

    gen: MixedState
    q_grid: GridSpec
    p_grid: GridSpec


@dataclass(frozen=True)
class JointDistribution:
    q_grid: GridSpec
    p_grid: GridSpec
    density: np.ndarray  # shape (n_q, n_p), probability per unit area
    hbar: float

    @property
    def cell_area(self) -> float:
        return self.q_grid.dx * self.p_grid.dx

    @property
    def total_mass(self) -> float:
        return float(self.density.sum() * self.cell_area)

    def marginal_q(self) -> GridMeasure:
        return GridMeasure(self.q_grid, self.density.sum(axis=1) * self.cell_area)

    def marginal_p(self) -> GridMeasure:
        return GridMeasure(self.p_grid, self.density.sum(axis=0) * self.cell_area)


def aligned_window(grid: GridSpec, half_width: float, stride: int = 1) -> GridSpec:
    """Symmetric sub-grid of `grid` within +-half_width, every `stride`-th point.

    A half-width that lands on a window point up to 1e-9 of a window step
    keeps that point, so float rounding never drops the edge points.
    """
    center = grid.nearest_index(0.0)
    k = math.floor(half_width / (grid.dx * stride) + 1e-9)
    lo = center - k * stride
    hi = center + k * stride
    if lo < 0 or hi >= grid.n:
        raise ValueError(f"window half-width {half_width} exceeds the grid")
    return GridSpec(grid.points()[lo], grid.dx * stride, 2 * k + 1)


def _component_overlap_sq(psi_amps, phi_amps, dx: float, q_shifts, cols):
    """|<psi| W(q, p) |phi>|^2 at the q shifts (rows) and fftshift columns `cols`.

    The amplitude at shift s and frequency k is
    amp(s, k) = dx * sum_j conj(psi_j) w^(jk) phi_(j-s), w = exp(2*pi*i/n),
    and column c of the centered conjugate grid is k = (c - n/2) mod n.
    For fixed k this is a circular cross-correlation over s with spectrum
    roll(A, k) * B, A = fft(conj psi), B = fft(y), y_t = phi_(-t mod n).
    The shifts s = s0 + stride*i need only that spectrum folded into
    L = n / gcd(stride, n) bins (after a phase w^(m*s0)) and one L-point
    inverse FFT, read at every (stride/g)-th sample.  `q_shifts` must be
    that arithmetic progression.

    Cost: O(n log n) once, then O(n + L log L) per kept column; memory
    O(n + n_q * n_p).  The alternative row route (one n-point FFT per q
    shift over the whole p grid) costs O(n_q * n log n) time and n_q * n
    memory, so this route wins whenever the p window is narrow (n_p << n),
    as in every caller.
    """
    n = psi_amps.size
    stride = int(q_shifts[1] - q_shifts[0]) if q_shifts.size > 1 else 1
    g = math.gcd(stride, n)
    L = n // g
    take = (stride // g) * np.arange(q_shifts.size) % L
    A = np.fft.fft(np.conj(psi_amps))
    AA = np.concatenate([A, A])          # AA[n - k : 2n - k] == roll(A, k)
    B = np.fft.fft(np.roll(phi_amps[::-1], 1))
    B *= np.exp(2j * math.pi * (np.arange(n) * int(q_shifts[0]) % n) / n)
    out = np.empty((q_shifts.size, len(cols)))
    for i, c in enumerate(cols):
        k = (int(c) - n // 2) % n
        folded = (AA[n - k:2 * n - k] * B).reshape(g, L).sum(axis=0)
        out[:, i] = np.abs(np.fft.ifft(folded)[take]) ** 2
    return out * ((L / n) * dx) ** 2


def joint_distribution(G: PhaseSpaceObservable, rho: MixedState,
                       warp_map: WarpMap | None = None) -> JointDistribution:
    """Outcome density of G in state rho over the observable's 2-D window.

    Cell-by-cell midpoint evaluation of the displaced-generator overlap
    (1/2*pi*hbar) tr[rho W(q,p) m W(q,p)*], one kept momentum column at a
    time (see :func:`_component_overlap_sq` for the cost model): time
    O(pairs * n_p * (n + L log L)), memory O(n + n_q * n_p).  Raises
    MassDeficitError when the window misses more than 1e-3 of the mass.
    """
    grid = rho.grid
    hbar = rho.hbar
    if G.gen.grid != grid or G.gen.hbar != hbar:
        raise ValueError("generator and state must share grid and hbar")
    pg = momentum_grid(grid, hbar)

    q_pts = G.q_grid.points()
    q_shift_f = q_pts / grid.dx
    q_shifts = np.rint(q_shift_f).astype(int)
    if np.max(np.abs(q_shift_f - q_shifts)) > 1e-6:
        raise ValueError("q outcome points must be multiples of the state grid step")
    if not (grid.contains(G.q_grid.x_min) and grid.contains(G.q_grid.x_max)):
        # q shifts are circular: a row past the grid would repeat another row
        raise ValueError("q outcome window exceeds the state grid")
    p_pts = G.p_grid.points()
    col_f = (p_pts - pg.x_min) / pg.dx
    cols = np.rint(col_f).astype(int)
    if np.max(np.abs(col_f - cols)) > 1e-6:
        raise ValueError("p outcome points must lie on the conjugate grid")
    if cols.min() < 0 or cols.max() >= pg.n:
        raise ValueError("p outcome window exceeds the conjugate grid")

    dens = np.zeros((G.q_grid.n, G.p_grid.n))
    for wa, psi in rho.components:
        for vb, phi in G.gen.components:
            dens += (wa * vb) * _component_overlap_sq(psi.amps, phi.amps, grid.dx,
                                                      q_shifts, cols)
    dens /= 2.0 * math.pi * hbar

    jd = JointDistribution(G.q_grid, G.p_grid, dens, hbar)
    if warp_map is not None:
        jd = warp_joint(jd, warp_map)
    if jd.total_mass < 1.0 - 1e-3:
        raise MassDeficitError(
            f"outcome window q in [{G.q_grid.x_min:.3g}, {G.q_grid.x_max:.3g}], "
            f"p in [{G.p_grid.x_min:.3g}, {G.p_grid.x_max:.3g}] captures only "
            f"{jd.total_mass:.6f} of the mass")
    return jd


def warp_joint(jd: JointDistribution, warp_map: WarpMap) -> JointDistribution:
    """Pushforward of a joint distribution through (gamma_q, gamma_p)."""
    masses = jd.density * jd.cell_area
    qg, pg = jd.q_grid, jd.p_grid
    qi = _warp_cells(qg, warp_map.gamma_q)
    pi = _warp_cells(pg, warp_map.gamma_p)
    out = np.zeros_like(masses)
    np.add.at(out, qi, masses)          # warp rows
    out2 = np.zeros_like(out)
    np.add.at(out2.T, pi, out.T)        # warp columns
    return JointDistribution(qg, pg, out2 / jd.cell_area, jd.hbar)


def covariance_residual(G: PhaseSpaceObservable, rho: MixedState, q: float, p: float,
                        warp_map: WarpMap | None = None) -> float:
    """Max-abs density mismatch between displacing the state and shifting outcomes."""
    kq_f = q / G.q_grid.dx
    kp_f = p / G.p_grid.dx
    kq, kp = int(round(kq_f)), int(round(kp_f))
    if abs(kq_f - kq) > 1e-6 or abs(kp_f - kp) > 1e-6:
        raise ValueError("displacement must be a multiple of the outcome grid steps")
    base = joint_distribution(G, rho, warp_map)
    moved = joint_distribution(G, displace_mixed(rho, q, p), warp_map)
    shifted = np.roll(base.density, (kq, kp), axis=(0, 1))
    return float(np.max(np.abs(moved.density - shifted)))
