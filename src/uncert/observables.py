"""Observables as state -> outcome-distribution kernels.

One :class:`Kernel` type covers sharp position/momentum, their convolution
smearings, the marginals of covariant phase-space observables (a Kernel on
one of :func:`marginal_measures`, the generator's own marginals, reflected)
and their warped, possibly non-covariant variants.  The full 2-D joint
distribution, warped in place when a warp is given, and its covariance
check follow.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grids import BLOCK, GridMeasure, GridSpec, _Handed, convolve, reflect
from .states import (
    MixedState,
    displace_mixed,
    momentum_distribution,
    momentum_grid,
    parity_offset,
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

    def __call__(self, x):
        """The map at x, an array of x's shape (0-d for a scalar).  np.interp's
        result is extrapolated in place, each point outside the knots by its
        end segment, y0 + (x - x0) * slope; points inside are not touched."""
        x = np.asarray(x, dtype=float)
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        out = np.asarray(np.interp(x, xs, ys))
        lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        lo = x < xs[0]
        out[lo] = ys[0] + (x[lo] - xs[0]) * lo_slope
        hi = x > xs[-1]
        out[hi] = ys[-1] + (x[hi] - xs[-1]) * hi_slope
        return out

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


def pushforward(P: GridMeasure, gmap: PiecewiseLinearMap) -> GridMeasure:
    """Image measure of P under gmap, re-binned onto the same grid.

    Each point mass moves to the output cell containing its image, so total
    mass is conserved exactly; images beyond the grid pile up at the edges.
    """
    g = P.grid
    return GridMeasure(g, _Handed(np.bincount(_warp_cells(g, gmap), P.weights, g.n)))


def _warp_cells(g: GridSpec, gmap: PiecewiseLinearMap, *span) -> np.ndarray:
    """Index of the cell of g nearest to gmap's image of each point j of g in
    range(*span), all n points by default (the span of
    :meth:`GridSpec.points`), clipped to the grid before the integer cast,
    so an image far past the grid, even an overflowing one, lands on the
    edge cell; nondecreasing in j because gmap is increasing.

    The int64 result is filled block by block of BLOCK points: each
    block's points come from :meth:`GridSpec.points`, and their image is
    shifted, scaled, rounded and clipped in place, then cast into the
    result.  Every step is elementwise, so the cells are those of the
    whole-array form, which holds n floats of points, their n-float image
    and its masks besides the result, and a span's cells are the matching
    slice of the whole map's."""
    js = range(*span) if span else range(g.n)
    cells = np.empty(len(js), dtype=int)
    for start in range(0, len(js), BLOCK):
        block = js[start:start + BLOCK]
        x = g.points(block.start, block.stop, block.step)
        with np.errstate(over="ignore"):
            y = gmap(x)
            y -= g.x_min
            y /= g.dx
            np.rint(y, out=y)
        np.clip(y, 0, g.n - 1, out=y)
        cells[start:start + y.size] = y
    return cells


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

    def smear(self, P: GridMeasure) -> GridMeasure:
        """Outcome distribution of any state whose sharp `axis` distribution
        is P: P convolved with the reflected smearing measure, then pushed
        through the warp map.  Verification reads widths off the smearing
        measure instead (metrology._axis_pass) and builds no outcome here."""
        mu = self.measure
        out = P if mu is None else convolve(P, reflect(mu))
        return out if self.gmap is None else pushforward(out, self.gmap)

    def outcome_distribution(self, rho: MixedState) -> GridMeasure:
        sharp = position_distribution(rho) if self.axis == "q" else momentum_distribution(rho)
        return self.smear(sharp)


def marginal_measures(gen: MixedState):
    """Smearing measures (mu_m, nu_m) of the observable generated by gen: its
    position and momentum distributions reflected, each on its own axis grid.
    With m = parity_offset, -x_j = x_{(m - j) mod n}, and on the centered
    conjugate grid -p_c = p_{(n - c) mod n} whatever m is.  nu is built
    first, and each distribution is reflected in place by :func:`_reflected`,
    so one n-float array is held per measure, and the momentum FFT's
    spectrum is freed before mu's array is made."""
    m = parity_offset(gen.grid)
    nu = _reflected(momentum_distribution(gen), 0)
    return _reflected(position_distribution(gen), m), nu


def _reflected(P: GridMeasure, m: int) -> GridMeasure:
    """The measure of P reflected, P.weights[(m - j) mod n] at j, in P's own
    weights: P must be a distribution just built and held nowhere else,
    since its array is reflected in place and handed to the new measure,
    which normalizes it again, as a measure built from a copy would.  With
    m' = m mod n the reflection is reverse(w[:m' + 1]) ++ reverse(w[m' + 1:]);
    each run is reversed by swapping blocks of at most BLOCK floats
    from its two ends inward, which only moves elements."""
    w = P.weights
    w.flags.writeable = True
    m %= w.size
    block = np.empty(min(BLOCK, w.size))
    for run in (w[:m + 1], w[m + 1:]):
        i, j = 0, run.size
        while j - i > 1:
            k = min(block.size, (j - i) // 2)
            t = block[:k]
            t[...] = run[i:i + k]
            run[i:i + k] = run[j - k:j][::-1]
            run[j - k:j] = t[::-1]
            i, j = i + k, j - k
    return GridMeasure(P.grid, _Handed(w))


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

    @property
    def cell_area(self) -> float:
        return self.q_grid.dx * self.p_grid.dx

    @property
    def total_mass(self) -> float:
        return float(self.density.sum() * self.cell_area)

    def marginal_q(self) -> GridMeasure:
        return GridMeasure(self.q_grid, _Handed(self.density.sum(axis=1) * self.cell_area))

    def marginal_p(self) -> GridMeasure:
        return GridMeasure(self.p_grid, _Handed(self.density.sum(axis=0) * self.cell_area))


def aligned_window(grid: GridSpec, half_width: float, stride: int = 1) -> GridSpec:
    """Symmetric sub-grid of `grid` within +-half_width, every `stride`-th point.

    A half-width that lands on a window point up to 1e-9 of a window step
    keeps that point, so float rounding never drops the edge points.
    `stride` must be an integer >= 1 and `half_width` finite and >= 0.
    """
    if not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    if not 0.0 <= half_width < math.inf:
        raise ValueError(f"half_width must be finite and >= 0, got {half_width}")
    center = grid.nearest_index(0.0)
    k = math.floor(half_width / (grid.dx * stride) + 1e-9)
    lo = center - k * stride
    hi = center + k * stride
    if lo < 0 or hi >= grid.n:
        raise ValueError(f"window half-width {half_width} exceeds the grid")
    return GridSpec(grid.x_min + grid.dx * lo, grid.dx * stride, 2 * k + 1)


def _component_overlap_sq(psi_amps, phi_amps, dx: float, q_shifts, cols, weight: float,
                          dens: np.ndarray) -> None:
    """Adds weight * |<psi| W(q, p) |phi>|^2 at the q shifts (rows) and
    fftshift columns `cols` into dens, an (n_q, len(cols)) array.

    The amplitude at shift s and frequency k is
    amp(s, k) = dx * sum_j conj(psi_j) w^(jk) phi_(j-s), w = exp(2*pi*i/n),
    and column c of the centered conjugate grid is k = (c - n/2) mod n.
    For fixed k this is a circular cross-correlation over s with spectrum
    roll(A, k) * B, A = fft(conj psi), B = fft(y), y_t = phi_(-(t + s0) mod n),
    the reversed phi rolled by 1 - s0.  By the shift theorem that B is the
    spectrum of phi_(-t mod n) times w^(m*s0), the first shift's phase, with
    no phase ramp computed.  The shifts s = s0 + stride*i need only that
    spectrum folded into L = n / gcd(stride, n) bins and one L-point
    inverse FFT, read at every (stride/g)-th sample.  `q_shifts` must be
    that arithmetic progression.  `cols` may be any run of columns, with
    dens the matching columns: :func:`joint_distribution` passes a pair of
    real components only the run :func:`_mirror_split` names, as views.

    Cost: O(n log n) once, then O(n + L log L) per kept column, the inverse
    FFTs batched over blocks of g columns; memory O(n) besides dens.  A
    block holds g * L = n values, as many as the n-point product, so its
    size follows from n and the stride.  Each block's squared moduli are
    scaled by ((L/n) * dx)^2, then by weight, and added into its columns
    of dens, so no n_q x n_p array is allocated here.  The alternative row
    route (one n-point FFT per q shift over the whole p grid) costs
    O(n_q * n log n) time and n_q * n memory, so this route wins whenever
    the p window is narrow (n_p << n), as in every caller.
    """
    n = len(psi_amps)
    stride = int(q_shifts[1] - q_shifts[0]) if q_shifts.size > 1 else 1
    g = math.gcd(stride, n)
    L = n // g
    take = (stride // g) * np.arange(q_shifts.size) % L
    # numpy's complex FFT of a float64 array gives the same bits as of its
    # complex128 copy but takes about 1.5x as long at n = 16384; each copy
    # lives only for its own FFT
    A = np.fft.fft(np.conj(np.asarray(psi_amps, dtype=complex)))
    B = np.fft.fft(np.roll(np.asarray(phi_amps, dtype=complex)[::-1], 1 - int(q_shifts[0]), 0))
    scale = ((L / n) * dx) ** 2
    spectrum = np.empty(n, dtype=complex)
    folded = spectrum.reshape(g, L)
    block = np.empty((g, L), dtype=complex)
    for b0 in range(0, len(cols), g):
        part = cols[b0:b0 + g]
        rows = block[:len(part)]
        for row, c in zip(rows, part):
            k = (int(c) - n // 2) % n
            np.multiply(A[n - k:], B[:k], out=spectrum[:k])       # roll(A, k) * B
            np.multiply(A[:n - k], B[k:], out=spectrum[k:])
            folded.sum(axis=0, out=row)
        np.fft.ifft(rows, axis=1, out=rows)
        sq = np.abs(rows[:, take].T) ** 2
        sq *= scale
        sq *= weight
        dens[:, b0:b0 + len(rows)] += sq


def _mirror_split(cols: np.ndarray, n: int) -> tuple:
    """Slices (computed, copied, source) of the window's column positions for
    a density even in p: with the columns at `computed` filled, setting
    dens[:, copied] = dens[:, source] fills every column.

    The window's columns are c0 + t*i, i < N, t >= 1.  The mirror of
    column c, at -p, is column n - c, which is position S - i for
    S = (n - 2*c0)/t when t divides n - 2*c0; positions i and S - i pair
    about S/2, the position of p = 0 when S is even.  `computed` is the
    run on the side of p = 0 that reaches farther, with p = 0 itself;
    `copied` is the rest, each position of which has its partner in
    `computed`.  Column 0 (k = n/2) is its own mirror, never copied.  With
    no pair in the window, every position is computed.
    """
    N = cols.size
    t = int(cols[1] - cols[0])
    S, r = divmod(n - 2 * int(cols[0]), t)
    if r or not 1 <= S <= 2 * N - 3:
        return slice(0, N), slice(0, 0), slice(0, 0)
    if S < N:  # as far or farther above p = 0: the upper run
        m = (S + 1) // 2
        return slice(m, N), slice(0, m), slice(S, S - m, -1)
    m = S // 2 + 1
    return slice(0, m), slice(m, N), slice(S - m, S - N, -1)


def joint_distribution(G: PhaseSpaceObservable, rho: MixedState,
                       warp_map: WarpMap | None = None) -> JointDistribution:
    """Outcome density of G in state rho over the observable's 2-D window.

    Cell-by-cell midpoint evaluation of the displaced-generator overlap
    (1/2*pi*hbar) tr[rho W(q,p) m W(q,p)*], kept momentum columns in blocks
    of g with one batched inverse FFT per block (see
    :func:`_component_overlap_sq` for the cost model): time
    O(pairs * n_p * (n + L log L)), memory O(n) besides the one n_q x n_p
    density, which every component pair adds into and a warp moves in
    place.  Raises MassDeficitError when the window misses more than 1e-3
    of the mass.

    A pair of real components (both amplitude arrays float64, as
    WaveFunction keeps real states) has |amp(s, -k)| = |amp(s, k)|, so its
    density is even in p.  Such a pair computes only the run of columns
    that :func:`_mirror_split` names, about half of a window symmetric
    about p = 0.  The real pairs are added first, in component order; then
    each column they skipped is copied once from its mirror column, so the
    two hold the same bits; then the complex pairs are added over every
    column, in component order.
    """
    grid = rho.grid
    hbar = rho.hbar
    if G.gen.grid != grid or G.gen.hbar != hbar:
        raise ValueError("generator and state must share grid and hbar")
    pg = momentum_grid(grid, hbar)

    q_shift_f = G.q_grid.points()
    q_shift_f /= grid.dx
    q_shifts = np.rint(q_shift_f).astype(int)
    if np.max(np.abs(q_shift_f - q_shifts)) > 1e-6:
        raise ValueError("q outcome points must be multiples of the state grid step")
    if not (grid.contains(G.q_grid.x_min) and grid.contains(G.q_grid.x_max)):
        # q shifts are circular: a row past the grid would repeat another row
        raise ValueError("q outcome window exceeds the state grid")
    col_f = G.p_grid.points()
    col_f -= pg.x_min
    col_f /= pg.dx
    cols = np.rint(col_f).astype(int)
    if np.max(np.abs(col_f - cols)) > 1e-6:
        raise ValueError("p outcome points must lie on the conjugate grid")
    if cols[1] == cols[0]:
        # a step of a few millionths of a cell passes the check above, every point on one cell
        raise ValueError("p outcome points must be distinct conjugate-grid points")
    if cols.min() < 0 or cols.max() >= pg.n:
        raise ValueError("p outcome window exceeds the conjugate grid")

    pairs = [(wa * vb, psi.amps, phi.amps) for wa, psi in rho.components
             for vb, phi in G.gen.components]
    computed, copied, source = _mirror_split(cols, pg.n)
    dens = np.zeros((G.q_grid.n, G.p_grid.n))
    for w, a, b in pairs:
        if a.dtype == b.dtype == np.float64:
            _component_overlap_sq(a, b, grid.dx, q_shifts, cols[computed], w, dens[:, computed])
    dens[:, copied] = dens[:, source]
    for w, a, b in pairs:
        if not a.dtype == b.dtype == np.float64:
            _component_overlap_sq(a, b, grid.dx, q_shifts, cols, w, dens)
    dens /= 2.0 * math.pi * hbar

    jd = JointDistribution(G.q_grid, G.p_grid, dens)
    if warp_map is not None:
        _warp_density(jd, warp_map)
    if jd.total_mass < 1.0 - 1e-3:
        raise MassDeficitError(
            f"outcome window q in [{G.q_grid.x_min:.3g}, {G.q_grid.x_max:.3g}], "
            f"p in [{G.p_grid.x_min:.3g}, {G.p_grid.x_max:.3g}] captures only "
            f"{jd.total_mass:.6f} of the mass")
    return jd


def _warp_density(jd: JointDistribution, warp_map: WarpMap) -> None:
    """Pushes jd's density through (gamma_q, gamma_p) in place: rows, then
    columns, are added to their targets in source order, as np.add.at adds,
    with one array of the density's size besides it."""
    masses = jd.density
    masses *= jd.cell_area
    rows = np.zeros_like(masses)
    for i, r in enumerate(_warp_cells(jd.q_grid, warp_map.gamma_q)):
        rows[r] += masses[i]
    masses.fill(0.0)
    for j, c in enumerate(_warp_cells(jd.p_grid, warp_map.gamma_p)):
        masses[:, c] += rows[:, j]
    masses /= jd.cell_area


def covariance_residual(G: PhaseSpaceObservable, rho: MixedState, q: float, p: float,
                        warp_map: WarpMap | None = None) -> float:
    """Max-abs density mismatch between displacing the state and shifting outcomes."""
    for name, value in (("q", q), ("p", p)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    kq_f = q / G.q_grid.dx
    kp_f = p / G.p_grid.dx
    kq, kp = int(round(kq_f)), int(round(kp_f))
    if abs(kq_f - kq) > 1e-6 or abs(kp_f - kp) > 1e-6:
        raise ValueError("displacement must be a multiple of the outcome grid steps")
    base = joint_distribution(G, rho, warp_map)
    # displace by the rounded shift that the roll below applies: the unrounded
    # one may miss the state grid by more than weyl_displace allows
    moved = joint_distribution(G, displace_mixed(rho, kq * G.q_grid.dx, kp * G.p_grid.dx),
                               warp_map)
    shifted = np.roll(base.density, (kq, kp), axis=(0, 1))
    np.subtract(moved.density, shifted, out=shifted)
    return float(np.max(np.abs(shifted, out=shifted)))
