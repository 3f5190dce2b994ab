"""Pure and mixed states on the position grid, with FFT momentum duality.

The momentum grid is the discrete Fourier conjugate of the position grid,
dp = 2*pi*hbar / (n*dx), centered at zero.  Position shifts are restricted
to grid multiples (circular), momentum shifts are exact phase ramps, so
displacement covariance holds to roundoff on grid-aligned shifts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grids import BLOCK, GridMeasure, GridSpec, _Handed

NORM_TOL = 1e-6


def momentum_grid(grid: GridSpec, hbar: float) -> GridSpec:
    """Fourier-conjugate grid; satisfies dp * dx * n = 2*pi*hbar by construction."""
    if grid.n % 2 != 0:
        raise ValueError("momentum duality requires an even number of grid points")
    dp = 2.0 * math.pi * hbar / (grid.n * grid.dx)
    return GridSpec(-(grid.n // 2) * dp, dp, grid.n)


@dataclass(frozen=True, eq=False, slots=True)
class WaveFunction:
    """Amplitudes psi(x_j) with L2 normalization sum |psi|^2 dx = 1.

    Real amplitudes are kept as float64 and all others as complex128, so a
    real state (a Gaussian at p0 = 0, a box, a point, the parity image of
    any of them) never pays for complex arithmetic.  The copy is scaled by
    the reciprocal of the norm's square root: numpy divides a complex array
    by a real scalar as x * (1/s), so a real array scaled that way holds
    the real parts its complex128 form would hold, bit for bit, where x / s
    differs in the last bit on many of them.  :func:`_unit_norm` is that
    step.

    The state owns its amplitudes, a read-only array.  Given any array, it
    scales a copy, so the caller's array is never touched; the builders in
    this package hand over the float64 or complex128 array they built
    (``grids._Handed``), which is scaled and frozen in place.
    """

    grid: GridSpec
    amps: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        a = self.amps
        handed = type(a) is _Handed
        a = np.asarray(a.array if handed else a)
        a = a.astype(complex if np.iscomplexobj(a) else float, copy=not handed)
        if a.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} amplitudes, got shape {a.shape}")
        _unit_norm(a, self.grid.dx, np.empty(self.grid.n))
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "hbar", float(self.hbar))


def _abs_sq(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|a|^2 written to out (n floats) and returned, with the bits of
    np.abs(a) ** 2: float64 amplitudes are squared as they are, since
    np.abs of a float is exact and leaves its square in place; complex ones
    go through np.abs, their hypot, first."""
    if a.dtype == np.float64:
        return np.square(a, out=out)
    np.abs(a, out=out)
    return np.square(out, out=out)


def _norm_sq(a: np.ndarray, dx: float, scratch: np.ndarray) -> float:
    """sum |a|^2 dx, with |a|^2 formed in scratch (n floats) by :func:`_abs_sq`."""
    return float(np.sum(_abs_sq(a, scratch)) * dx)


def _unit_norm(a: np.ndarray, dx: float, scratch: np.ndarray) -> None:
    """:class:`WaveFunction`'s normalization, in place on a: raises unless its
    norm is within NORM_TOL of 1, then scales it by the norm's reciprocal
    root.  A float64 array is left as it is when that root is exactly 1.0;
    a complex one is always scaled, since x 1.0 turns its -0.0 imaginary
    parts into +0.0."""
    nrm = _norm_sq(a, dx, scratch)
    if not abs(nrm - 1.0) <= NORM_TOL:  # also rejects NaN
        raise ValueError(f"state norm {nrm:.9f} deviates from 1 beyond {NORM_TOL}")
    scale = 1.0 / math.sqrt(nrm)
    if scale != 1.0 or a.dtype != np.float64:
        a *= scale


@dataclass(frozen=True, eq=False, slots=True)
class MixedState:
    """Convex mixture of pure components, all sharing grid and hbar."""

    components: tuple

    def __post_init__(self):
        comps = [(float(w), psi) for w, psi in self.components]
        total = _mixture_total([w for w, _ in comps])
        g0, h0 = comps[0][1].grid, comps[0][1].hbar
        for _, psi in comps:
            if psi.grid != g0 or psi.hbar != h0:
                raise ValueError("all components must share grid and hbar")
        object.__setattr__(self, "components", tuple((w / total, psi) for w, psi in comps))

    @classmethod
    def pure(cls, psi: WaveFunction) -> "MixedState":
        return cls([(1.0, psi)])

    @property
    def grid(self) -> GridSpec:
        return self.components[0][1].grid

    @property
    def hbar(self) -> float:
        return self.components[0][1].hbar


def _mixture_total(weights: list) -> float:
    """The sum of a mixture's weights, once they pass :class:`MixedState`'s
    rule: at least one, each nonnegative, summing to 1 within NORM_TOL."""
    if not weights:
        raise ValueError("mixed state needs at least one component")
    if any(w < 0 for w in weights):
        raise ValueError("component weights must be nonnegative")
    total = sum(weights)
    if not abs(total - 1.0) <= NORM_TOL:  # also rejects NaN
        raise ValueError(f"component weights sum to {total:.9f}, expected 1")
    return total


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def gaussian_state(x0: float, p0: float, sigma: float, grid: GridSpec,
                   hbar: float = 1.0) -> WaveFunction:
    """Minimal-uncertainty Gaussian centered at (x0, p0), position spread sigma."""
    x = grid.points()
    return WaveFunction(grid, _Handed(_gaussian_amps(x0, p0, sigma, grid, hbar, x, x,
                                                     np.empty(grid.n))), hbar)


def _check_gaussian(x0: float, p0: float, sigma: float, grid: GridSpec, hbar: float) -> None:
    """The Gaussian's parameter checks: 8 sigma around x0 must lie on the
    grid, with (x - x0)^2 finite at every grid point, and 8 sigma_p around
    p0, with sigma_p = hbar / (2 sigma), within the momentum grid's
    +-pi hbar / dx: a wider momentum spread wraps around it."""
    if not all(math.isfinite(v) for v in (x0, p0, sigma)):
        raise ValueError(f"Gaussian parameters must be finite, got "
                         f"x0={x0}, p0={p0}, sigma={sigma}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not math.isfinite(4.0 * (sigma * sigma)):
        raise ValueError(f"4 sigma^2 must be finite, got sigma={sigma}")
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    if grid.x_min > x0 - 8 * sigma or grid.x_max < x0 + 8 * sigma:
        raise ValueError(
            f"grid [{grid.x_min}, {grid.x_max}] does not cover "
            f"[{x0 - 8 * sigma}, {x0 + 8 * sigma}] (8 sigma around x0)")
    # x0 is on the grid, so its farthest point is an end; the ends are the
    # first and last of grid.points(), so this is the largest (x - x0)^2
    reach = max(x0 - grid.x_min, grid.x_max - x0)
    if not math.isfinite(reach * reach):
        raise ValueError(f"(x - x0)^2 must be finite on the grid, got x0={x0} on "
                         f"[{grid.x_min}, {grid.x_max}]")
    # Python floats: a tiny sigma gives sigma_p = inf, not an overflow warning
    p_max = math.pi * float(hbar) / grid.dx
    sigma_p = float(hbar) / (2.0 * float(sigma))
    if not (-p_max <= p0 - 8 * sigma_p and p0 + 8 * sigma_p <= p_max):
        raise ValueError(
            f"momentum grid [{-p_max}, {p_max}] does not cover "
            f"[{p0 - 8 * sigma_p}, {p0 + 8 * sigma_p}] "
            f"(8 sigma_p around p0, sigma_p = hbar / (2 sigma))")


def _gaussian_amps(x0: float, p0: float, sigma: float, grid: GridSpec, hbar: float,
                   x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The Gaussian's checks (:func:`_check_gaussian`), then its amplitudes
    on the points x, divided by the root of their norm.  scratch (n floats)
    holds |a|^2 for the norm.  At p0 != 0 the amplitudes are complex, in a
    new array.

    At p0 = 0 they are real and are built in place in out, which may be x,
    and the exponent is (x - x0)^2 / -(4 sigma^2), the bits of
    -(x - x0)^2 / (4 sigma^2) without a negation pass, and it is formed
    only on the run of points within 2 sigma sqrt(750) of x0 (x ascending,
    as grid.points() gives it): farther out it is below -745.2, exp
    underflows to +0.0 there, and those cells are written as +0.0.  So
    the amplitudes keep every bit, and numpy's slow underflow path in exp
    is not taken for the cells that can only give 0.0.  Cost: two
    O(log n) searches, then O(n) writes and O(m) arithmetic on the m
    points kept.
    """
    _check_gaussian(x0, p0, sigma, grid, hbar)
    if p0 != 0:
        a = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    else:
        # a real exp costs 1/20 of exp(a + 0j); the two differ at most in
        # the last bit (numpy's vectorized exp against libm's).  A point
        # below the double nearest x0 - r lies below x0 - r itself, so each
        # cut cell has |x - x0| > r exactly; with 4 sigma^2 below the normal
        # range the exponent's rounding is unbounded, and nothing is cut.
        r = 2.0 * sigma * math.sqrt(750.0)
        if not 4.0 * sigma**2 >= sys.float_info.min:
            r = math.inf
        lo = int(np.searchsorted(x, x0 - r))
        hi = int(np.searchsorted(x, x0 + r, side="right"))
        a = out
        e = np.subtract(x[lo:hi], x0, out=a[lo:hi])
        a[:lo] = 0.0
        a[hi:] = 0.0
        np.square(e, out=e)
        e /= -(4.0 * sigma**2)
        np.exp(e, out=e)
    a /= math.sqrt(_norm_sq(a, grid.dx, scratch))
    return a


def box_state(center: float, width: float, grid: GridSpec,
              hbar: float = 1.0) -> WaveFunction:
    """Constant amplitude on the closed interval [center - width/2, center + width/2]."""
    return WaveFunction(grid, _Handed(_box_amps(center, width, grid, np.empty(grid.n))), hbar)


def _box_cells(center: float, width: float, grid: GridSpec) -> range:
    """The grid cells of the box, once its center and width pass its checks."""
    if not (math.isfinite(center) and math.isfinite(width)):
        raise ValueError(f"box center and width must be finite, got {center}, {width}")
    if width < 2 * grid.dx:
        raise ValueError(f"box width {width} below the 2-cell minimum {2 * grid.dx} "
                         f"(grid step {grid.dx})")
    cells = grid.cells_within(center - 0.5 * width, center + 0.5 * width)
    if not cells:
        raise ValueError("box has no support on the grid")
    return cells


def _box_amps(center: float, width: float, grid: GridSpec, out: np.ndarray) -> np.ndarray:
    """The box's amplitudes in out (n floats), returned: 1 / sqrt(m dx) on
    the m cells of :func:`_box_cells`, 0.0 elsewhere."""
    cells = _box_cells(center, width, grid)
    out.fill(0.0)
    out[cells.start:cells.stop] = 1.0 / math.sqrt(len(cells) * grid.dx)
    return out


def point_state(x: float, grid: GridSpec, hbar: float = 1.0) -> WaveFunction:
    """All mass on the single grid point nearest x (sharpest state the grid holds)."""
    a = np.zeros(grid.n)
    a[grid.nearest_index(x)] = 1.0 / math.sqrt(grid.dx)
    return WaveFunction(grid, _Handed(a), hbar)


def momentum_box_state(center: float, width: float, grid: GridSpec,
                       hbar: float = 1.0) -> WaveFunction:
    """State whose momentum distribution is a flat box; exact on the conjugate grid."""
    pg = momentum_grid(grid, hbar)
    cells = _box_cells(center, width, pg)
    phi = np.zeros(grid.n, dtype=complex)
    phi[cells.start:cells.stop] = 1.0 / math.sqrt(len(cells) * pg.dx)
    return _from_momentum_amps(phi, grid, hbar)


def momentum_point_state(p0: float, grid: GridSpec, hbar: float = 1.0) -> WaveFunction:
    """Plane wave: all momentum mass on the conjugate grid point nearest p0."""
    pg = momentum_grid(grid, hbar)
    phi = np.zeros(grid.n, dtype=complex)
    phi[pg.nearest_index(p0)] = 1.0 / math.sqrt(pg.dx)
    return _from_momentum_amps(phi, grid, hbar)


def superpose(c1: complex, psi1: WaveFunction, c2: complex,
              psi2: WaveFunction) -> WaveFunction:
    """Normalized coherent superposition c1*psi1 + c2*psi2."""
    if psi1.grid != psi2.grid or psi1.hbar != psi2.hbar:
        raise ValueError("superposed states must share grid and hbar")
    a = c1 * psi1.amps + c2 * psi2.amps
    nrm = float(np.sum(np.abs(a) ** 2) * psi1.grid.dx)
    if nrm <= 0:
        raise ValueError("superposition vanishes")
    # scaled as WaveFunction scales, so a real sum keeps its complex form's bits
    a *= 1.0 / math.sqrt(nrm)
    return WaveFunction(psi1.grid, _Handed(a), psi1.hbar)


# ---------------------------------------------------------------------------
# Fourier duality
# ---------------------------------------------------------------------------

def _from_momentum_amps(phi: np.ndarray, grid: GridSpec, hbar: float) -> WaveFunction:
    """State with momentum amplitudes phi(p_k) on the centered conjugate grid.

    phi(p) = dx / sqrt(2 pi hbar) * sum_j psi(x_j) exp(-i p x_j / hbar); on
    the conjugate grid that is the DFT of psi times exp(-i p x_min / hbar),
    which this inverts.
    """
    pg = momentum_grid(grid, hbar)
    phase = np.exp(1j * pg.points() * grid.x_min / hbar)
    F = phi * phase * math.sqrt(2.0 * math.pi * hbar) / grid.dx
    return WaveFunction(grid, _Handed(np.fft.ifft(np.fft.ifftshift(F))), hbar)


def position_distribution(rho: MixedState) -> GridMeasure:
    """rho^Q: mixture-weighted |psi|^2 dx per grid cell."""
    w = np.empty(rho.grid.n)
    _position_weights([(wk, psi.amps) for wk, psi in rho.components], rho.grid.dx, w)
    return GridMeasure(rho.grid, _Handed(w))


def _add_abs_sq(dst: np.ndarray, src: np.ndarray, wk: float, block: np.ndarray | None,
                add: bool) -> None:
    """dst = wk |src|^2, or dst += wk |src|^2 when add; a weight of exactly
    1.0 is not multiplied.  A written dst that runs forward takes the terms
    in place; otherwise they are formed block by block in block and then
    written or added, so dst may run backward.  numpy's complex abs gives
    other last bits where its input or output runs backward, so a complex
    src must run forward; a float one is only squared, which is exact on
    any strides.  Every step is elementwise, so the result has the bits of
    the whole-array terms."""
    if not add and dst.strides[0] > 0:
        _abs_sq(src, dst)
        if wk != 1.0:
            dst *= wk
        return
    for i in range(0, dst.size, block.size):
        b = _abs_sq(src[i:i + block.size], block[:min(block.size, dst.size - i)])
        if wk != 1.0:
            b *= wk
        if add:
            dst[i:i + b.size] += b
        else:
            dst[i:i + b.size] = b


def _position_weights(components, dx: float, out: np.ndarray) -> None:
    """rho^Q's weights, written to out, from (weight, amplitudes) pairs:
    component 0's wk |a|^2 is formed in out (0 + wk |a|^2), each further
    one added through a block of BLOCK floats; then times dx."""
    block = np.empty(min(BLOCK, out.size)) if len(components) > 1 else None
    for k, (wk, a) in enumerate(components):
        _add_abs_sq(out, a, wk, block, k > 0)
    out *= dx


def momentum_distribution(rho: MixedState) -> GridMeasure:
    """rho^P on the conjugate grid; Parseval keeps total mass at 1.

    |phi(p)|^2 = |F(p)|^2 dx^2 / (2 pi hbar) with F = fft(psi): the phase
    exp(-i p x_min / hbar) that ties F to phi has modulus one, so it is
    never formed.  :func:`_momentum_weights` computes the weights.
    """
    w = np.empty(rho.grid.n)
    _momentum_weights([(wk, psi.amps) for wk, psi in rho.components], rho.grid, rho.hbar,
                      w, np.empty(rho.grid.n // 2 + 1, dtype=complex))
    return GridMeasure(momentum_grid(rho.grid, rho.hbar), _Handed(w))


def _momentum_weights(components, grid: GridSpec, hbar: float, out: np.ndarray,
                      spectrum: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """rho^P's weights on the centered conjugate grid, written to out, from
    (weight, amplitudes) pairs: each component's wk |F(p)|^2, then the
    factor dp dx^2 / (2 pi hbar).

    A component whose amplitudes are real has F(-k) = conj(F(k)), so the
    n/2 + 1 bins of its real FFT fill the centered grid: bin k >= 0 is cell
    n/2 + k, and bin n/2 - j mirrors onto cell j < n/2.  The route follows
    the dtype: float64 amplitudes (a Gaussian at p0 = 0, a box, a point,
    the parity image of any of them) take the real FFT at once; complex128
    ones are scanned for a nonzero imaginary part and take the full complex
    FFT, in a new array, if they have one, its halves swapped onto the
    centered grid, else the real FFT of their real part.  The real FFT goes
    to spectrum (n/2 + 1 complex).  Given scratch (n/2 + 1 floats or
    more), which may hold the amplitudes of the last component, the
    spectrum's moduli are read into it first, so spectrum may share memory
    with out; without it, |F|^2 is formed from the spectrum.  Component 0
    is written to out and the others added through a block of BLOCK
    floats (:func:`_add_abs_sq`), which gives the bits of adding them all
    to zeros; a weight of exactly 1.0 is not multiplied.

    Cost per component: one n-point real FFT, or an O(n) scan and one
    n-point complex FFT, and O(n) real arithmetic.
    """
    h = out.size // 2
    block = np.empty(min(BLOCK, out.size)) if len(components) > 1 or scratch is None \
        else None
    for k, (wk, a) in enumerate(components):
        if np.iscomplexobj(a) and a.imag.any():
            F = np.fft.fft(a)
            halves = ((out[h:], F[:h]), (out[:h], F[h:]))
        elif scratch is None:
            np.fft.rfft(a.real, out=spectrum)
            halves = ((out[h:], spectrum[:h]), (out[h - 1::-1], spectrum[1:]))
        else:
            np.fft.rfft(a.real, out=spectrum)
            F = np.abs(spectrum, out=scratch[:h + 1])
            halves = ((out[h:], F[:h]), (out[:h], F[h:0:-1]))
        for dst, src in halves:
            _add_abs_sq(dst, src, wk, block, k > 0)
    out *= momentum_grid(grid, hbar).dx * grid.dx ** 2 / (2.0 * math.pi * hbar)


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------

def weyl_displace(psi: WaveFunction, q: float, p: float) -> WaveFunction:
    """Displace by (q, p): position shift by q (a grid multiple), momentum boost p.

    The position shift is circular; grids are sized so wrapped tail
    amplitudes are negligible.  Norm is preserved exactly.
    """
    grid, hbar = psi.grid, psi.hbar
    kf = q / grid.dx
    k = int(round(kf))
    if abs(kf - k) > 1e-9:
        raise ValueError(f"position shift {q} is not a multiple of dx = {grid.dx}")
    a = np.roll(psi.amps, k)
    a = a * np.exp(1j * p * grid.points() / hbar)
    return WaveFunction(grid, _Handed(a), hbar)


def parity_offset(grid: GridSpec) -> int:
    """The m with -x_j = x_{(m - j) mod n}; raises ValueError unless the grid
    is symmetric about 0 to within a step and -x_j lands on the grid."""
    if abs(grid.x_min + grid.x_max) > grid.dx * (1 + 1e-9):
        raise ValueError(f"points [{grid.x_min}, {grid.x_max}] are not symmetric about 0")
    mf = -2.0 * grid.x_min / grid.dx
    m = int(round(mf))
    if abs(mf - m) > 1e-6:
        raise ValueError("reflected points -x_j do not land on the grid")
    return m


def parity(psi: WaveFunction) -> WaveFunction:
    """Reflection (amps at x move to -x); requires a grid symmetric about 0.
    amps[(m - j) mod n] at j is the reversed array rolled by m + 1; with an
    axis, np.roll does not first copy the reversed view."""
    amps = np.roll(psi.amps[::-1], parity_offset(psi.grid) + 1, axis=0)
    return WaveFunction(psi.grid, _Handed(amps), psi.hbar)


def displace_mixed(rho: MixedState, q: float, p: float) -> MixedState:
    """Component-wise Weyl displacement of a mixture."""
    return MixedState([(w, weyl_displace(psi, q, p)) for w, psi in rho.components])


def parity_mixed(rho: MixedState) -> MixedState:
    return MixedState([(w, parity(psi)) for w, psi in rho.components])
