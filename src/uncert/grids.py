"""Probability measures on a uniform 1-D grid and the width calculus on them.

A measure is a nonnegative weight vector over grid points, normalized to
total mass one.  Widths are shortest-interval (confidence) widths and are
always reported as integer multiples of the grid step, so every width
comparison downstream carries a one-to-two-cell tolerance.
"""

from __future__ import annotations

import bisect
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# Weights may miss total mass 1 by up to RENORM_TOL (roundoff of FFT convolution,
# pushforward) before construction renormalizes them; more is treated as a bug.
RENORM_TOL = 1e-6

# elements per block of the package's blockwise passes, 64 KiB of floats:
# observables._warp_cells (its float transients stay near 0.3 MiB), the
# further components of a mixture's marginals and a marginal's reflection
BLOCK = 8192


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid x_j = x_min + j*dx for j = 0..n-1."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.x_min):
            raise ValueError(f"grid start must be finite, got {self.x_min}")
        if not 0 < self.dx < math.inf:
            raise ValueError(f"grid step must be positive and finite, got {self.dx}")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid point count n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.n}")
        # the last point x_min + (n - 1)*dx, halved so that a grid whose last
        # point is finite passes even where that sum's second term overflows;
        # Python floats, which overflow to inf without a warning
        half_end = float(self.x_min) / 2 + float(self.n - 1) * (float(self.dx) / 2)
        if not half_end <= sys.float_info.max / 2:
            raise ValueError(f"grid end x_min + (n - 1)*dx overflows: x_min = {self.x_min}, "
                             f"dx = {self.dx}, n = {self.n}")

    def _terms(self) -> tuple:
        """(a, b, s) with x_j evaluated as s*(a + j*b): (x_min, dx, 1.0), or,
        where (n - 1)*dx overflows though the last point is finite,
        (x_min/2, dx/2, 2.0).  Halving and doubling are exact away from
        overflow and underflow, so the halved form changes no point that
        the plain form gives finite; it is chosen for the whole grid, so a
        span's points are the matching slice of all n.  Python floats,
        which overflow to inf without a warning."""
        if float(self.n - 1) * float(self.dx) < math.inf:
            return self.x_min, self.dx, 1.0
        return self.x_min / 2, self.dx / 2, 2.0

    @property
    def x_max(self) -> float:
        a, b, s = self._terms()
        return s * (a + (self.n - 1) * b)

    def points(self, *span) -> np.ndarray:
        """x_min + dx * j for j in range(*span), all n points by default: the
        floats of that expression (in :meth:`_terms`'s form) on an integer
        arange, built in place."""
        a, b, s = self._terms()
        x = np.arange(*(span or (self.n,)), dtype=float)
        x *= b
        x += a
        if s != 1.0:
            x *= s
        return x

    def nearest_index(self, x: float) -> int:
        a, b, s = self._terms()
        j = int(round((x / s - a) / b))
        return min(max(j, 0), self.n - 1)

    def cells_within(self, lo: float, hi: float) -> range:
        """Indices j with lo - 1e-9*dx <= x_j <= hi + 1e-9*dx: the cells of the
        closed interval [lo, hi], each end widened by 1e-9 of a step.  x_j rises
        with j, so both ends are bisected on x_min + dx*j, the float expression
        :meth:`points` evaluates: exact and O(log n), with no array built.
        """
        x0, dx, s = self._terms()
        lo, hi = lo - 1e-9 * self.dx, hi + 1e-9 * self.dx
        start = bisect.bisect_left(range(self.n), True, key=lambda j: s * (x0 + dx * j) >= lo)
        stop = bisect.bisect_left(range(self.n), True, start,
                                  key=lambda j: not s * (x0 + dx * j) <= hi)
        return range(start, stop)

    def contains(self, x: float) -> bool:
        return self.x_min - 1e-9 * self.dx <= x <= self.x_max + 1e-9 * self.dx

    @classmethod
    def symmetric(cls, half_length: float, n: int) -> "GridSpec":
        """Grid covering [-L, L) with n points; x = 0 is a grid point for even n."""
        dx = 2.0 * half_length / n
        return cls(-half_length, dx, n)


@dataclass(frozen=True)
class Interval:
    """Closed interval [center - width/2, center + width/2]."""

    center: float
    width: float

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"interval width must be >= 0, got {self.width}")

    @property
    def lo(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def hi(self) -> float:
        return self.center + 0.5 * self.width


class _Handed:
    """An array handed to :class:`GridMeasure` or ``states.WaveFunction``
    for it to own: the constructor checks and normalizes that array in
    place and makes it read-only, with no copy.  Only the builders of this
    package hand over arrays, each one it has just built for the value."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False, slots=True)
class GridMeasure:
    """Normalized nonnegative weights on a :class:`GridSpec`.

    Construction clamps negative roundoff (below 1e-9 in magnitude) to zero
    and renormalizes total mass, provided the deviation from 1 is within
    RENORM_TOL; anything larger raises.  Equality is identity.

    The measure owns its weights, a read-only float64 array.  Given any
    array, it normalizes a copy, so the caller's array is never touched;
    the builders in this package hand over the array they built
    (:class:`_Handed`), which is normalized and frozen in place.
    """

    grid: GridSpec
    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        w = np.asarray(w.array, dtype=float) if type(w) is _Handed else np.array(w, dtype=float)
        if w.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} weights, got shape {w.shape}")
        _normalize_weights(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def mean(self) -> float:
        return float(np.dot(self.grid.points(), self.weights))

    def variance(self) -> float:
        x = self.grid.points()
        m = self.mean()
        return float(np.dot((x - m) ** 2, self.weights))


def _normalize_weights(w: np.ndarray) -> None:
    """:class:`GridMeasure`'s check and normalization, in place on float64 w.

    Clips negative roundoff (below 1e-9 in magnitude) to zero, and only when
    there is some, then divides by the total mass, which must lie within
    RENORM_TOL of 1; anything else raises.
    """
    low = w.min()
    if low < -1e-9:
        raise ValueError(f"negative weight {low:.3e} beyond roundoff")
    if low < 0:
        np.clip(w, 0.0, None, out=w)
    total = w.sum()
    if not abs(total - 1.0) <= RENORM_TOL:  # also rejects NaN
        raise ValueError(f"total mass {total:.9f} deviates from 1 beyond {RENORM_TOL}")
    w /= total


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def point_mass(x: float, grid: GridSpec) -> GridMeasure:
    """Unit mass at the grid point nearest to x."""
    w = np.zeros(grid.n)
    w[grid.nearest_index(x)] = 1.0
    return GridMeasure(grid, _Handed(w))


def uniform_measure(a: float, b: float, grid: GridSpec) -> GridMeasure:
    """Equal weights on all grid points inside the closed interval [a, b]."""
    if b <= a:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    cells = grid.cells_within(a, b)
    if not cells:
        raise ValueError(f"interval [{a}, {b}] contains no grid point")
    w = np.zeros(grid.n)
    w[cells.start:cells.stop] = 1.0 / len(cells)
    return GridMeasure(grid, _Handed(w))


def gaussian_measure(mean: float, sigma: float, grid: GridSpec) -> GridMeasure:
    """Normal density sampled at grid points and renormalized."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = grid.points()
    w = np.exp(-0.5 * ((x - mean) / sigma) ** 2)
    s = w.sum()
    if s <= 0:
        raise ValueError("gaussian has no support on the grid")
    w /= s
    return GridMeasure(grid, _Handed(w))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def mass(P: GridMeasure, J: Interval) -> float:
    """Total weight at grid points lying in the closed interval J."""
    cells = P.grid.cells_within(J.lo, J.hi)
    return float(P.weights[cells.start:cells.stop].sum())


def _target(eps: float) -> float:
    """The mass a width at level eps in (0, 1) must reach, 1 - eps - 1e-12:
    the margin absorbs the rounding of the sums compared with it."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return 1.0 - eps - 1e-12


def overall_width(P: GridMeasure, eps: float) -> float:
    """Length of the shortest grid window carrying mass >= 1 - eps.

    The window is a run of consecutive grid points; its length is
    (last - first) * dx, so a single point has width 0.  One O(n) cumsum
    gives the prefix sums (n + 1 entries, the only array built) and
    :func:`_shortest_run` bisects the run on them.
    """
    c = np.empty(P.grid.n + 1)
    c[0] = 0.0
    np.cumsum(P.weights, out=c[1:])
    return (_shortest_run(c, eps) - 1) * P.grid.dx


def _shortest_run(c: np.ndarray, eps: float) -> int:
    """The number of points in the shortest run carrying mass >= 1 - eps,
    on the prefix sums c (c[0] = 0, c[j] the mass of the first j points).

    A run of k points starting at i carries enough mass when
    c[i + k] >= c[i] + target, the sum rounded once as a float.  The
    weights are nonnegative, so c is nondecreasing in floating point, and
    so is c[i] + target, because rounding x + target is monotone in x.  So
    the shortest run from start i has k_i = searchsorted(c, c[i] + target,
    "left") - i points, and the answer is the least k_i, at least 1: the
    same float test, start by start, so the same k as bisecting on it.

    Only starts that can pass are compared.  Since c[i + k] <= c[n], a
    start needs c[i] + target <= c[n]; by the same monotonicity that holds
    exactly for c[i] <= v, the largest double with v + target <= c[n], so
    for i <= i_max, one searchsorted on v.  v lies within an ulp or two of
    c[n] - target plus half the gap above c[n] (the sums that round down
    to c[n]), and is reached from there by math.nextafter steps.  Since
    c[i] + target >= target, an end needs c[j] >= target, which holds
    exactly for j >= j_min.  A run of k points can pass only when
    j_min - i_max <= k, and the runs [0, j_min) and [i_max, n) both pass,
    so k lies in [lo, hi] = [max(1, j_min - i_max), min(n, j_min,
    n - i_max)]; when hi is 0 (target <= 0, or target lost to rounding at
    c[n]) a single point passes and lo, 1, is returned.

    hi is then lowered to the central run, which leaves at most eps/2 of
    the mass on either side: from the last start i_a with c[i_a] <= eps/2
    to the first end j_b with c[j_b] >= c[n] - eps/2.  It usually carries
    the target and is seldom much longer than the shortest run; it is
    taken only when it passes the same float test, so hi stays a length
    that passes.  A run of at most hi points that passes ends at j_min or
    later, so only the starts in [max(0, j_min - hi), i_max] are searched;
    for a Gaussian at n = 16384 and eps = 0.05 that is about 130 starts.

    Cost: two searchsorted calls of two values each, then one
    searchsorted of the m starts left, O(m log n); the only arrays built
    are that search's operands, m values each, m <= n + 1.
    """
    target = _target(eps)
    n = len(c) - 1
    total = float(c[n])
    if not total >= target:
        raise ValueError(f"total mass {total} is below the target {target}")
    v = total - target + 0.5 * (math.nextafter(total, math.inf) - total)
    while v + target > total:
        v = math.nextafter(v, -math.inf)
    while math.nextafter(v, math.inf) + target <= total:
        v = math.nextafter(v, math.inf)
    i_max, i_a = (int(i) - 1 for i in np.searchsorted(c, (v, 0.5 * eps), side="right"))
    j_min, j_b = (int(j) for j in np.searchsorted(c, (target, total - 0.5 * eps)))
    lo, hi = max(1, j_min - i_max), min(n, j_min, n - i_max)
    if c[j_b] >= c[i_a] + target:
        hi = min(hi, j_b - i_a)
    a = max(0, j_min - hi)
    ends = np.searchsorted(c, c[a:i_max + 1] + target)
    ends -= np.arange(a, i_max + 1)
    return max(lo, min(hi, int(ends.min())))


def centered_width(P: GridMeasure, x: float, eps: float) -> float:
    """Smallest w with mass(P, [x - w/2, x + w/2]) >= 1 - eps.

    Returns inf when even the full grid does not reach the target mass.
    """
    target = _target(eps)
    d = np.abs(P.grid.points() - x)
    order = np.argsort(d, kind="stable")
    c = np.cumsum(P.weights[order])
    k = int(np.searchsorted(c, target, side="left"))
    if k >= P.grid.n:
        return float("inf")
    return float(2.0 * d[order[k]])


def convolve(P: GridMeasure, Q: GridMeasure) -> GridMeasure:
    """Measure convolution on the Minkowski sum of the supports.

    Both inputs must share the grid step; the output is zero-padded to
    n_P + n_Q - 1 cells so no wraparound can corrupt tail mass.  The product
    is taken with a real FFT at the next power of two.
    """
    out = _sum_grid(P.grid, Q.grid)
    size = 1 << (out.n - 1).bit_length()
    spec = np.fft.rfft(P.weights, size) * np.fft.rfft(Q.weights, size)
    return GridMeasure(out, _Handed(np.fft.irfft(spec, size)[:out.n]))


def _sum_grid(a: GridSpec, b: GridSpec) -> GridSpec:
    """Grid of the Minkowski sum of grids a and b (which share their step)."""
    if abs(a.dx - b.dx) > 1e-9 * a.dx:
        raise ValueError(f"grid steps differ: {a.dx} vs {b.dx}")
    return GridSpec(a.x_min + b.x_min, a.dx, a.n + b.n - 1)


def reflect(P: GridMeasure) -> GridMeasure:
    """Reflection x -> -x; weight at x_j moves to -x_j."""
    out = GridSpec(-P.grid.x_max, P.grid.dx, P.grid.n)
    return GridMeasure(out, _Handed(P.weights[::-1].copy()))
