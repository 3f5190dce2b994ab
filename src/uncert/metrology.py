"""Uncertainty functionals: calibration error, error bar width, resolution
width, Werner-style distances, the lower-bound formulas, and the joint
verification / optimization drivers.

Both per-axis widths come from the outcome windows of sharply localized
probe states.  Calibration follows the bench procedure: feed the kernel
states localized within a shrinking interval ladder, record the smallest
output window that keeps confidence 1 - eps for every such state, and
report the value at the smallest rung.  A kernel's outcome depends on a
state only through the state's sharp distribution P along the kernel axis,
and the outcome mass of any window is linear in P.  Over all P supported
on a rung's cells the sup is therefore attained at a vertex of that
simplex, a point mass, so the calibration error is exactly the largest
point-mass width over the rung's cells; no box or truncated Gaussian can
raise it.  The resolution is the narrowest window of a fixed probe family:
the point mass at the cell nearest to every probe center and, on the
position axis, the uniform mass on the cells within one step of every
center.

The ladder and a non-covariant kernel's resolution are read off one table
of prefix sums of the kernel's reflected smearing measure per (kernel,
center) (:class:`_CenteredWindows`), in one vectorized bisection over all
probes, so no probe measure, probe state or outcome is built.  An unwarped
kernel's resolution is the overall width of its smearing measure, as every
point mass's outcome is that measure reflected and moved; only a shift
warp's point-mass outcome is built, once per center.  :func:`_axis_pass`
makes that pass once per axis, and :func:`resolution_width`,
:func:`calibration_error` and :func:`error_bar_width` are views of it.

Cost per (kernel, center): O(n_out) time and memory for the window table,
n_out = n + n_mu - 1 outcome cells, then O(m log n_out) vectorized for the
m cells of the widest rung and the resolution probes; the narrower rungs
are nested in the widest and reuse its point widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import RENORM_TOL, GridMeasure, GridSpec, _sum_grid, overall_width, point_mass, \
    reflect
from .observables import Kernel, _warp_cells, marginal_measures
from .states import MixedState, momentum_grid


class LadderInconsistencyError(ValueError):
    """Calibration errors failed to decrease with the localization width."""


class RelationViolationError(AssertionError):
    """A proven inequality failed beyond the grid tolerance."""


# ---------------------------------------------------------------------------
# Configuration / report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidencePair:
    eps1: float
    eps2: float

    def __post_init__(self):
        for e in (self.eps1, self.eps2):
            if not 0.0 < e < 1.0:
                raise ValueError(f"confidence levels must lie in (0, 1), got {e}")

    @property
    def valid_bound(self) -> bool:
        return self.eps1 + self.eps2 < 1.0


@dataclass(frozen=True)
class CalibrationConfig:
    """Probe schedule for calibration: delta ladder and probe centers.

    delta_ladder is strictly decreasing; probe widths are interpreted in
    the outcome units of the kernel axis (position or momentum).
    """

    delta_ladder: tuple
    probe_centers: tuple
    grid: GridSpec
    hbar: float = 1.0

    def __post_init__(self):
        ladder = tuple(float(d) for d in self.delta_ladder)
        if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("delta ladder must be a nonempty decreasing sequence")
        if any(d <= 0 for d in ladder):
            raise ValueError("delta ladder entries must be positive")
        centers = tuple(float(c) for c in self.probe_centers)
        if not centers:
            raise ValueError("probe centers must be a nonempty sequence")
        object.__setattr__(self, "delta_ladder", ladder)
        object.__setattr__(self, "probe_centers", centers)

    def for_axis(self, axis: str) -> "CalibrationConfig":
        """Rescale the ladder (given in grid-step units of the q axis) to an axis."""
        if axis == "q":
            return self
        dp = momentum_grid(self.grid, self.hbar).dx
        scale = dp / self.grid.dx
        return CalibrationConfig(
            tuple(d * scale for d in self.delta_ladder),
            tuple(c * scale for c in self.probe_centers),
            self.grid, self.hbar)


@dataclass(frozen=True)
class ErrorBarResult:
    value: float
    ladder: tuple          # (delta, width) pairs, delta decreasing
    spread: float          # max - min over the finite ladder values


@dataclass(frozen=True)
class AxisWidths:
    overall: float
    resolution: float
    error_bar: float
    error_bar_spread: float
    werner: float


@dataclass(frozen=True)
class WidthReport:
    scenario_id: str
    eps: ConfidencePair
    axis_q: AxisWidths
    axis_p: AxisWidths
    product_error_bar: float
    product_resolution: float
    bound_simple: float
    bound_uffink: float
    margin_simple: float
    margin_uffink: float
    passed: bool
    note: str = ""


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

def bound_simple(eps: ConfidencePair, hbar: float) -> float:
    """2*pi*hbar*(1 - eps1 - eps2)^2; zero once eps1 + eps2 >= 1."""
    if not eps.valid_bound:
        return 0.0
    return 2.0 * math.pi * hbar * (1.0 - eps.eps1 - eps.eps2) ** 2


def bound_uffink(eps: ConfidencePair, hbar: float) -> float:
    """Sharper bound 2*pi*hbar*(sqrt((1-e1)(1-e2)) - sqrt(e1 e2))^2."""
    if not eps.valid_bound:
        return 0.0
    root = math.sqrt((1.0 - eps.eps1) * (1.0 - eps.eps2)) - math.sqrt(eps.eps1 * eps.eps2)
    return 2.0 * math.pi * hbar * root**2


# ---------------------------------------------------------------------------
# Width functionals
# ---------------------------------------------------------------------------

def _axis_grid(axis: str, grid: GridSpec, hbar: float) -> GridSpec:
    return grid if axis == "q" else momentum_grid(grid, hbar)


def _cells_within(axis_grid: GridSpec, center: float, width: float) -> np.ndarray:
    """Indices of the axis-grid points in [center - width/2, center + width/2]."""
    x = axis_grid.points()
    tol = 1e-9 * axis_grid.dx
    cells = np.flatnonzero((x >= center - 0.5 * width - tol) &
                           (x <= center + 0.5 * width + tol))
    if cells.size == 0:
        raise ValueError(f"interval {center} +- {0.5 * width} contains no grid point")
    return cells


def _rung(axis_grid: GridSpec, center: float, delta: float) -> tuple:
    """First and last axis-grid cell of the calibration rung [center +- delta/2]."""
    if delta / axis_grid.dx < 2.0 - 1e-9:
        raise ValueError(f"delta {delta} below the 2-cell minimum {2 * axis_grid.dx}")
    inside = _cells_within(axis_grid, center, delta)
    return int(inside[0]), int(inside[-1])


class _CenteredWindows:
    """Centered outcome windows of one kernel about one center x.

    ``widths(cells, weights, eps)[i]`` equals
    ``centered_width(kernel.smear(P_i), x, eps)`` for the probe P_i that puts
    ``weights`` on the axis cells ``cells[i]`` (a point mass is a row of one
    cell with weight 1), without building the probe or its outcome.  The
    outcome lives on the out grid of n + n_R - 1 cells, where R is the
    reflected smearing measure (delta_0 for a sharp kernel).  Its mass on
    out cells [L, H) is sum_c P_c (CR[jb - c] - CR[ja - c]): CR holds the
    prefix sums of R, and [ja, jb) are the cells the warp map sends into
    [L, H) (ja = L, jb = H unwarped; the warp's cell map is nondecreasing).
    The cells within D of x form one run [L, H), so the smallest D whose run
    reaches the target is found by binary search over the distances, for
    all probes at once.  A point mass's masses are exact differences of CR;
    a spread probe's are summed in another order than the outcome's, and
    the 1e-12 margin on the target absorbs the rounding.

    Cost: O(n_out) time and memory to build; O(m k log n_out) vectorized
    for m probes of k cells each.
    """

    def __init__(self, kernel: Kernel, axis_grid: GridSpec, x: float):
        mu = kernel.measure
        if mu is None:
            out, r = axis_grid, np.ones(1)
        else:
            R = reflect(mu)
            out, r = _sum_grid(axis_grid, R.grid), R.weights
        self.n_out = out.n
        self.cells = None if kernel.gmap is None else _warp_cells(out, kernel.gmap)
        # CR[k] for 0 <= k <= n_R; take(mode="clip") extends it with its end values
        self.cr = np.concatenate(([0.0], np.cumsum(r)))
        pts = out.points()
        self.k = int(np.searchsorted(pts, x))        # first out cell at or right of x
        self.right = pts[self.k:] - x                 # nondecreasing distances
        self.left = x - pts[self.k - 1::-1] if self.k else np.empty(0)

    def _run(self, d):
        """Bounds [ja, jb) of the out cells, before the warp, that the warp
        sends within distance d of x (elementwise for an array d)."""
        L = self.k - self.left.searchsorted(d, "right")
        H = self.k + self.right.searchsorted(d, "right")
        if self.cells is None:
            return L, H
        return self.cells.searchsorted(L), self.cells.searchsorted(H)

    def widths(self, cells, weights, eps: float) -> np.ndarray:
        """Centered width of each probe: first a bisection over the right
        distances, then over the left distances strictly between the two
        right distances that bracket the probe's answer.  The window mass
        is nondecreasing in the distance, so each bisection lands on the
        first distance whose window reaches the target."""
        cells = np.asarray(cells)
        weights = np.asarray(weights, dtype=float)
        cr = self.cr

        def mass(rows, ja, jb):
            """Outcome mass of probes `rows` on the out cells [ja, jb) before the warp."""
            c = cells[rows]
            return (cr.take(jb[:, None] - c, mode="clip") -
                    cr.take(ja[:, None] - c, mode="clip")) @ weights

        m = len(cells)
        total = mass(np.arange(m), np.zeros(m, int), np.full(m, self.n_out))
        off = np.abs(total - 1.0) > RENORM_TOL
        if off.any():
            raise ValueError(f"total mass {total[off][0]:.9f} deviates from 1 beyond {RENORM_TOL}")
        goal = (1.0 - eps - 1e-12) * total

        def first_reaching(dist, i, j):
            """Per probe, the first index in [i, j) whose window reaches the goal, else j."""
            todo = np.flatnonzero(i < j)
            while todo.size:
                mid = (i[todo] + j[todo]) // 2
                ok = mass(todo, *self._run(dist[mid])) >= goal[todo]
                j[todo[ok]] = mid[ok]
                i[todo[~ok]] = mid[~ok] + 1
                todo = todo[i[todo] < j[todo]]
            return i

        r = first_reaching(self.right, np.zeros(m, int), np.full(m, self.right.size))
        bracket = np.concatenate(([-math.inf], self.right, [math.inf]))
        below, above = bracket[r], bracket[r + 1]
        # only left distances strictly between the two can beat `above`
        a = self.left.searchsorted(below, "right")
        b = self.left.searchsorted(above, "left")
        i = first_reaching(self.left, a, b.copy())
        return 2.0 * np.where(i < b, np.append(self.left, math.inf)[i], above)


def _axis_pass(kernel: Kernel, eps: float, cfg: CalibrationConfig) -> tuple:
    """Resolution width and the calibration error at each rung of the
    ladder, for `cfg` given in the units of the kernel axis.

    The ladder is taken about x = 0 for a covariant kernel and about every
    probe center otherwise, from one window table per center: the rungs
    about x are nested runs of axis cells, so the point widths are taken
    once, over the cells of the widest rung, and each rung's value is the
    largest of them over its own cells.  The worst center gives the value.

    The resolution probes are the point mass at the cell nearest to every
    probe center and, on the position axis, the uniform mass on the cells
    within one step of every center.  For a non-covariant kernel they are
    bisected on the same tables; the resolution at x is the narrowest of
    their windows and the worst x gives the value.  For a covariant kernel
    every window center is equivalent, so the resolution is the narrowest
    overall width of a point mass's outcome (a box's outcome mixes shifted
    copies of it and is never narrower): unwarped, the smearing measure's
    own, and with a shift warp that of the built outcome, which keeps its
    exact clipping at the grid edges.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    axis_grid = _axis_grid(kernel.axis, cfg.grid, cfg.hbar)
    ladder = [0.0] * len(cfg.delta_ladder)
    centers, points = (0.0,), []
    if kernel.gmap is None:
        resolution = 0.0 if kernel.measure is None else overall_width(kernel.measure, eps)
    elif kernel.covariant:
        resolution = min(overall_width(kernel.smear(point_mass(c, axis_grid)), eps)
                         for c in cfg.probe_centers)
    else:
        resolution, centers = 0.0, cfg.probe_centers
        points = [axis_grid.nearest_index(c) for c in centers]
        boxes = [_cells_within(axis_grid, c, 2 * axis_grid.dx)
                 for c in centers] if kernel.axis == "q" else []
    for x in centers:
        windows = _CenteredWindows(kernel, axis_grid, x)
        rungs = [_rung(axis_grid, x, delta) for delta in cfg.delta_ladder]
        lo, hi = min(r[0] for r in rungs), max(r[1] for r in rungs)
        cells = np.concatenate((np.arange(lo, hi + 1), np.array(points, dtype=int)))
        w = windows.widths(cells[:, None], (1.0,), eps)
        for i, (first, last) in enumerate(rungs):
            ladder[i] = max(ladder[i], float(w[first - lo:last - lo + 1].max()))
        if points:
            best = w[hi - lo + 1:].min()
            for box in boxes:
                best = min(best, windows.widths(box[None], np.full(box.size, 1.0 / box.size),
                                                eps)[0])
            resolution = max(resolution, float(best))
    return resolution, ladder


def _error_bar(axis: str, cfg: CalibrationConfig, vals) -> ErrorBarResult:
    """The ladder's value at its smallest rung, with its spread; an error
    that grew by more than two cells as delta shrank is inconclusive."""
    step = _axis_grid(axis, cfg.grid, cfg.hbar).dx
    for coarse, fine in zip(vals, vals[1:]):
        if fine > coarse + 2 * step + 1e-9:
            raise LadderInconsistencyError(
                f"calibration error grew from {coarse} to {fine} as delta shrank")
    finite = [v for v in vals if math.isfinite(v)]
    spread = (max(finite) - min(finite)) if finite else float("inf")
    return ErrorBarResult(vals[-1], tuple(zip(cfg.delta_ladder, vals)), spread)


def resolution_width(kernel: Kernel, eps: float, cfg: CalibrationConfig) -> float:
    """Smallest window some sharply localized probe state concentrates the
    outcome into: the worst over the probe centers of the narrowest probe
    window for a non-covariant kernel, the narrowest overall width for a
    covariant one (:func:`_axis_pass`; `cfg` in the kernel axis' units)."""
    return _axis_pass(kernel, eps, cfg)[0]


def calibration_error(kernel: Kernel, eps: float, delta: float,
                      cfg: CalibrationConfig) -> float:
    """Smallest output window, centered on the nominal value x, that holds
    the outcome with confidence 1 - eps for every state localized within
    the rung [x - delta/2, x + delta/2]; x = 0 for a covariant kernel, and
    the worst over the probe centers otherwise.

    A window's outcome mass is linear in the state's axis distribution P,
    so over all P supported on the rung's cells the sup is attained at a
    vertex of that simplex, a point mass.  The value is therefore exactly
    the largest point-mass width over the rung's cells; box or truncated
    Gaussian probes are convex mixtures of point masses and never raise it.

    Returns inf when no window inside the scenario grid reaches the
    confidence target (infinite error at desk scale).
    """
    return _axis_pass(kernel, eps, replace(cfg, delta_ladder=(delta,)))[1][0]


def error_bar_width(kernel: Kernel, eps: float,
                    cfg: CalibrationConfig) -> ErrorBarResult:
    """Calibration error along the shrinking delta ladder.

    The error must not increase as delta decreases (monotonicity of the
    calibration functional); the value at the smallest rung is reported,
    with the ladder spread as the numerical uncertainty.  Every rung is the
    exact sup over its point masses (:func:`calibration_error`) and the
    rungs are nested, so the ladder is nonincreasing by construction; the
    check stays as a guard.
    """
    return _error_bar(kernel.axis, cfg, _axis_pass(kernel, eps, cfg)[1])


# ---------------------------------------------------------------------------
# Werner-style distances
# ---------------------------------------------------------------------------

def werner_distance_covariant(mu: GridMeasure) -> float:
    """Closed-form distance of a shift-covariant smearing from the sharp
    observable: the first absolute moment of the smearing measure."""
    return float(np.dot(np.abs(mu.grid.points()), mu.weights))


def _check_lipschitz(h, grid: GridSpec):
    vals = np.asarray(h(grid.points()), dtype=float)
    if np.max(np.abs(np.diff(vals))) > grid.dx * (1.0 + 1e-9):
        raise ValueError("hat function is not 1-Lipschitz on the grid")
    return vals


def werner_distance_lower_bound(k1: Kernel, k2: Kernel,
                                states, hats) -> float:
    """Certified lower bound on the observable distance from finite families
    of states and 1-Lipschitz hat functions."""
    best = 0.0
    for rho in states:
        d1 = k1.outcome_distribution(rho)
        d2 = k2.outcome_distribution(rho)
        for h in hats:
            v1 = _check_lipschitz(h, d1.grid)
            v2 = _check_lipschitz(h, d2.grid)
            gap = abs(float(np.dot(v1, d1.weights)) - float(np.dot(v2, d2.weights)))
            best = max(best, gap)
    return best


def clipped_identity(radius: float):
    """Hat h(x) = clip(x, -radius, radius); 1-Lipschitz and bounded."""
    return lambda x: np.clip(x, -radius, radius)


def tent(center: float, height: float):
    """Hat rising to `height` at `center` with unit slopes."""
    return lambda x: np.clip(height - np.abs(np.asarray(x) - center), 0.0, None)


@dataclass(frozen=True)
class DistanceErrorReport:
    error_bar: float
    distance: float
    rhs: float
    tolerance: float
    passed: bool


def check_distance_error_inequality(kernel: Kernel, eps: float,
                                    cfg: CalibrationConfig) -> DistanceErrorReport:
    """Verify error_bar_width <= (2/eps) * distance + grid tolerance for a
    covariant kernel with closed-form distance."""
    mu = kernel.measure
    if mu is None or not kernel.covariant:
        raise ValueError("closed-form distance needs a covariant smeared kernel")
    dist = werner_distance_covariant(mu)
    eb = error_bar_width(kernel, eps, cfg).value
    step = _axis_grid(kernel.axis, cfg.grid, cfg.hbar).dx
    tol = 2.0 * step
    rhs = (2.0 / eps) * dist + tol
    report = DistanceErrorReport(eb, dist, rhs, tol, eb <= rhs)
    if not report.passed:
        raise RelationViolationError(
            f"error bar {eb} exceeds (2/eps)*distance + tol = {rhs}")
    return report


# ---------------------------------------------------------------------------
# Joint verification driver
# ---------------------------------------------------------------------------

def verify_joint_ur(gen: MixedState, eps: ConfidencePair, cfg: CalibrationConfig,
                    scenario_id: str = "scenario", kernels=None) -> WidthReport:
    """Width report for the joint observable generated by gen (or for an
    explicitly supplied kernel pair, e.g. warped marginals).

    Checks that both the error-bar product and the resolution product clear
    the simple lower bound, up to the per-axis one-cell width slack.
    """
    grid, hbar = gen.grid, gen.hbar
    dp = momentum_grid(grid, hbar).dx
    if kernels is None:
        mu, nu = marginal_measures(gen)
        kernels = Kernel("q", mu), Kernel("p", nu)
    kq, kp = kernels

    def axis_widths(kernel, e):
        axis_cfg = cfg.for_axis(kernel.axis)
        res, vals = _axis_pass(kernel, e, axis_cfg)
        eb = _error_bar(kernel.axis, axis_cfg, vals)
        mu = kernel.measure
        ow = overall_width(mu, e) if mu is not None else 0.0
        wd = werner_distance_covariant(mu) if mu is not None else 0.0
        return AxisWidths(ow, res, eb.value, eb.spread, wd)

    aq = axis_widths(kq, eps.eps1)
    ap = axis_widths(kp, eps.eps2)

    prod_eb = aq.error_bar * ap.error_bar
    prod_res = aq.resolution * ap.resolution
    bs = bound_simple(eps, hbar)
    bu = bound_uffink(eps, hbar)
    # one grid cell per interval endpoint, per axis, propagated to the product
    slack = 2.0 * (grid.dx * ap.error_bar + dp * aq.error_bar) + \
        2.0 * (grid.dx * ap.resolution + dp * aq.resolution)
    note = ""
    if not eps.valid_bound:
        note = "no positive bound"
    passed = (prod_eb >= bs - slack) and (prod_res >= bs - slack)
    return WidthReport(scenario_id, eps, aq, ap, prod_eb, prod_res, bs, bu,
                       prod_eb - bs, prod_eb - bu, passed, note)


# ---------------------------------------------------------------------------
# Width-product minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateFamily:
    """Finite-box parameterized state family for the tightness probe."""

    names: tuple
    bounds: tuple            # ((lo, hi), ...) matching names
    build: callable = field(compare=False)

    def clip(self, params):
        return tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(params, self.bounds))


@dataclass(frozen=True)
class MinimizeResult:
    params: tuple
    product: float
    ratio_simple: float
    ratio_uffink: float


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _golden_section(f, a, b, iters=40):
    c = b - (b - a) / _GOLDEN
    d = a + (b - a) / _GOLDEN
    for _ in range(iters):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - (b - a) / _GOLDEN
        d = a + (b - a) / _GOLDEN
    return 0.5 * (a + b)


def minimize_width_product(family: StateFamily, eps: ConfidencePair,
                           hbar: float = 1.0, sweeps: int = 3) -> MinimizeResult:
    """Derivative-free coordinate descent (golden section, with restarts)
    of the overall-width product over the family's parameter box."""
    from .states import momentum_distribution, position_distribution

    def objective(params):
        try:
            rho = family.build(family.clip(params))
            wq = overall_width(position_distribution(rho), eps.eps1)
            wp = overall_width(momentum_distribution(rho), eps.eps2)
            prod = wq * wp
        except ValueError:
            return float("inf")
        return prod if math.isfinite(prod) else float("inf")

    starts = [tuple(0.5 * (lo + hi) for lo, hi in family.bounds),
              tuple(0.25 * hi + 0.75 * lo for lo, hi in family.bounds),
              tuple(0.75 * hi + 0.25 * lo for lo, hi in family.bounds)]
    best_params, best_val = None, float("inf")
    for start in starts:
        params = list(start)
        for _ in range(sweeps):
            for i, (lo, hi) in enumerate(family.bounds):
                def f1(v, i=i):
                    trial = list(params)
                    trial[i] = v
                    return objective(tuple(trial))
                params[i] = _golden_section(f1, lo, hi)
        val = objective(tuple(params))
        if val < best_val:
            best_params, best_val = tuple(params), val
    bs = bound_simple(eps, hbar)
    bu = bound_uffink(eps, hbar)
    return MinimizeResult(best_params, best_val,
                          best_val / bs if bs > 0 else float("inf"),
                          best_val / bu if bu > 0 else float("inf"))
