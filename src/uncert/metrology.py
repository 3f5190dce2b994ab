"""Uncertainty functionals: calibration error, error bar and resolution
widths, Werner-style distances, the lower-bound formulas, and the joint
verification driver.

Both per-axis widths come from the outcome windows of sharply localized
probe states: the calibration error of each rung of a shrinking ladder,
exactly the largest point-mass window over the rung's cells, the error bar
at the smallest rung, and the resolution, the narrowest window of a fixed
probe family (:func:`_axis_pass` defines each).

The ladder and a non-covariant kernel's resolution are read off one table
of prefix sums of the kernel's reflected smearing measure per (kernel,
center) (:class:`_CenteredWindows`), in one vectorized bisection over all
probes; a covariant kernel's resolution is its smearing measure's overall
width.  So no probe measure, probe state or outcome is built.  A table's
distances and warp cells end at the widest window its probes can need, a
reach confirmed against every probe's goal before the bisection, so its
answers are those of a table over the whole out grid.
:func:`_axis_pass` is the one route to these widths, for any number of eps
values, on the calibration block that :meth:`CalibrationConfig._on_axis`
places on the kernel's axis.  :func:`verify_scenarios`, the one verify
entry, checks that each kernel observes its place's axis on that axis'
grid, then runs the pass once per distinct kernel, up front.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .grids import RENORM_TOL, GridMeasure, GridSpec, _normalize_weights, _sum_grid, \
    _target, overall_width
from .observables import Kernel, _warp_cells
from .states import momentum_grid


# ---------------------------------------------------------------------------
# Configuration / report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidencePair:
    eps1: float
    eps2: float

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            try:
                _target(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

    @property
    def valid_bound(self) -> bool:
        return self.eps1 + self.eps2 < 1.0


@dataclass(frozen=True)
class CalibrationConfig:
    """Delta ladder and probe centers, in position units on both axes;
    :meth:`_on_axis` scales them by dp/dx onto the momentum axis.  The
    checks here are every rule the passes rely on: the ladder decreases,
    each rung is at least 2 dx and below n dx, and on both axes the smallest
    rung about each center and about x = 0, and on q the 2 dx resolution box
    about each center, hold a grid point.  The momentum grid needs even n.
    """

    delta_ladder: tuple
    probe_centers: tuple
    grid: GridSpec
    hbar: float = 1.0

    def __post_init__(self):
        grid, ladder = self.grid, tuple(float(d) for d in self.delta_ladder)
        centers = tuple(float(c) for c in self.probe_centers)
        object.__setattr__(self, "delta_ladder", ladder)
        object.__setattr__(self, "probe_centers", centers)
        if not ladder:
            raise ValueError("delta_ladder: must name at least one rung")
        for i, d in enumerate(ladder):
            if not d / grid.dx >= 2.0 - 1e-9:
                raise ValueError(f"delta_ladder[{i}]: {d} is below the 2-cell minimum "
                                 f"2*dx = {2 * grid.dx}")
            if not d / grid.dx < grid.n - 1e-9:
                raise ValueError(f"delta_ladder[{i}]: {d} is not below the grid length "
                                 f"n*dx = {grid.n * grid.dx}")
            if i and not d < ladder[i - 1]:
                raise ValueError(f"delta_ladder[{i}]: {d} is not below delta_ladder[{i - 1}] "
                                 f"= {ladder[i - 1]}; the ladder must decrease")
        if not centers:
            raise ValueError("probe_centers: must name at least one center")
        # the rungs about a point nest, so the smallest one decides
        if not grid.cells_within(-0.5 * ladder[-1], 0.5 * ladder[-1]):
            raise ValueError("grid: no point within delta_ladder[-1] / 2 of x = 0, where "
                             "covariant kernels are calibrated")
        for axis, step, name in (("q", "dx", "grid"), ("p", "dp", "momentum grid")):
            axis_grid, deltas, xs = self._on_axis(axis)
            sizes = (deltas[-1],) + ((2 * axis_grid.dx,) if axis == "q" else ())
            for i, (c, x) in enumerate(zip(centers, xs)):
                if all(axis_grid.cells_within(x - 0.5 * d, x + 0.5 * d) for d in sizes):
                    continue
                scaled = "" if axis == "q" else f", scaled by dp/dx to {x},"
                raise ValueError(f"probe_centers[{i}]: {c}{scaled} is more than one cell "
                                 f"({step} = {axis_grid.dx}) outside the {name} "
                                 f"[{axis_grid.x_min}, {axis_grid.x_max}]")

    def _on_axis(self, axis: str) -> tuple:
        """The `axis` grid, and the ladder and probe centers in its units:
        on p, the momentum grid and both times scale = dp/dx (1.0 on q)."""
        axis_grid = self.grid if axis == "q" else momentum_grid(self.grid, self.hbar)
        scale = axis_grid.dx / self.grid.dx
        return (axis_grid, [d * scale for d in self.delta_ladder],
                [c * scale for c in self.probe_centers])


@dataclass(frozen=True)
class WidthReport:
    """One verify row; its fields are the report's columns, in order."""

    scenario_id: str
    eps1: float
    eps2: float
    overall_q: float
    overall_p: float
    resolution_q: float
    resolution_p: float
    errorbar_q: float
    errorbar_q_spread: float
    errorbar_p: float
    errorbar_p_spread: float
    werner_q: float
    werner_p: float
    product_errorbar: float
    product_resolution: float
    bound_simple: float
    bound_uffink: float
    margin_simple: float
    margin_uffink: float
    passed: bool


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

class _CenteredWindows:
    """Centered outcome windows of one kernel about one center x.

    ``widths(cells, weights, targets)[i]`` equals
    ``centered_width(kernel.smear(P_i), x, eps)`` for ``targets[i]`` =
    ``grids._target(eps)`` and the probe P_i that puts ``weights`` on the
    axis cells ``cells[i]`` (a point mass is a row of one cell with weight
    1), without building the probe or its outcome.  The outcome lives on
    the out grid of n + n_R - 1 cells, where R is the reflected smearing
    measure (delta_0 for a sharp kernel).  Its mass on out cells [L, H) is
    sum_c P_c (CR[jb - c] - CR[ja - c]): CR holds the prefix sums of R, and
    [ja, jb) are the cells the warp map sends into [L, H) (ja = L, jb = H
    unwarped; the warp's cell map is nondecreasing).  The cells within D of
    x form one run [L, H), so the smallest D whose run reaches the target
    is found by binary search over the distances, for all probes at once.
    A point mass's masses are exact differences of CR; a spread probe's are
    summed in another order than the outcome's, and the 1e-12 margin on the
    target absorbs the rounding.

    The distances ``right`` (x_j - x for j >= k, k the first out cell at or
    right of x) and ``left`` (x - x_j for j = k - 1 down to 0) and the warp
    cell map are tabulated only out to a reach: the out cells [k - reach,
    k + reach) of the grid.  :meth:`widths` takes a first reach from the
    band of R that holds the largest goal, placed at the probe cells, and
    confirms it once, before bisecting: the window within the smaller of
    the two last tabulated distances (the sentinels) must reach every
    probe's goal.  Otherwise the reach doubles, up to the whole grid.  A
    truncated side holds every distance up to its sentinel, so at any
    distance up to the smaller one both sides count as the whole table
    counts, and at any larger one the window already reaches the goal in
    both.  Each bisection step therefore decides as on the whole table,
    and its answer, read off the distances themselves, is the whole
    table's, bit for bit.  The warp cells are tabulated over the out cells
    [j0, j1) whose images cover [k - reach, k + reach], with one image past
    each end, so each of their counts is the whole map's, less j0; the
    probe cells are counted from j0 to match.

    Cost: O(n_R) to build the prefix sums and O(reach) per table, in time
    and memory; O(m k log reach) vectorized for m probes of k cells each.
    The table holds ``cr`` (n_R + 1 floats), ``right`` and ``left`` (2 reach
    floats between them) and, for a warped kernel, ``cells`` (about 2 reach
    int64 plus twice the map's displacement in cells), and the build allocates nothing
    else of full length: R's weights are written reversed straight into
    ``cr[1:]``, normalized and summed there (the steps of reflect() and
    GridMeasure, so ``cr`` has their bits), ``cells`` is filled block by
    block (:func:`observables._warp_cells` over the span), the two distance
    arrays are out points of :meth:`GridSpec.points`, shifted in place, and
    k is bisected on x_min + dx * j.  A table depends on the kernel and x
    alone, so :func:`_axis_pass` builds one per (kernel, center), one at a
    time, and bisects the probes of every eps in one call.
    """

    def __init__(self, kernel: Kernel, axis_grid: GridSpec, x: float):
        mu = kernel.measure
        # CR[k] for 0 <= k <= n_R; take(mode="clip") extends it with its end values
        if mu is None:
            out, self.cr = axis_grid, np.array([0.0, 1.0])
        else:
            # reflect(mu)'s weights, normalized as GridMeasure normalizes them
            g = mu.grid
            out = _sum_grid(axis_grid, GridSpec(-g.x_max, g.dx, g.n))
            self.cr = np.empty(g.n + 1)
            self.cr[0] = 0.0
            r = self.cr[1:]
            r[...] = mu.weights[::-1]
            _normalize_weights(r)
            np.cumsum(r, out=r)
        self.out, self.gmap, self.x = out, kernel.gmap, x
        x0, dx = out.x_min, out.dx
        self.k = bisect.bisect_left(range(out.n), True, key=lambda j: x0 + dx * j >= x)
        self.reach = 0      # nothing tabulated yet

    def _tabulate(self, reach: int):
        """Tables out to `reach` out cells on each side of k, clipped to the grid."""
        out, x, k, n = self.out, self.x, self.k, self.out.n
        lo, hi = max(k - reach, 0), min(k + reach, n)
        self.reach = reach
        # right holds x_j - x for k <= j < hi, left x - x_j for j = k - 1 down
        # to lo, both nondecreasing
        self.right = out.points(k, hi)
        self.right -= x
        self.left = out.points(k - 1, lo - 1, -1)
        np.subtract(x, self.left, out=self.left)
        # the smaller sentinel, the last entry of a truncated side: up to it,
        # both sides count as the whole table does (inf if neither is cut)
        ends = [t[-1] for t, cut in ((self.right, hi < n), (self.left, lo > 0)) if cut]
        self.sure = min(ends, default=math.inf)
        self.j0, self.cells = 0, None
        if self.gmap is not None:
            # out cells [j0, j1) whose images cover [lo, hi], one past each end:
            # padded by the map's displacement, in cells, at lo and hi - 1, and
            # widened until both ends hold
            c = _warp_cells(out, self.gmap, lo, hi, max(hi - 1 - lo, 1))
            pad = max(int(c[0]) - lo, hi - 1 - int(c[-1]), 0) + 2
            while True:
                j0, j1 = max(lo - pad, 0), min(hi + pad, n)
                cells = _warp_cells(out, self.gmap, j0, j1)
                if (j0 == 0 or cells[0] < lo) and (j1 == n or cells[-1] >= hi):
                    break
                pad *= 2
            self.j0, self.cells = j0, cells

    def _first_reach(self, cells, goal) -> int:
        """Out cells from k to the images of the band of R that holds the
        largest goal, a third of the rest cut from each tail, placed at the
        lowest and highest probe cells: a guess that :meth:`widths` confirms."""
        cr = self.cr
        tail = (cr[-1] - goal.max()) / 3
        ends = [int(cells.min()) + int(cr.searchsorted(tail, "right")) - 1,
                int(cells.max()) + int(cr.searchsorted(cr[-1] - tail)) - 1]
        if self.gmap is not None:
            ends = [int(_warp_cells(self.out, self.gmap, j, j + 1)[0]) for j in ends]
        return max(self.k - ends[0], ends[1] + 1 - self.k, 1) + 1

    def _run(self, d):
        """Bounds [ja, jb) of the out cells, before the warp and counted from
        j0, that the warp sends within distance d of x (elementwise for an
        array d)."""
        L = self.k - self.left.searchsorted(d, "right")
        H = self.k + self.right.searchsorted(d, "right")
        if self.cells is None:
            return L, H
        return self.cells.searchsorted(L), self.cells.searchsorted(H)

    def widths(self, cells, weights, targets) -> np.ndarray:
        """Centered width of each probe: first a bisection over the right
        distances, then over the left distances strictly between the two
        right distances that bracket the probe's answer.  The window mass
        is nondecreasing in the distance, so each bisection lands on the
        first distance whose window reaches the target.

        `targets` is one target mass (:func:`grids._target`) for every
        probe or an array of one per probe; a probe's goal, target times
        total, is the same float either way, so the probes of several eps
        can share one bisection, O(log reach) steps for all of them.  The
        table is tabulated, or grown, here, before the bisections, until
        its reach holds every probe's goal."""
        cells = np.asarray(cells)
        weights = np.asarray(weights, dtype=float)
        cr = self.cr
        m = len(cells)
        probes = np.arange(m)

        def mass(rows, ja, jb):
            """Outcome mass of probes `rows` on the out cells [ja, jb) before the
            warp, both counted, as the probe cells are, from j0."""
            c = cells[rows]
            return (cr.take(jb[:, None] - c, mode="clip") -
                    cr.take(ja[:, None] - c, mode="clip")) @ weights

        total = mass(probes, np.zeros(m, int), np.full(m, self.out.n))
        off = np.abs(total - 1.0) > RENORM_TOL
        if off.any():
            raise ValueError(f"total mass {total[off][0]:.9f} deviates from 1 beyond {RENORM_TOL}")
        goal = targets * total

        reach, axis_cells = self.reach or self._first_reach(cells, goal), cells
        while True:
            if reach != self.reach:
                self._tabulate(reach)
            cells = axis_cells - self.j0
            if self.sure == math.inf or (mass(probes, *self._run(np.full(m, self.sure))) >= goal).all():
                break
            reach = min(2 * reach, max(self.k, self.out.n - self.k))

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

        right, left = self.right, self.left
        r = first_reaching(right, np.zeros(m, int), np.full(m, right.size))
        # the right distances r - 1 and r, read as -inf and inf past the ends
        below, above = np.full(m, -math.inf), np.full(m, math.inf)
        inner = r > 0
        below[inner] = right[r[inner] - 1]
        inner = r < right.size
        above[inner] = right[r[inner]]
        # only left distances strictly between the two can beat `above`
        a = left.searchsorted(below, "right")
        b = left.searchsorted(above, "left")
        i = first_reaching(left, a, b.copy())
        inner = i < b
        above[inner] = left[i[inner]]
        return 2.0 * above


def _axis_pass(kernel: Kernel, eps_values, cfg: CalibrationConfig) -> list:
    """Per eps in `eps_values`, the pair (resolution width, calibration
    error at each rung of the ladder): the one route to a kernel's widths.
    The rungs and probe centers are cfg's on the kernel's axis
    (:meth:`CalibrationConfig._on_axis`).

    The calibration error at a rung delta is the smallest output window,
    centered on the nominal value x, that holds the outcome with confidence
    1 - eps for every state localized within [x - delta/2, x + delta/2];
    x = 0 for a covariant kernel, and the worst over the probe centers
    otherwise.  A window's outcome mass is linear in the state's axis
    distribution P, so over all P supported on the rung's cells the sup is
    attained at a vertex of that simplex, a point mass: the value is exactly
    the largest point-mass width over the rung's cells, and no box or
    truncated Gaussian probe can raise it.  The rungs about x are nested
    runs of axis cells, so the ladder is nonincreasing; the error bar is its
    smallest rung, ``ladder[-1]``, with the spread ``max - min`` as its
    numerical uncertainty.  The point widths come from one window table per
    center, taken once over the cells of the widest rung; each rung's value
    is the largest of them over its own cells.

    The resolution is the smallest window some sharply localized probe
    concentrates the outcome into.  The probes are the point mass at the
    cell nearest to every probe center and, on the position axis, the
    uniform mass on the cells within one step of every center.  For a
    non-covariant kernel they are bisected on the same tables; the
    resolution at x is the narrowest of their windows and the worst x gives
    the value.  For a covariant kernel, unwarped or shifted, every window
    center is equivalent and a point mass's outcome is the reflected
    smearing measure moved, so the resolution is the measure's overall
    width, 0 when sharp (a box's outcome mixes shifted copies of it and is
    never narrower).  A shift's clipping at the grid edges enters the
    ladder alone, through the window table's warp cells.

    Cost: one window table per center, whatever the number of eps values,
    and one bisection per table for the point masses of every eps (the
    widest rung's cells and the resolution points, one row per eps and
    cell), plus one per box; a covariant kernel's resolution takes one
    overall width per eps.  Each eps gets the numbers a pass over that eps
    alone gives.
    """
    eps_values = tuple(eps_values)
    targets = np.array([_target(eps) for eps in eps_values])
    axis_grid, deltas, probe_centers = cfg._on_axis(kernel.axis)
    ladders = [[0.0] * len(deltas) for _ in eps_values]
    centers, points = (0.0,), []
    if kernel.covariant:
        resolutions = [0.0 if kernel.measure is None else overall_width(kernel.measure, eps)
                       for eps in eps_values]
    else:
        resolutions, centers = [0.0] * len(eps_values), probe_centers
        points = [axis_grid.nearest_index(c) for c in centers]
        # a box, the cells within one step of c, is the rung of delta = 2 dx about c
        boxes = [] if kernel.axis == "p" else [
            np.array(axis_grid.cells_within(c - axis_grid.dx, c + axis_grid.dx))
            for c in centers]
    for x in centers:
        windows = _CenteredWindows(kernel, axis_grid, x)
        rungs = [axis_grid.cells_within(x - 0.5 * delta, x + 0.5 * delta) for delta in deltas]
        lo = rungs[0].start   # the ladder decreases, so its first rung holds the others
        cells = np.concatenate((np.arange(lo, rungs[0].stop), np.array(points, dtype=int)))
        # row e * cells.size + i is the point mass at cells[i] under eps_values[e]
        w = windows.widths(np.tile(cells, len(eps_values))[:, None], (1.0,),
                           targets.repeat(cells.size)).reshape(len(eps_values), cells.size)
        for ladder, we in zip(ladders, w):
            for i, r in enumerate(rungs):
                ladder[i] = max(ladder[i], float(we[r.start - lo:r.stop - lo].max()))
        if points:
            best = w[:, len(rungs[0]):].min(axis=1)
            for box in boxes:
                rows = np.broadcast_to(box, (len(eps_values), box.size))
                best = np.minimum(best, windows.widths(rows, np.full(box.size, 1.0 / box.size),
                                                       targets))
            resolutions = [max(r, float(b)) for r, b in zip(resolutions, best)]
        del windows     # not held while the next center's table is built
    return list(zip(resolutions, ladders))


# ---------------------------------------------------------------------------
# Werner-style distances
# ---------------------------------------------------------------------------

def werner_distance_covariant(mu: GridMeasure) -> float:
    """Closed-form distance of a shift-covariant smearing from the sharp
    observable: the first absolute moment of the smearing measure, summed
    in one n-float array with no BLAS call."""
    x = mu.grid.points()
    np.abs(x, out=x)
    x *= mu.weights
    return float(x.sum())


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


# ---------------------------------------------------------------------------
# Joint verification driver
# ---------------------------------------------------------------------------

def verify_scenarios(cfg: CalibrationConfig, scenarios) -> list:
    """Width reports of `scenarios`, (scenario_id, eps, (kq, kp)) triples of
    kernel pairs observed on cfg's grid and hbar, in their order.  A pair's
    places name its axes: a kernel in the q place must observe q, one in the
    p place p.  The kernels carry all a row reads of a generator, its
    marginal measures, so the generator's states need not be held while
    they run.  A kernel's measure must lie on cfg's grid for its axis, the
    momentum grid on p, which also pins hbar; a sharp kernel takes cfg's.

    Each row checks that both the error-bar product and the resolution
    product clear the simple lower bound, up to the per-axis one-cell width
    slack; a row whose eps pair leaves no positive bound has
    ``(no positive bound)`` appended to its scenario_id.  Every distinct
    kernel (kernels compare by axis, measure object and map) gets one
    :func:`_axis_pass`, up front, after every scenario is checked, over
    every eps the scenarios need on its axis, so a warp that leaves an axis
    unwarped reuses the plain kernel's pass.  The overall width of a measure
    at eps is read off a covariant kernel's pass and taken once otherwise;
    the Werner distance is taken once per measure.
    """
    axis_grids = {axis: cfg._on_axis(axis)[0] for axis in "qp"}
    eps_of = {}      # kernel -> {eps: None}, the eps values it needs in order
    for scenario_id, eps, pair in scenarios:
        for axis, kernel, e in zip("qp", pair, (eps.eps1, eps.eps2)):
            mu, grid = kernel.measure, axis_grids[axis]
            if kernel.axis != axis:
                raise ValueError(f"{scenario_id}: the {axis} place holds a {kernel.axis} kernel")
            if kernel not in eps_of and mu is not None and mu.grid != grid:
                raise ValueError(f"{scenario_id}: the {axis} kernel's measure lies on "
                                 f"{mu.grid}, not on the calibration's {axis} grid {grid}")
            eps_of.setdefault(kernel, {})[e] = None
    passes = {kernel: dict(zip(es, _axis_pass(kernel, es, cfg))) for kernel, es in eps_of.items()}
    # a covariant kernel's resolution is its measure's overall width
    overall = {(kernel.measure, e): res for kernel, widths in passes.items()
               if kernel.covariant for e, (res, _) in widths.items()}
    werner = {mu: 0.0 if mu is None else werner_distance_covariant(mu)
              for mu in dict.fromkeys(kernel.measure for kernel in eps_of)}

    def axis_widths(kernel, e):
        res, vals = passes[kernel][e]
        mu = kernel.measure
        if (mu, e) not in overall:
            overall[mu, e] = 0.0 if mu is None else overall_width(mu, e)
        return overall[mu, e], res, vals[-1], max(vals) - min(vals), werner[mu]

    dx, dp = axis_grids["q"].dx, axis_grids["p"].dx
    reports = []
    for scenario_id, eps, (kq, kp) in scenarios:
        overall_q, res_q, eb_q, spread_q, werner_q = axis_widths(kq, eps.eps1)
        overall_p, res_p, eb_p, spread_p, werner_p = axis_widths(kp, eps.eps2)
        prod_eb = eb_q * eb_p
        prod_res = res_q * res_p
        bs = bound_simple(eps, cfg.hbar)
        bu = bound_uffink(eps, cfg.hbar)
        # one grid cell per interval endpoint, per axis, propagated to the product
        slack = 2.0 * (dx * eb_p + dp * eb_q) + 2.0 * (dx * res_p + dp * res_q)
        if not eps.valid_bound:
            scenario_id += "(no positive bound)"
        passed = (prod_eb >= bs - slack) and (prod_res >= bs - slack)
        reports.append(WidthReport(
            scenario_id, eps.eps1, eps.eps2, overall_q, overall_p, res_q, res_p,
            eb_q, spread_q, eb_p, spread_p, werner_q, werner_p, prod_eb, prod_res,
            bs, bu, prod_eb - bs, prod_eb - bu, passed))
    return reports

