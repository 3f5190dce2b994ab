import math
import tracemalloc

import numpy as np
import pytest

from uncert import metrology
from uncert.grids import (
    GridMeasure,
    GridSpec,
    centered_width,
    gaussian_measure,
    overall_width,
    point_mass,
    uniform_measure,
)
from uncert.metrology import (
    CalibrationConfig,
    ConfidencePair,
    LadderInconsistencyError,
    StateFamily,
    bound_simple,
    bound_uffink,
    calibration_error,
    check_distance_error_inequality,
    clipped_identity,
    error_bar_width,
    minimize_width_product,
    resolution_width,
    tent,
    verify_joint_ur,
    werner_distance_covariant,
    werner_distance_lower_bound,
)
from uncert.observables import (
    Kernel,
    PiecewiseLinearMap,
    WarpMap,
    phase_marginal,
)
from uncert.states import (
    MixedState,
    WaveFunction,
    _from_momentum_amps,
    box_state,
    gaussian_state,
    momentum_box_state,
    momentum_distribution,
    momentum_grid,
    momentum_point_state,
    point_state,
    position_distribution,
    superpose,
)

GRID = GridSpec.symmetric(12.8, 1024)  # dx = 0.025
DX = GRID.dx
HBAR = 1.0
DP = momentum_grid(GRID, HBAR).dx

Z975 = 1.9599639845400545  # standard-normal 97.5% quantile

CFG = CalibrationConfig(delta_ladder=(0.4, 0.2, 0.1), probe_centers=(0.0,),
                        grid=GRID, hbar=HBAR)


def vacuum(sigma=1.0):
    return MixedState.pure(gaussian_state(0.0, 0.0, sigma, GRID, HBAR))


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------

class TestBounds:
    def test_simple_known_values(self):
        assert bound_simple(ConfidencePair(0.05, 0.05), 1.0) == \
            pytest.approx(2 * math.pi * 0.81, rel=1e-12)  # 5.0894...
        assert bound_simple(ConfidencePair(0.05, 0.1), 1.0) == \
            pytest.approx(2 * math.pi * 0.85**2, rel=1e-12)

    def test_uffink_known_values(self):
        # at eps1 = eps2 the two bounds coincide
        e = ConfidencePair(0.05, 0.05)
        assert bound_uffink(e, 1.0) == pytest.approx(bound_simple(e, 1.0), rel=1e-12)
        e = ConfidencePair(0.05, 0.1)
        root = math.sqrt(0.95 * 0.9) - math.sqrt(0.05 * 0.1)
        assert bound_uffink(e, 1.0) == pytest.approx(2 * math.pi * root**2, rel=1e-12)

    def test_vanish_when_levels_exhaust_confidence(self):
        for e in (ConfidencePair(0.5, 0.5), ConfidencePair(0.7, 0.4)):
            assert bound_simple(e, 1.0) == 0.0
            assert bound_uffink(e, 1.0) == 0.0

    def test_uffink_dominates_off_diagonal(self):
        for e1 in np.linspace(0.01, 0.45, 12):
            for e2 in np.linspace(0.02, 0.46, 12):
                e = ConfidencePair(float(e1), float(e2))
                assert bound_uffink(e, 1.0) >= bound_simple(e, 1.0)

    def test_scales_linearly_in_hbar(self):
        e = ConfidencePair(0.1, 0.2)
        assert bound_simple(e, 3.0) == pytest.approx(3 * bound_simple(e, 1.0))
        assert bound_uffink(e, 0.5) == pytest.approx(0.5 * bound_uffink(e, 1.0))

    def test_confidence_pair_validated(self):
        with pytest.raises(ValueError):
            ConfidencePair(0.0, 0.1)
        with pytest.raises(ValueError):
            ConfidencePair(0.1, 1.0)


class TestCalibrationConfig:
    def test_ladder_must_decrease(self):
        with pytest.raises(ValueError):
            CalibrationConfig((0.1, 0.2), (0.0,), GRID)
        with pytest.raises(ValueError):
            CalibrationConfig((), (0.0,), GRID)

    def test_for_axis_rescales_by_step_ratio(self):
        scaled = CFG.for_axis("p")
        assert scaled.delta_ladder[0] == pytest.approx(0.4 * DP / DX)
        assert CFG.for_axis("q") is CFG


# ---------------------------------------------------------------------------
# Calibration error and error bars
# ---------------------------------------------------------------------------

class TestCalibration:
    def test_sharp_position_error_equals_delta(self):
        # sharp readout of a probe confined to [-delta/2, delta/2]: the
        # worst probe sits at an edge, so the confidence window is delta wide
        k = Kernel("q")
        for delta in (0.4, 0.2, 0.1):
            assert calibration_error(k, 0.05, delta, CFG) == \
                pytest.approx(delta, abs=1e-12)

    def test_offset_delta_smearing(self):
        # smearing concentrated at c displaces every outcome by -c, so the
        # calibration error is 2c + delta
        c = 0.7
        k = Kernel("q", point_mass(c, GRID))
        assert calibration_error(k, 0.05, 0.2, CFG) == pytest.approx(2 * c + 0.2, abs=1e-9)

    def test_error_bar_offset_delta(self):
        c = 0.7
        res = error_bar_width(Kernel("q", point_mass(c, GRID)), 0.05, CFG)
        assert res.value == pytest.approx(2 * c + 0.1, abs=1e-9)
        deltas = [d for d, _ in res.ladder]
        assert deltas == [0.4, 0.2, 0.1]
        assert res.spread == pytest.approx(0.3, abs=1e-9)

    def test_error_bar_gaussian_smearing(self):
        sig = 0.5
        res = error_bar_width(Kernel("q", gaussian_measure(0.0, sig, GRID)),
                              0.05, CFG)
        assert res.value == pytest.approx(2 * Z975 * sig, abs=0.15)
        assert res.spread <= 0.35

    def test_scaled_map_is_calibrated_about_every_center(self):
        # y = 1.1 x is affine, but it moves each point by a different amount,
        # so it is not covariant and is calibrated about both centers: a
        # 1e-7 bend at x = 0 leaves its error bar where it was
        grid = GridSpec.symmetric(12.8, 512)
        mu = phase_marginal(MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid, HBAR)),
                            "q").measure
        cfg = CalibrationConfig((0.4, 0.2), (0.0, 5.0), grid, HBAR)
        scaled, bent = (Kernel("q", mu, PiecewiseLinearMap((-12.8, 0.0, 12.8),
                                                           (-14.08, y0, 14.08)))
                        for y0 in (0.0, 1e-7))
        assert not scaled.covariant
        # calibrated about x = 0 alone, the scaled map read 4.30
        assert error_bar_width(scaled, 0.05, cfg).value == \
            error_bar_width(bent, 0.05, cfg).value == pytest.approx(4.9)

    def test_ladder_growth_detected(self, monkeypatch):
        # every rung's calibration error comes out wider than the last one's;
        # nested rungs of exact point-mass sups cannot do this, so the stub
        # replaces the whole ladder
        def growing_ladder(kernel, eps, cfg):
            widths = [0.5 + 0.25 * (i + 1) for i in range(len(cfg.delta_ladder))]
            return 0.0, [centered_width(uniform_measure(-w, w, GRID), 0.0, eps) for w in widths]

        monkeypatch.setattr(metrology, "_axis_pass", growing_ladder)
        with pytest.raises(LadderInconsistencyError):
            error_bar_width(Kernel("q"), 0.05, CFG)

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            calibration_error(Kernel("q"), 0.0, 0.2, CFG)


class TestResolution:
    def test_marginal_resolution_matches_generator_spread(self):
        # the sharpest attainable outcome is the smearing measure itself:
        # a Gaussian of the generator's spread
        sg = 1.0
        k = phase_marginal(vacuum(sg), "q")
        res = resolution_width(k, 0.05, CFG)
        assert res == pytest.approx(2 * Z975 * sg, abs=0.06)

    def test_resolution_bounded_by_smearing_width(self):
        # outcome = state distribution convolved with the smearing measure,
        # so no probe can beat the smearing measure's own overall width
        k = phase_marginal(vacuum(0.7), "q")
        res = resolution_width(k, 0.1, CFG)
        mu_width = overall_width(k.measure, 0.1)
        assert res >= mu_width - 2 * DX

    def test_empty_probe_family_rejected(self):
        # the resolution probes sit at the probe centers, so there must be one
        with pytest.raises(ValueError, match="probe centers"):
            CalibrationConfig((0.4, 0.2), (), GRID)

    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_error_bar_dominates_resolution_when_warped(self, axis):
        # the rung about each center holds the point mass at the center's
        # nearest cell, one of the resolution probes
        grid = GridSpec.symmetric(12.8, 512)
        axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
        gen = MixedState([(0.4, gaussian_state(0.2, 0.0, 0.8, grid, HBAR)),
                          (0.6, gaussian_state(-0.3, 0.0, 1.1, grid, HBAR))])
        shift = PiecewiseLinearMap.shift(-50.0, 50.0, 0.3)
        for gmap in (bend(axis_grid), shift):
            # centers in q cells: on the grid, off it, and pairs of both
            for cells in ((0.0,), (2.37,), (0.0, -5.5), (-3.0, 4.81)):
                cfg = CalibrationConfig((8 * grid.dx, 4 * grid.dx, 2 * grid.dx),
                                        tuple(c * grid.dx for c in cells), grid, HBAR)
                for kernel in (phase_marginal(gen, axis, WarpMap(gmap, gmap)),
                               Kernel(axis, None, gmap)):
                    for eps in (0.05, 0.2, 0.5):
                        res = resolution_width(kernel, eps, cfg.for_axis(axis))
                        assert error_bar_width(kernel, eps, cfg.for_axis(axis)).value >= res


# ---------------------------------------------------------------------------
# Probe measures against probe states
# ---------------------------------------------------------------------------

PGRID = momentum_grid(GRID, HBAR)
WIGGLE = PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8), (-12.8, -0.7, 1.3, 12.8))
SHIFT = PiecewiseLinearMap.shift(-12.8, 12.8, 0.3)
IDENT = PiecewiseLinearMap.identity(-12.8, 12.8)


def axis_kernels(axis):
    gen = MixedState([(0.4, gaussian_state(0.2, 0.0, 0.8, GRID, HBAR)),
                      (0.6, gaussian_state(-0.3, 0.0, 1.1, GRID, HBAR))])
    if axis == "q":
        sharp, smeared = Kernel("q"), Kernel("q", gaussian_measure(0.1, 0.3, GRID))
        affine, bent = WarpMap(SHIFT, IDENT), WarpMap(WIGGLE, IDENT)
    else:
        sharp, smeared = Kernel("p"), Kernel("p", gaussian_measure(0.1, 0.6, PGRID))
        affine, bent = WarpMap(IDENT, SHIFT), WarpMap(IDENT, WIGGLE)
    return [sharp, smeared, phase_marginal(gen, axis),
            phase_marginal(gen, axis, affine), phase_marginal(gen, axis, bent)]


def state_with(P, axis):
    """A pure state whose sharp distribution along `axis` is P."""
    if axis == "q":
        return MixedState.pure(WaveFunction(GRID, np.sqrt(P.weights / DX), HBAR))
    return MixedState.pure(_from_momentum_amps(np.sqrt(P.weights / DP), GRID, HBAR))


def rung_probes(axis, center, delta, grid, kind="box"):
    """Axis distributions supported on the rung [center +- delta/2]: point
    masses at its end, middle and quarter cells, plus the uniform measure
    on its cells (when they span at least 3) or a truncated Gaussian of
    sigma = delta/6."""
    axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
    x = axis_grid.points()
    tol = 1e-9 * axis_grid.dx
    inside = np.flatnonzero((x >= center - 0.5 * delta - tol) & (x <= center + 0.5 * delta + tol))

    def measure(cells, weights=1.0):
        w = np.zeros(axis_grid.n)
        w[cells] = weights
        return GridMeasure(axis_grid, w / w.sum())

    lo, hi = inside[0], inside[-1]
    probes = [measure([c]) for c in
              sorted({lo, hi, inside[inside.size // 2], inside[inside.size // 4]})]
    if kind == "box" and hi - lo >= 2:
        probes.append(measure(inside))
    elif kind == "truncated_gaussian":
        sigma = delta / 6.0
        probes.append(measure(inside, np.exp(-((x[inside] - center) ** 2) / (2.0 * sigma**2))))
    return probes


def axis_probes(axis, kind):
    step = DX if axis == "q" else DP
    return rung_probes(axis, 7.5 * step, 8.6 * step, GRID, kind)


class TestProbeMeasures:
    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_probes_are_probe_state_distributions(self, axis):
        # the cells the point and box probe states occupy
        if axis == "q":
            grid, point, box, dist = GRID, point_state, box_state, position_distribution
        else:
            grid, point, box, dist = (PGRID, momentum_point_state, momentum_box_state,
                                      momentum_distribution)
        probes = axis_probes(axis, "box")
        assert len(probes) == 5
        x = grid.points()
        for P in probes:
            cells = np.flatnonzero(P.weights)
            lo, hi = x[cells[0]], x[cells[-1]]
            psi = point(lo, GRID, HBAR) if lo == hi else box((lo + hi) / 2, hi - lo, GRID, HBAR)
            want = dist(MixedState.pure(psi))
            assert np.max(np.abs(want.weights - P.weights)) <= 1e-12

    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_truncated_gaussian_probe(self, axis):
        P = axis_probes(axis, "truncated_gaussian")[-1]
        step = DX if axis == "q" else DP
        x = P.grid.points()
        assert np.flatnonzero(P.weights).size == 8
        assert P.mean() == pytest.approx(7.5 * step, abs=1e-9)
        assert np.argmax(P.weights) in np.flatnonzero(np.abs(x - 7.5 * step) < step)

    @pytest.mark.parametrize("axis", ["q", "p"])
    @pytest.mark.parametrize("kind", ["box", "truncated_gaussian"])
    def test_smear_matches_outcome_distribution(self, axis, kind):
        for kernel in axis_kernels(axis):
            for P in axis_probes(axis, kind):
                direct = kernel.smear(P)
                via_state = kernel.outcome_distribution(state_with(P, axis))
                assert direct.grid == via_state.grid
                assert np.max(np.abs(direct.weights - via_state.weights)) <= 1e-12

    def test_two_cell_minimum_in_cell_units(self):
        # 2 position cells rescaled to the momentum axis round just below 2 cells
        grid = GridSpec.symmetric(12.8, 256)
        cfg = CalibrationConfig((0.4, 0.2), (0.0,), grid).for_axis("p")
        delta = cfg.delta_ladder[-1]
        dp = momentum_grid(grid, HBAR).dx
        assert delta < 2 * dp
        # the rung keeps its cells at -dp, 0 and dp; the edge ones set the error
        assert calibration_error(Kernel("p"), 0.05, delta, cfg) == pytest.approx(2 * dp)
        with pytest.raises(ValueError, match="2-cell minimum"):
            calibration_error(Kernel("p"), 0.05, 0.99 * delta, cfg)


# ---------------------------------------------------------------------------
# Centered windows from prefix sums against the built outcome
# ---------------------------------------------------------------------------

SWEEP_EPS = (1e-6, 1e-3, 0.05, 0.2, 0.5, 0.9)


def sweep_kernels(grid, axis):
    """Sharp, smeared, phase-marginal and warped kernels on one axis; the
    warp bends q and shifts p."""
    axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
    step = axis_grid.dx
    gen = MixedState([(0.4, gaussian_state(0.2, 0.0, 0.8, grid, HBAR)),
                      (0.6, gaussian_state(-0.3, 0.0, 1.1, grid, HBAR))])
    warp_map = WarpMap(WIGGLE, PiecewiseLinearMap.shift(-12.8, 12.8, 0.3))
    if axis == "q":
        sharp, smeared = Kernel("q"), Kernel("q", gaussian_measure(0.1, 0.3, grid))
    else:
        sharp = Kernel("p")
        smeared = Kernel("p", uniform_measure(-2.2 * step, 5.1 * step, axis_grid))
    return axis_grid, [sharp, smeared, phase_marginal(gen, axis),
                       phase_marginal(gen, axis, warp_map)]


def resolution_family(axis, axis_grid, x):
    """The resolution probes about x: the point mass at the nearest cell
    and, on the position axis, the uniform mass on the cells within one step."""
    probes = [point_mass(x, axis_grid)]
    if axis == "q":
        inside = np.abs(axis_grid.points() - x) <= axis_grid.dx * (1 + 1e-9)
        probes.append(GridMeasure(axis_grid, inside / inside.sum()))
    return probes


class TestCenteredWindows:
    @pytest.mark.parametrize("n", [256, 512, 1024])
    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_widths_equal_centered_width_of_the_outcome(self, n, axis):
        grid = GridSpec.symmetric(12.8, n)
        axis_grid, kernels = sweep_kernels(grid, axis)
        step = axis_grid.dx
        cases = 0
        for kernel in kernels:
            for x in (0.0, 3.37 * step, -40.61 * step):
                probes = resolution_family(axis, axis_grid, x)
                for kind in ("box", "truncated_gaussian"):
                    for delta in (2.0 * step, 8.6 * step, 31.0 * step):
                        probes += rung_probes(axis, x, delta, grid, kind)
                windows = metrology._CenteredWindows(kernel, axis_grid, x)
                for P in probes:
                    outcome = kernel.smear(P)
                    cells = np.flatnonzero(P.weights)
                    for eps in SWEEP_EPS:
                        got = windows.widths(cells[None], P.weights[cells], eps)
                        assert got.tolist() == [centered_width(outcome, x, eps)]
                        cases += 1
        assert cases > 1000

    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_resolution_from_the_built_outcomes(self, axis):
        # brute force: every center's probes smeared and measured; the worst
        # center of the narrowest centered window, or for a covariant kernel
        # the narrowest overall width of a center's point mass
        grid = GridSpec.symmetric(12.8, 512)
        axis_grid, kernels = sweep_kernels(grid, axis)
        cfg = CalibrationConfig((0.4, 0.2), (0.0, -7.37 * grid.dx), grid, HBAR).for_axis(axis)
        family = [P for c in cfg.probe_centers for P in resolution_family(axis, axis_grid, c)]
        for kernel in (*kernels, Kernel(axis, kernels[2].measure, bend(axis_grid))):
            for eps in (0.05, 0.3):
                if kernel.covariant:
                    want = min(overall_width(kernel.smear(point_mass(c, axis_grid)), eps)
                               for c in cfg.probe_centers)
                else:
                    want = max(min(centered_width(kernel.smear(P), x, eps) for P in family)
                               for x in cfg.probe_centers)
                assert resolution_width(kernel, eps, cfg) == want

    def test_one_window_table_per_center(self, monkeypatch):
        # a bend-warped q kernel is calibrated about both centers, the
        # covariant p kernel about 0 only; resolution and error bar share them
        built = []

        class Counted(metrology._CenteredWindows):
            def __init__(self, kernel, axis_grid, x):
                built.append((kernel.axis, x))
                super().__init__(kernel, axis_grid, x)

        monkeypatch.setattr(metrology, "_CenteredWindows", Counted)
        gen = vacuum()
        cfg = CalibrationConfig((0.4, 0.2, 0.1), (0.0, 3.37 * DX), GRID, HBAR)
        kq = phase_marginal(gen, "q", WarpMap(WIGGLE, IDENT))
        rep = verify_joint_ur(gen, ConfidencePair(0.05, 0.05), cfg,
                              kernels=(kq, phase_marginal(gen, "p")))
        assert rep.passed
        assert sorted(built) == [("p", 0.0), ("q", 0.0), ("q", 3.37 * DX)]

    def test_calibration_error_is_the_worst_probe_window(self):
        kernel = sweep_kernels(GRID, "q")[1][3]
        for delta in CFG.delta_ladder:
            want = max(centered_width(kernel.smear(P), 0.0, 0.05)
                       for P in rung_probes("q", 0.0, delta, GRID))
            assert calibration_error(kernel, 0.05, delta, CFG) == want

    def test_error_bar_peak_memory_at_n_65536(self):
        grid = GridSpec(-20.0, 40.0 / 65536, 65536)
        gen = MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid, HBAR))
        bent = PiecewiseLinearMap((-20.0, -1.0, 1.0, 20.0), (-20.0, -0.7, 1.3, 20.0))
        kernel = phase_marginal(gen, "q", WarpMap(bent, PiecewiseLinearMap.identity(-20, 20)))
        cfg = CalibrationConfig((0.4, 0.2, 0.1), (0.0,), grid, HBAR)
        tracemalloc.start()
        try:
            error_bar_width(kernel, 0.05, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # building each probe's outcome peaked at 8.00e6 bytes here
        assert peak < 8_000_000


# ---------------------------------------------------------------------------
# Calibration as the exact sup over the rung's point masses
# ---------------------------------------------------------------------------

def cell_mass(axis_grid, c):
    w = np.zeros(axis_grid.n)
    w[c] = 1.0
    return GridMeasure(axis_grid, w)


def random_atoms(axis_grid, rng, reach):
    """2-5 atoms of random weight within `reach` cells of the grid's middle."""
    k = int(rng.integers(2, 6))
    cells = axis_grid.n // 2 + rng.choice(np.arange(-reach, reach + 1), size=k, replace=False)
    w = np.zeros(axis_grid.n)
    w[cells] = rng.random(k)
    return GridMeasure(axis_grid, w / w.sum())


def at_goal(axis_grid, eps):
    """Two atoms; the right one carries exactly the goal 1 - eps - 1e-12, so
    some windows hold exactly the goal mass."""
    w = np.zeros(axis_grid.n)
    w[axis_grid.n // 2 + 3] = 1.0 - eps - 1e-12
    w[axis_grid.n // 2 - 5] = 1.0 - w[axis_grid.n // 2 + 3]
    return GridMeasure(axis_grid, w)


def bend(axis_grid):
    """An increasing, non-affine warp of the axis that moves its middle."""
    s = axis_grid.dx
    return PiecewiseLinearMap((axis_grid.x_min, -10 * s, 10 * s, axis_grid.x_max),
                              (axis_grid.x_min, -7 * s, 19 * s, axis_grid.x_max))


def point_mass_widths(kernel, axis_grid, x, cells, eps):
    """Brute force: smear each point mass and measure its centered window."""
    return [centered_width(kernel.smear(cell_mass(axis_grid, c)), x, eps) for c in cells]


class TestExactCalibration:
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_point_widths_equal_brute_force(self, n, axis):
        grid = GridSpec.symmetric(12.8, n)
        axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
        step = axis_grid.dx
        delta = 30 * step
        cases = 0
        for mu in (random_atoms(axis_grid, np.random.default_rng(0), 30),
                   random_atoms(axis_grid, np.random.default_rng(1), 30), at_goal(axis_grid, 0.2)):
            for kernel in (Kernel(axis, mu), Kernel(axis, mu, bend(axis_grid)),
                           Kernel(axis, None, bend(axis_grid))):
                for x in (0.0, 3.37 * step, -10.5 * step):
                    windows = metrology._CenteredWindows(kernel, axis_grid, x)
                    first, last = metrology._rung(axis_grid, x, delta)
                    cells = np.arange(first, last + 1)
                    cfg = CalibrationConfig((delta,), (x,), grid, HBAR)
                    for eps in (0.05, 0.2, 0.5):
                        want = point_mass_widths(kernel, axis_grid, x, cells, eps)
                        assert windows.widths(cells[:, None], (1.0,), eps).tolist() == want
                        if x == 0.0 or not kernel.covariant:
                            assert calibration_error(kernel, eps, delta, cfg) == max(want)
                        cases += cells.size
        assert cases > 1000

    def test_sample_of_five_probes_underestimates(self):
        # three atoms at -20, -1 and +40 cells: at eps = 0.3 the worst point
        # mass of the 40-cell rung is none of its end, middle or quarter cells
        grid = GridSpec.symmetric(12.8, 512)
        dx = grid.dx
        w = np.zeros(grid.n)
        w[[256 - 20, 256 - 1, 256 + 40]] = (0.372, 0.853, 0.346)
        kernel = Kernel("q", GridMeasure(grid, w / w.sum()))
        cfg = CalibrationConfig((80 * dx, 40 * dx, 20 * dx), (0.0,), grid)
        delta = 40 * dx
        first, last = metrology._rung(grid, 0.0, delta)
        exact = max(point_mass_widths(kernel, grid, 0.0, range(first, last + 1), 0.3))
        sample = max(centered_width(kernel.smear(P), 0.0, 0.3)
                     for P in rung_probes("q", 0.0, delta, grid))
        assert calibration_error(kernel, 0.3, delta, cfg) == exact
        assert sample < exact - 10 * dx

    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_ladder_is_nonincreasing(self, axis):
        grid = GridSpec.symmetric(12.8, 512)
        cfg = CalibrationConfig((4.0, 2.0, 1.0, 0.5, 0.25, 0.1), (0.0, 0.33, -1.07),
                                grid).for_axis(axis)
        axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
        rng = np.random.default_rng(7)
        for _ in range(6):
            mu = random_atoms(axis_grid, rng, 40)
            for kernel in (Kernel(axis, mu), Kernel(axis, mu, bend(axis_grid))):
                for eps in (0.05, 0.1, 0.2, 0.3):
                    vals = [v for _, v in error_bar_width(kernel, eps, cfg).ladder]
                    assert all(fine <= coarse for coarse, fine in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

class TestWernerDistance:
    def test_covariant_closed_forms(self):
        sig = 0.9
        assert werner_distance_covariant(gaussian_measure(0.0, sig, GRID)) == \
            pytest.approx(sig * math.sqrt(2 / math.pi), rel=1e-4)
        assert werner_distance_covariant(uniform_measure(-1.0, 1.0, GRID)) == \
            pytest.approx(0.5, abs=DX)
        assert werner_distance_covariant(point_mass(0.7, GRID)) == \
            pytest.approx(0.7, abs=DX / 2)

    def test_lower_bound_attains_closed_form(self):
        # probe at the origin plus a tent hat peaked there recovers the
        # first absolute moment of the smearing measure exactly
        mu = gaussian_measure(0.0, 0.8, GRID)
        k1 = Kernel("q")
        k2 = Kernel("q", mu)
        states = [MixedState.pure(gaussian_state(0.0, 0.0, 0.5, GRID, HBAR))]
        from uncert.states import point_state
        states.append(MixedState.pure(point_state(0.0, GRID)))
        hats = [tent(0.0, 6.0), clipped_identity(3.0)]
        lb = werner_distance_lower_bound(k1, k2, states, hats)
        exact = werner_distance_covariant(mu)
        assert lb <= exact + 1e-9
        assert lb >= 0.95 * exact

    def test_non_lipschitz_hat_rejected(self):
        with pytest.raises(ValueError):
            werner_distance_lower_bound(
                Kernel("q"), Kernel("q", point_mass(0.3, GRID)),
                [vacuum()], [lambda x: 5.0 * np.asarray(x)])

    def test_distance_error_inequality(self):
        k = Kernel("q", gaussian_measure(0.0, 0.5, GRID))
        rep = check_distance_error_inequality(k, 0.05, CFG)
        assert rep.passed
        assert rep.error_bar <= rep.rhs
        assert rep.distance == pytest.approx(0.5 * math.sqrt(2 / math.pi), rel=1e-3)


# ---------------------------------------------------------------------------
# Joint verification driver
# ---------------------------------------------------------------------------

class TestVerifyJointUR:
    def test_vacuum_generator_passes(self):
        rep = verify_joint_ur(vacuum(), ConfidencePair(0.05, 0.05), CFG, "vac")
        assert rep.passed
        assert rep.product_error_bar >= rep.bound_simple - 1e-9
        assert rep.product_resolution >= rep.bound_simple - 1e-9
        assert rep.note == ""
        assert rep.axis_q.error_bar_spread >= 0.0

    def test_squeezed_generator_passes(self):
        rep = verify_joint_ur(vacuum(0.6), ConfidencePair(0.1, 0.2), CFG, "sq")
        assert rep.passed

    def test_exhausted_confidence_notes_no_bound(self):
        rep = verify_joint_ur(vacuum(), ConfidencePair(0.6, 0.6), CFG, "wide")
        assert rep.passed
        assert rep.note == "no positive bound"
        assert rep.bound_simple == 0.0


# ---------------------------------------------------------------------------
# Width-product minimization
# ---------------------------------------------------------------------------

def gaussian_family():
    def build(params):
        (sigma,) = params
        return MixedState.pure(gaussian_state(0.0, 0.0, sigma, GRID, HBAR))
    return StateFamily(("sigma",), ((0.5, 1.5),), build)


def cat_family():
    def build(params):
        (half_sep,) = params
        return MixedState.pure(superpose(
            1.0, gaussian_state(-half_sep, 0.0, 0.6, GRID, HBAR),
            1.0, gaussian_state(half_sep, 0.0, 0.6, GRID, HBAR)))
    return StateFamily(("half_sep",), ((2.0, 5.0),), build)


class TestMinimizeWidthProduct:
    def test_gaussian_family_near_scale_invariant_optimum(self):
        eps = ConfidencePair(0.05, 0.05)
        res = minimize_width_product(gaussian_family(), eps, HBAR)
        target = 2 * HBAR * Z975**2  # 7.6829...
        assert res.product >= bound_simple(eps, HBAR)
        # widths are quantized to dx and dp; the minimizer exploits the
        # rounding, so allow one cell per axis off the continuum product
        (sigma,) = res.params
        wq, wp = 2 * Z975 * sigma, Z975 * HBAR / sigma
        slack = DX * wp + DP * wq + DX * DP
        assert target - slack <= res.product <= target * 1.02
        assert res.ratio_simple >= 1.0
        assert res.ratio_uffink >= 1.0 - 0.02

    def test_separated_superposition_does_worse(self):
        eps = ConfidencePair(0.05, 0.05)
        g = minimize_width_product(gaussian_family(), eps, HBAR)
        c = minimize_width_product(cat_family(), eps, HBAR)
        assert c.product > g.product
