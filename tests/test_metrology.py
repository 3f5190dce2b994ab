import math
import re
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uncert import metrology
from uncert.grids import (
    GridMeasure,
    GridSpec,
    _target,
    centered_width,
    gaussian_measure,
    overall_width,
    _sum_grid,
    point_mass,
    reflect,
    uniform_measure,
)
from uncert.metrology import (
    CalibrationConfig,
    ConfidencePair,
    bound_simple,
    bound_uffink,
    clipped_identity,
    tent,
    verify_scenarios,
    werner_distance_covariant,
    werner_distance_lower_bound,
)
from uncert.observables import (
    Kernel,
    PiecewiseLinearMap,
    _warp_cells,
    marginal_measures,
    pushforward,
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
)

GRID = GridSpec.symmetric(12.8, 1024)  # dx = 0.025
DX = GRID.dx
HBAR = 1.0
DP = momentum_grid(GRID, HBAR).dx

Z975 = 1.9599639845400545  # standard-normal 97.5% quantile

CFG = CalibrationConfig(delta_ladder=(0.4, 0.2, 0.1), probe_centers=(0.0,),
                        grid=GRID, hbar=HBAR)
# offsets within a few 1e-9 of a rule's tolerance, and the tolerances themselves
NEAR = st.one_of(st.sampled_from([-1e-9, -0.6e-9, 0.0, 1e-9]), st.floats(-4e-9, 4e-9))


def vacuum(sigma=1.0):
    return MixedState.pure(gaussian_state(0.0, 0.0, sigma, GRID, HBAR))


def marginal_kernel(gen, axis, gmap=None):
    """The kernel on gen's reflected `axis` marginal, pushed through gmap."""
    return Kernel(axis, marginal_measures(gen)["qp".index(axis)], gmap)


def marginal_kernels(gen):
    """The unwarped kernel pair on gen's reflected marginals, as verify builds it."""
    return tuple(map(Kernel, "qp", marginal_measures(gen)))


def axis_pass(kernel, eps, cfg):
    """(resolution, ladder) of kernel at one eps, from metrology._axis_pass:
    the error bar is ladder[-1] and its spread max - min."""
    return metrology._axis_pass(kernel, (eps,), cfg)[0]


def rung_error(kernel, eps, delta, cfg):
    """The calibration error at the single rung delta, in position units."""
    return axis_pass(kernel, eps, replace(cfg, delta_ladder=(delta,)))[1][0]


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
        with pytest.raises(ValueError, match=r"^delta_ladder\[1\]: .* must decrease"):
            CalibrationConfig((0.1, 0.2), (0.0,), GRID)
        with pytest.raises(ValueError, match="^delta_ladder: "):
            CalibrationConfig((), (0.0,), GRID)

    def test_a_grid_away_from_0_is_named(self):
        # covariant kernels are calibrated about x = 0, whatever the centers
        with pytest.raises(ValueError, match="^grid: no point within"):
            CalibrationConfig((0.4, 0.2), (5.0,), GridSpec(1.0, 0.05, 512))

    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_one_ladder_in_position_units_serves_both_axes(self, axis):
        # the rung 0.4 = 16 dx is 16 dp on the momentum axis, and a sharp
        # kernel's worst point mass in it sits at its edge cell, 8 cells out
        _, ladder = axis_pass(Kernel(axis), 0.05, CalibrationConfig((0.4,), (0.0,), GRID, HBAR))
        assert len(ladder) == 1
        assert ladder[0] == pytest.approx(16 * (DX if axis == "q" else DP), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([256, 512]), hbar=st.sampled_from([0.7, 1.0, 2.0]),
           cells=st.lists(st.one_of(NEAR.map(lambda t: 2.0 + t), st.floats(2.0, 60.0)),
                          min_size=1, max_size=3, unique=True),
           spots=st.lists(st.one_of(st.tuples(st.sampled_from([-1, 1]), NEAR),
                                    st.floats(-1.0, 1.0)), min_size=1, max_size=3))
    # the q box alone rejects the first; only the momentum axis the second
    @example(n=256, hbar=1.0, cells=[8.0], spots=[(-1, 3e-9)])
    @example(n=256, hbar=0.7, cells=[2.0 - 1e-9], spots=[(-1, 5.000000000000003e-10)])
    def test_an_accepted_config_runs_on_both_axes(self, n, hbar, cells, spots):
        # rungs within a few 1e-9 of 2 cells, and centers within a few 1e-9
        # of a cell outside either end of the grid, or anywhere on it
        grid = GridSpec.symmetric(12.8, n)

        def center(spot):
            """A fraction of the half-length, or (side, t): 1 + t cells out."""
            if isinstance(spot, float):
                return 12.8 * spot
            side, t = spot
            return grid.x_min - (1 + t) * grid.dx if side < 0 else grid.x_max + (1 + t) * grid.dx

        ladder = tuple(sorted((k * grid.dx for k in cells), reverse=True))
        centers = tuple(map(center, spots))
        try:
            cfg = CalibrationConfig(ladder, centers, grid, hbar)
        except ValueError as exc:
            assert re.match(r"(delta_ladder|probe_centers)\[\d+\]: ", str(exc)), exc
            return
        for axis in "qp":
            axis_grid = grid if axis == "q" else momentum_grid(grid, hbar)
            scale = axis_grid.dx / grid.dx
            for d in cfg.delta_ladder:
                # at least two cells about the middle of the grid, and one
                # about every center
                assert len(axis_grid.cells_within(-0.5 * d * scale, 0.5 * d * scale)) > 1
                assert all(axis_grid.cells_within(c * scale - 0.5 * d * scale,
                                                  c * scale + 0.5 * d * scale) for c in centers)
            mu = random_atoms(axis_grid, np.random.default_rng(n), 20)
            shift = PiecewiseLinearMap.shift(axis_grid.x_min, axis_grid.x_max,
                                             3.3 * axis_grid.dx)
            for kernel in (Kernel(axis, mu), Kernel(axis, mu, shift),
                           Kernel(axis, mu, bend(axis_grid))):
                for eps in (0.05, 0.3):
                    axis_pass(kernel, eps, cfg)


# ---------------------------------------------------------------------------
# Calibration error and error bars
# ---------------------------------------------------------------------------

class TestCalibration:
    def test_sharp_position_error_equals_delta(self):
        # sharp readout of a probe confined to [-delta/2, delta/2]: the
        # worst probe sits at an edge, so the confidence window is delta wide
        k = Kernel("q")
        for delta in (0.4, 0.2, 0.1):
            assert rung_error(k, 0.05, delta, CFG) == pytest.approx(delta, abs=1e-12)

    def test_offset_delta_smearing(self):
        # smearing concentrated at c displaces every outcome by -c, so the
        # calibration error is 2c + delta
        c = 0.7
        k = Kernel("q", point_mass(c, GRID))
        assert rung_error(k, 0.05, 0.2, CFG) == pytest.approx(2 * c + 0.2, abs=1e-9)

    def test_error_bar_offset_delta(self):
        c = 0.7
        _, ladder = axis_pass(Kernel("q", point_mass(c, GRID)), 0.05, CFG)
        assert ladder[-1] == pytest.approx(2 * c + 0.1, abs=1e-9)
        assert len(ladder) == 3
        assert max(ladder) - min(ladder) == pytest.approx(0.3, abs=1e-9)

    def test_error_bar_gaussian_smearing(self):
        sig = 0.5
        _, ladder = axis_pass(Kernel("q", gaussian_measure(0.0, sig, GRID)), 0.05, CFG)
        assert ladder[-1] == pytest.approx(2 * Z975 * sig, abs=0.15)
        assert max(ladder) - min(ladder) <= 0.35

    def test_scaled_map_is_calibrated_about_every_center(self):
        # y = 1.1 x is affine, but it moves each point by a different amount,
        # so it is not covariant and is calibrated about both centers: a
        # 1e-7 bend at x = 0 leaves its error bar where it was
        grid = GridSpec.symmetric(12.8, 512)
        mu = marginal_measures(MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid, HBAR)))[0]
        cfg = CalibrationConfig((0.4, 0.2), (0.0, 5.0), grid, HBAR)
        scaled, bent = (Kernel("q", mu, PiecewiseLinearMap((-12.8, 0.0, 12.8),
                                                           (-14.08, y0, 14.08)))
                        for y0 in (0.0, 1e-7))
        assert not scaled.covariant
        # calibrated about x = 0 alone, the scaled map read 4.30
        assert axis_pass(scaled, 0.05, cfg)[1][-1] == \
            axis_pass(bent, 0.05, cfg)[1][-1] == pytest.approx(4.9)

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            axis_pass(Kernel("q"), 0.0, CFG)


class TestResolution:
    def test_marginal_resolution_matches_generator_spread(self):
        # the sharpest attainable outcome is the smearing measure itself:
        # a Gaussian of the generator's spread
        sg = 1.0
        res = axis_pass(marginal_kernel(vacuum(sg), "q"), 0.05, CFG)[0]
        assert res == pytest.approx(2 * Z975 * sg, abs=0.06)

    def test_resolution_bounded_by_smearing_width(self):
        # outcome = state distribution convolved with the smearing measure,
        # so no probe can beat the smearing measure's own overall width
        k = marginal_kernel(vacuum(0.7), "q")
        res = axis_pass(k, 0.1, CFG)[0]
        mu_width = overall_width(k.measure, 0.1)
        assert res >= mu_width - 2 * DX

    def test_empty_probe_family_rejected(self):
        # the resolution probes sit at the probe centers, so there must be one
        with pytest.raises(ValueError, match="probe_centers"):
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
                for kernel in (marginal_kernel(gen, axis, gmap), Kernel(axis, None, gmap)):
                    for eps in (0.05, 0.2, 0.5):
                        res, ladder = axis_pass(kernel, eps, cfg)
                        assert ladder[-1] >= res


# ---------------------------------------------------------------------------
# Probe measures against probe states
# ---------------------------------------------------------------------------

PGRID = momentum_grid(GRID, HBAR)
WIGGLE = PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8), (-12.8, -0.7, 1.3, 12.8))
SHIFT = PiecewiseLinearMap.shift(-12.8, 12.8, 0.3)


def axis_kernels(axis):
    gen = MixedState([(0.4, gaussian_state(0.2, 0.0, 0.8, GRID, HBAR)),
                      (0.6, gaussian_state(-0.3, 0.0, 1.1, GRID, HBAR))])
    smeared = gaussian_measure(0.1, 0.3, GRID) if axis == "q" else \
        gaussian_measure(0.1, 0.6, PGRID)
    return [Kernel(axis), Kernel(axis, smeared), marginal_kernel(gen, axis),
            marginal_kernel(gen, axis, SHIFT), marginal_kernel(gen, axis, WIGGLE)]


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
        cfg = CalibrationConfig((0.4, 0.2), (0.0,), grid)
        delta = cfg.delta_ladder[-1]
        dp = momentum_grid(grid, HBAR).dx
        assert delta * (dp / grid.dx) < 2 * dp
        # the rung keeps its cells at -dp, 0 and dp; the edge ones set the error
        assert rung_error(Kernel("p"), 0.05, delta, cfg) == pytest.approx(2 * dp)
        with pytest.raises(ValueError, match=r"delta_ladder\[0\]: .* 2-cell minimum"):
            rung_error(Kernel("p"), 0.05, 0.99 * delta, cfg)


# ---------------------------------------------------------------------------
# Centered windows from prefix sums against the built outcome
# ---------------------------------------------------------------------------

SWEEP_EPS = (1e-6, 1e-3, 0.05, 0.2, 0.5, 0.9)


def sweep_kernels(grid, axis):
    """Sharp, smeared, marginal and warped marginal kernels on one axis; the
    warp bends q and shifts p."""
    axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
    step = axis_grid.dx
    gen = MixedState([(0.4, gaussian_state(0.2, 0.0, 0.8, grid, HBAR)),
                      (0.6, gaussian_state(-0.3, 0.0, 1.1, grid, HBAR))])
    if axis == "q":
        sharp, smeared = Kernel("q"), Kernel("q", gaussian_measure(0.1, 0.3, grid))
    else:
        sharp = Kernel("p")
        smeared = Kernel("p", uniform_measure(-2.2 * step, 5.1 * step, axis_grid))
    return axis_grid, [sharp, smeared, marginal_kernel(gen, axis),
                       marginal_kernel(gen, axis, WIGGLE if axis == "q" else SHIFT)]


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
                        got = windows.widths(cells[None], P.weights[cells], _target(eps))
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
        cfg = CalibrationConfig((0.4, 0.2), (0.0, -7.37 * grid.dx), grid, HBAR)
        # the centers on the kernel axis, as the pass scales them
        scale = axis_grid.dx / grid.dx
        centers = [c * scale for c in cfg.probe_centers]
        family = [P for c in centers for P in resolution_family(axis, axis_grid, c)]
        for kernel in (*kernels, Kernel(axis, kernels[2].measure, bend(axis_grid))):
            for eps in (0.05, 0.3):
                if kernel.covariant:
                    want = min(overall_width(kernel.smear(point_mass(c, axis_grid)), eps)
                               for c in centers)
                else:
                    want = max(min(centered_width(kernel.smear(P), x, eps) for P in family)
                               for x in centers)
                assert axis_pass(kernel, eps, cfg)[0] == want

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
        rep, = verify_scenarios(cfg, [("row", ConfidencePair(0.05, 0.05),
                                       (marginal_kernel(gen, "q", WIGGLE),
                                        marginal_kernel(gen, "p")))])
        assert rep.passed
        assert sorted(built) == [("p", 0.0), ("q", 0.0), ("q", 3.37 * DX)]

    def test_calibration_error_is_the_worst_probe_window(self):
        kernel = sweep_kernels(GRID, "q")[1][3]
        for delta in CFG.delta_ladder:
            want = max(centered_width(kernel.smear(P), 0.0, 0.05)
                       for P in rung_probes("q", 0.0, delta, GRID))
            assert rung_error(kernel, 0.05, delta, CFG) == want

    def test_error_bar_peak_memory_at_n_65536(self):
        grid = GridSpec(-20.0, 40.0 / 65536, 65536)
        gen = MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid, HBAR))
        bent = PiecewiseLinearMap((-20.0, -1.0, 1.0, 20.0), (-20.0, -0.7, 1.3, 20.0))
        kernel = marginal_kernel(gen, "q", bent)
        cfg = CalibrationConfig((0.4, 0.2, 0.1), (0.0,), grid, HBAR)
        tracemalloc.start()
        try:
            axis_pass(kernel, 0.05, cfg)
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


def point_outcome(kernel, axis_grid, c):
    """The outcome of the point mass at cell c, exactly: the reflected
    smearing measure placed at c on the sum grid (the point mass itself
    for a sharp kernel), pushed through the map."""
    if kernel.measure is None:
        P = cell_mass(axis_grid, c)
    else:
        R = reflect(kernel.measure)
        w = np.zeros(axis_grid.n + R.grid.n - 1)
        w[c:c + R.grid.n] = R.weights
        P = GridMeasure(_sum_grid(axis_grid, R.grid), w)
    return P if kernel.gmap is None else pushforward(P, kernel.gmap)


def point_mass_widths(kernel, axis_grid, x, cells, eps):
    """Brute force: build each point mass's outcome and measure its centered window."""
    return [centered_width(point_outcome(kernel, axis_grid, c), x, eps) for c in cells]


class TestExactCalibration:
    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("axis", ["q", "p"])
    def test_point_widths_equal_brute_force(self, n, axis):
        grid = GridSpec.symmetric(12.8, n)
        axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
        # the rung and centers in position units, and on the kernel axis as
        # the pass scales them
        scale = axis_grid.dx / grid.dx
        delta = 30 * grid.dx
        cases = 0
        for mu in (random_atoms(axis_grid, np.random.default_rng(0), 30),
                   random_atoms(axis_grid, np.random.default_rng(1), 30), at_goal(axis_grid, 0.2)):
            for kernel in (Kernel(axis, mu), Kernel(axis, mu, bend(axis_grid)),
                           Kernel(axis, None, bend(axis_grid))):
                for c in (0.0, 3.37 * grid.dx, -10.5 * grid.dx):
                    x = c * scale
                    windows = metrology._CenteredWindows(kernel, axis_grid, x)
                    cells = np.array(axis_grid.cells_within(x - 0.5 * delta * scale,
                                                            x + 0.5 * delta * scale))
                    cfg = CalibrationConfig((delta,), (c,), grid, HBAR)
                    for eps in (0.05, 0.2, 0.5):
                        want = point_mass_widths(kernel, axis_grid, x, cells, eps)
                        assert windows.widths(cells[:, None], (1.0,), _target(eps)).tolist() == want
                        if x == 0.0 or not kernel.covariant:
                            assert rung_error(kernel, eps, delta, cfg) == max(want)
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
        cells = grid.cells_within(-0.5 * delta, 0.5 * delta)
        exact = max(point_mass_widths(kernel, grid, 0.0, cells, 0.3))
        sample = max(centered_width(kernel.smear(P), 0.0, 0.3)
                     for P in rung_probes("q", 0.0, delta, grid))
        assert rung_error(kernel, 0.3, delta, cfg) == exact
        assert sample < exact - 10 * dx

    @pytest.mark.parametrize("axis", ["q", "p"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           quarter_cells=st.sets(st.integers(8, 400), min_size=1, max_size=6),
           shift=st.floats(-6.0, 6.0),
           eps_values=st.lists(st.floats(0.001, 0.95), min_size=1, max_size=4))
    def test_ladder_is_nonincreasing(self, axis, seed, quarter_cells, shift, eps_values):
        # the fact that every rung is the exact sup over the point masses of
        # a run of cells, and that the runs are nested, so no error bar can
        # grow as its rung shrinks: rungs of 2-100 q cells, in quarter cells
        grid = GridSpec.symmetric(12.8, 512)
        ladder = tuple(k / 4 * grid.dx for k in sorted(quarter_cells, reverse=True))
        cfg = CalibrationConfig(ladder, (0.0, 0.33, -1.07), grid)
        axis_grid = grid if axis == "q" else momentum_grid(grid, HBAR)
        mu = random_atoms(axis_grid, np.random.default_rng(seed), 40)
        shifted = PiecewiseLinearMap.shift(axis_grid.x_min, axis_grid.x_max,
                                           shift * axis_grid.dx)
        for kernel in (Kernel(axis, mu), Kernel(axis, mu, shifted),
                       Kernel(axis, mu, bend(axis_grid))):
            for eps in eps_values:
                vals = axis_pass(kernel, eps, cfg)[1]
                assert all(fine <= coarse for coarse, fine in zip(vals, vals[1:]))


PASS_GRID = GridSpec.symmetric(12.8, 256)
PASS_GEN = MixedState([(0.4, gaussian_state(0.2, 0.0, 0.8, PASS_GRID, HBAR)),
                       (0.6, gaussian_state(-0.3, 0.0, 1.1, PASS_GRID, HBAR))])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["q", "p"]), st.sampled_from(["plain", "shift", "bend"]),
       st.booleans(), st.one_of(st.none(), st.floats(-5.0, 5.0)),
       st.lists(st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.3]) | st.floats(0.001, 0.95),
                min_size=2, max_size=5))
def test_one_pass_over_several_eps_is_each_eps_alone(axis, warp, sharp, center, eps_values):
    # one table per center and one bisection for all eps give, bit for bit,
    # the numbers of a pass over each eps alone
    axis_grid = PASS_GRID if axis == "q" else momentum_grid(PASS_GRID, HBAR)
    gmap = {"plain": None,
            "shift": PiecewiseLinearMap.shift(axis_grid.x_min, axis_grid.x_max,
                                              3.3 * axis_grid.dx),
            "bend": bend(axis_grid)}[warp]
    kernel = Kernel(axis, None if sharp else marginal_kernel(PASS_GEN, axis).measure, gmap)
    centers = (0.0,) if center is None else (0.0, center)
    cfg = CalibrationConfig((0.8, 0.4, 0.2), centers, PASS_GRID, HBAR)
    assert metrology._axis_pass(kernel, eps_values, cfg) == \
        [metrology._axis_pass(kernel, (eps,), cfg)[0] for eps in eps_values]


# ---------------------------------------------------------------------------
# Window tables against their points() form
# ---------------------------------------------------------------------------

def points_tables(kernel, axis_grid, x):
    """A window table's arrays (k, cr, right, left, cells) built from the
    out grid's full points() array: searchsorted for k, slices for the
    distances."""
    mu = kernel.measure
    if mu is None:
        out, r = axis_grid, np.ones(1)
    else:
        R = reflect(mu)
        out, r = _sum_grid(axis_grid, R.grid), R.weights
    cells = None if kernel.gmap is None else _warp_cells(out, kernel.gmap)
    cr = np.concatenate(([0.0], np.cumsum(r)))
    pts = out.points()
    k = int(np.searchsorted(pts, x))
    right = pts[k:] - x
    left = x - pts[k - 1::-1] if k else np.empty(0)
    return out, (k, cr, right, left, cells)


def table_kernels(axis):
    """Sharp, smeared, marginal, warped marginal and sharp bent
    kernels on one axis of PASS_GRID."""
    axis_grid, kernels = sweep_kernels(PASS_GRID, axis)
    return axis_grid, [*kernels, Kernel(axis, None, bend(axis_grid))]


TABLE_KERNELS = {axis: table_kernels(axis) for axis in ("q", "p")}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["q", "p"]), st.integers(0, 4),
       st.integers(-8, 520) | st.sampled_from([-10**6, 10**6]),
       st.sampled_from([0.0, 1e-9, 0.37, 0.5, 0.999]) | st.floats(-0.5, 0.5),
       st.integers(1, 600) | st.sampled_from([10**6]))
def test_window_tables_equal_the_points_form(axis, which, j, frac, reach):
    # a center on an out point (frac 0, j inside), between two or outside
    # the out grid (out has 256 cells sharp, 511 smeared); each tabulated
    # array is the matching slice of the points form
    axis_grid, kernels = TABLE_KERNELS[axis]
    kernel = kernels[which]
    out, _ = points_tables(kernel, axis_grid, 0.0)
    x = out.x_min + out.dx * j + frac * out.dx
    k, cr, right, left, cells = points_tables(kernel, axis_grid, x)[1]
    w = metrology._CenteredWindows(kernel, axis_grid, x)
    assert type(w.k) is int and w.k == k
    assert w.cr.dtype == cr.dtype and np.array_equal(w.cr, cr)
    w._tabulate(reach)
    lo, hi = max(k - reach, 0), min(k + reach, out.n)
    assert (w.sure == math.inf) == (lo == 0 and hi == out.n)
    for got, ref in ((w.right, right[:hi - k]), (w.left, left[:k - lo])):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
    if cells is None:
        assert w.cells is None and w.j0 == 0
        return
    j1 = w.j0 + w.cells.size
    assert w.cells.dtype == cells.dtype and np.array_equal(w.cells, cells[w.j0:j1])
    # one image below the tabulated out cells and one at or past their end,
    # unless the span reaches that end of the out grid
    assert w.j0 == 0 or cells[w.j0] < lo
    assert j1 == out.n or cells[j1 - 1] >= hi


def whole_table(kernel, axis_grid, x):
    """A window table holding the whole points form, so :meth:`widths`
    bisects the full arrays: the reference for tables that end at a reach."""
    w = metrology._CenteredWindows(kernel, axis_grid, x)
    out, (_, _, w.right, w.left, w.cells) = points_tables(kernel, axis_grid, x)
    w.reach, w.sure, w.j0 = out.n, math.inf, 0
    return w


def two_bumps(axis_grid, far):
    """Mass 0.95 spread over the middle cells and 0.05 at `far` cells from
    them: a goal above 0.95 needs the far bump, a lower one does not."""
    w = np.zeros(axis_grid.n)
    w[axis_grid.n // 2 - 2:axis_grid.n // 2 + 3] = 0.19
    w[axis_grid.n // 2 + far] = 0.05
    return GridMeasure(axis_grid, w)


def reach_kernels(axis):
    """TABLE_KERNELS' kernels on one axis and a bent marginal (bend on q,
    its p form on p), a two-bump measure, plain and bent, a marginal under
    a map that doubles distances from 0, whose displacement grows past its
    knots, and, on q, the +30 shift that piles every outcome onto the edge
    cell."""
    axis_grid, kernels = TABLE_KERNELS[axis]
    bent, bump, s = bend(axis_grid), two_bumps(axis_grid, 90), axis_grid.dx
    kernels = [*kernels, Kernel(axis, kernels[2].measure, bent),
               Kernel(axis, bump), Kernel(axis, bump, bent),
               Kernel(axis, kernels[2].measure, PiecewiseLinearMap((-s, s), (-2 * s, 2 * s)))]
    if axis == "q":
        kernels.append(Kernel("q", kernels[2].measure,
                              PiecewiseLinearMap.shift(axis_grid.x_min, axis_grid.x_max, 30.0)))
    return axis_grid, kernels


REACH_KERNELS = {axis: reach_kernels(axis) for axis in ("q", "p")}
# one widths call on a table: probe cells, as offsets from the center's
# cell, a box width (1 for point masses) and the eps of the call
REACH_CALLS = st.lists(
    st.tuples(st.lists(st.integers(-40, 40), min_size=1, max_size=12), st.sampled_from([1, 3]),
              st.lists(st.sampled_from([1e-6, 0.01, 0.05, 0.3, 0.7]) | st.floats(0.001, 0.95),
                       min_size=1, max_size=3)),
    min_size=1, max_size=3)


def reach_case(axis, which, j, frac, calls, start=None):
    """The widths of each call on one table, first tabulated out to `start`
    if given, against the whole table's; and whether the table grew after
    the first call."""
    axis_grid, kernels = REACH_KERNELS[axis]
    kernel = kernels[which % len(kernels)]
    x = axis_grid.x_min + axis_grid.dx * (j + frac)
    w, reaches = metrology._CenteredWindows(kernel, axis_grid, x), []
    if start is not None:
        w._tabulate(start)
    for offsets, width, eps_values in calls:
        c = np.clip(axis_grid.nearest_index(x) + np.array(offsets), 0, axis_grid.n - width)
        rows = (c[:, None] + np.arange(width)).repeat(len(eps_values), axis=0)
        weights = np.full(width, 1.0 / width)
        targets = np.tile([_target(eps) for eps in eps_values], c.size)
        got = w.widths(rows, weights, targets)
        want = whole_table(kernel, axis_grid, x).widths(rows, weights, targets)
        assert got.tolist() == want.tolist()
        reaches.append(w.reach)
    return reaches[-1] > reaches[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["q", "p"]), st.integers(0, 9), st.integers(-8, 264),
       st.sampled_from([0.0, 0.37, 0.5]) | st.floats(-0.5, 0.5), REACH_CALLS,
       st.none() | st.integers(1, 80))
@example("q", 6, 128, 0.0, [([0], 1, [0.3]), ([0, 5], 1, [1e-6])], None)
@example("q", 8, 240, 0.0, [([-40], 1, [0.3])], None)
@example("p", 8, 240, 0.0, [([-40], 1, [0.3])], None)
def test_widths_equal_the_whole_table_bisection(axis, which, j, frac, calls, start):
    # widths on tables that end at a confirmed reach, from the first guess
    # or from a drawn start, grown as a call's goals need, give bit for bit
    # the answers of the same bisection on the whole points form.  In the
    # last two examples the doubling map sends the outcome of a probe 40
    # cells left of the center out past it, so the warp cells' first span
    # misses the table's left end and is widened
    reach_case(axis, which, j, frac, calls, start)


@pytest.mark.parametrize("axis", ["q", "p"])
def test_a_far_bump_grows_the_reach(axis):
    # a first call at eps 0.3 does not reach the bump 90 cells out; a second
    # at eps 1e-6 does, so its table doubles until the bump is inside
    for which in (6, 7):    # the two-bump kernel, plain and bent
        assert reach_case(axis, which, 128, 0.0, [([0], 1, [0.3]), ([0, 5], 1, [1e-6])])


def test_warped_window_table_peak_memory_at_the_verify_large_shape():
    # the verify-large wiggle on the q marginal of a two-Gaussian mixture,
    # n = 65536, 131,071 out cells, and the point masses of the widest rung
    # (0.4) at eps 0.05, as _axis_pass bisects them.  A table over the whole
    # out grid traced 2.50 MiB (cr, the int64 cell map and the two distance
    # arrays); this one reaches 5,205 cells a side and traces 0.84 MiB: the
    # prefix sums (0.5 MiB), 21,694 cells of distances and cell map, and the
    # cell map's block transients.
    grid = GridSpec(-20.0, 40.0 / 65536, 65536)
    gen = MixedState([(0.5, gaussian_state(0.0, 0.0, 0.8, grid, HBAR)),
                      (0.5, gaussian_state(0.5, 0.0, 1.2, grid, HBAR))])
    wiggle = PiecewiseLinearMap((-20.0, -1.0, 1.0, 20.0), (-20.0, -0.7, 1.3, 20.0))
    kernel = marginal_kernel(gen, "q", wiggle)
    cells = np.array(grid.cells_within(-0.2, 0.2))[:, None]
    tracemalloc.start()
    try:
        metrology._CenteredWindows(kernel, grid, 0.0).widths(cells, (1.0,), _target(0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20


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


# ---------------------------------------------------------------------------
# Joint verification driver
# ---------------------------------------------------------------------------

class TestVerifyJointUR:
    def test_vacuum_generator_passes(self):
        rep, = verify_scenarios(CFG, [("vac", ConfidencePair(0.05, 0.05),
                                       marginal_kernels(vacuum()))])
        assert rep.passed
        assert rep.product_errorbar >= rep.bound_simple - 1e-9
        assert rep.product_resolution >= rep.bound_simple - 1e-9
        assert rep.scenario_id == "vac"
        assert rep.errorbar_q_spread >= 0.0

    def test_squeezed_generator_passes(self):
        rep, = verify_scenarios(CFG, [("sq", ConfidencePair(0.1, 0.2),
                                       marginal_kernels(vacuum(0.6)))])
        assert rep.passed

    def test_scenarios_take_grid_and_hbar_from_the_config(self):
        # sharp kernels carry no generator, so only cfg says that hbar is 2
        cfg = CalibrationConfig((0.4, 0.2, 0.1), (0.0,), GRID, 2.0)
        rep, = verify_scenarios(
            cfg, [("sharp", ConfidencePair(0.05, 0.1), (Kernel("q"), Kernel("p")))])
        assert rep.bound_simple == 4 * math.pi * (1 - 0.05 - 0.1) ** 2
        # the smallest rung, 0.1 = 4 dx, holds the point masses within two
        # cells of 0 on each axis; on the p axis those are cells of the
        # hbar = 2 momentum grid, twice as wide as DP
        dp = momentum_grid(GRID, 2.0).dx
        assert dp == 2 * DP
        assert rep.errorbar_q == pytest.approx(4 * DX, rel=1e-12)
        assert rep.errorbar_p == pytest.approx(4 * dp, rel=1e-12)
        assert rep.resolution_q == rep.resolution_p == 0.0

    def test_exhausted_confidence_notes_no_bound(self):
        rep, = verify_scenarios(CFG, [("wide", ConfidencePair(0.6, 0.6),
                                       marginal_kernels(vacuum()))])
        assert rep.passed
        assert rep.scenario_id == "wide(no positive bound)"
        assert rep.bound_simple == 0.0

    @pytest.mark.parametrize("gen_grid, gen_hbar, cfg_hbar, axis", [
        # the p measure's momentum step is half the config's
        (GridSpec.symmetric(12.8, 256), 1.0, 2.0, "p"),
        # same dx, twice the length: judged on the config's grid, this row
        # passed with errorbar_q 3.999999999999986, where its own grid gives 4.0
        (GridSpec.symmetric(25.6, 512), 1.0, 1.0, "q"),
        (GridSpec.symmetric(12.8, 256), 2.0, 1.0, "p"),
    ], ids=["hbar-marginals", "q-grid-same-dx", "p-generator-hbar-2"])
    def test_calibration_on_another_grid_or_hbar_rejected(self, gen_grid, gen_hbar,
                                                          cfg_hbar, axis):
        gen = MixedState.pure(gaussian_state(0.0, 0.0, 1.0, gen_grid, gen_hbar))
        cfg = CalibrationConfig((0.4, 0.2), (0.0,), GridSpec.symmetric(12.8, 256), cfg_hbar)
        kq, kp = marginal_kernels(gen)
        # a sharp p kernel leaves the q measure the only one off its grid
        pair = (kq, Kernel("p")) if axis == "q" else (kq, kp)
        measure_grid, cfg_grid = (gen_grid, cfg.grid) if axis == "q" else \
            (momentum_grid(gen_grid, gen_hbar), momentum_grid(cfg.grid, cfg_hbar))
        with pytest.raises(ValueError) as exc:
            verify_scenarios(cfg, [("row", ConfidencePair(0.05, 0.05), pair)])
        assert str(exc.value) == (
            f"row: the {axis} kernel's measure lies on {measure_grid}, not on the "
            f"calibration's {axis} grid {cfg_grid}")

    @pytest.mark.parametrize("rows, message", [
        # read as an ordered pair, the sharp one reported the momentum width
        # 0.49087 as errorbar_q and flipped `passed`
        (lambda kq, kp: [("swapped", (Kernel("p"), Kernel("q")))],
         "swapped: the q place holds a p kernel"),
        (lambda kq, kp: [("swapped", (kp, kq))], "swapped: the q place holds a p kernel"),
        (lambda kq, kp: [("first", (kq, kp)), ("second", (kq, kq))],
         "second: the p place holds a q kernel"),
    ], ids=["sharp", "marginals", "q-kernel-of-one-row-p-kernel-of-the-next"])
    def test_kernel_in_the_other_axis_place_rejected_before_any_pass(self, rows, message,
                                                                     monkeypatch):
        grid = GridSpec.symmetric(12.8, 256)
        cfg = CalibrationConfig((0.4, 0.2), (0.0,), grid, HBAR)
        kq, kp = marginal_kernels(MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid, HBAR)))
        passes = []
        monkeypatch.setattr(metrology, "_axis_pass", lambda *args: passes.append(args))
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_scenarios(cfg, [(scenario_id, ConfidencePair(0.05, 0.05), pair)
                                   for scenario_id, pair in rows(kq, kp)])
        assert passes == []

    def test_axis_grids_looked_up_once(self, monkeypatch):
        # two lookups per call, whatever the number of rows and kernels; the
        # passes, stubbed here, look up their own axis
        calls = []
        on_axis = CalibrationConfig._on_axis

        def counted(cfg, axis):
            calls.append(axis)
            return on_axis(cfg, axis)

        def axis_pass(kernel, eps_values, cfg):
            return [(1.0, [2.0, 1.0])] * len(eps_values)

        monkeypatch.setattr(CalibrationConfig, "_on_axis", counted)
        monkeypatch.setattr(metrology, "_axis_pass", axis_pass)
        gen = vacuum()
        bent = marginal_kernel(gen, "q", PiecewiseLinearMap((-12.8, 0.0, 12.8),
                                                            (-12.8, 1.0, 12.8)))
        kq, kp = marginal_kernels(gen)
        reports = verify_scenarios(CFG, [
            ("row", eps, pair) for eps in (ConfidencePair(0.05, 0.05), ConfidencePair(0.1, 0.2))
            for pair in ((kq, kp), (bent, kp), (Kernel("q"), Kernel("p")))])
        assert calls == ["q", "p"]
        assert [rep.errorbar_q for rep in reports] == [1.0] * 6


def gaussian_rows(n, sigma):
    """Verify rows of an unwarped Gaussian generator of spread sigma on the
    grid of the verify benchmarks (+-20, hbar = 1), one (report, axis, eps,
    axis spread, axis cell) per axis of each eps pair."""
    grid = GridSpec.symmetric(20.0, n)
    kernels = marginal_kernels(MixedState.pure(gaussian_state(0.0, 0.0, sigma, grid, HBAR)))
    cfg = CalibrationConfig((0.4, 0.2, 0.1), (0.0,), grid, HBAR)
    dp = momentum_grid(grid, HBAR).dx
    for eps in (ConfidencePair(0.05, 0.05), ConfidencePair(0.1, 0.2), ConfidencePair(0.2, 0.1)):
        rep, = verify_scenarios(cfg, [("row", eps, kernels)])
        yield rep, "q", eps.eps1, sigma, grid.dx
        yield rep, "p", eps.eps2, HBAR / (2 * sigma), dp


def gaussian_width(eps, sigma):
    """Shortest interval holding mass 1 - eps of a normal law of spread sigma."""
    return 2 * NormalDist().inv_cdf(1 - eps / 2) * sigma


class TestGaussianClosedForms:
    @pytest.mark.parametrize("sigma", [0.7, 1.0, 1.4])
    @pytest.mark.parametrize("n", [4096, 65536])
    def test_widths_and_werner_distances(self, n, sigma):
        # each column within 2 cells of its axis of the closed form; all
        # read within 1
        for rep, axis, eps, spread, cell in gaussian_rows(n, sigma):
            width = gaussian_width(eps, spread)
            assert abs(getattr(rep, f"overall_{axis}") - width) <= 2 * cell
            assert abs(getattr(rep, f"resolution_{axis}") - width) <= 2 * cell
            assert abs(getattr(rep, f"werner_{axis}") - spread * math.sqrt(2 / math.pi)) \
                <= 2 * cell

    @pytest.mark.xfail(strict=True, reason=(
        "errorbar_p is the calibration error at the smallest ladder rung, not its "
        "delta -> 0 limit: 6-9 momentum cells above the closed form at n = 4096 and "
        "about 160 at n = 65536 (ROADMAP item 1)"))
    @pytest.mark.parametrize("sigma", [0.7, 1.0, 1.4])
    @pytest.mark.parametrize("n", [4096, 65536])
    def test_errorbar_p(self, n, sigma):
        for rep, axis, eps, spread, cell in gaussian_rows(n, sigma):
            if axis == "p":
                assert abs(rep.errorbar_p - gaussian_width(eps, spread)) <= 2 * cell
