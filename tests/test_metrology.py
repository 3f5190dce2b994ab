import math
import tracemalloc

import numpy as np
import pytest

from uncert import metrology
from uncert.grids import (
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
    localized_probes,
    minimize_width_product,
    resolution_probes,
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

    def test_probe_kind_validated(self):
        with pytest.raises(ValueError):
            CalibrationConfig((0.2, 0.1), (0.0,), GRID, probe_kind="spline")

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

    def test_ladder_growth_detected(self, monkeypatch):
        # every probe's outcome comes out wider than the last one's
        calls = []

        def growing_width(self, P, eps):
            calls.append(P)
            w = 0.5 + 0.05 * len(calls)
            return centered_width(uniform_measure(-w, w, GRID), 0.0, eps)

        monkeypatch.setattr(metrology._CenteredWindows, "width", growing_width)
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
        probes = resolution_probes(k, GRID, HBAR)
        res = resolution_width(k, 0.05, probes)
        assert res == pytest.approx(2 * Z975 * sg, abs=0.06)

    def test_resolution_bounded_by_smearing_width(self):
        # outcome = state distribution convolved with the smearing measure,
        # so no probe can beat the smearing measure's own overall width
        k = phase_marginal(vacuum(0.7), "q")
        probes = resolution_probes(k, GRID, HBAR)
        res = resolution_width(k, 0.1, probes)
        mu_width = overall_width(k.measure, 0.1)
        assert res >= mu_width - 2 * DX

    def test_empty_probe_family_rejected(self):
        with pytest.raises(ValueError):
            resolution_width(Kernel("q"), 0.05, [])


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


def axis_probes(axis, kind):
    step = DX if axis == "q" else DP
    return localized_probes(axis, 7.5 * step, 8.6 * step, GRID, HBAR, kind)


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
        delta = CalibrationConfig((0.4, 0.2), (0.0,), grid).for_axis("p").delta_ladder[-1]
        assert delta < 2 * momentum_grid(grid, HBAR).dx
        assert len(localized_probes("p", 0.0, delta, grid, HBAR)) == 4
        with pytest.raises(ValueError):
            localized_probes("p", 0.0, 0.99 * delta, grid, HBAR)


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
                probes = resolution_probes(kernel, grid, HBAR, (x,))
                for kind in ("box", "truncated_gaussian"):
                    for delta in (2.0 * step, 8.6 * step, 31.0 * step):
                        probes += localized_probes(axis, x, delta, grid, HBAR, kind)
                windows = metrology._CenteredWindows(kernel, axis_grid, x)
                for P in probes:
                    outcome = kernel.smear(P)
                    for eps in SWEEP_EPS:
                        assert windows.width(P, eps) == centered_width(outcome, x, eps)
                        cases += 1
        assert cases > 1000

    def test_calibration_error_is_the_worst_probe_window(self):
        kernel = sweep_kernels(GRID, "q")[1][3]
        for delta in CFG.delta_ladder:
            want = max(centered_width(kernel.smear(P), 0.0, 0.05)
                       for P in localized_probes("q", 0.0, delta, GRID, HBAR))
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
