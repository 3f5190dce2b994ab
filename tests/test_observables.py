import math
import tracemalloc

import numpy as np
import pytest

from uncert.grids import GridSpec, gaussian_measure, overall_width, point_mass, uniform_measure
from uncert.observables import (
    Kernel,
    MassDeficitError,
    PhaseSpaceObservable,
    PiecewiseLinearMap,
    WarpMap,
    _component_overlap_sq,
    _warp_cells,
    aligned_window,
    covariance_residual,
    joint_distribution,
    marginal_measures,
    phase_marginal,
    pushforward,
    warp_joint,
)
from uncert.states import (
    MixedState,
    displace_mixed,
    gaussian_state,
    momentum_grid,
    point_state,
    superpose,
)

GRID = GridSpec.symmetric(12.8, 1024)  # dx = 0.025
DX = GRID.dx
HBAR = 1.0
PGRID = momentum_grid(GRID, HBAR)
DP = PGRID.dx


def vacuum(x0=0.0, p0=0.0, sigma=1.0):
    return MixedState.pure(gaussian_state(x0, p0, sigma, GRID, HBAR))


# ---------------------------------------------------------------------------
# Smearing kernels
# ---------------------------------------------------------------------------

class TestSmearedKernels:
    def test_delta_smearing_is_sharp(self):
        rho = vacuum(1.0)
        sharp = Kernel("q").outcome_distribution(rho)
        smeared = Kernel("q", point_mass(0.0, GRID)).outcome_distribution(rho)
        assert smeared.mean() == pytest.approx(sharp.mean(), abs=1e-12)
        assert smeared.variance() == pytest.approx(sharp.variance(), rel=1e-9)

    def test_offset_delta_shifts_outcome(self):
        rho = vacuum(0.0)
        mu = point_mass(0.5, GRID)
        out = Kernel("q", mu).outcome_distribution(rho)
        assert out.mean() == pytest.approx(-0.5, abs=DX)

    def test_variance_additivity(self):
        rho = vacuum(sigma=0.9)
        mu = gaussian_measure(0.0, 0.4, GRID)
        out = Kernel("q", mu).outcome_distribution(rho)
        assert out.variance() == pytest.approx(0.81 + 0.16, rel=1e-4)

    def test_momentum_smearing_additivity(self):
        rho = vacuum(sigma=1.0)
        nu = gaussian_measure(0.0, 0.3, PGRID)
        out = Kernel("p", nu).outcome_distribution(rho)
        assert out.variance() == pytest.approx(0.25 + 0.09, rel=1e-4)


# ---------------------------------------------------------------------------
# Covariant phase-space marginals
# ---------------------------------------------------------------------------

class TestMarginalMeasures:
    def test_vacuum_generator_measures(self):
        sg = 0.8
        mu_m, nu_m = marginal_measures(vacuum(sigma=sg))
        assert mu_m.mean() == pytest.approx(0.0, abs=1e-9)
        assert mu_m.variance() == pytest.approx(sg**2, rel=1e-6)
        assert nu_m.variance() == pytest.approx((HBAR / (2 * sg)) ** 2, rel=1e-6)

    def test_displaced_generator_flips_offset(self):
        # the marginal measures come from the parity-transformed generator,
        # so a generator centered at +1 yields a measure centered at -1
        mu_m, nu_m = marginal_measures(vacuum(x0=1.0))
        assert mu_m.mean() == pytest.approx(-1.0, abs=DX)

    def test_marginal_outcome_variances(self):
        sg, ss = 0.8, 1.2
        gen = vacuum(sigma=sg)
        rho = vacuum(sigma=ss)
        q_out = phase_marginal(gen, "q").outcome_distribution(rho)
        p_out = phase_marginal(gen, "p").outcome_distribution(rho)
        assert q_out.variance() == pytest.approx(ss**2 + sg**2, rel=1e-5)
        assert p_out.variance() == pytest.approx(
            (HBAR / (2 * ss)) ** 2 + (HBAR / (2 * sg)) ** 2, rel=1e-5)

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            phase_marginal(vacuum(), "x")


# ---------------------------------------------------------------------------
# Warp maps
# ---------------------------------------------------------------------------

class TestPiecewiseLinearMap:
    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0, 1.0, 2.0), (0.0, 1.5, 1.0))
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0, 1.0, 0.5), (0.0, 1.0, 2.0))

    def test_inverse_roundtrip(self):
        m = PiecewiseLinearMap((-2.0, 0.0, 3.0), (-2.5, 0.5, 3.0))
        x = np.linspace(-4, 5, 101)
        assert np.max(np.abs(m.inverse(m(x)) - x)) < 1e-12

    def test_displacement_bound_and_shift_flag(self):
        ident = PiecewiseLinearMap.identity(-5.0, 5.0)
        assert ident.displacement_bound == 0.0
        assert ident.is_shift
        shift = PiecewiseLinearMap.shift(-5.0, 5.0, 0.3)
        assert shift.displacement_bound == pytest.approx(0.3)
        assert shift.is_shift
        assert PiecewiseLinearMap((-5.0, 1.0, 5.0), (-4.7, 1.3, 5.3)).is_shift
        wiggle = PiecewiseLinearMap((-5.0, 0.0, 5.0), (-5.0, 0.7, 5.0))
        assert not wiggle.is_shift
        assert wiggle.displacement_bound == pytest.approx(0.7)
        # affine but not a shift: y = 1.1 x moves points by different amounts
        assert not PiecewiseLinearMap((-5.0, 5.0), (-5.5, 5.5)).is_shift

    @pytest.mark.parametrize("xs, ys, message", [
        ((-12.8, 12.8), (math.nan, 1.0), "finite"),
        ((-12.8, 0.0, 12.8), (-1.0, math.inf, 1.0), "finite"),
        ((-math.inf, 12.8), (-1.0, 1.0), "finite"),
        ((-12.8, 12.8), (-1e308, 1e308), "finite slopes"),      # the rise overflows
        ((-1e308, 1e308), (-1.0, 1.0), "finite slopes"),        # the run overflows
        ((-1e-300, 1e-300), (-1e300, 1e300), "finite slopes"),  # the slope overflows
        ((-12.8, -12.8), (-1.0, 1.0), "strictly increasing"),
        ((-12.8, 0.0, 12.8), (1.0, 0.0, -1.0), "strictly increasing"),
    ])
    def test_non_finite_knots_and_slopes_rejected(self, xs, ys, message):
        with pytest.raises(ValueError, match=message):
            PiecewiseLinearMap(xs, ys)

    def test_warp_cells_clip_images_far_past_the_grid(self):
        # the images reach +-1e300 and, past the knots, overflow to +-inf;
        # each lands on an edge cell (the tier-1 run turns a RuntimeWarning
        # from an overflowing integer cast into an error)
        steep = PiecewiseLinearMap((-0.5, 0.5), (-5e307, 5e307))
        cells = _warp_cells(GRID, steep)
        mid = GRID.nearest_index(0.0)
        assert (cells[:mid] == 0).all() and (cells[mid + 1:] == GRID.n - 1).all()
        assert cells[mid] == mid

    def test_pushforward_conserves_mass(self):
        P = gaussian_measure(0.0, 1.0, GRID)
        m = PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8), (-12.8, -0.5, 1.5, 12.8))
        out = pushforward(P, m)
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_pushforward_shift_moves_mean(self):
        P = gaussian_measure(0.0, 1.0, GRID)
        out = pushforward(P, PiecewiseLinearMap.shift(-12.8, 12.8, 0.5))
        assert out.mean() == pytest.approx(0.5, abs=DX)


class TestWarpedKernel:
    def test_identity_warp_matches_base(self):
        gen = vacuum()
        ident = PiecewiseLinearMap.identity(-12.8, 12.8)
        w = WarpMap(ident, ident)
        k = phase_marginal(gen, "q", w)
        assert k.covariant
        rho = vacuum(x0=1.0)
        a = k.outcome_distribution(rho)
        b = phase_marginal(gen, "q").outcome_distribution(rho)
        assert np.max(np.abs(a.weights - b.weights)) < 1e-12

    def test_nonaffine_warp_not_covariant(self):
        gm = PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8), (-12.8, -0.3, 1.3, 12.8))
        w = WarpMap(gm, PiecewiseLinearMap.identity(-12.8, 12.8))
        assert not phase_marginal(vacuum(), "q", w).covariant
        assert phase_marginal(vacuum(), "p", w).covariant


# ---------------------------------------------------------------------------
# Joint distribution
# ---------------------------------------------------------------------------

QW = aligned_window(GRID, 8.0, 4)
PW = aligned_window(PGRID, 8.0, 1)


def joint_setup(sigma_gen=1.0):
    return PhaseSpaceObservable(vacuum(sigma=sigma_gen), QW, PW)


class TestJointDistribution:
    def test_total_mass(self):
        jd = joint_distribution(joint_setup(), vacuum())
        assert jd.total_mass == pytest.approx(1.0, abs=1e-3)

    def test_husimi_variances(self):
        # matched Gaussian generator and state: outcome variances are
        # sigma^2 + sigma^2 in q and twice the momentum variance in p
        jd = joint_distribution(joint_setup(), vacuum())
        assert jd.marginal_q().variance() == pytest.approx(2.0, rel=1e-3)
        assert jd.marginal_p().variance() == pytest.approx(0.5, rel=1e-3)

    def test_marginals_match_convolution_identity(self):
        gen = vacuum(sigma=0.9)
        rho = vacuum(x0=1.0, p0=-0.5)
        jd = joint_distribution(PhaseSpaceObservable(gen, QW, PW), rho)
        mq = phase_marginal(gen, "q").outcome_distribution(rho)
        mp = phase_marginal(gen, "p").outcome_distribution(rho)
        # per-cell masses on the joint windows; a q cell spans stride=4 state
        # cells, so it carries 4x the per-dx mass of the matching mq point
        idx_q = [mq.grid.nearest_index(x) for x in QW.points()]
        ref_q = 4.0 * mq.weights[idx_q]
        assert np.max(np.abs(jd.marginal_q().weights - ref_q)) < 1e-6
        idx = [mp.grid.nearest_index(p) for p in PW.points()]
        assert np.max(np.abs(jd.marginal_p().weights - mp.weights[idx])) < 1e-6

    def test_window_too_small_raises(self):
        tiny = aligned_window(GRID, 1.0, 4)
        with pytest.raises(MassDeficitError):
            joint_distribution(PhaseSpaceObservable(vacuum(), tiny, PW), vacuum())

    def test_off_lattice_outcomes_rejected(self):
        bad_q = GridSpec(-8.0 + 0.3 * DX, QW.dx, QW.n)
        with pytest.raises(ValueError):
            joint_distribution(PhaseSpaceObservable(vacuum(), bad_q, PW), vacuum())


    @pytest.mark.parametrize("x_min, n", [(-20.0, 101), (-8.0, 300)])
    def test_q_window_past_the_state_grid_rejected(self, x_min, n):
        # q shifts are circular, so rows past the grid would repeat others
        # and count their mass twice
        q_grid = GridSpec(x_min, 0.4, n)
        with pytest.raises(ValueError, match="q outcome window"):
            joint_distribution(PhaseSpaceObservable(vacuum(), q_grid, PW), vacuum())

    def test_q_window_reaching_both_grid_edges_accepted(self):
        q_grid = GridSpec(GRID.x_min, 16 * DX, GRID.n // 16)
        jd = joint_distribution(PhaseSpaceObservable(vacuum(), q_grid, PW), vacuum())
        assert jd.total_mass == pytest.approx(1.0, abs=1e-3)


class TestCovariance:
    def test_residual_small_for_covariant(self):
        G = joint_setup()
        r = covariance_residual(G, vacuum(), 4 * QW.dx / 4, PW.dx)
        assert r <= 1e-6

    def test_residual_large_for_warped(self):
        G = joint_setup()
        gm = PiecewiseLinearMap((-20.0, -3.0, -1.0, 1.0, 3.0, 20.0),
                                (-20.0, -3.4, -0.7, 1.3, 2.9, 20.0))
        w = WarpMap(gm, PiecewiseLinearMap.identity(-20.0, 20.0))
        r = covariance_residual(G, vacuum(), QW.dx, PW.dx, warp_map=w)
        assert r > 1e-3

    def test_warp_joint_conserves_mass(self):
        jd = joint_distribution(joint_setup(), vacuum())
        gm = PiecewiseLinearMap((-20.0, -1.0, 1.0, 20.0), (-20.0, -0.6, 1.4, 20.0))
        w = WarpMap(gm, gm)
        warped = warp_joint(jd, w)
        assert warped.total_mass == pytest.approx(jd.total_mass, abs=1e-12)


# ---------------------------------------------------------------------------
# Column route against the direct sum
# ---------------------------------------------------------------------------

SMALL = GridSpec.symmetric(12.8, 256)  # dx = 0.1
SMALL_P = momentum_grid(SMALL, HBAR)


def small_state(x0, p0, sigma):
    return gaussian_state(x0, p0, sigma, SMALL, HBAR)


def direct_overlap_sq(psi, phi, q_shifts, p_pts):
    """|dx * sum_j conj(psi_j) exp(i p x_j / hbar) phi_(j - s)|^2, summed term by term."""
    j = np.arange(SMALL.n)
    plane_waves = np.exp(1j * np.outer(p_pts, SMALL.points()) / HBAR)
    rows = [SMALL.dx * plane_waves @ (np.conj(psi.amps) * phi.amps[(j - s) % SMALL.n])
            for s in q_shifts]
    return np.abs(np.array(rows)) ** 2


def direct_density(rho, gen, q_grid, p_grid):
    q_shifts = np.rint(q_grid.points() / SMALL.dx).astype(int)
    dens = sum(wa * vb * direct_overlap_sq(psi, phi, q_shifts, p_grid.points())
               for wa, psi in rho.components for vb, phi in gen.components)
    return dens / (2.0 * math.pi * HBAR)


SKEWED = superpose(1.0, small_state(-0.6, 0.7, 0.9), 0.5j, small_state(0.8, -0.4, 0.7))


class TestColumnRoute:
    @pytest.mark.parametrize("q_stride, p_stride", [(1, 1), (3, 1), (4, 1), (4, 2)])
    def test_density_matches_direct_sum(self, q_stride, p_stride):
        rho = MixedState.pure(SKEWED)
        gen = MixedState.pure(small_state(0.2, 0.3, 1.1))
        qw = aligned_window(SMALL, 6.0, q_stride)
        pw = aligned_window(SMALL_P, 6.0, p_stride)
        jd = joint_distribution(PhaseSpaceObservable(gen, qw, pw), rho)
        ref = direct_density(rho, gen, qw, pw)
        assert np.max(np.abs(jd.density - ref)) <= 1e-12

    def test_mixture_pair_matches_direct_sum(self):
        rho = MixedState([(0.3, SKEWED), (0.7, small_state(0.5, -0.2, 1.0))])
        gen = MixedState([(0.6, small_state(-0.3, 0.0, 0.8)), (0.4, small_state(0.4, 0.5, 1.0))])
        qw = aligned_window(SMALL, 6.0, 4)
        pw = aligned_window(SMALL_P, 6.0, 1)
        jd = joint_distribution(PhaseSpaceObservable(gen, qw, pw), rho)
        assert np.max(np.abs(jd.density - direct_density(rho, gen, qw, pw))) <= 1e-12

    @pytest.mark.parametrize("q_shifts", [
        [7],                                  # a single q row
        list(range(-200, 200, 4)),            # 100 rows wrap the 64 distinct shifts
    ])
    def test_overlap_rows_match_direct_sum(self, q_shifts):
        phi = small_state(0.2, 0.3, 1.1)
        cols = np.arange(100, 160, 3)
        out = _component_overlap_sq(SKEWED.amps, phi.amps, SMALL.dx, np.array(q_shifts), cols)
        ref = direct_overlap_sq(SKEWED, phi, q_shifts, SMALL_P.points()[cols])
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_peak_memory_bounded_at_n_16384(self):
        grid = GridSpec.symmetric(40.0, 16384)
        gen = MixedState([(0.5, gaussian_state(-0.25, 0.0, 0.8, grid)),
                          (0.5, gaussian_state(0.25, 0.0, 1.0, grid))])
        rho = MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid))
        G = PhaseSpaceObservable(gen, aligned_window(grid, 8.0, 8),
                                 aligned_window(momentum_grid(grid, 1.0), 8.0, 1))
        tracemalloc.start()
        try:
            joint_distribution(G, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestAlignedWindow:
    @pytest.mark.parametrize("grid, half_width, stride, n", [
        (SMALL, 4.3, 1, 87),  # 4.3 / 0.1 evaluates to 42.999..., still k = 43
        (GridSpec.symmetric(40.0, 16384), 8.0, 8, 409),
        (momentum_grid(GridSpec.symmetric(40.0, 16384), 1.0), 8.0, 1, 203),
    ])
    def test_window_keeps_edge_points(self, grid, half_width, stride, n):
        assert aligned_window(grid, half_width, stride).n == n
