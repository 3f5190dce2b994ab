import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uncert.grids import GridMeasure, GridSpec, gaussian_measure, overall_width, point_mass, \
    uniform_measure
from uncert.observables import (
    JointDistribution,
    Kernel,
    MassDeficitError,
    PhaseSpaceObservable,
    PiecewiseLinearMap,
    WarpMap,
    _component_overlap_sq,
    _reflected,
    _warp_cells,
    _warp_density,
    aligned_window,
    covariance_residual,
    joint_distribution,
    marginal_measures,
    pushforward,
)
from uncert.states import (
    MixedState,
    displace_mixed,
    gaussian_state,
    momentum_distribution,
    momentum_grid,
    parity_mixed,
    parity_offset,
    point_state,
    position_distribution,
    superpose,
)

GRID = GridSpec.symmetric(12.8, 1024)  # dx = 0.025
OFFSET_GRID = GridSpec(-12.75, 0.1, 256)  # parity offset n - 1: -x_j = x_{255 - j}
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

    @staticmethod
    def assert_reflected_marginals(gen):
        # the reflected marginals match the parity image's marginals to
        # roundoff: its momentum weights come from the FFT of the flipped
        # amplitudes, the measures' from the FFT of gen's own
        flipped = parity_mixed(gen)
        wants = position_distribution(flipped), momentum_distribution(flipped)
        got = marginal_measures(gen)
        for g, want in zip(got, wants):
            assert g.grid == want.grid
            assert np.max(np.abs(g.weights - want.weights)) <= 1e-13 * want.weights.max()
        # bit for bit the measures of the marginals' rolled reversals
        P, Q = position_distribution(gen), momentum_distribution(gen)
        m = parity_offset(gen.grid)
        for g, D, shift in zip(got, (P, Q), (m + 1, 1)):
            assert g.weights.tobytes() == \
                GridMeasure(D.grid, np.roll(D.weights[::-1], shift)).weights.tobytes()
        return got

    @pytest.mark.parametrize("gen", [
        vacuum(sigma=0.8),
        vacuum(x0=0.5, p0=2.0, sigma=1.1),
        MixedState([(0.1, gaussian_state(-1.0, 0.0, 0.7, GRID, HBAR)),
                    (0.2, gaussian_state(0.3, 0.0, 1.0, GRID, HBAR)),
                    (0.7, gaussian_state(1.5, 0.0, 1.3, GRID, HBAR))]),
        MixedState([(0.3, gaussian_state(0.0, 1.5, 0.9, GRID, HBAR)),
                    (0.0, gaussian_state(0.2, 0.0, 1.0, GRID, HBAR)),
                    (0.7, superpose(1j, gaussian_state(-0.5, 0.0, 1.0, GRID, HBAR),
                                    1j, gaussian_state(0.5, 0.0, 1.0, GRID, HBAR)))]),
        MixedState([(0.4, gaussian_state(0.3, -1.0, 0.9, OFFSET_GRID, HBAR)),
                    (0.6, gaussian_state(-0.8, 0.0, 1.2, OFFSET_GRID, HBAR))]),
    ], ids=["pure-real", "pure-complex", "mixed-real", "mixed-complex", "offset-n-1"])
    def test_measures_are_the_flipped_mixtures_marginals(self, gen):
        # the mixed-complex generator has a complex component, a zero weight
        # and a complex128 one whose imaginary parts are all zero; on
        # OFFSET_GRID the parity offset is n - 1
        self.assert_reflected_marginals(gen)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([GRID, OFFSET_GRID]),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-0.5, 0.5), st.floats(-5.0, 5.0),
                              st.floats(0.5, 1.5)), min_size=1, max_size=4))
    def test_measures_are_the_flipped_mixtures_marginals_on_random_mixtures(self, grid, comps):
        total = sum(w for w, _, _, _ in comps)
        assume(total > 0)
        self.assert_reflected_marginals(
            MixedState([(w / total, gaussian_state(x0, p0, sigma, grid, HBAR))
                        for w, x0, p0, sigma in comps]))

    @pytest.mark.parametrize("n", [2, 3, 8192 * 2 + 1, 8192 * 3 + 6])
    def test_reflection_in_place_is_the_rolled_reversal(self, n):
        # runs longer than one block of BLOCK floats, of odd and even length
        grid = GridSpec(0.0, 1.0, n)
        rng = np.random.default_rng(n)
        for m in sorted({0, 1, n // 3, n // 2, n - 2, n - 1, n, 2 * n + 5}):
            w = rng.random(n)
            w /= w.sum()
            want = GridMeasure(grid, np.roll(GridMeasure(grid, w).weights[::-1], m + 1))
            got = _reflected(GridMeasure(grid, w), m)
            assert got.weights.tobytes() == want.weights.tobytes()
            assert not got.weights.flags.writeable

    def test_marginal_measures_hold_one_array_per_measure(self):
        # the seed-0 verify mixture at n = 65536: nu's weights and the real
        # FFT's spectrum (0.5 MiB each), then nu's and mu's weights, each
        # with a 64 KiB block.  Traced above the states, after a warm-up
        # call that plans the FFT: 1.07 MiB; the marginals' constructor
        # copies and np.roll reflections made it 2.00 MiB
        grid = GridSpec.symmetric(20.0, 65536)
        gen = MixedState([(0.5, gaussian_state(0.0, 0.0, 0.8, grid, HBAR)),
                          (0.5, gaussian_state(0.5, 0.0, 1.2, grid, HBAR))])
        marginal_measures(gen)
        tracemalloc.start()
        try:
            marginal_measures(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2**20

    def test_marginal_outcome_variances(self):
        sg, ss = 0.8, 1.2
        gen = vacuum(sigma=sg)
        rho = vacuum(sigma=ss)
        mu, nu = marginal_measures(gen)
        q_out = Kernel("q", mu).outcome_distribution(rho)
        p_out = Kernel("p", nu).outcome_distribution(rho)
        assert q_out.variance() == pytest.approx(ss**2 + sg**2, rel=1e-5)
        assert p_out.variance() == pytest.approx(
            (HBAR / (2 * ss)) ** 2 + (HBAR / (2 * sg)) ** 2, rel=1e-5)

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            Kernel("x", marginal_measures(vacuum())[0])


# ---------------------------------------------------------------------------
# Warp maps
# ---------------------------------------------------------------------------

class TestPiecewiseLinearMap:
    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0, 1.0, 2.0), (0.0, 1.5, 1.0))
        with pytest.raises(ValueError):
            PiecewiseLinearMap((0.0, 1.0, 0.5), (0.0, 1.0, 2.0))

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
        mu = marginal_measures(gen)[0]
        k = Kernel("q", mu, PiecewiseLinearMap.identity(-12.8, 12.8))
        assert k.covariant
        rho = vacuum(x0=1.0)
        a = k.outcome_distribution(rho)
        b = Kernel("q", mu).outcome_distribution(rho)
        assert np.max(np.abs(a.weights - b.weights)) < 1e-12

    def test_nonaffine_warp_not_covariant(self):
        gm = PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8), (-12.8, -0.3, 1.3, 12.8))
        mu, nu = marginal_measures(vacuum())
        assert not Kernel("q", mu, gm).covariant
        assert Kernel("p", nu, PiecewiseLinearMap.identity(-12.8, 12.8)).covariant


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

    @pytest.mark.parametrize("gen", [
        pytest.param(vacuum(sigma=0.9), id="centered"),
        # marginal_measures returns the generator's marginals reflected and
        # Kernel.smear reflects them again, so the kernels describe the
        # observable generated by Pi m Pi while joint_distribution computes
        # the one generated by m: only a parity-symmetric m agrees (max-abs
        # gaps 1.7e-2 on q and 7.7e-2 on p here)
        pytest.param(vacuum(x0=0.7, p0=0.4, sigma=0.9), id="displaced",
                     marks=pytest.mark.xfail(strict=True, reason="kernels are reflected twice")),
    ])
    def test_marginals_match_convolution_identity(self, gen):
        rho = vacuum(x0=1.0, p0=-0.5)
        jd = joint_distribution(PhaseSpaceObservable(gen, QW, PW), rho)
        mu, nu = marginal_measures(gen)
        mq = Kernel("q", mu).outcome_distribution(rho)
        mp = Kernel("p", nu).outcome_distribution(rho)
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


    def test_p_window_of_one_repeated_column_rejected(self):
        # each point lies within 1e-6 of a cell of the conjugate grid, all of the same cell
        p_grid = GridSpec(PGRID.x_min + 512 * DP, 1e-8 * DP, 5)
        with pytest.raises(ValueError, match="^p outcome points must be distinct"):
            joint_distribution(PhaseSpaceObservable(vacuum(), QW, p_grid), vacuum())

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

    def test_shift_off_the_window_step_within_tolerance_accepted(self):
        # 3e-8 of a q step passes the 1e-6 check here; the displacement must
        # use the rounded shift, since weyl_displace allows only 1e-9 of dx
        G = joint_setup()
        r = covariance_residual(G, vacuum(), QW.dx * (1 + 3e-8), PW.dx)
        assert r == covariance_residual(G, vacuum(), QW.dx, PW.dx)

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
        warped = joint_distribution(joint_setup(), vacuum(), WarpMap(gm, gm))
        assert not np.array_equal(warped.density, jd.density)
        assert warped.total_mass == pytest.approx(jd.total_mass, abs=1e-12)

    @pytest.mark.parametrize("warped", [False, True])
    @pytest.mark.parametrize("state, kq, kp", [((0.0, 0.0, 1.0), 1, 1),
                                               ((0.4, 0.3, 1.3), 2, -3)])
    def test_residual_equals_the_out_of_place_form(self, state, kq, kp, warped):
        G = joint_setup(0.8)
        rho = vacuum(*state)
        w = WarpMap(BENT, BENT) if warped else None
        got = covariance_residual(G, rho, kq * QW.dx, kp * PW.dx, warp_map=w)
        assert got == out_of_place_residual(G, rho, kq, kp, w)
        assert (got > 1e-3) == warped

    @pytest.mark.parametrize("q, p, name", [
        (math.inf, PW.dx, "q"), (math.nan, PW.dx, "q"),
        (QW.dx, -math.inf, "p"), (QW.dx, math.nan, "p"),
    ], ids=["inf-q", "nan-q", "minus-inf-p", "nan-p"])
    def test_non_finite_shift_names_the_argument(self, q, p, name):
        # inf raised OverflowError and nan "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            covariance_residual(joint_setup(), vacuum(), q, p)


def out_of_place_residual(G, rho, kq, kp, warp_map):
    """covariance_residual at a shift of (kq, kp) outcome cells, with the
    difference and its absolute value in new arrays."""
    base = joint_distribution(G, rho, warp_map)
    moved = joint_distribution(G, displace_mixed(rho, kq * G.q_grid.dx, kp * G.p_grid.dx),
                               warp_map)
    shifted = np.roll(base.density, (kq, kp), axis=(0, 1))
    return float(np.max(np.abs(moved.density - shifted)))


# ---------------------------------------------------------------------------
# Warps against the scatter-add forms
# ---------------------------------------------------------------------------

def add_at_pushforward(P, gmap):
    w = np.zeros(P.grid.n)
    np.add.at(w, _warp_cells(P.grid, gmap), P.weights)
    return GridMeasure(P.grid, w)


def add_at_warp_joint(jd, warp_map):
    masses = jd.density * jd.cell_area
    rows = np.zeros_like(masses)
    np.add.at(rows, _warp_cells(jd.q_grid, warp_map.gamma_q), masses)
    out = np.zeros_like(rows)
    np.add.at(out.T, _warp_cells(jd.p_grid, warp_map.gamma_p), rows.T)
    return out / jd.cell_area


# stretched at both ends, so images past +-8 pile up on the edge cells of
# the +-8 windows, and compressed in the middle, so cells merge
BENT = PiecewiseLinearMap((-8.0, -1.0, 1.0, 8.0), (-13.0, -1.0, 0.2, 12.0))


class TestWarpScatter:
    def test_bent_map_piles_up_on_both_edges(self):
        for g in (QW, PW):
            cells = _warp_cells(g, BENT)
            assert (cells == 0).sum() > 1 and (cells == g.n - 1).sum() > 1
            inner = cells[(cells > 0) & (cells < g.n - 1)]
            assert (np.diff(inner) == 0).any()

    def test_pushforward_equals_the_scatter_add(self):
        P = gaussian_measure(0.3, 2.0, GRID)
        m = PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8), (-20.0, -1.5, 0.3, 19.0))
        assert (_warp_cells(GRID, m) == 0).sum() > 1
        assert np.array_equal(pushforward(P, m).weights, add_at_pushforward(P, m).weights)

    @pytest.mark.parametrize("gamma_q, gamma_p", [
        (BENT, BENT),
        (BENT, PiecewiseLinearMap.identity(-8.0, 8.0)),
        (PiecewiseLinearMap.shift(-8.0, 8.0, 0.7), BENT),
    ])
    def test_warp_joint_equals_the_scatter_add(self, gamma_q, gamma_p):
        # joint_distribution warps the density it built, in place
        jd = joint_distribution(joint_setup(), vacuum(0.4, 0.3, 1.3))
        w = WarpMap(gamma_q, gamma_p)
        warped = joint_distribution(joint_setup(), vacuum(0.4, 0.3, 1.3), w)
        assert np.array_equal(warped.density, add_at_warp_joint(jd, w))

    def test_warp_joint_peak_memory_at_the_joint_witness_shape(self):
        # 409 x 203 cells, warped in place as joint_distribution warps them.
        # Kept besides the density: the row pass, one array of its size;
        # 64 KiB covers the cell indices and the maps' evaluations on the
        # window points (13 KiB traced).  The np.add.at form's four such
        # arrays, or a copy of the density, would fail the bound.
        grid = GridSpec.symmetric(40.0, 16384)
        qw = aligned_window(grid, 8.0, 8)
        pw = aligned_window(momentum_grid(grid, 1.0), 8.0, 1)
        density = np.random.default_rng(0).random((qw.n, pw.n))
        jd = JointDistribution(qw, pw, density)
        w = WarpMap(BENT, BENT)
        tracemalloc.start()
        try:
            _warp_density(jd, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (qw.n, pw.n) == (409, 203)
        assert peak < density.nbytes + 64 * 2**10


# ---------------------------------------------------------------------------
# In-place map evaluation against the np.where form
# ---------------------------------------------------------------------------

def where_eval(m, x):
    """PiecewiseLinearMap.__call__ in its np.where form: both end-segment
    formulas evaluated over every point, then selected."""
    xs, ys = np.asarray(m.xs), np.asarray(m.ys)
    x = np.asarray(x, dtype=float)
    out = np.interp(x, xs, ys)
    lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
    hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    out = np.where(x < xs[0], ys[0] + (x - xs[0]) * lo_slope, out)
    out = np.where(x > xs[-1], ys[-1] + (x - xs[-1]) * hi_slope, out)
    return out


def where_warp_cells(g, gmap):
    """_warp_cells in its out-of-place form over the np.where map."""
    with np.errstate(over="ignore"):
        cells = np.rint((where_eval(gmap, g.points()) - g.x_min) / g.dx)
    return np.clip(cells, 0, g.n - 1).astype(int)


# the images of +-1e300 and, past the knots, +-inf
STEEP = PiecewiseLinearMap((-0.5, 0.5), (-5e307, 5e307))


@st.composite
def knot_maps(draw):
    """Shifts, bends, the steep map and random knots, inside GRID (+-12.8)
    and past it."""
    kind = draw(st.sampled_from(["fixed", "shift", "random"]))
    if kind == "fixed":
        return draw(st.sampled_from([BENT, STEEP, PiecewiseLinearMap.identity(-12.8, 12.8),
                                     PiecewiseLinearMap((-12.8, -1.0, 1.0, 12.8),
                                                        (-20.0, -1.5, 0.3, 19.0))]))
    if kind == "shift":
        lo = draw(st.floats(-30.0, 10.0))
        return PiecewiseLinearMap.shift(lo, lo + draw(st.floats(0.1, 40.0)),
                                        draw(st.floats(-5.0, 5.0)))
    xs = sorted(draw(st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=6, unique=True)))
    slopes = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(xs) - 1, max_size=len(xs) - 1))
    ys = draw(st.floats(-30.0, 30.0)) + np.concatenate(([0.0], np.cumsum(np.diff(xs) * slopes)))
    try:
        return PiecewiseLinearMap(tuple(xs), tuple(ys))
    except ValueError:  # two knots rounded onto one value
        assume(False)


@settings(max_examples=200, deadline=None)
@given(knot_maps(), st.lists(st.floats(-1e3, 1e3), max_size=20), st.floats(-1e3, 1e3))
def test_map_bits_equal_the_where_form(m, extra, scalar):
    # every point, array or scalar, inside or past the knots; a scalar gives
    # a 0-d array, as the np.where form did
    x = np.concatenate((GRID.points(), extra))
    for arg in (x, scalar, np.float64(scalar)):
        with np.errstate(over="ignore"):
            got, want = m(arg), where_eval(m, arg)
        assert type(got) is type(want) is np.ndarray
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    for g in (GRID, PGRID, QW, PW):
        got, want = _warp_cells(g, m), where_warp_cells(g, m)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def whole_warp_cells(g, gmap):
    """_warp_cells in its whole-array form: the image of all n points
    shifted, scaled, rounded and clipped in place, then cast once."""
    with np.errstate(over="ignore"):
        cells = gmap(g.points())
        cells -= g.x_min
        cells /= g.dx
        np.rint(cells, out=cells)
    np.clip(cells, 0, g.n - 1, out=cells)
    return cells.astype(int)


WIGGLE = PiecewiseLinearMap((-20.0, -1.0, 1.0, 20.0), (-20.0, -0.7, 1.3, 20.0))


@pytest.mark.parametrize("gmap", [
    PiecewiseLinearMap.shift(-20.0, 20.0, 0.37), PiecewiseLinearMap.shift(-3.0, 3.0, -55.0),
    WIGGLE, PiecewiseLinearMap((-40.0, -1.0, 1.0, 40.0), (-90.0, -1.5, 0.3, 85.0)), STEEP,
], ids=["shift", "shift-past-the-grid", "wiggle", "bend-past-the-grid", "overflowing"])
@pytest.mark.parametrize("n_out", [256, 8191, 8192, 8193, 16384, 50001, 131071])
def test_blockwise_warp_cells_equal_the_whole_array_form(gmap, n_out):
    # out grids over +-40 from one block of BLOCK = 8192 points to 16,
    # ending inside a block and on a block edge; points past the knots,
    # past the grid and overflowing images included
    dx = 80.0 / (n_out + 1)
    g = GridSpec(-40.0 + dx, dx, n_out)
    got, want = _warp_cells(g, gmap), whole_warp_cells(g, gmap)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_warp_cells_peak_memory_at_the_verify_large_shape():
    # the out grid of a smeared q kernel at n = 65536 (131,071 cells) under
    # the verify-large wiggle.  The whole-array form traced 2.75 MiB: the
    # points, the image written in place, the int cast and the two end
    # segments' slices; the blockwise one 1.33 MiB, the int64 cells and one
    # block's transients.  n-float points or images would fail the bound.
    n = 65536
    dx = 40.0 / n
    out = GridSpec(-40.0 + dx, dx, 2 * n - 1)
    tracemalloc.start()
    try:
        _warp_cells(out, WIGGLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


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


def column_loop_overlap_sq(psi_amps, phi_amps, dx, q_shifts, cols):
    """The column route one kept column at a time, with a lone inverse FFT each."""
    psi_amps, phi_amps = (np.asarray(a, dtype=complex) for a in (psi_amps, phi_amps))
    n = psi_amps.size
    stride = int(q_shifts[1] - q_shifts[0]) if q_shifts.size > 1 else 1
    g = math.gcd(stride, n)
    L = n // g
    take = (stride // g) * np.arange(q_shifts.size) % L
    A = np.fft.fft(np.conj(psi_amps))
    AA = np.concatenate([A, A])          # AA[n - k : 2n - k] == roll(A, k)
    B = np.fft.fft(np.roll(phi_amps[::-1], 1 - int(q_shifts[0])))
    out = np.empty((q_shifts.size, len(cols)))
    for i, c in enumerate(cols):
        k = (int(c) - n // 2) % n
        folded = (AA[n - k:2 * n - k] * B).reshape(g, L).sum(axis=0)
        out[:, i] = np.abs(np.fft.ifft(folded)[take]) ** 2
    return out * ((L / n) * dx) ** 2


def overlap_sq(psi_amps, phi_amps, dx, q_shifts, cols):
    """_component_overlap_sq's contribution at weight 1, added into zeros."""
    q_shifts = np.asarray(q_shifts)
    dens = np.zeros((q_shifts.size, len(cols)))
    _component_overlap_sq(psi_amps, phi_amps, dx, q_shifts, cols, 1.0, dens)
    return dens


def witness_setup():
    """The seed-0 joint-witness observable and state: n = 16384 over +-40,
    a 409 x 203 outcome window."""
    grid = GridSpec.symmetric(40.0, 16384)
    gen = MixedState([(0.5, gaussian_state(-0.25, 0.0, 0.8, grid)),
                      (0.5, gaussian_state(0.25, 0.0, 1.0, grid))])
    rho = MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid))
    G = PhaseSpaceObservable(gen, aligned_window(grid, 8.0, 8),
                             aligned_window(momentum_grid(grid, 1.0), 8.0, 1))
    return G, rho


def p_window(c0, stride, count):
    """`count` columns of SMALL_P from column c0 on, every `stride`-th."""
    return GridSpec(SMALL_P.x_min + c0 * SMALL_P.dx, stride * SMALL_P.dx, count)


# p = 0 is column 128 of SMALL_P
MIRROR_WINDOWS = {
    "symmetric": aligned_window(SMALL_P, 6.0, 1),    # columns 104..152
    "stride-2": aligned_window(SMALL_P, 6.0, 2),     # columns 104..152, every 2nd
    "across-p0": p_window(100, 1, 45),               # 28 columns below p = 0, 16 above
    "above-p0": p_window(131, 1, 20),                # no column's mirror is kept
    "stride-3-off-centre": p_window(110, 3, 20),     # 6 columns below p = 0, 13 above
}
REAL_PAIR = (MixedState.pure(small_state(0.3, 0.0, 0.9)),
             MixedState.pure(small_state(-0.2, 0.0, 1.1)))
# one real and one complex component each: real and complex pairs mix
MIXED_PAIRS = (MixedState([(0.4, small_state(0.3, 0.0, 0.9)), (0.6, SKEWED)]),
               MixedState([(0.7, small_state(-0.2, 0.0, 1.1)), (0.3, small_state(0.4, 0.5, 1.0))]))


@pytest.fixture
def no_mass_check(monkeypatch):
    # a window on one side of p = 0 misses most of the mass; these tests
    # compare its density cell by cell
    monkeypatch.setattr(JointDistribution, "total_mass", 1.0)


class TestColumnRoute:
    @pytest.mark.parametrize("window", MIRROR_WINDOWS.values(), ids=MIRROR_WINDOWS.keys())
    @pytest.mark.parametrize("states", [REAL_PAIR, MIXED_PAIRS], ids=["real", "mixed"])
    def test_real_pairs_match_direct_sum_on_any_window(self, states, window, no_mass_check):
        rho, gen = states
        dtypes = {psi.amps.dtype for _, psi in rho.components + gen.components}
        assert np.dtype(float) in dtypes
        qw = aligned_window(SMALL, 6.0, 4)
        jd = joint_distribution(PhaseSpaceObservable(gen, qw, window), rho)
        assert np.max(np.abs(jd.density - direct_density(rho, gen, qw, window))) <= 1e-12

    @pytest.mark.parametrize("name", ["symmetric", "stride-2", "across-p0",
                                      "stride-3-off-centre"])
    def test_mirror_columns_of_a_real_density_are_equal(self, name, no_mass_check):
        rho, gen = REAL_PAIR
        window = MIRROR_WINDOWS[name]
        jd = joint_distribution(PhaseSpaceObservable(gen, aligned_window(SMALL, 6.0, 4), window),
                                rho)
        cols = np.rint((window.points() - SMALL_P.x_min) / SMALL_P.dx).astype(int)
        position = {c: i for i, c in enumerate(cols)}
        pairs = [(i, position[SMALL.n - c]) for i, c in enumerate(cols)
                 if SMALL.n - c in position and SMALL.n - c != c]
        assert pairs
        for i, j in pairs:
            assert np.array_equal(jd.density[:, i], jd.density[:, j])

    def test_real_pairs_ask_for_one_side_of_the_witness_window(self, monkeypatch):
        # the base state and generator are real, the moved state complex
        asked = []

        def spy(psi_amps, phi_amps, dx, q_shifts, cols, weight, dens):
            asked.append((psi_amps.dtype.kind + phi_amps.dtype.kind, len(cols)))
            _component_overlap_sq(psi_amps, phi_amps, dx, q_shifts, cols, weight, dens)

        monkeypatch.setattr("uncert.observables._component_overlap_sq", spy)
        G, rho = witness_setup()
        assert G.p_grid.n == 203
        covariance_residual(G, rho, G.q_grid.dx, G.p_grid.dx)
        assert asked == [("ff", 102)] * 2 + [("cf", 203)] * 2

    @pytest.mark.parametrize("q_stride, p_stride",
                             [(1, 1), (3, 1), (4, 1), (4, 2), (8, 1), (1, 2)])
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
        list(range(-60, 60)),                 # stride 1: blocks of 1 column
        list(range(-60, 60, 3)),              # stride 3: g = 1 again
        list(range(-64, 64, 8)),              # stride 8: blocks of 8 columns
    ])
    def test_overlap_rows_match_direct_sum(self, q_shifts):
        phi = small_state(0.2, 0.3, 1.1)
        cols = np.arange(100, 160, 3)
        out = overlap_sq(SKEWED.amps, phi.amps, SMALL.dx, q_shifts, cols)
        ref = direct_overlap_sq(SKEWED, phi, q_shifts, SMALL_P.points()[cols])
        assert np.max(np.abs(out - ref)) <= 1e-12
        loop = column_loop_overlap_sq(SKEWED.amps, phi.amps, SMALL.dx, np.array(q_shifts), cols)
        assert np.array_equal(out, loop)

    # column 128 is k = 0, the centre of the momentum grid
    @pytest.mark.parametrize("q_stride, cols", [
        (1, np.arange(100, 161)),             # 61 columns: odd, across k = 0
        (3, np.arange(100, 160, 2)),          # p stride 2
        (4, np.arange(100, 161)),             # 61 columns: not a multiple of g = 4
        (8, np.arange(120, 137)),             # 17 columns centred on k = 0
        (6, np.arange(90, 170, 5)),           # g = 2, every 3rd folded sample
        (8, np.array([128])),                 # a single column
        (1, np.array([131])),
    ], ids=["q1-odd", "q3-p2", "q4-61", "q8-17", "q6-p5", "q8-one", "q1-one"])
    def test_overlap_bits_equal_the_column_loop(self, q_stride, cols):
        # batching the inverse FFTs over blocks of g columns keeps every bit
        phi = small_state(0.2, 0.3, 1.1)
        q_shifts = np.arange(-60, 61, q_stride)
        for a, b in ((SKEWED, phi), (phi, SKEWED)):
            got = overlap_sq(a.amps, b.amps, SMALL.dx, q_shifts, cols)
            want = column_loop_overlap_sq(a.amps, b.amps, SMALL.dx, q_shifts, cols)
            assert np.array_equal(got, want)

    def test_overlap_of_real_amplitudes_equals_their_complex_form(self):
        # real amplitudes are cast to complex before the FFTs, so the dtype
        # a state was built with leaves every bit of the overlap in place
        psi, phi = small_state(0.3, 0.0, 0.9), small_state(-0.2, 0.0, 1.1)
        assert psi.amps.dtype == phi.amps.dtype == np.float64
        q_shifts, cols = np.arange(-60, 60, 4), np.arange(100, 160, 3)
        for a, b in ((psi, phi), (psi, SKEWED), (SKEWED, phi)):
            got = overlap_sq(a.amps, b.amps, SMALL.dx, q_shifts, cols)
            want = overlap_sq(a.amps.astype(complex), b.amps.astype(complex),
                              SMALL.dx, q_shifts, cols)
            assert np.array_equal(got, want)

    def test_peak_memory_bounded_at_n_16384(self):
        # the joint-witness observable, unwarped.  Kept: the density (0.63
        # MiB) next to the kernel's A, B and the arrays of its column loop,
        # 1.75 MiB traced; 2.69 MiB when each pair's contribution was a
        # density-sized array of its own.
        G, rho = witness_setup()
        tracemalloc.start()
        try:
            joint_distribution(G, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20

    def test_overlap_peak_memory_at_the_joint_witness_shape(self):
        # n = 16384, q stride 8 (g = 8), 203 columns and a real phi, with a
        # complex psi as in the moved state's pairs and a real one as in the
        # base state's.  The peak is in the column loop: A, B, the n-point
        # product and the g-row block, 4n complex values, and one block's
        # squared moduli, 1.105 MiB traced.  A 2g-row block (1.45 MiB), an
        # n_q x n_p output (1.73 MiB) or complex copies of a real psi and
        # phi held while B is built (1.26 MiB) fail the bound.  A first
        # call fills numpy's FFT caches, which stay allocated.
        grid = GridSpec.symmetric(40.0, 16384)
        phi = gaussian_state(0.25, 0.0, 0.8, grid).amps
        q_shifts = 8 * np.arange(-204, 205)
        cols = np.arange(8192 - 101, 8192 + 102)
        dens = np.zeros((q_shifts.size, cols.size))
        for p0, dtype in ((0.3, complex), (0.0, float)):
            psi = gaussian_state(0.0, p0, 1.0, grid).amps
            assert psi.dtype == dtype and phi.dtype == float
            _component_overlap_sq(psi, phi, grid.dx, q_shifts, cols, 0.5, dens)
            tracemalloc.start()
            try:
                _component_overlap_sq(psi, phi, grid.dx, q_shifts, cols, 0.5, dens)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 16 * grid.n + 192 * 2**10, dtype

    def test_covariance_residual_peak_memory_at_the_joint_witness_shape(self):
        # the joint-witness op: the base density and the moved state are
        # held while the moved density accumulates, with the kernel's four
        # n-point arrays, 2.64 MiB traced unwarped and warped; 3.57 MiB when
        # each pair's contribution and the difference were arrays of their own
        G, rho = witness_setup()
        xs = (-40.0, -3.0, -1.0, 1.0, 3.0, 40.0)
        w = WarpMap(PiecewiseLinearMap(xs, (-40.0, -3.4, -0.7, 1.3, 2.9, 40.0)),
                    PiecewiseLinearMap.identity(-40.0, 40.0))
        for warp_map in (None, w):
            tracemalloc.start()
            try:
                covariance_residual(G, rho, G.q_grid.dx, G.p_grid.dx, warp_map)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3.0 * 2**20


class TestAlignedWindow:
    @pytest.mark.parametrize("grid, half_width, stride, n", [
        (SMALL, 4.3, 1, 87),  # 4.3 / 0.1 evaluates to 42.999..., still k = 43
        (GridSpec.symmetric(40.0, 16384), 8.0, 8, 409),
        (momentum_grid(GridSpec.symmetric(40.0, 16384), 1.0), 8.0, 1, 203),
    ])
    def test_window_keeps_edge_points(self, grid, half_width, stride, n):
        assert aligned_window(grid, half_width, stride).n == n

    @pytest.mark.parametrize("half_width, stride, message", [
        (4.0, 0, "stride must be an integer >= 1, got 0"),      # was ZeroDivisionError
        (4.0, 2.5, "stride must be an integer >= 1, got 2.5"),  # was a window off the grid
        (4.0, -2, "stride must be an integer >= 1, got -2"),
        (math.inf, 1, "half_width must be finite and >= 0, got inf"),  # was OverflowError
        (math.nan, 1, "half_width must be finite and >= 0, got nan"),
        (-1.0, 1, "half_width must be finite and >= 0, got -1.0"),
    ], ids=["stride-0", "stride-2.5", "stride-minus-2", "inf", "nan", "negative"])
    def test_bad_argument_is_named(self, half_width, stride, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aligned_window(SMALL, half_width, stride)
