import math
import re
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uncert.grids import GridMeasure, GridSpec, Interval, _Handed, mass, overall_width
from uncert.states import (
    MixedState,
    WaveFunction,
    _from_momentum_amps,
    _gaussian_amps,
    _momentum_weights,
    _position_weights,
    box_state,
    displace_mixed,
    gaussian_state,
    momentum_box_state,
    momentum_distribution,
    momentum_grid,
    momentum_point_state,
    parity,
    parity_mixed,
    parity_offset,
    point_state,
    position_distribution,
    superpose,
    weyl_displace,
)

GRID = GridSpec.symmetric(16.0, 1024)  # dx = 0.03125
DX = GRID.dx
HBAR = 1.0
PGRID = momentum_grid(GRID, HBAR)
DP = PGRID.dx


def pure(psi):
    return MixedState.pure(psi)


class TestConstruction:
    def test_momentum_grid_duality_product(self):
        assert PGRID.dx * GRID.dx * GRID.n == pytest.approx(2 * math.pi * HBAR, rel=1e-14)
        assert PGRID.nearest_index(0.0) == GRID.n // 2

    def test_momentum_grid_whose_last_point_is_near_float_max_builds(self):
        # 255*dp overflows, yet the last point, 127*dp = 9.35e307, is finite;
        # x_max and points() read inf when they evaluated x_min + 255*dp
        pg = momentum_grid(GridSpec.symmetric(12.8, 256), 3e306)
        assert pg.nearest_index(0.0) == 128
        p = pg.points()
        assert np.isfinite(p).all()
        assert p[-1] == pg.x_max == 127 * pg.dx
        assert p[128] == 0.0 and p[0] == pg.x_min
        assert np.array_equal(pg.points(250, 256), p[250:])
        assert pg.nearest_index(p[-2]) == 254 and pg.contains(p[-1])
        assert pg.cells_within(p[-3], math.inf) == range(253, 256)

    def test_momentum_grid_rejects_odd_n(self):
        with pytest.raises(ValueError):
            momentum_grid(GridSpec(-1.0, 0.01, 201), HBAR)

    def test_wavefunction_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            WaveFunction(GRID, np.ones(GRID.n))
        a = gaussian_state(0.0, 0.0, 1.0, GRID).amps.copy()
        a[GRID.n // 2] = math.nan
        with pytest.raises(ValueError):
            WaveFunction(GRID, a)

    @pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_hbar_must_be_positive_and_finite(self, hbar):
        # a nan or infinite hbar once built a state: at nan, MixedState.pure
        # then failed as if its components disagreed, and at inf a Gaussian
        # passed its checks
        grid = GridSpec.symmetric(12.8, 256)
        a = gaussian_state(0.0, 0.0, 1.0, grid).amps
        message = f"^hbar must be positive and finite, got {hbar}$"
        with pytest.raises(ValueError, match=message):
            WaveFunction(grid, a, hbar=hbar)
        with pytest.raises(ValueError, match=message):
            gaussian_state(0.0, 0.0, 1.0, grid, hbar=hbar)

    def test_gaussian_needs_eight_sigma(self):
        with pytest.raises(ValueError):
            gaussian_state(14.0, 0.0, 1.0, GRID)
        with pytest.raises(ValueError):
            gaussian_state(0.0, 0.0, 3.0, GRID)

    @pytest.mark.parametrize("x0, p0, sigma", [
        (0.0, 100.0, 1.0),      # 8 sigma_p = 4: [96, 104] passes p_max = 100.53
        (0.0, -97.0, 1.0),
        (0.0, 1e6, 1.0),
        (0.0, 0.0, 0.01),       # 8 sigma_p = 400
        (0.0, 0.0, 1e-300),     # sigma_p = 5e299
        (0.0, 0.0, 1e-310),     # sigma_p overflows to inf
    ])
    def test_gaussian_needs_eight_sigma_p_on_the_momentum_grid(self, recwarn, x0, p0, sigma):
        # sigma_p = hbar / (2 sigma); the momentum grid spans +-pi hbar / dx,
        # and a wider spread would wrap around it
        with pytest.raises(ValueError, match="momentum grid"):
            gaussian_state(x0, p0, sigma, GRID, HBAR)
        assert not recwarn.list

    def test_gaussian_momentum_spread_inside_the_grid_accepted(self):
        p_max = math.pi * HBAR / DX
        for p0, sigma in [(p_max - 4.5, 1.0), (-p_max + 4.5, 1.0), (0.0, 4.0 / p_max * 1.01)]:
            psi = gaussian_state(0.0, p0, sigma, GRID, HBAR)
            assert momentum_distribution(pure(psi)).total_mass == pytest.approx(1.0)

    @pytest.mark.parametrize("x0, p0, sigma", [
        (0.0, 0.0, math.nan), (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, math.inf),
    ])
    def test_gaussian_rejects_non_finite_parameters(self, x0, p0, sigma):
        with pytest.raises(ValueError, match="finite"):
            gaussian_state(x0, p0, sigma, GRID, HBAR)

    def test_mixture_weights_validated(self):
        psi = gaussian_state(0.0, 0.0, 1.0, GRID)
        with pytest.raises(ValueError):
            MixedState([(0.5, psi), (0.2, psi)])
        with pytest.raises(ValueError):
            MixedState([(-0.1, psi), (1.1, psi)])
        with pytest.raises(ValueError):
            MixedState([(math.nan, psi), (1.0, psi)])


class TestGaussianMoments:
    def test_position_moments(self):
        rho = pure(gaussian_state(1.5, 0.0, 0.8, GRID))
        P = position_distribution(rho)
        assert P.mean() == pytest.approx(1.5, abs=1e-9)
        assert P.variance() == pytest.approx(0.64, rel=1e-6)

    def test_momentum_moments_minimal_uncertainty(self):
        sigma = 0.8
        rho = pure(gaussian_state(0.0, 2.0, sigma, GRID))
        Q = momentum_distribution(rho)
        assert Q.mean() == pytest.approx(2.0, abs=1e-8)
        assert Q.variance() == pytest.approx((HBAR / (2 * sigma)) ** 2, rel=1e-6)

    def test_variance_product_saturates(self):
        rho = pure(gaussian_state(0.0, 0.0, 1.3, GRID))
        prod = position_distribution(rho).variance() * momentum_distribution(rho).variance()
        assert prod == pytest.approx(HBAR**2 / 4, rel=1e-6)


class TestParseval:
    @pytest.mark.parametrize("make", [
        lambda: gaussian_state(0.3, -1.2, 0.7, GRID),
        lambda: box_state(0.0, 2.0, GRID),
        lambda: point_state(1.0, GRID),
        lambda: superpose(1, gaussian_state(-2, 0, 0.5, GRID),
                          1, gaussian_state(2, 0, 0.5, GRID)),
    ])
    def test_momentum_mass_is_one(self, make):
        Q = momentum_distribution(pure(make()))
        assert Q.total_mass == pytest.approx(1.0, abs=1e-9)


class TestBoxAndPoint:
    def test_box_position_is_flat(self):
        P = position_distribution(pure(box_state(0.0, 2.0, GRID)))
        assert mass(P, Interval(0.0, 2.0)) == pytest.approx(1.0, abs=1e-12)
        w = P.weights[P.weights > 0]
        assert np.ptp(w) < 1e-12 * w[0]

    def test_box_momentum_main_lobe(self):
        # |phi(p)|^2 ~ sinc^2(p a / 2 hbar) for box half-width a; the mass of
        # the central lobe |p| <= pi hbar / a is (2/pi) * Int_0^pi (sin s / s)^2 ds
        a = 1.0
        lobe = 1.4181515761326284  # Int_0^pi (sin s / s)^2 ds = Si(2 pi)
        expected = 2.0 * lobe / math.pi  # ~0.902823
        Q = momentum_distribution(pure(box_state(0.0, 2 * a, GRID)))
        got = mass(Q, Interval(0.0, 2 * math.pi * HBAR / a))
        assert got == pytest.approx(expected, abs=0.01)

    def test_point_state_sharpest(self):
        P = position_distribution(pure(point_state(0.5, GRID)))
        assert overall_width(P, 0.01) == 0.0
        assert P.mean() == pytest.approx(0.5, abs=DX / 2)

    def test_momentum_point_state_sharp_in_p(self):
        rho = pure(momentum_point_state(1.0, GRID))
        Q = momentum_distribution(rho)
        assert overall_width(Q, 0.01) == 0.0
        assert Q.mean() == pytest.approx(1.0, abs=DP / 2)
        # flat in position
        P = position_distribution(rho)
        assert np.ptp(P.weights) < 1e-12

    def test_momentum_box_state_flat_in_p(self):
        Q = momentum_distribution(pure(momentum_box_state(0.0, 2.0, GRID)))
        assert mass(Q, Interval(0.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_momentum_box_rules_are_the_box_rules_on_dp(self):
        # the 2-cell minimum is named in the momentum grid's own step
        with pytest.raises(ValueError, match=re.escape(
                f"below the 2-cell minimum {2 * PGRID.dx} (grid step {PGRID.dx})")):
            momentum_box_state(0.0, 1.5 * PGRID.dx, GRID)
        with pytest.raises(ValueError, match="box has no support on the grid"):
            momentum_box_state(PGRID.x_max + 3 * PGRID.dx, 2 * PGRID.dx, GRID)


class TestWeylDisplacement:
    def test_position_shift(self):
        psi = gaussian_state(0.0, 0.0, 1.0, GRID)
        moved = weyl_displace(psi, 32 * DX, 0.0)
        P = position_distribution(pure(moved))
        assert P.mean() == pytest.approx(32 * DX, abs=1e-9)

    def test_momentum_boost(self):
        psi = gaussian_state(0.0, 0.0, 1.0, GRID)
        moved = weyl_displace(psi, 0.0, 1.5)
        Q = momentum_distribution(pure(moved))
        assert Q.mean() == pytest.approx(1.5, abs=1e-8)
        # position distribution untouched by a pure boost
        P0 = position_distribution(pure(psi))
        P1 = position_distribution(pure(moved))
        assert np.max(np.abs(P0.weights - P1.weights)) < 1e-14

    def test_off_grid_shift_rejected(self):
        psi = gaussian_state(0.0, 0.0, 1.0, GRID)
        with pytest.raises(ValueError):
            weyl_displace(psi, 0.4 * DX, 0.0)

    def test_norm_preserved_exactly(self):
        psi = gaussian_state(0.0, 0.0, 1.0, GRID)
        moved = weyl_displace(psi, 2.0, -3.0)
        assert np.sum(np.abs(moved.amps) ** 2) * DX == pytest.approx(1.0, abs=1e-12)


class TestParity:
    def test_flips_position_mean(self):
        rho = pure(gaussian_state(2.0, 0.0, 0.7, GRID))
        P = position_distribution(parity_mixed(rho))
        assert P.mean() == pytest.approx(-2.0, abs=DX)

    def test_flips_momentum_mean(self):
        rho = pure(gaussian_state(0.0, 1.2, 0.7, GRID))
        Q = momentum_distribution(parity_mixed(rho))
        assert Q.mean() == pytest.approx(-1.2, abs=DP)

    def test_involution(self):
        psi = superpose(1, gaussian_state(-1, 0.5, 0.6, GRID),
                        0.5j, gaussian_state(2, -1, 0.9, GRID))
        back = parity(parity(psi))
        assert np.max(np.abs(back.amps - psi.amps)) < 1e-12

    def test_asymmetric_grid_rejected(self):
        g = GridSpec(0.0, 0.01, 1024)
        psi = point_state(5.0, g)
        with pytest.raises(ValueError):
            parity(psi)


def gather_parity(psi):
    """parity as a modular index gather: out[j] = amps[(m - j) mod n]."""
    idx = (parity_offset(psi.grid) - np.arange(psi.grid.n)) % psi.grid.n
    return WaveFunction(psi.grid, psi.amps[idx], psi.hbar)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_parity_bits_equal_the_index_gather(n, closed, complex_amps, seed):
    # both symmetric layouts: [-L, L) has m = n, [-L, L] has m = n - 1
    grid = GridSpec(-3.0, 6.0 / (n - 1), n) if closed else GridSpec.symmetric(3.0, n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_amps else 0.0)
    psi = WaveFunction(grid, a / math.sqrt(np.sum(np.abs(a) ** 2) * grid.dx))
    got, want = parity(psi).amps, gather_parity(psi).amps
    assert got.dtype == want.dtype == (np.complex128 if complex_amps else np.float64)
    assert got.shape == want.shape and np.array_equal(got, want)


class TestWidthInvariants:
    def test_gaussian_width_product_scale_invariant(self):
        # overall-width product of a minimal-uncertainty state is independent
        # of its spread, and is the continuum 2 hbar z^2 up to one cell per axis
        eps = 0.05
        target = 2 * HBAR * statistics.NormalDist().inv_cdf(1.0 - eps / 2) ** 2  # 7.6829...
        vals = []
        slack = 0.0
        for sigma in (0.5, 1.0, 1.9):
            rho = pure(gaussian_state(0.0, 0.0, sigma, GRID))
            wq = overall_width(position_distribution(rho), eps)
            wp = overall_width(momentum_distribution(rho), eps)
            vals.append(wq * wp)
            assert abs(wq * wp - target) <= DX * wp + DP * wq + DX * DP
            # each width is quantized to its grid step
            slack = max(slack, DX / wq + DP / wp)
        assert max(vals) / min(vals) <= 1.0 + 2 * slack

    def test_state_width_lower_bound(self):
        # W_eps1(rho^Q) * W_eps2(rho^P) >= 2 pi hbar (1 - eps1 - eps2)^2
        # whenever eps1 + eps2 < 1
        e1, e2 = 0.05, 0.1
        lb = 2 * math.pi * HBAR * (1 - e1 - e2) ** 2
        products = []
        for make in (lambda: gaussian_state(0.0, 0.0, 1.0, GRID),
                     lambda: box_state(0.0, 3.0, GRID),
                     lambda: superpose(1, gaussian_state(-3, 0, 0.6, GRID),
                                       1, gaussian_state(3, 0, 0.6, GRID))):
            rho = pure(make())
            wq = overall_width(position_distribution(rho), e1)
            wp = overall_width(momentum_distribution(rho), e2)
            assert wq * wp >= lb - 1e-9
            products.append(wq * wp)
        # the separated cat does worse than the Gaussian: 18.78 against 6.14
        assert products[2] > products[0]


def _momentum_distribution_phase_ramp(rho):
    """Reference: |phi(p)|^2 dp from the momentum amplitudes
    phi(p) = fft(psi) exp(-i p x_min / hbar) dx / sqrt(2 pi hbar)."""
    grid, hbar = rho.grid, rho.hbar
    pg = momentum_grid(grid, hbar)
    w = np.zeros(pg.n)
    for wk, psi in rho.components:
        F = np.fft.fftshift(np.fft.fft(psi.amps))
        phase = np.exp(-1j * pg.points() * grid.x_min / hbar)
        w += wk * np.abs(F * phase * grid.dx / math.sqrt(2.0 * math.pi * hbar)) ** 2
    return GridMeasure(pg, w * pg.dx)


SKEWED = GridSpec(-5.3, 0.0275, 2048)  # x_min not a multiple of dx


def _random_real_state(grid, seed):
    a = np.random.default_rng(seed).standard_normal(grid.n)
    return WaveFunction(grid, a / math.sqrt(float(np.sum(a**2)) * grid.dx))


def _phase_ramp_cases():
    yield "gaussian", pure(gaussian_state(0.0, 0.0, 1.0, GRID))
    yield "boosted", pure(gaussian_state(1.7, 2.4, 0.7, GRID))
    yield "box", pure(box_state(0.3, 2.5, GRID))
    yield "momentum_box", pure(momentum_box_state(0.5, 3.0, GRID))
    yield "cat", pure(superpose(1, gaussian_state(-3, 1.1, 0.6, GRID),
                                1j, gaussian_state(3, -0.4, 0.6, GRID)))
    yield "mixture", MixedState([(0.3, gaussian_state(-2.0, 0.0, 0.8, GRID)),
                                 (0.7, gaussian_state(1.0, -1.5, 1.3, GRID))])
    yield "skewed_hbar", MixedState([
        (0.6, gaussian_state(8.0, 0.9, 1.1, SKEWED, hbar=0.37)),
        (0.4, gaussian_state(11.0, 0.0, 0.5, SKEWED, hbar=0.37))])
    # random real amplitudes: every momentum bin differs from its neighbours,
    # so a shifted mirror of the real FFT's bins shows
    yield "real_n2", pure(_random_real_state(GridSpec(-0.7, 0.35, 2), 2))
    yield "real_n4", pure(_random_real_state(GridSpec(-1.3, 0.61, 4), 4))
    yield "real_n1024", pure(_random_real_state(GRID, 1024))
    yield "real_and_boosted", MixedState([(0.35, _random_real_state(GRID, 7)),
                                          (0.65, gaussian_state(0.4, 2.2, 0.9, GRID))])


@pytest.mark.parametrize("name, rho", list(_phase_ramp_cases()))
def test_momentum_distribution_matches_phase_ramp_route(name, rho):
    got = momentum_distribution(rho)
    want = _momentum_distribution_phase_ramp(rho)
    assert got.grid == want.grid
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-15
    for eps in (1e-6, 0.01, 0.05, 0.137, 0.28, 0.5, 0.9):
        assert overall_width(got, eps) == overall_width(want, eps)


@pytest.mark.parametrize("x0, sigma", [(0.0, 1.0), (2.3, 0.41), (-4.0, 1.5)])
def test_gaussian_at_zero_momentum_matches_complex_exp(x0, sigma):
    # the real exp is vectorized; the complex one goes through libm, and the
    # two may differ in the last bit
    x = GRID.points()
    a = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * 0.0 * x / HBAR)
    a /= math.sqrt(float(np.sum(np.abs(a) ** 2) * DX))
    want = pure(WaveFunction(GRID, a, HBAR))
    got = pure(gaussian_state(x0, 0.0, sigma, GRID, HBAR))
    assert not np.any(got.components[0][1].amps.imag)
    scale = np.abs(want.components[0][1].amps)
    assert np.all(np.abs(got.components[0][1].amps - want.components[0][1].amps)
                  <= 4.5e-16 * scale)
    for eps in (0.01, 0.05, 0.28):
        assert overall_width(position_distribution(got), eps) == \
            overall_width(position_distribution(want), eps)
        assert overall_width(momentum_distribution(got), eps) == \
            overall_width(momentum_distribution(want), eps)


# ---------------------------------------------------------------------------
# Real amplitudes stay float64
# ---------------------------------------------------------------------------

def _real_states():
    yield "gaussian", gaussian_state(0.4, 0.0, 0.9, GRID)
    yield "box", box_state(0.3, 2.5, GRID)
    yield "point", point_state(-1.2, GRID)
    yield "real_cat", superpose(1, gaussian_state(-3, 0, 0.5, GRID),
                                -1.0, gaussian_state(3, 0, 0.5, GRID))


@pytest.mark.parametrize("name, psi", list(_real_states()))
def test_real_states_keep_float64_amplitudes(name, psi):
    assert psi.amps.dtype == np.float64
    assert parity(psi).amps.dtype == np.float64


@pytest.mark.parametrize("psi", [
    gaussian_state(0.4, 1.3, 0.9, GRID),
    gaussian_state(0.0, -0.2, 1.1, GRID),
    momentum_box_state(0.5, 3.0, GRID),
    momentum_point_state(1.0, GRID),
    _from_momentum_amps(np.full(GRID.n, 1.0 / math.sqrt(GRID.n * DP)), GRID, HBAR),
    parity(gaussian_state(0.4, 1.3, 0.9, GRID)),
], ids=["boosted", "slow", "momentum_box", "momentum_point", "from_momentum", "parity"])
def test_complex_states_keep_complex128_amplitudes(psi):
    assert psi.amps.dtype == np.complex128


def _marginal_cases():
    yield "gaussian", pure(gaussian_state(0.4, 0.0, 0.9, GRID))
    yield "boosted", pure(gaussian_state(-1.1, 2.3, 0.7, GRID))
    yield "box", pure(box_state(0.3, 2.5, GRID))
    yield "mixture", MixedState([(0.25, gaussian_state(-2.0, 0.0, 0.8, GRID)),
                                 (0.35, box_state(1.0, 1.7, GRID)),
                                 (0.4, gaussian_state(1.0, -1.5, 1.3, GRID))])


def _rewrapped(rho, cast):
    # scaled off norm 1 (within NORM_TOL), so WaveFunction's own normalization acts
    return MixedState([(w, WaveFunction(psi.grid, cast(psi.amps * (1.0 + 3e-7)), psi.hbar))
                       for w, psi in rho.components])


@pytest.mark.parametrize("name, rho", [(n, r) for n, r in _marginal_cases()] +
                         [(f"parity_{n}", parity_mixed(r)) for n, r in _marginal_cases()])
def test_marginals_of_real_amplitudes_equal_their_complex_form(name, rho):
    # WaveFunction scales by the reciprocal of the norm's root, as numpy's
    # complex / real division does, so the dtype leaves every bit in place
    real = _rewrapped(rho, np.asarray)
    cplx = _rewrapped(rho, lambda a: a.astype(complex))
    for (_, a), (_, b) in zip(real.components, cplx.components):
        assert np.array_equal(a.amps, b.amps)
    assert np.array_equal(position_distribution(real).weights,
                          position_distribution(cplx).weights)
    assert np.array_equal(momentum_distribution(real).weights,
                          momentum_distribution(cplx).weights)


# ---------------------------------------------------------------------------
# Kernels against their reference forms
# ---------------------------------------------------------------------------
# The reference forms do every step on every cell: |a|^2 through np.abs,
# the Gaussian's exponent negated before the divide and exp over the whole
# grid, every multiplication by a weight or a root that is exactly 1.0, and
# the momentum weights added to a zeroed array.  The kernels skip only steps
# that leave every bit as it is, so they are compared bit for bit.

def _ref_norm_sq(a, dx, scratch):
    np.abs(a, out=scratch)
    np.square(scratch, out=scratch)
    return float(np.sum(scratch) * dx)


def _ref_unit_norm(a, dx):
    a *= 1.0 / math.sqrt(_ref_norm_sq(a, dx, np.empty(len(a))))


def _ref_gaussian_amps(x0, p0, sigma, grid, hbar, x, out, scratch):
    if p0 != 0:
        a = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    else:
        a = np.subtract(x, x0, out=out)
        np.square(a, out=a)
        np.negative(a, out=a)
        a /= 4.0 * sigma**2
        np.exp(a, out=a)
    a /= math.sqrt(_ref_norm_sq(a, grid.dx, scratch))
    return a


def _ref_position_weights(components, dx, out):
    (w0, a0), rest = components[0], components[1:]
    np.abs(a0, out=out)
    np.square(out, out=out)
    out *= w0
    for wk, a in rest:
        out += wk * np.abs(a) ** 2
    out *= dx


def _ref_momentum_weights(components, grid, hbar, out, spectrum, scratch):
    h = grid.n // 2
    out.fill(0.0)
    for wk, a in components:
        if np.iscomplexobj(a) and a.imag.any():
            out += wk * np.fft.fftshift(np.abs(np.fft.fft(a)) ** 2)
        else:
            np.fft.rfft(a.real, out=spectrum)
            s = np.abs(spectrum, out=scratch[:h + 1])
            np.square(s, out=s)
            s *= wk
            out[h:] += s[:h]
            out[:h] += s[h:0:-1]
    out *= momentum_grid(grid, hbar).dx * grid.dx ** 2 / (2.0 * math.pi * hbar)


WIDE = GridSpec.symmetric(40.0, 16384)  # the scan-lattice grid


def _gaussian_params():
    # (grid, x0, p0, sigma, hbar); sigma <= 0.5 on WIDE puts cells past
    # 2 sigma sqrt(750) from x0, whose exp underflows to 0.0
    for sigma in (0.05, 0.3, 0.5, 0.5117, 1.0, 2.9):
        for x0 in (0.0, -3.7, 4.5):
            for p0 in (0.0, 1.3):
                yield WIDE, x0, p0, sigma, 1.0
    yield GRID, 0.4, 0.0, 0.9, HBAR
    yield GRID, -2.0, 0.0, 0.1, HBAR
    yield SKEWED, 11.0, 0.0, 0.5, 0.37
    yield SKEWED, 8.0, -0.9, 1.1, 0.37
    yield GridSpec(-5.0, 10.0 / 64, 64), 0.0, 0.0, 0.5, 1.0
    # 4 sigma^2 subnormal: the exponent's rounding leaves cells past
    # 2 sigma sqrt(750) nonzero, so nothing may be cut
    yield GridSpec.symmetric(60 * 1.6e-162, 256), 0.0, 0.0, 1.6e-162, 1.0


@pytest.mark.parametrize("grid, x0, p0, sigma, hbar", list(_gaussian_params()))
def test_gaussian_amps_are_bitwise_the_reference(grid, x0, p0, sigma, hbar):
    want = _ref_gaussian_amps(x0, p0, sigma, grid, hbar, grid.points(),
                              np.empty(grid.n), np.empty(grid.n))
    got = _gaussian_amps(x0, p0, sigma, grid, hbar, grid.points(), np.empty(grid.n),
                         np.empty(grid.n))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # out may be the points themselves, as gaussian_state passes them
    x = grid.points()
    assert _gaussian_amps(x0, p0, sigma, grid, hbar, x, x, np.empty(grid.n)).tobytes() \
        == want.tobytes()
    if p0 == 0 and grid is WIDE and sigma <= 0.5:
        assert np.count_nonzero(want == 0.0) > grid.n // 4
    ref = want.copy()
    _ref_unit_norm(ref, grid.dx)
    assert gaussian_state(x0, p0, sigma, grid, hbar).amps.tobytes() == ref.tobytes()


def _sweep_states():
    g = gaussian_state(0.4, 0.0, 0.9, GRID)
    yield "gaussian", g
    yield "narrow_gaussian", gaussian_state(-1.0, 0.0, 0.2, GRID)
    yield "boosted", gaussian_state(-1.1, 2.3, 0.7, GRID)
    yield "box", box_state(0.3, 2.5, GRID)
    yield "point", point_state(-1.2, GRID)
    yield "momentum_box", momentum_box_state(0.5, 3.0, GRID)
    yield "momentum_point", momentum_point_state(1.0, GRID)
    yield "real_cat", superpose(1, gaussian_state(-3, 0, 0.5, GRID),
                                -1.0, gaussian_state(3, 0, 0.5, GRID))
    yield "complex_cat", superpose(1, gaussian_state(-3, 1.1, 0.6, GRID),
                                   1j, gaussian_state(3, -0.4, 0.6, GRID))
    yield "weyl", weyl_displace(g, 8 * DX, 0.9)
    yield "weyl_no_boost", weyl_displace(box_state(0.3, 2.5, GRID), -4 * DX, 0.0)
    yield "parity", parity(g)
    yield "parity_boosted", parity(gaussian_state(0.4, 1.3, 0.9, GRID))
    yield "random_real", _random_real_state(GRID, 11)


@pytest.mark.parametrize("name, psi", list(_sweep_states()))
def test_wavefunction_amps_are_bitwise_the_reference(name, psi):
    # at norm 1 the reciprocal root is often exactly 1.0, and off it it is not
    for scale in (1.0, 1.0 + 3e-7, 1.0 - 5e-8):
        raw = psi.amps * scale
        want = raw.copy()
        _ref_unit_norm(want, GRID.dx)
        assert WaveFunction(GRID, raw, HBAR).amps.tobytes() == want.tobytes()


def _sweep_mixtures():
    states = dict(_sweep_states())
    for name, psi in states.items():
        yield name, pure(psi)
        yield f"parity_{name}", parity_mixed(pure(psi))
    yield "mixture_real", MixedState([(0.25, states["gaussian"]), (0.35, states["box"]),
                                      (0.4, states["point"])])
    yield "mixture_mixed_dtypes", MixedState([(0.2, states["boosted"]), (0.5, states["box"]),
                                              (0.3, states["momentum_point"])])
    yield "mixture_zero_weight", MixedState([(0.0, states["weyl"]),
                                             (1.0, states["real_cat"])])
    yield "mixture_displaced", displace_mixed(
        MixedState([(0.6, states["gaussian"]), (0.4, states["complex_cat"])]), 2 * DX, -0.4)


@pytest.mark.parametrize("name, rho", list(_sweep_mixtures()))
def test_marginal_weights_equal_the_reference(name, rho):
    comps = [(wk, psi.amps) for wk, psi in rho.components]
    n, h = GRID.n, GRID.n // 2
    got, want = np.empty(n), np.empty(n)
    _position_weights(comps, GRID.dx, got)
    _ref_position_weights(comps, GRID.dx, want)
    assert np.array_equal(got, want)
    # out starts as garbage: the first component must be written, not added
    got.fill(np.nan)
    _momentum_weights(comps, GRID, HBAR, got, np.empty(h + 1, complex), np.empty(h + 1))
    _ref_momentum_weights(comps, GRID, HBAR, want, np.empty(h + 1, complex), np.empty(h + 1))
    assert np.array_equal(got, want)
    # without scratch, |F|^2 is formed from the spectrum itself
    got.fill(np.nan)
    _momentum_weights(comps, GRID, HBAR, got, np.empty(h + 1, complex))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [8, 8192 * 2 + 10])
def test_marginal_weights_add_further_components_blockwise(n):
    # more points than one BLOCK, and a last block that is partly filled
    grid = GridSpec.symmetric(0.01 * n, n)
    rng = np.random.default_rng(n)
    comps = [(0.3, rng.normal(size=n)), (0.5, rng.normal(size=n) + 1j * rng.normal(size=n)),
             (0.2, rng.normal(size=n))]
    got, want = np.empty(n), np.empty(n)
    _position_weights(comps, grid.dx, got)
    _ref_position_weights(comps, grid.dx, want)
    assert np.array_equal(got, want)
    h = n // 2
    got.fill(np.nan)
    _momentum_weights(comps, grid, HBAR, got, np.empty(h + 1, complex))
    _ref_momentum_weights(comps, grid, HBAR, want, np.empty(h + 1, complex), np.empty(h + 1))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [float, complex])
def test_wavefunction_scales_a_copy_of_a_callers_array(dtype):
    a = np.zeros(GRID.n, dtype=dtype)
    a[10:20] = 1.0 / math.sqrt(10 * GRID.dx)
    kept = a.copy()
    psi = WaveFunction(GRID, a)
    assert np.array_equal(a, kept) and a.flags.writeable
    assert psi.amps is not a and not psi.amps.flags.writeable
    assert psi.amps.tobytes() == WaveFunction(GRID, _Handed(kept)).amps.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_wavefunction_owns_a_handed_array(dtype):
    a = np.zeros(GRID.n, dtype=dtype)
    a[10:20] = 1.0 / math.sqrt(10 * GRID.dx)
    psi = WaveFunction(GRID, _Handed(a))
    assert psi.amps is a and not a.flags.writeable
    assert np.sum(np.abs(a) ** 2) * GRID.dx == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        a[0] = 1.0


def test_parity_of_a_complex_state_holds_one_array_besides_its_result():
    # n = 65536: the rolled amplitudes (1 MiB) become the result, and the
    # norm's |a|^2 scratch takes 0.5 MiB; a constructor copy of the rolled
    # array made it 2.50 MiB
    grid = GridSpec.symmetric(20.0, 65536)
    psi = gaussian_state(0.3, 0.5, 1.0, grid)
    assert psi.amps.dtype == complex
    parity(psi)
    tracemalloc.start()
    try:
        parity(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20


def test_complex_amplitudes_are_scaled_even_by_exactly_1():
    # x 1.0 turns a complex -0.0 imaginary part into +0.0; a point mass of
    # amplitude 2 on a grid step of 1/4 has norm exactly 1, so the
    # reciprocal root is exactly 1.0 and only that multiplication moves a bit
    grid = GridSpec(-1.0, 0.25, 8)
    a = np.full(grid.n, complex(0.0, -0.0))
    a[3] = complex(2.0, -0.0)
    want = a.copy()
    _ref_unit_norm(want, grid.dx)
    assert not np.signbit(want.imag).any()
    got = WaveFunction(grid, a).amps
    assert got.tobytes() == want.tobytes()
