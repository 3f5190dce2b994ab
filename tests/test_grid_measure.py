import bisect
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uncert.grids import (
    GridMeasure,
    GridSpec,
    Interval,
    _Handed,
    _shortest_run,
    centered_width,
    convolve,
    gaussian_measure,
    mass,
    overall_width,
    point_mass,
    reflect,
    uniform_measure,
)
from uncert.states import WaveFunction, _from_momentum_amps, box_state, momentum_box_state, \
    momentum_grid

GRID = GridSpec.symmetric(8.0, 2048)  # dx = 0.0078125
DX = GRID.dx

# standard-normal quantile via the error-function oracle
Z975 = statistics.NormalDist().inv_cdf(0.975)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.0, -0.1, 10)
    with pytest.raises(ValueError):
        GridSpec(0.0, 0.1, 1)


@pytest.mark.parametrize("x_min, dx, message", [
    (0.0, math.nan, "grid step must be positive and finite, got nan"),
    (0.0, math.inf, "grid step must be positive and finite, got inf"),
    (math.inf, 1.0, "grid start must be finite, got inf"),
    (-math.inf, 1.0, "grid start must be finite, got -inf"),
    (math.nan, 1.0, "grid start must be finite, got nan"),
], ids=["nan-step", "inf-step", "inf-start", "minus-inf-start", "nan-start"])
def test_grid_spec_rejects_non_finite_start_and_step(x_min, dx, message):
    # nan <= 0 is false, so a nan step once built a grid of nan points
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridSpec(x_min, dx, 8)


@pytest.mark.parametrize("n", [2.5, 4.0, True, "4", None], ids=repr)
def test_grid_spec_rejects_a_point_count_that_is_not_an_integer(n):
    # n = 2.5 once built a grid whose points() held 3 points and whose
    # cells_within raised TypeError
    with pytest.raises(ValueError, match=f"^grid point count n must be an integer, got {n!r}$"):
        GridSpec(0.0, 1.0, n)


def test_grid_spec_takes_a_numpy_integer_point_count():
    g = GridSpec(0.0, 1.0, np.int64(4))
    assert g.points().tolist() == [0.0, 1.0, 2.0, 3.0]
    assert g.cells_within(0.5, 2.5) == range(1, 3)


def test_grid_spec_rejects_an_overflowing_last_point():
    # x_min + 7*dx is 7e308; the grid built before, and points() read inf
    with pytest.raises(ValueError, match="^grid end x_min \\+ \\(n - 1\\)\\*dx overflows"):
        GridSpec(0.0, 1e308, 8)


def test_grid_spec_keeps_a_grid_whose_last_point_is_finite():
    # (n - 1)*dx overflows, but x_min + (n - 1)*dx = 1.5e308 is a float
    g = GridSpec(-1.5e308, 1e308, 4)
    assert g.n == 4


def test_grid_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        GridMeasure(GRID, np.full(GRID.n, -1.0))
    with pytest.raises(ValueError):
        GridMeasure(GRID, np.full(GRID.n, 1.0))  # mass far from 1
    small = GridSpec(0.0, 1.0, 4)
    for bad in ([0.5, math.nan, 0.25, 0.25], [0.5, math.inf, 0.25, 0.25],
                [math.inf, -math.inf, 0.5, 0.5]):
        with pytest.raises(ValueError):
            GridMeasure(small, bad)


def test_grid_measure_normalizes_a_copy():
    small = GridSpec(0.0, 1.0, 4)
    w = np.array([0.5, -1e-12, 0.25, 0.25 + 1e-9])
    kept = w.copy()
    P = GridMeasure(small, w)
    assert np.array_equal(w, kept)
    assert P.weights[1] == 0.0 and P.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(P.weights, np.clip(kept, 0.0, None) / np.clip(kept, 0.0, None).sum())


def test_grid_measure_owns_a_handed_array():
    small = GridSpec(0.0, 1.0, 4)
    w = np.array([0.5, -1e-12, 0.25, 0.25 + 1e-9])
    want = GridMeasure(small, w).weights
    P = GridMeasure(small, _Handed(w))
    assert P.weights is w and not w.flags.writeable
    assert w.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_grid_points_keep_their_bits_where_nothing_overflows():
    # the halved form 2*(x_min/2 + j*(dx/2)) is taken only where (n - 1)*dx
    # overflows; every ordinary grid keeps the plain x_min + j*dx
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = GridSpec(float(rng.uniform(-50, 50)), float(rng.uniform(1e-3, 1.0)),
                     int(rng.integers(2, 5000)))
        x = np.arange(g.n, dtype=float)
        x *= g.dx
        x += g.x_min
        assert g.points().tobytes() == x.tobytes()
        assert g.x_max == g.x_min + (g.n - 1) * g.dx


def test_grid_points_near_float_max_are_finite():
    # (n - 1)*dx = 3e308 overflows; the points run from -1.5e308 to 1.5e308
    g = GridSpec(-1.5e308, 1e308, 4)
    assert g.points().tolist() == [-1.5e308, -0.5e308, 0.5e308, 1.5e308]
    assert g.x_max == 1.5e308
    assert g.cells_within(0.0, math.inf) == range(2, 4)
    assert g.nearest_index(0.6e308) == 2


class TestMass:
    def test_point_mass_inside_window(self):
        P = point_mass(3.0, GRID)
        assert mass(P, Interval(3.0, 1.0)) == 1.0

    def test_point_mass_disjoint_window(self):
        P = point_mass(3.0, GRID)
        assert mass(P, Interval(4.5, 1.0)) == 0.0

    def test_uniform_cdf(self):
        P = uniform_measure(0.0, 1.0, GRID)
        got = mass(P, Interval(0.45, 0.9))  # [0, 0.9]
        assert got == pytest.approx(0.9, abs=2 * DX)

    def test_empty_interval_is_zero_width(self):
        with pytest.raises(ValueError):
            Interval(0.0, -1.0)


class TestOverallWidth:
    def test_point_mass_has_zero_width(self):
        assert overall_width(point_mass(3.0, GRID), 0.1) == 0.0

    def test_uniform_shortest_interval(self):
        P = uniform_measure(0.0, 1.0, GRID)
        assert overall_width(P, 0.1) == pytest.approx(0.9, abs=DX)

    def test_gaussian_quantile_width(self):
        P = gaussian_measure(0.0, 1.0, GRID)
        assert overall_width(P, 0.05) == pytest.approx(2 * Z975, abs=2 * DX)

    def test_memory_is_the_prefix_sums(self):
        # the n + 1 prefix sums are the only array of grid length it builds
        n = 65536
        P = gaussian_measure(1.3, 2.0, GridSpec.symmetric(40.0, n))
        overall_width(P, 0.05)
        tracemalloc.start()
        try:
            overall_width(P, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * (n + 1)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_eps_outside_open_unit_interval(self, eps):
        with pytest.raises(ValueError):
            overall_width(point_mass(0.0, GRID), eps)


def _overall_width_searchsorted(P: GridMeasure, eps: float) -> float:
    """Reference: the shortest window for every start, one searchsorted pass."""
    target = 1.0 - eps - 1e-12
    c = np.concatenate(([0.0], np.cumsum(P.weights)))
    idx = np.searchsorted(c, c[:-1] + target, side="left")
    ok = idx <= P.grid.n
    starts = np.nonzero(ok)[0]
    return float(((idx[ok] - 1 - starts) * P.grid.dx).min())


def _random_weights(kind: str, n: int, rng) -> np.ndarray:
    if kind == "dense":
        return rng.random(n) ** rng.uniform(0.2, 6.0)
    w = np.zeros(n)
    if kind == "sparse":
        on = rng.random(n) < 0.08
        w[on] = rng.random(on.sum())
        w[rng.integers(n)] += rng.uniform(0.01, 1.0)
        return w
    if kind == "edge_heavy":
        # zero runs at both ends, and near eps of the mass in the first and
        # last occupied cells: the shortest window often starts at i_max
        # (the last start that can pass) or ends at j_min (the first end)
        lead, trail = rng.integers(min(1, n // 4), n // 4 + 1, size=2)
        edge = rng.choice(EPS_SWEEP[:8], size=2) * rng.uniform(0.9, 1.1, size=2)
        inner = w[lead + 1:n - trail - 1]
        inner[:] = rng.random(inner.size)
        inner *= (1.0 - edge.sum()) / max(inner.sum(), 1e-300)
        w[n - trail - 1] += edge[1]
        w[lead] += edge[0]
        return w
    if kind == "bimodal":
        # two separated bumps: the central run spans the gap between them
        x = np.arange(n)
        for c, s, m in zip(rng.uniform(0, n, 2), rng.uniform(0.5, n / 8 + 1, 2),
                           rng.uniform(0.05, 1.0, 2)):
            w += m * np.exp(-0.5 * ((x - c) / s) ** 2)
        return w
    if kind == "one_sided":
        # a sharp edge with a long tail: the shortest run hugs the edge, not the center
        x = np.arange(n, dtype=float)
        w[:] = np.exp(-x / rng.uniform(0.3, n / 4 + 1)) ** rng.uniform(0.5, 3.0)
        return w[::-1] if rng.random() < 0.5 else w
    cells = rng.choice(n, size=min(3, n), replace=False)
    w[cells] = rng.uniform(1e-3, 1.0, cells.size)
    return w


EPS_SWEEP = (1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.137, 0.28, 0.5, 0.9, 0.999)


@pytest.mark.parametrize("n", [2, 3, 7, 257, 1024])
@pytest.mark.parametrize("kind", ["dense", "sparse", "three_atoms", "edge_heavy", "bimodal",
                                  "one_sided"])
def test_overall_width_equals_searchsorted_formula(kind, n):
    rng = np.random.default_rng(1000 * n + len(kind))
    grid = GridSpec(-0.37 * n, 0.0123 * rng.uniform(1.0, 50.0), n)
    for _ in range(20):
        w = _random_weights(kind, n, rng)
        P = GridMeasure(grid, w / w.sum())
        eps_values = EPS_SWEEP + tuple(10.0 ** rng.uniform(-9.0, np.log10(0.999), 10))
        for eps in eps_values:
            assert overall_width(P, eps) == _overall_width_searchsorted(P, eps)


@pytest.mark.parametrize("kind", ["dense", "bimodal", "one_sided"])
def test_overall_width_when_the_central_run_falls_short(kind):
    # the central run leaves at most eps/2 on either side, so it carries
    # c[n] - eps or a little more; with eps/2 of the mass missing (set past
    # the constructor, which renormalizes) that is mostly below the target
    # 1 - eps - 1e-12, and then the bisection must not start from it
    n = 1024
    rng = np.random.default_rng(len(kind))
    P = GridMeasure(GridSpec(-5.0, 0.01, n), np.full(n, 1.0 / n))
    short = 0
    for _ in range(10):
        w0 = _random_weights(kind, n, rng)
        for eps in EPS_SWEEP:
            w = w0 * ((1.0 - 0.5 * eps) / w0.sum())
            object.__setattr__(P, "weights", w)
            c = np.concatenate(([0.0], np.cumsum(w)))
            i_a = np.searchsorted(c, 0.5 * eps, side="right") - 1
            j_b = np.searchsorted(c, c[n] - 0.5 * eps, side="left")
            short += c[j_b] < c[i_a] + (1.0 - eps - 1e-12)
            assert overall_width(P, eps) == _overall_width_searchsorted(P, eps)
    assert short >= 50


class TestCenteredWidth:
    def test_point_mass_offset(self):
        P = point_mass(0.7, GRID)
        assert centered_width(P, 0.0, 0.1) == pytest.approx(1.4, abs=DX)

    def test_gaussian_centered_quantile(self):
        P = gaussian_measure(0.0, 1.0, GRID)
        assert centered_width(P, 0.0, 0.05) == pytest.approx(2 * Z975, abs=2 * DX)

    def test_off_center_window_wider(self):
        P = gaussian_measure(0.0, 1.0, GRID)
        at_mean = centered_width(P, 0.0, 0.1)
        offset = centered_width(P, 2.0, 0.1)
        assert offset > at_mean
        # the window around 2 must stretch down to the 10% quantile at
        # -1.2816 before it holds 90% of the mass
        assert offset == pytest.approx(2 * (2.0 + 1.2816), abs=0.02)


class TestConvolve:
    def test_point_masses_translate(self):
        out = convolve(point_mass(1.5, GRID), point_mass(-0.5, GRID))
        assert out.mean() == pytest.approx(1.0, abs=DX)
        assert overall_width(out, 0.5) == 0.0

    def test_uniform_pair_gives_triangle(self):
        u = uniform_measure(-0.5, 0.5, GRID)
        out = convolve(u, u)
        x = out.grid.points()
        dens = out.weights / out.grid.dx
        # triangle 1 - |x| on [-1, 1]
        assert np.max(np.abs(dens - np.clip(1 - np.abs(x), 0, None))) < 3 * DX
        assert dens[np.argmin(np.abs(x))] == pytest.approx(1.0, abs=3 * DX)

    def test_gaussian_variance_additivity(self):
        a = gaussian_measure(0.0, 0.6, GRID)
        b = gaussian_measure(0.0, 0.8, GRID)
        out = convolve(a, b)
        assert out.variance() == pytest.approx(1.0, rel=1e-4)
        assert out.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_steps_rejected(self):
        other = GridSpec.symmetric(8.0, 1024)
        with pytest.raises(ValueError):
            convolve(point_mass(0, GRID), point_mass(0, other))


class TestReflect:
    def test_point_mass(self):
        out = reflect(point_mass(2.0, GRID))
        assert mass(out, Interval(-2.0, DX)) == 1.0

    def test_symmetric_gaussian_fixed(self):
        P = gaussian_measure(0.0, 1.0, GRID)
        out = reflect(P)
        assert np.max(np.abs(out.weights - P.weights[::-1])) == 0.0
        assert out.mean() == pytest.approx(-P.mean(), abs=1e-12)

    def test_uniform_support_flips(self):
        out = reflect(uniform_measure(0.0, 1.0, GRID))
        assert mass(out, Interval(-0.5, 1.0)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

small_grid = GridSpec(-2.0, 0.125, 33)


@st.composite
def measures(draw):
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=small_grid.n,
                      max_size=small_grid.n))
    total = sum(w)
    if total <= 0:
        w[draw(st.integers(0, small_grid.n - 1))] = 1.0
        total = sum(w)
    return GridMeasure(small_grid, np.array(w) / total)


@settings(max_examples=60, deadline=None)
@given(measures(), st.floats(0.01, 0.48), st.floats(0.01, 0.48))
def test_overall_width_monotone_in_eps(P, e1, e2):
    lo, hi = sorted((e1, e2))
    assert overall_width(P, lo) >= overall_width(P, hi)


@settings(max_examples=60, deadline=None)
@given(measures())
def test_double_reflect_is_identity(P):
    back = reflect(reflect(P))
    assert back.grid == P.grid
    assert np.max(np.abs(back.weights - P.weights)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(measures(), measures())
def test_convolve_commutes(P, Q):
    a = convolve(P, Q)
    b = convolve(Q, P)
    assert a.grid == b.grid
    assert np.max(np.abs(a.weights - b.weights)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(measures(), measures(), st.floats(0.02, 0.4), st.floats(0.02, 0.4))
def test_width_subadditive_under_convolution(P, Q, e1, e2):
    lhs = overall_width(convolve(P, Q), e1 + e2)
    rhs = overall_width(P, e1) + overall_width(Q, e2) + 2 * small_grid.dx
    assert lhs <= rhs


@settings(max_examples=40, deadline=None)
@given(measures(), st.integers(-5, 5), st.floats(0.02, 0.45))
def test_width_translation_invariant(P, k, eps):
    shifted = GridMeasure(
        GridSpec(small_grid.x_min + k * small_grid.dx, small_grid.dx, small_grid.n),
        P.weights)
    assert overall_width(shifted, eps) == overall_width(P, eps)


def _eps_with_target(t: float):
    """An eps whose target 1 - eps - 1e-12 rounds to exactly t, or None."""
    e = 1.0 - 1e-12 - t
    for _ in range(64):
        got = 1.0 - e - 1e-12
        if got == t:
            return e
        e = float(np.nextafter(e, -1.0 if got < t else 2.0))
    return None


@pytest.mark.parametrize("n", [2, 3, 7, 257])
def test_overall_width_window_mass_exactly_at_target(n):
    # dyadic weights make every window mass exact, so some windows carry
    # exactly the target mass and must count as wide enough
    rng = np.random.default_rng(n)
    grid = GridSpec(0.0, 0.5, n)
    for _ in range(10):
        P = GridMeasure(grid, rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0)
        for m in range(1, 64):
            eps = _eps_with_target(m / 64.0)
            if eps is not None:
                assert overall_width(P, eps) == _overall_width_searchsorted(P, eps)


def _ref_shortest_run(c: np.ndarray, eps: float) -> int:
    """Reference: the same bounds, with i_max bisected start by start on
    c[i] + target > c[n] and k bisected on "some start passes"."""
    target = 1.0 - eps - 1e-12
    n = len(c) - 1
    total = float(c[n])
    i_max = bisect.bisect_left(range(n + 1), True,
                               key=lambda i: float(c[i]) + target > total) - 1
    j_min = int(np.searchsorted(c, target, side="left"))
    lo, hi = max(1, j_min - i_max), min(n, j_min, n - i_max)
    i_a = int(np.searchsorted(c, 0.5 * eps, side="right")) - 1
    j_b = int(np.searchsorted(c, total - 0.5 * eps, side="left"))
    if c[j_b] >= c[i_a] + target:
        hi = min(hi, j_b - i_a)
    while lo < hi:
        k = (lo + hi) // 2
        a, b = max(0, j_min - k), min(i_max, n - k) + 1
        if (c[a + k:b + k] >= c[a:b] + target).any():
            hi = k
        else:
            lo = k + 1
    return lo


# 1 - eps is exact for eps above 1/2, so eps = 1 - k 2^-53 leaves the
# target k 2^-53 - 1e-12, which changes sign between k = 9007 and 9008;
# just above 0 it is lost to rounding when added to c[n]
EPS_NEAR_1 = [1.0 - k * 2.0 ** -53 for k in (9000, 9007, 9008, 9009, 9100, 2 ** 20)]


@st.composite
def prefix_sums(draw):
    """(c, eps): prefix sums of weights of total mass 1 or up to 2, with zero
    weights, point masses and tiny weights, and maybe a flat run of entries
    within a few ulps of c[n] - target, or of that plus half the gap above
    c[n], where the last start that can pass is decided."""
    eps = draw(st.one_of(st.floats(1e-16, 1e-6), st.floats(1e-6, 1.0 - 1e-6),
                         st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
                         st.sampled_from(EPS_NEAR_1 + [2.0 ** -52, 1e-12, 0.05, 0.5])))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-12),
                       st.just(1e3))
    w = np.array(draw(st.lists(weight, min_size=1, max_size=64)))
    if not w.sum() > 0:
        w[draw(st.integers(0, len(w) - 1))] = 1.0
    # a total mass above 1 puts c[n] - target in c[n]'s binade, where the
    # rounding of c[i] + target can tie at the last start that passes
    mass = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0)))
    c = np.concatenate(([0.0], np.cumsum(w / w.sum() * mass)))
    v = float(c[-1]) - (1.0 - eps - 1e-12)
    if draw(st.booleans()) and 0.0 <= v <= c[-1]:
        near = []
        for x in (v, v + 0.5 * (math.nextafter(c[-1], math.inf) - c[-1])):
            up = down = x
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                near += [up, down]
            near += [x + k * 2.0 ** -54 for k in (-2, -1, 0, 1, 2)]
        run = draw(st.lists(st.sampled_from([x for x in near if 0.0 <= x <= c[-1]]),
                            min_size=1, max_size=40))
        c = np.sort(np.concatenate((c, run)))
    return c, eps


# c[5] + target ties halfway above c[6] and rounds down to it, so the run
# of one point from c[5] passes, and every other run is longer; c[6] - target
# plus half the gap above c[6] rounds to c[4], one double below c[5]
TIE_AT_THE_LAST_START = (np.array([0.0, 0.3, 0.6, 0.9, float.fromhex("0x1.053f93e4cd3a8p+0"),
                                   float.fromhex("0x1.053f93e4cd3a9p+0"),
                                   float.fromhex("0x1.b527f98b80f58p+0")]),
                         float.fromhex("0x1.405e69652cae3p-2"))


@settings(max_examples=400, deadline=None)
@given(prefix_sums())
@example(TIE_AT_THE_LAST_START)
def test_shortest_run_equals_the_bisection(case):
    c, eps = case
    assert _shortest_run(c, eps) == _ref_shortest_run(c, eps)


# ---------------------------------------------------------------------------
# Cells of a closed interval
# ---------------------------------------------------------------------------

def _mask(grid: GridSpec, lo: float, hi: float) -> np.ndarray:
    """The reference rule: grid points in [lo, hi], each end widened by 1e-9 dx."""
    x = grid.points()
    tol = 1e-9 * grid.dx
    return (x >= lo - tol) & (x <= hi + tol)


@st.composite
def grid_intervals(draw):
    """A grid, sometimes far from 0 so that its points are quantized to many
    ulps per cell, and an interval whose ends sit on, 1e-9 dx beside, or a
    few ulps around a grid point, past either end of the grid, or anywhere;
    the ends come in either order, so some intervals are empty."""
    n = draw(st.integers(2, 3000))
    dx = draw(st.floats(1e-3, 10.0))
    x_min = draw(st.one_of(st.floats(-100.0, 100.0),
                           st.sampled_from([-1e15, 1e15, -3e13, 7.25e14])))
    grid = GridSpec(x_min, dx, n)

    def end():
        if draw(st.integers(0, 4)) == 0:
            return draw(st.floats(x_min - 3 * n * dx, x_min + 4 * n * dx))
        x = x_min + dx * draw(st.integers(-3, n + 2))
        x += dx * draw(st.sampled_from([0.0, 1e-9, -1e-9, 0.5, -0.5]))
        for _ in range(draw(st.integers(0, 3))):
            x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
        return x

    return grid, end(), end()


@settings(max_examples=1500, deadline=None)
@given(grid_intervals())
def test_cells_within_equals_the_mask(case):
    grid, lo, hi = case
    cells = grid.cells_within(lo, hi)
    assert isinstance(cells, range) and cells.step == 1
    assert list(cells) == np.flatnonzero(_mask(grid, lo, hi)).tolist()


def test_cells_within_edges():
    grid = GridSpec(-1.0, 0.25, 9)
    tol = 1e-9 * grid.dx
    assert grid.cells_within(-0.5, 0.5) == range(2, 7)
    assert grid.cells_within(-0.5 + tol, 0.5 - tol) == range(2, 7)
    assert grid.cells_within(-0.5 + 2 * tol, 0.5 - 2 * tol) == range(3, 6)
    assert len(grid.cells_within(0.6, 0.4)) == 0              # empty interval
    assert len(grid.cells_within(1.5, 2.0)) == 0              # past the right end
    assert len(grid.cells_within(-3.0, -1.5)) == 0            # past the left end
    assert grid.cells_within(-9.0, 9.0) == range(9)
    assert len(grid.cells_within(math.nan, 1.0)) == 0
    assert len(grid.cells_within(-1.0, math.nan)) == 0


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + a.tobytes()


@pytest.mark.parametrize("x_min, dx, n", [
    (-20.0, 40.0 / 65536, 65536), (20.0, 40.0 / 65536, 65536), (-12.8, 0.1, 257),
    (3.7, 0.013, 4097), (-1e15, 0.3, 1000), (7.25e14, 2.5, 999), (-0.0, 1e-3, 2)])
def test_points_are_bitwise_the_arange_expression(x_min, dx, n):
    g = GridSpec(x_min, dx, n)
    assert _bits(g.points()) == _bits(x_min + dx * np.arange(n))
    # a span gives the same floats as the slice of the whole grid it names
    k = n // 3 + 1
    assert _bits(g.points(k, n)) == _bits(g.points()[k:])
    assert _bits(g.points(k - 1, -1, -1)) == _bits(g.points()[k - 1::-1])


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10), st.floats(1.0, 30.0), st.integers(0, 2**32 - 1),
       st.floats(-0.6, 0.6), st.floats(0.0, 0.5))
def test_interval_cells_are_bitwise_the_mask_formulas(log_n, half, seed, c, w):
    # each function against its formula on the full-grid mask
    grid = GridSpec.symmetric(half, 2 ** log_n)
    rng = np.random.default_rng(seed)
    w_P = rng.random(grid.n) * (rng.random(grid.n) < 0.7) + 1e-3
    P = GridMeasure(grid, w_P / w_P.sum())
    center, width = c * grid.n * grid.dx, w * grid.n * grid.dx
    J = Interval(center, width)
    assert _bits(mass(P, J)) == _bits(float(P.weights[_mask(grid, J.lo, J.hi)].sum()))

    inside = _mask(grid, J.lo, J.hi)
    if J.lo < J.hi and inside.any():
        w_ref = inside.astype(float)
        assert _bits(uniform_measure(J.lo, J.hi, grid).weights) == \
            _bits(GridMeasure(grid, w_ref / w_ref.sum()).weights)
    if width >= 2 * grid.dx and inside.any():
        a = inside.astype(float)
        a /= math.sqrt(float(np.sum(np.abs(a) ** 2) * grid.dx))
        assert _bits(box_state(center, width, grid).amps) == _bits(WaveFunction(grid, a).amps)

    pg = momentum_grid(grid, 1.0)
    p_center, p_width = c * pg.n * pg.dx, w * pg.n * pg.dx
    inside = _mask(pg, p_center - 0.5 * p_width, p_center + 0.5 * p_width)
    if p_width >= 2 * pg.dx and inside.any():
        phi = inside.astype(complex)
        phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2) * pg.dx))
        assert _bits(momentum_box_state(p_center, p_width, grid).amps) == \
            _bits(_from_momentum_amps(phi, grid, 1.0).amps)
