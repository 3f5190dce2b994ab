"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Desk scale (n = 4096, hbar = 1) except criterion 6's unwarped covariance
witness, which also runs at n = 65536.  Shared state batteries are built
once per session; every tolerance is pinned next to the quantity it guards.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from uncert import metrology
from uncert.cli import main as cli_main
from uncert.grids import (
    GridSpec,
    convolve,
    gaussian_measure,
    overall_width,
    point_mass,
    uniform_measure,
)
from uncert.metrology import (
    CalibrationConfig,
    ConfidencePair,
    bound_simple,
    bound_uffink,
    werner_distance_covariant,
)
from uncert.observables import (
    Kernel,
    PhaseSpaceObservable,
    PiecewiseLinearMap,
    WarpMap,
    aligned_window,
    covariance_residual,
    joint_distribution,
    marginal_measures,
)
from uncert.states import (
    MixedState,
    box_state,
    gaussian_state,
    momentum_box_state,
    momentum_distribution,
    momentum_grid,
    position_distribution,
    superpose,
)

HBAR = 1.0
Z975 = 1.9599639845400545  # standard-normal 97.5% quantile

# criterion 1/2/9 battery grid
BGRID = GridSpec.symmetric(40.0, 4096)   # dx = 0.01953125
BDX = BGRID.dx

# criterion 3/4/8 kernel grid: dx divides 0.7 exactly (0.7 = 40 * dx)
KGRID = GridSpec.symmetric(35.84, 4096)  # dx = 0.0175
KDX = KGRID.dx
KCFG = CalibrationConfig((16 * KDX, 8 * KDX, 2 * KDX), (0.0,), KGRID, HBAR)

# criterion 6 joint-distribution grid
JGRID = GridSpec.symmetric(12.8, 1024)   # dx = 0.025


def axis_widths(kernel, eps, cfg):
    """(resolution, error bar) of kernel at eps, from metrology._axis_pass:
    the error bar is the calibration error at the ladder's smallest rung."""
    res, ladder = metrology._axis_pass(kernel, (eps,), cfg)[0]
    return res, ladder[-1]


def _emit(capsys, num: int, label: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num} ({label}): {status}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@lru_cache(maxsize=1)
def state_battery():
    """13 states: Gaussians, boxes, two-lobe superpositions, mixtures."""
    g = lambda x0, p0, s: gaussian_state(x0, p0, s, BGRID, HBAR)
    return {
        "gauss_0.25": MixedState.pure(g(0, 0, 0.25)),
        "gauss_1": MixedState.pure(g(0, 0, 1.0)),
        "gauss_4": MixedState.pure(g(0, 0, 4.0)),
        "gauss_offset": MixedState.pure(g(2, 1, 1.0)),
        "gauss_squeezed": MixedState.pure(g(0, 0, 0.1)),
        "box_1": MixedState.pure(box_state(0, 1.0, BGRID, HBAR)),
        "box_4": MixedState.pure(box_state(0, 4.0, BGRID, HBAR)),
        "box_offset": MixedState.pure(box_state(1.0, 0.5, BGRID, HBAR)),
        "cat_even": MixedState.pure(superpose(1, g(-3, 0, 0.5), 1, g(3, 0, 0.5))),
        "cat_boosted": MixedState.pure(superpose(1, g(-2, 1, 0.7), 1, g(2, -1, 0.7))),
        "mix_scales": MixedState([(0.5, g(0, 0, 0.5)), (0.5, g(0, 0, 2.0))]),
        "mix_offset": MixedState([(0.3, g(-1, 0, 1.0)), (0.7, g(1, 0, 1.0))]),
        "mom_box": MixedState.pure(momentum_box_state(0, 2.0, BGRID, HBAR)),
    }


@lru_cache(maxsize=1)
def battery_widths():
    """(name, eps) -> (width_q, width_p) for the shared epsilon schedule."""
    out = {}
    for name, rho in state_battery().items():
        P = position_distribution(rho)
        Q = momentum_distribution(rho)
        for eps in (0.01, 0.05, 0.1, 0.2):
            out[(name, eps)] = (overall_width(P, eps), overall_width(Q, eps))
    return out


@lru_cache(maxsize=1)
def kernel_battery():
    """Covariant kernels over KGRID with known smearing measures."""
    pg = momentum_grid(KGRID, HBAR)
    mu, nu = marginal_measures(MixedState.pure(gaussian_state(0, 0, 1.0, KGRID, HBAR)))
    return {
        "pos_delta0": Kernel("q", point_mass(0.0, KGRID)),
        "pos_delta0.7": Kernel("q", point_mass(0.7, KGRID)),
        "pos_gauss0.5": Kernel("q", gaussian_measure(0.0, 0.5, KGRID)),
        "pos_uniform": Kernel("q", uniform_measure(-1.0, 1.0, KGRID)),
        "mom_gauss0.3": Kernel("p", gaussian_measure(0.0, 0.3, pg)),
        "marg_q": Kernel("q", mu),
        "marg_p": Kernel("p", nu),
    }


def _axis_step(kernel):
    return KDX if kernel.axis == "q" else momentum_grid(KGRID, HBAR).dx


def test_criterion_1_state_width_product(capsys):
    # W_eps1(rho^Q) * W_eps2(rho^P) >= 2 pi hbar (1 - eps1 - eps2)^2, up to
    # one-cell width quantization on each axis
    failures = []
    for (name, eps), (wq, wp) in battery_widths().items():
        bound = bound_simple(ConfidencePair(eps, eps), HBAR)
        slack = 4.0 * BDX * max(wq, wp)
        if wq * wp < bound - slack:
            failures.append((name, eps, wq * wp, bound))
    _emit(capsys, 1, "state uncertainty relation", not failures, str(failures))


def test_criterion_2_uffink_refinement(capsys):
    failures = []
    for (name, eps), (wq, wp) in battery_widths().items():
        bound = bound_uffink(ConfidencePair(eps, eps), HBAR)
        slack = 4.0 * BDX * max(wq, wp)
        if wq * wp < bound - slack:
            failures.append((name, eps, wq * wp, bound))
    # exact dominance on a 100 x 100 epsilon lattice (offset so eps1 != eps2
    # everywhere; no tolerance)
    exact_ok = True
    for i in range(100):
        for j in range(100):
            e1 = 0.004 + 0.00992 * i
            e2 = 0.0089 + 0.00992 * j
            if e1 + e2 >= 1.0:
                continue
            e = ConfidencePair(e1, e2)
            if bound_uffink(e, HBAR) < bound_simple(e, HBAR):
                exact_ok = False
    _emit(capsys, 2, "Uffink refinement", not failures and exact_ok,
          f"battery failures {failures}, exact dominance {exact_ok}")


def test_criterion_3_resolution_equals_smearing_width(capsys):
    failures = []
    for name, kernel in kernel_battery().items():
        if not name.startswith("pos_"):   # the smeared position kernels
            continue
        mu = kernel.measure
        for eps in (0.05, 0.2):
            res, _ = axis_widths(kernel, eps, KCFG)
            ow = overall_width(mu, eps)
            if abs(res - ow) > 2 * KDX + 1e-9:
                failures.append((name, eps, res, ow))
    _emit(capsys, 3, "resolution equals smearing width", not failures, str(failures))


def test_criterion_4_error_bar_dominates_resolution(capsys):
    failures = []
    gap_ok = True
    for name, kernel in kernel_battery().items():
        step = _axis_step(kernel)
        for eps in (0.05, 0.2):
            res, eb = axis_widths(kernel, eps, KCFG)
            if eb < res - 2 * step - 1e-9:
                failures.append((name, eps, eb, res))
            if name == "pos_delta0.7":
                # strict gap 2|c|: error bar ~= 1.4, resolution ~= 0
                if abs(eb - 1.4) > 2 * KDX + 1e-9 or res > 2 * KDX + 1e-9:
                    gap_ok = False
    _emit(capsys, 4, "error bar dominates resolution", not failures and gap_ok,
          f"failures {failures}, delta-gap ok {gap_ok}")


def test_criterion_5_covariant_error_bar_product(capsys):
    target = 2.0 * HBAR * Z975**2           # 7.6829...
    floor = bound_simple(ConfidencePair(0.05, 0.05), HBAR)  # 5.0894...
    ok = True
    detail = []
    for sigma in (0.3, 1.0, 3.0):
        dx = sigma * Z975 / 35.0            # grid balanced to the generator
        grid = GridSpec.symmetric(2048 * dx, 4096)
        gen = MixedState.pure(gaussian_state(0, 0, sigma, grid, HBAR))
        cfg = CalibrationConfig((20 * dx, 8 * dx, 2 * dx), (0.0,), grid, HBAR)
        mu, nu = marginal_measures(gen)
        (res_q, eb_q), (res_p, eb_p) = (axis_widths(k, 0.05, cfg)
                                        for k in (Kernel("q", mu), Kernel("p", nu)))
        eb = eb_q * eb_p
        res = res_q * res_p
        detail.append((sigma, eb, res))
        if abs(eb - target) > 0.02 * target or eb < floor or res < floor:
            ok = False
    _emit(capsys, 5, "covariant error-bar product", ok, str(detail))


def test_criterion_6_covariance_and_warp(capsys):
    pg = momentum_grid(JGRID, HBAR)
    gen = MixedState.pure(gaussian_state(0, 0, 1.0, JGRID, HBAR))
    rho = MixedState.pure(gaussian_state(0, 0, 1.0, JGRID, HBAR))
    qw = aligned_window(JGRID, 8.0, 4)
    pw = aligned_window(pg, 8.0, 1)
    G = PhaseSpaceObservable(gen, qw, pw)
    r0 = covariance_residual(G, rho, qw.dx, pw.dx)
    # non-affine q warp (displacement bound 0.4), identity in p
    gmq = PiecewiseLinearMap((-20, -3, -1, 1, 3, 20), (-20, -3.4, -0.7, 1.3, 2.9, 20))
    wmap = WarpMap(gmq, PiecewiseLinearMap.identity(-20.0, 20.0))
    rw = covariance_residual(G, rho, qw.dx, pw.dx, warp_map=wmap)
    ok = r0 <= 1e-6 and rw > 1e-3
    # warped error bars stay finite and within the warp displacement bound
    # of the unwarped values (plus one cell per window endpoint)
    detail = [("residuals", r0, rw)]
    cfg = CalibrationConfig((0.4, 0.2, 0.1), (0.0,), JGRID, HBAR)
    for axis, measure, gmap, bnd in zip("qp", marginal_measures(gen),
                                        (wmap.gamma_q, wmap.gamma_p),
                                        (wmap.gamma_q.displacement_bound,
                                         wmap.gamma_p.displacement_bound)):
        step = JGRID.dx if axis == "q" else pg.dx
        e0 = axis_widths(Kernel(axis, measure), 0.05, cfg)[1]
        ew = axis_widths(Kernel(axis, measure, gmap), 0.05, cfg)[1]
        detail.append((axis, e0, ew, bnd))
        if not (math.isfinite(ew) and abs(ew - e0) <= bnd + 2 * step):
            ok = False
    _emit(capsys, 6, "covariance and warp witness", ok, str(detail))


def test_criterion_6_covariance_large_scale(capsys):
    # two-Gaussian mixture generator on the large-scale grid (dx = 80/65536);
    # q stride 32 keeps the q window 409 rows wide
    grid = GridSpec.symmetric(40.0, 65536)
    gen = MixedState([(0.5, gaussian_state(-0.25, 0.0, 0.8, grid, HBAR)),
                      (0.5, gaussian_state(0.25, 0.0, 1.0, grid, HBAR))])
    rho = MixedState.pure(gaussian_state(0.0, 0.0, 1.0, grid, HBAR))
    qw = aligned_window(grid, 8.0, 32)
    pw = aligned_window(momentum_grid(grid, HBAR), 8.0, 1)
    G = PhaseSpaceObservable(gen, qw, pw)
    mass = joint_distribution(G, rho).total_mass
    r0 = covariance_residual(G, rho, qw.dx, pw.dx)
    ok = r0 <= 1e-6 and mass >= 1.0 - 1e-3
    _emit(capsys, 6, "covariance witness at n = 65536", ok, str((r0, mass)))


def test_criterion_7_werner_constant(capsys):
    gen = MixedState.pure(gaussian_state(0, 0, 1.0, JGRID, HBAR))
    mu_m, nu_m = marginal_measures(gen)
    dq = werner_distance_covariant(mu_m)   # folded normal, sigma = 1
    dp_ = werner_distance_covariant(nu_m)  # folded normal, sigma = 1/2
    prod = dq * dp_
    ok = (abs(dq - math.sqrt(2 / math.pi)) <= JGRID.dx
          and abs(dp_ - 0.5 * math.sqrt(2 / math.pi)) <= momentum_grid(JGRID, HBAR).dx
          and abs(prod - HBAR / math.pi) <= 0.01
          and prod >= 0.3047 * HBAR)
    _emit(capsys, 7, "distance-product constant", ok, f"dq {dq} dp {dp_} prod {prod}")


def test_criterion_8_error_bar_distance_inequality(capsys):
    failures = []
    for name, kernel in kernel_battery().items():
        dist = werner_distance_covariant(kernel.measure)
        step = _axis_step(kernel)
        for eps in (0.05, 0.2, 0.5):
            eb = axis_widths(kernel, eps, KCFG)[1]
            if eb > (2.0 / eps) * dist + 2 * step + 1e-9:
                failures.append((name, eps, eb, dist))
    _emit(capsys, 8, "error bar vs distance", not failures, str(failures))


def test_criterion_9_numerical_hygiene(capsys, tmp_path):
    parseval_ok = all(
        abs(momentum_distribution(rho).total_mass - 1.0) <= 1e-9
        for rho in state_battery().values())
    a = gaussian_measure(0.0, 0.6, BGRID)
    b = gaussian_measure(0.3, 1.1, BGRID)
    conv = convolve(a, b)
    additivity_ok = abs(conv.variance() - (a.variance() + b.variance())) \
        <= 1e-4 * (a.variance() + b.variance())
    cfg = tmp_path / "cfg.json"
    cfg.write_text("""{
      "grid": {"n": 512, "x_min": -12.8, "x_max": 12.8},
      "confidence": [[0.05, 0.05]],
      "generators": [{"kind": "gaussian", "sigma": 1.0}],
      "calibration": {"delta_ladder": [0.4, 0.2]}
    }""")
    cli_main(["--out", str(tmp_path / "a"), "verify", str(cfg)])
    cli_main(["--out", str(tmp_path / "b"), "verify", str(cfg)])
    stable_ok = (
        (tmp_path / "a" / "report.csv").read_bytes()
        == (tmp_path / "b" / "report.csv").read_bytes()
        and (tmp_path / "a" / "report.json").read_bytes()
        == (tmp_path / "b" / "report.json").read_bytes())
    _emit(capsys, 9, "numerical hygiene", parseval_ok and additivity_ok and stable_ok,
          f"parseval {parseval_ok} additivity {additivity_ok} stable {stable_ok}")
