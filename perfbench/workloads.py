"""Seeded inputs, timed operations and output checks for the four workloads.

Every workload builds its inputs from ``random.Random(seed)``.  Seed 0 gives
the pinned reference inputs; other seeds change only values that leave the
amount of work unchanged (sigma, x0, mixture weights, eps pairs inside
(0, 0.3), warp-knot y-values).  Grid, delta ladder, row count, lattice size
and windows are fixed per workload, so every seed costs the same.

``uncert`` sees only the generated config file (CLI workloads) or the
generated states (joint-witness).  Each workload's ``run`` times exactly one
call sequence into a public entry point; ``check`` runs afterwards, outside
the timed interval, and raises :class:`CheckFailed` on a wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from pathlib import Path

import uncert.cli
import uncert.observables
from uncert.grids import GridSpec
from uncert.observables import (
    MassDeficitError,
    PhaseSpaceObservable,
    PiecewiseLinearMap,
    WarpMap,
    aligned_window,
)
from uncert.states import MixedState, gaussian_state, momentum_grid

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Slack on values read back from reports, which carry 6 significant digits.
FMT_RTOL = 1e-5


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _eps_pairs(rng: random.Random, pinned: list, count: int, seed: int) -> list:
    if seed == 0:
        return [list(p) for p in pinned[:count]]
    return [[round(rng.uniform(0.02, 0.28), 4), round(rng.uniform(0.02, 0.28), 4)]
            for _ in range(count)]


def _read_report(path: Path) -> list:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# uncert-report"):
        raise CheckFailed(f"{path.name}: missing '# uncert-report' header line")
    return list(csv.DictReader(lines[1:]))


def _num(row: dict, col: str) -> float:
    try:
        return float(row[col])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"column {col!r}: {exc}") from exc


def _call_cli(argv: list) -> tuple:
    """Time one ``uncert.cli.main`` call; its console output is captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = uncert.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return elapsed, (rc, sink.getvalue())


class VerifyWorkload:
    """``uncert verify``: 2 generators x eps pairs x (base row, wiggle-warped row)."""

    entry_module = "uncert.cli"
    unit_name = "report row"
    host_probe = "cpu"
    PINNED_EPS = [[0.05, 0.05], [0.1, 0.2], [0.2, 0.1]]

    def __init__(self, name: str, n: int, eps_count: int, seed: int, workdir: Path,
                 reference: bool):
        rng = random.Random(seed)
        half = 20.0
        if seed == 0:
            gauss = {"kind": "gaussian", "sigma": 1.0}
            comps = [{"weight": 0.5, "sigma": 0.8},
                     {"weight": 0.5, "sigma": 1.2, "x0": 0.5}]
            knots_y = (-0.7, 1.3)
        else:
            gauss = {"kind": "gaussian", "sigma": round(rng.uniform(0.7, 1.4), 4),
                     "x0": round(rng.uniform(-1.0, 1.0), 4)}
            w = round(rng.uniform(0.3, 0.7), 4)
            comps = [{"weight": w, "sigma": round(rng.uniform(0.6, 1.4), 4),
                      "x0": round(rng.uniform(-1.0, 1.0), 4)},
                     {"weight": round(1.0 - w, 4), "sigma": round(rng.uniform(0.6, 1.4), 4),
                      "x0": round(rng.uniform(-1.0, 1.0), 4)}]
            knots_y = (round(-1.0 + rng.uniform(0.15, 0.45), 4),
                       round(1.0 + rng.uniform(0.15, 0.45), 4))
        self.config = {
            "grid": {"n": n, "x_min": -half, "x_max": half},
            "hbar": 1.0,
            "confidence": _eps_pairs(rng, self.PINNED_EPS, eps_count, seed),
            "generators": [gauss, {"kind": "mixture", "components": comps}],
            "calibration": {"delta_ladder": [0.4, 0.2, 0.1], "probe_centers": [0.0],
                            "probe_kind": "box"},
            "warps": [{"name": "wiggle",
                       "q_knots": [[-half, -half], [-1, knots_y[0]], [1, knots_y[1]],
                                   [half, half]]}],
        }
        self.units = 2 * eps_count * 2
        self.dq = 2 * half / n
        self.dp = momentum_grid(GridSpec(-half, self.dq, n), 1.0).dx
        self.largest_array_bytes = 16 * n  # complex128 amplitudes; convolve's FFT buffers match
        self.reference = _read_report(REFERENCE_DIR / f"{name}.csv") if reference else None
        cfg_path = workdir / f"{name}.json"
        cfg_path.write_text(json.dumps(self.config, indent=1))
        self.out_dir = workdir / name
        self.argv = ["--out", str(self.out_dir), "verify", str(cfg_path)]

    def run(self) -> tuple:
        return _call_cli(self.argv)

    def check(self, output) -> None:
        rc, console = output
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {console.strip()}")
        rows = _read_report(self.out_dir / "report.csv")
        if len(rows) != self.units:
            raise CheckFailed(f"{len(rows)} report rows, expected {self.units}")
        for row in rows:
            sid = row.get("scenario_id")
            if row.get("passed") != "true":
                raise CheckFailed(f"{sid}: passed = {row.get('passed')!r}")
            for axis, cell in (("q", self.dq), ("p", self.dp)):
                eb, res = _num(row, f"errorbar_{axis}"), _num(row, f"resolution_{axis}")
                if eb < res - 2 * cell - FMT_RTOL * abs(res):
                    raise CheckFailed(
                        f"{sid}: errorbar_{axis} {eb} < resolution_{axis} {res} - 2 cells")
        if self.reference is not None:
            for i, (ref, row) in enumerate(zip(self.reference, rows)):
                for col, want in ref.items():
                    if row.get(col) != want:
                        raise CheckFailed(f"row {i} column {col!r}: {row.get(col)!r} "
                                          f"differs from the stored reference {want!r}")


class ScanWorkload:
    """``uncert scan`` over a sigma x x0 Gaussian lattice."""

    entry_module = "uncert.cli"
    unit_name = "lattice row"
    host_probe = "cpu"

    def __init__(self, n: int, n_sigma: int, n_x0: int, seed: int, workdir: Path):
        rng = random.Random(seed)
        half = 40.0
        if seed == 0:
            sigmas = [round(0.5 + 2.5 * i / (n_sigma - 1), 4) for i in range(n_sigma)]
            x0s = [round(-4.5 + 9.0 * i / (n_x0 - 1), 4) for i in range(n_x0)]
            eps = [0.05, 0.05]
        else:
            sigmas = sorted(round(rng.uniform(0.4, 3.2), 4) for _ in range(n_sigma))
            x0s = sorted(round(rng.uniform(-5.0, 5.0), 4) for _ in range(n_x0))
            eps = _eps_pairs(rng, [], 1, seed)[0]
        self.config = {
            "grid": {"n": n, "x_min": -half, "x_max": half},
            "hbar": 1.0,
            "eps": eps,
            "family": "gaussian",
            "lattice": {"sigma": sigmas, "x0": x0s},
        }
        self.units = n_sigma * n_x0
        self.dx = 2 * half / n
        self.largest_array_bytes = 16 * n  # complex128 amplitudes and their FFT
        cfg_path = workdir / "scan-lattice.json"
        cfg_path.write_text(json.dumps(self.config, indent=1))
        self.out_dir = workdir / "scan-lattice"
        self.argv = ["--out", str(self.out_dir), "scan", str(cfg_path)]

    def run(self) -> tuple:
        return _call_cli(self.argv)

    def check(self, output) -> None:
        rc, console = output
        if rc != 0:
            raise CheckFailed(f"exit code {rc}: {console.strip()}")
        rows = _read_report(self.out_dir / "scan.csv")
        if len(rows) != self.units:
            raise CheckFailed(f"{len(rows)} lattice rows, expected {self.units}")
        for row in rows:
            wq, wp = _num(row, "width_q"), _num(row, "width_p")
            prod, bu = _num(row, "product"), _num(row, "bound_uffink")
            # the slack `uncert widths` applies to the same comparison
            slack = 4.0 * self.dx * max(wq, wp)
            if prod < bu - slack - FMT_RTOL * bu:
                raise CheckFailed(f"sigma={row['sigma']} x0={row['x0']}: product {prod} "
                                  f"below bound_uffink {bu} - slack {slack}")


class JointWorkload:
    """Covariance residual of a mixture-generated observable, unwarped and warped."""

    entry_module = "uncert"
    unit_name = "joint distribution"
    # n_q x n arrays above the last-level cache: memory bandwidth sets the pace
    host_probe = "mem"
    units = 4  # each covariance_residual builds two joint distributions

    def __init__(self, n: int, seed: int):
        rng = random.Random(seed)
        half = 40.0
        grid = GridSpec.symmetric(half, n)
        if seed == 0:
            comps = [(0.5, 0.8, -0.25), (0.5, 1.0, 0.25)]
            state = (1.0, 0.0)
            dy = (-0.4, 0.3, 0.3, -0.1)
        else:
            # sigma and x0 ranges keep the q-window edge density (the only
            # source of residual in the unwarped case) far below 1e-6
            w = round(rng.uniform(0.3, 0.7), 4)
            comps = [(w, round(rng.uniform(0.6, 1.0), 4), round(rng.uniform(-0.4, 0.4), 4)),
                     (1.0 - w, round(rng.uniform(0.6, 1.0), 4), round(rng.uniform(-0.4, 0.4), 4))]
            state = (round(rng.uniform(0.6, 1.0), 4), round(rng.uniform(-0.4, 0.4), 4))
            dy = tuple(round(s * rng.uniform(0.2, 0.4), 4) for s in (-1, 1, 1, -1))
        self.gen = MixedState([(wk, gaussian_state(x0, 0.0, sk, grid))
                               for wk, sk, x0 in comps])
        self.rho = MixedState.pure(gaussian_state(state[1], 0.0, state[0], grid))
        qw = aligned_window(grid, 8.0, 8)
        pw = aligned_window(momentum_grid(grid, 1.0), 8.0, 1)
        self.observable = PhaseSpaceObservable(self.gen, qw, pw)
        xs = (-half, -3.0, -1.0, 1.0, 3.0, half)
        ys = (-half,) + tuple(x + d for x, d in zip(xs[1:-1], dy)) + (half,)
        self.warp = WarpMap(PiecewiseLinearMap(xs, ys), PiecewiseLinearMap.identity(-half, half))
        self.shift = (qw.dx, pw.dx)
        self.kept_ratio = pw.n / n
        self.largest_array_bytes = 16 * qw.n * n  # complex n_q x n overlap rows
        self.config = {"grid": {"n": n, "x_min": -half, "x_max": half},
                       "generator": comps, "state_sigma_x0": state,
                       "q_window": [qw.x_min, qw.x_max, qw.n],
                       "p_window": [pw.x_min, pw.x_max, pw.n], "warp_q_knots": [xs, ys]}

    def run(self) -> tuple:
        obs = uncert.observables
        q, p = self.shift
        t0 = time.perf_counter()
        r0 = obs.covariance_residual(self.observable, self.rho, q, p)
        rw = obs.covariance_residual(self.observable, self.rho, q, p, warp_map=self.warp)
        return time.perf_counter() - t0, (r0, rw)

    def check(self, output) -> None:
        r0, rw = output
        if not r0 <= 1e-6:
            raise CheckFailed(f"unwarped covariance residual {r0} > 1e-6")
        if not rw > 1e-3:
            raise CheckFailed(f"warped covariance residual {rw} <= 1e-3")

    def check_mass(self) -> None:
        """Total mass of the unwarped joint distribution (the warp conserves it)."""
        try:
            jd = uncert.observables.joint_distribution(self.observable, self.rho)
        except MassDeficitError as exc:
            raise CheckFailed(str(exc)) from exc
        if not jd.total_mass >= 1.0 - 1e-3:
            raise CheckFailed(f"joint distribution total mass {jd.total_mass} < 1 - 1e-3")


# Grid sizes: full benchmark, and the tiny smoke variant that checks the
# same code paths in seconds.
SIZES = {
    "verify-desk": {"full": 4096, "smoke": 1024},
    "verify-large": {"full": 65536, "smoke": 2048},
    "scan-lattice": {"full": 16384, "smoke": 1024},
    "joint-witness": {"full": 16384, "smoke": 2048},
}
WORKLOADS = tuple(SIZES)


def build(name: str, seed: int, workdir: Path, smoke: bool = False):
    """Inputs for workload ``name`` at ``seed``; config files go to ``workdir``."""
    n = SIZES[name]["smoke" if smoke else "full"]
    reference = seed == 0 and not smoke
    if name == "verify-desk":
        return VerifyWorkload(name, n, 3, seed, workdir, reference)
    if name == "verify-large":
        return VerifyWorkload(name, n, 1, seed, workdir, reference)
    if name == "scan-lattice":
        return ScanWorkload(n, 3 if smoke else 26, 2 if smoke else 10, seed, workdir)
    if name == "joint-witness":
        return JointWorkload(n, seed)
    raise ValueError(f"unknown workload {name!r}")
