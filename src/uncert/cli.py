"""Command-line harness: scenario configs in, CSV/JSON width reports out.

Subcommands:
  verify <config.json>   joint uncertainty-relation checks per generator
  widths --state <spec>  overall widths of a single state
  scan <config.json>     parameter-lattice sweep of width products

Exit codes: 0 all checks pass, 1 a relation check failed, 2 bad config/IO,
3 inconclusive: the calibration ladder did not settle (an error bar grew as
its localization width shrank), so no verdict is reported.
Reports are byte-stable: fixed column order, 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from itertools import product as iproduct
from pathlib import Path

from .grids import GridSpec, overall_width
from .metrology import (
    CalibrationConfig,
    ConfidencePair,
    LadderInconsistencyError,
    bound_simple,
    bound_uffink,
    verify_joint_ur,
)
from .observables import Kernel, PiecewiseLinearMap, marginal_measures
from .states import MixedState, box_state, gaussian_state, momentum_distribution, \
    position_distribution

REPORT_VERSION = "# uncert-report v1"
SCAN_CAP_DEFAULT = 10_000
WIDTHS_HBAR_DEFAULT = 1.0
WIDTHS_GRID_N_DEFAULT = 4096
# accepted and validated so v1 configs keep running; calibration takes the
# exact sup over point masses, which no box or truncated Gaussian can raise
PROBE_KINDS = ("box", "truncated_gaussian")

REPORT_COLUMNS = [
    "scenario_id", "eps1", "eps2",
    "overall_q", "overall_p", "resolution_q", "resolution_p",
    "errorbar_q", "errorbar_q_spread", "errorbar_p", "errorbar_p_spread",
    "werner_q", "werner_p",
    "product_errorbar", "product_resolution",
    "bound_simple", "bound_uffink", "margin_simple", "margin_uffink",
    "passed",
]


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.5e}"
    return str(x)


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys are errors)
# ---------------------------------------------------------------------------

def _number(value, where: str) -> float:
    """A finite JSON number (booleans excluded), as float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _require_keys(obj: dict, where: str, required: dict, optional: dict = {}):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{where}: unknown key {k!r}")
    for k in required:
        if k not in obj:
            raise ConfigError(f"{where}: missing key {k!r}")
    out = dict(optional)
    out.update(obj)
    return out


def _parse_grid(obj, where="grid") -> GridSpec:
    g = _require_keys(obj, where, {"n": None, "x_min": None, "x_max": None})
    n = g["n"]
    if not isinstance(n, int) or n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"{where}.n: must be a power of two >= 2, got {n!r}")
    x_min = _number(g["x_min"], f"{where}.x_min")
    x_max = _number(g["x_max"], f"{where}.x_max")
    if not x_max > x_min:
        raise ConfigError(f"{where}: x_max must exceed x_min")
    return GridSpec(x_min, (x_max - x_min) / n, n)


def _eps_pair(pair, where) -> ConfidencePair:
    """A pair [eps1, eps2] of confidence levels, each in (0, 1)."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"{where}: expected a pair [eps1, eps2]")
    for k, e in enumerate(pair):
        if not 0 < _number(e, f"{where}[{k}]") < 1:
            raise ConfigError(f"{where}[{k}]: eps values must lie in (0, 1), got {e}")
    return ConfidencePair(float(pair[0]), float(pair[1]))


def _parse_confidence(pairs, where="confidence"):
    out = [_eps_pair(pr, f"{where}[{i}]") for i, pr in enumerate(_list(pairs, where))]
    if not out:
        raise ConfigError(f"{where}: at least one pair required")
    return out


def _build_gaussian(spec, grid, hbar, where):
    s = _require_keys(spec, where, {"sigma": None}, {"x0": 0.0, "p0": 0.0})
    x0, p0, sigma = (_number(s[k], f"{where}.{k}") for k in ("x0", "p0", "sigma"))
    try:
        return gaussian_state(x0, p0, sigma, grid, hbar)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _split_kind(spec, where):
    """The 'kind' of a tagged config object and its other keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {type(spec).__name__}")
    if "kind" not in spec:
        raise ConfigError(f"{where}: missing key 'kind'")
    return spec["kind"], {k: v for k, v in spec.items() if k != "kind"}


def _parse_generator(spec, grid, hbar, where) -> MixedState:
    kind, body = _split_kind(spec, where)
    if kind == "gaussian":
        return MixedState.pure(_build_gaussian(body, grid, hbar, where))
    if kind == "mixture":
        m = _require_keys(body, where, {"components": None})
        comps = []
        for i, c in enumerate(_list(m["components"], f"{where}.components")):
            cwhere = f"{where}.components[{i}]"
            cw = _require_keys(c, cwhere, {"weight": None, "sigma": None},
                               {"x0": 0.0, "p0": 0.0})
            weight = _number(cw.pop("weight"), f"{cwhere}.weight")
            comps.append((weight, _build_gaussian(cw, grid, hbar, cwhere)))
        try:
            return MixedState(comps)
        except ValueError as exc:
            raise ConfigError(f"{where}.components: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown generator kind {kind!r}")


def _parse_warp(spec, where) -> tuple:
    """A warp's (name, gamma_q, gamma_p); the name is None when omitted, and
    a map is None when its knot list is omitted: that axis stays unwarped."""
    w = _require_keys(spec, where, {}, {"name": None, "q_knots": None, "p_knots": None})

    def plm(label):
        if w[label] is None:
            return None
        xs, ys = [], []
        for j, k in enumerate(_list(w[label], f"{where}.{label}")):
            if not (isinstance(k, list) and len(k) == 2):
                raise ConfigError(f"{where}.{label}[{j}]: expected a pair [x, y]")
            xs.append(_number(k[0], f"{where}.{label}[{j}][0]"))
            ys.append(_number(k[1], f"{where}.{label}[{j}][1]"))
        try:
            return PiecewiseLinearMap(tuple(xs), tuple(ys))
        except ValueError as exc:
            raise ConfigError(f"{where}.{label}: {exc}") from exc

    return w["name"], plm("q_knots"), plm("p_knots")


def _parse_calibration(obj, grid, hbar, where="calibration") -> CalibrationConfig:
    c = _require_keys(obj, where, {"delta_ladder": None},
                      {"probe_centers": [0.0], "probe_kind": "box"})
    ladder = tuple(_number(d, f"{where}.delta_ladder[{i}]")
                   for i, d in enumerate(_list(c["delta_ladder"], f"{where}.delta_ladder")))
    centers = tuple(_number(x, f"{where}.probe_centers[{i}]")
                    for i, x in enumerate(_list(c["probe_centers"], f"{where}.probe_centers")))
    if not centers:
        raise ConfigError(f"{where}.probe_centers: must name at least one center")
    if any(d / grid.dx < 2.0 - 1e-9 for d in ladder):
        raise ConfigError(f"{where}.delta_ladder: entries must be >= 2*dx = {2 * grid.dx}")
    for i, d in enumerate(ladder):
        if d / grid.dx >= grid.n - 1e-9:
            raise ConfigError(f"{where}.delta_ladder[{i}]: {d} is not below the grid "
                              f"length n*dx = {grid.n * grid.dx}")
    # every probe interval is at least 2 cells wide (the resolution box is
    # exactly 2), so it holds a grid point when its center is within one
    # cell of the grid; the momentum centers are these rescaled by dp/dx
    reach = (1.0 + 1e-9) * grid.dx
    for i, x in enumerate(centers):
        if not grid.x_min - reach <= x <= grid.x_max + reach:
            raise ConfigError(f"{where}.probe_centers[{i}]: {x} is more than one cell "
                              f"(dx = {grid.dx}) outside the grid "
                              f"[{grid.x_min}, {grid.x_max}]")
    if c["probe_kind"] not in PROBE_KINDS:
        raise ConfigError(f"{where}.probe_kind: unknown probe kind {c['probe_kind']!r}, "
                          f"expected one of {list(PROBE_KINDS)}")
    try:
        return CalibrationConfig(ladder, centers, grid, hbar)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report_row(rep) -> dict:
    return {
        "scenario_id": rep.scenario_id,
        "eps1": rep.eps.eps1, "eps2": rep.eps.eps2,
        "overall_q": rep.axis_q.overall, "overall_p": rep.axis_p.overall,
        "resolution_q": rep.axis_q.resolution, "resolution_p": rep.axis_p.resolution,
        "errorbar_q": rep.axis_q.error_bar, "errorbar_q_spread": rep.axis_q.error_bar_spread,
        "errorbar_p": rep.axis_p.error_bar, "errorbar_p_spread": rep.axis_p.error_bar_spread,
        "werner_q": rep.axis_q.werner, "werner_p": rep.axis_p.werner,
        "product_errorbar": rep.product_error_bar,
        "product_resolution": rep.product_resolution,
        "bound_simple": rep.bound_simple, "bound_uffink": rep.bound_uffink,
        "margin_simple": rep.margin_simple, "margin_uffink": rep.margin_uffink,
        "passed": rep.passed,
    }


def _write_reports(rows, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(REPORT_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in REPORT_COLUMNS])
    json_path = out_dir / "report.json"
    payload = [{c: (_fmt(row[c]) if isinstance(row[c], float) else row[c])
                for c in REPORT_COLUMNS} for row in rows]
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return csv_path, json_path


def _reject_global_options(args):
    """verify and scan take hbar and the grid from their config only."""
    for flag, value, key in (("--hbar", args.hbar, "hbar"),
                             ("--grid-n", args.grid_n, "grid.n")):
        if value is not None:
            raise ConfigError(f"{flag}: not accepted by {args.command}; "
                              f"the config supplies {key}")


def cmd_verify(args) -> int:
    _reject_global_options(args)
    cfg = json.loads(Path(args.config).read_text())
    top = _require_keys(cfg, "config",
                        {"grid": None, "confidence": None, "generators": None,
                         "calibration": None},
                        {"hbar": 1.0, "warps": []})
    hbar = _number(top["hbar"], "hbar")
    if hbar <= 0:
        raise ConfigError("hbar: must be positive")
    grid = _parse_grid(top["grid"])
    eps_pairs = _parse_confidence(top["confidence"])
    calib = _parse_calibration(top["calibration"], grid, hbar)
    warps = [_parse_warp(w, f"warps[{i}]") for i, w in enumerate(_list(top["warps"], "warps"))]

    rows = []
    for gi, gspec in enumerate(_list(top["generators"], "generators")):
        gen = _parse_generator(gspec, grid, hbar, f"generators[{gi}]")
        mu, nu = marginal_measures(gen)
        kq, kp = Kernel("q", mu), Kernel("p", nu)
        for ei, eps in enumerate(eps_pairs):
            rep = verify_joint_ur(gen, eps, calib, scenario_id=f"gen{gi}-eps{ei}",
                                  kernels=(kq, kp))
            row = _report_row(rep)
            if rep.note:
                row["scenario_id"] += f"({rep.note})"
            rows.append(row)
            for wi, (wname, gamma_q, gamma_p) in enumerate(warps):
                wname = f"warp{wi}" if wname is None else wname
                wrep = verify_joint_ur(gen, eps, calib,
                                       scenario_id=f"gen{gi}-{wname}-eps{ei}",
                                       kernels=(replace(kq, gmap=gamma_q),
                                                replace(kp, gmap=gamma_p)))
                rows.append(_report_row(wrep))
    csv_path, json_path = _write_reports(rows, Path(args.out))
    all_pass = all(row["passed"] for row in rows)
    print(f"{len(rows)} scenario rows -> {csv_path}, {json_path}; "
          f"{'all passed' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# widths
# ---------------------------------------------------------------------------

def _parse_state_spec(spec: str, grid: GridSpec, hbar: float) -> MixedState:
    head, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not v:
                raise ConfigError(f"state spec: malformed parameter {item!r}")
            try:
                params[k.strip()] = float(v)
            except ValueError:
                raise ConfigError(f"state spec: {k.strip()}: expected a number, "
                                  f"got {v!r}") from None
    known = {"gaussian": {"x0", "p0", "sigma"}, "box": {"center", "width"}}
    if head not in known:
        raise ConfigError(f"state spec: unknown state kind {head!r}")
    extra = set(params) - known[head]
    if extra:
        raise ConfigError(f"state spec: unknown parameters {sorted(extra)}")
    if head == "gaussian":
        return MixedState.pure(gaussian_state(
            params.get("x0", 0.0), params.get("p0", 0.0),
            params.get("sigma", 1.0), grid, hbar))
    return MixedState.pure(box_state(
        params.get("center", 0.0), params.get("width", 1.0), grid, hbar))


def _parse_eps(text: str) -> ConfidencePair:
    """``--eps``: one level for both axes, or a pair ``eps1,eps2``."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ConfigError(f"--eps: expected eps or eps1,eps2, got {len(parts)} values")
    try:
        return ConfidencePair(float(parts[0]), float(parts[-1]))
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from None


def cmd_widths(args) -> int:
    n = WIDTHS_GRID_N_DEFAULT if args.grid_n is None else args.grid_n
    hbar = WIDTHS_HBAR_DEFAULT if args.hbar is None else args.hbar
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"--grid-n must be a power of two, got {n}")
    if not (math.isfinite(args.window) and args.window > 0):
        raise ConfigError(f"--window: expected a finite half-length > 0, got {args.window}")
    if not (math.isfinite(hbar) and hbar > 0):
        raise ConfigError(f"--hbar: expected a finite value > 0, got {hbar}")
    grid = GridSpec.symmetric(args.window, n)
    rho = _parse_state_spec(args.state, grid, hbar)
    eps = _parse_eps(args.eps)
    wq = overall_width(position_distribution(rho), eps.eps1)
    wp = overall_width(momentum_distribution(rho), eps.eps2)
    prod = wq * wp
    bs = bound_simple(eps, hbar)
    bu = bound_uffink(eps, hbar)
    slack = 4.0 * grid.dx * max(wq, wp)
    passed = prod >= bu - slack
    for label, val in [("width_q", wq), ("width_p", wp), ("product", prod),
                       ("bound_simple", bs), ("bound_uffink", bu),
                       ("ratio_uffink", prod / bu if bu > 0 else float("inf"))]:
        print(f"{label:14s} {_fmt(float(val))}")
    print(f"{'passed':14s} {_fmt(passed)}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    _reject_global_options(args)
    cfg = json.loads(Path(args.config).read_text())
    top = _require_keys(cfg, "config",
                        {"grid": None, "eps": None, "family": None, "lattice": None},
                        {"hbar": 1.0, "cap": SCAN_CAP_DEFAULT})
    hbar = _number(top["hbar"], "hbar")
    if hbar <= 0:
        raise ConfigError("hbar: must be positive")
    grid = _parse_grid(top["grid"])
    eps = _eps_pair(top["eps"], "eps")
    if top["family"] != "gaussian":
        raise ConfigError(f"family: unknown family {top['family']!r}")
    lattice = top["lattice"]
    if not isinstance(lattice, dict) or not lattice:
        raise ConfigError("lattice: expected a nonempty object of parameter lists")
    names = sorted(lattice)
    allowed = {"sigma", "x0", "p0"}
    for name in names:
        if name not in allowed:
            raise ConfigError(f"lattice.{name}: unknown parameter")
    if len(names) > 2:
        raise ConfigError("lattice: at most 2 parameters supported")
    values = [[_number(v, f"lattice.{n}[{i}]")
               for i, v in enumerate(_list(lattice[n], f"lattice.{n}"))] for n in names]
    cap = top["cap"]
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise ConfigError(f"cap: expected an integer, got {cap!r}")
    n_points = math.prod(len(v) for v in values)
    if n_points > cap:
        raise ConfigError(
            f"lattice has {n_points} points, above the cap {cap}; coarsen it")

    bs, bu = bound_simple(eps, hbar), bound_uffink(eps, hbar)
    # every row is computed before the file is opened, so a lattice point
    # the grid cannot hold leaves no partial scan.csv behind
    rows = []
    for combo in iproduct(*values):
        params = dict(zip(names, combo))
        try:
            rho = MixedState.pure(gaussian_state(
                params.get("x0", 0.0), params.get("p0", 0.0),
                params.get("sigma", 1.0), grid, hbar))
        except ValueError as exc:
            point = ", ".join(f"{k}={v}" for k, v in params.items())
            raise ConfigError(f"lattice point {point}: {exc}") from exc
        wq = overall_width(position_distribution(rho), eps.eps1)
        wp = overall_width(momentum_distribution(rho), eps.eps2)
        prod = wq * wp
        rows.append([_fmt(float(v)) for v in combo] +
                    [_fmt(v) for v in (wq, wp, prod, bs, bu,
                                       prod / bu if bu > 0 else float("inf"))])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "scan.csv"
    cols = names + ["width_q", "width_p", "product", "bound_simple", "bound_uffink",
                    "ratio_uffink"]
    with open(path, "w", newline="") as fh:
        fh.write(REPORT_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(cols)
        writer.writerows(rows)
    print(f"{n_points} lattice rows -> {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uncert",
                                 description="Joint-measurement uncertainty checks")
    ap.add_argument("--hbar", type=float,
                    help=f"widths only (default {WIDTHS_HBAR_DEFAULT}); "
                         "verify and scan read hbar from the config")
    ap.add_argument("--out", default="./reports")
    ap.add_argument("--grid-n", type=int,
                    help=f"widths only (default {WIDTHS_GRID_N_DEFAULT}); "
                         "verify and scan read the grid from the config")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run joint-UR checks from a JSON config")
    v.add_argument("config")
    v.set_defaults(func=cmd_verify)

    w = sub.add_parser("widths", help="overall widths of one state")
    w.add_argument("--state", required=True,
                   help="e.g. gaussian:sigma=1 or box:width=1,center=0")
    w.add_argument("--eps", required=True, help="eps or eps1,eps2")
    w.add_argument("--window", type=float, default=40.0,
                   help="half-length of the symmetric grid window")
    w.set_defaults(func=cmd_widths)

    s = sub.add_parser("scan", help="parameter-lattice width sweep")
    s.add_argument("config")
    s.set_defaults(func=cmd_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LadderInconsistencyError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:  # ConfigError, JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
