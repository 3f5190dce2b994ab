"""Command-line harness: scenario configs in, CSV/JSON width reports out.

Subcommands:
  verify <config.json>   joint uncertainty-relation checks per generator
  widths --state <spec>  overall widths of a single state
  scan <config.json>     width products over a lattice of one state kind

`widths` and `scan` share one state-to-widths path, `_Workspace`, and one
table of state kinds and their parameters, STATE_PARAMS.

Exit codes: 0 all checks pass, 1 a relation check failed, 2 bad config/IO.
Reports are byte-stable: fixed column order, 6 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import re
import sys
from dataclasses import fields
from itertools import product as iproduct
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .grids import GridSpec, _normalize_weights, _shortest_run, _target
from .metrology import (
    CalibrationConfig,
    ConfidencePair,
    WidthReport,
    bound_simple,
    bound_uffink,
    verify_scenarios,
)
from .observables import Kernel, PiecewiseLinearMap, marginal_measures
from .states import MixedState, _box_amps, _box_cells, _check_gaussian, _gaussian_amps, \
    _mixture_total, _momentum_weights, _position_weights, _unit_norm, gaussian_state, \
    momentum_grid, parity_offset

REPORT_VERSION = "# uncert-report v1"
SCAN_CAP_DEFAULT = 10_000
WIDTHS_HBAR_DEFAULT = 1.0
WIDTHS_GRID_N_DEFAULT = 4096
# grid points are x_min + dx * j with j a float, exact up to 2^53
GRID_N_MAX = 2**53
# accepted and validated so v1 configs keep running; calibration takes the
# exact sup over point masses, which no box or truncated Gaussian can raise
PROBE_KINDS = ("box", "truncated_gaussian")
# a warp name goes into scenario_id unquoted
WARP_NAME = re.compile(r"[A-Za-z0-9_]+")
# a flag value argparse reads as a number; its own pattern misses -1e5 and -inf
NEGATIVE_NUMBER = re.compile(r"(?i)^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$")
# each `--state` kind and scan family: its parameters and their defaults
STATE_PARAMS = {"gaussian": {"x0": 0.0, "p0": 0.0, "sigma": 1.0},
                "box": {"center": 0.0, "width": 1.0}}

REPORT_COLUMNS = [f.name for f in fields(WidthReport)]
# the cells `widths` prints and `scan` writes for one state
PRODUCT_COLUMNS = ["width_q", "width_p", "product", "bound_simple", "bound_uffink",
                   "ratio_uffink"]


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _located(where: str):
    """Raises a ValueError of the block as a ConfigError that starts with `where`."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.5e}"
    return str(x)


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys are errors)
# ---------------------------------------------------------------------------

def _number(value, where: str) -> float:
    """A finite JSON number (booleans excluded), as float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:   # not formatted: hundreds of digits, and str() raises past 4300
        raise ConfigError(f"{where}: expected a finite number, got an integer too "
                          f"large for a float") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return x


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


def _phase_space(n, x_min: float, x_max: float, hbar: float, keys: tuple) -> GridSpec:
    """The grid of n points from x_min with step dx = (x_max - x_min) / n,
    once n, the span and hbar pass the rules every command applies; keys
    name the n, span and hbar inputs in the error messages.

    n is an int power of two from 2 to GRID_N_MAX, the span is positive and
    finite, and hbar positive with 2 pi hbar and the momentum grid's
    half-width pi hbar / dx finite: every momentum step, bound and Gaussian
    momentum spread is built from them.  dx^2, dp = 2 pi hbar / (n dx) and
    the momentum weights' factor dp dx^2 are normal floats, at least
    sys.float_info.min: a subnormal one has too few bits to keep the
    weights' total at 1, and one that underflows to 0 zeroes them."""
    n_key, span_key, hbar_key = keys
    if not (isinstance(n, int) and 2 <= n <= GRID_N_MAX and (n & (n - 1)) == 0):
        raise ConfigError(f"{n_key}: must be a power of two from 2 to {GRID_N_MAX}, "
                          f"got {n!r}")
    if not x_max > x_min:
        raise ConfigError(f"{span_key}: x_max must exceed x_min, got [{x_min}, {x_max}]")
    if not math.isfinite(x_max - x_min):
        raise ConfigError(f"{span_key}: x_max - x_min overflows, got [{x_min}, {x_max}]")
    if not hbar > 0:
        raise ConfigError(f"{hbar_key}: must be positive, got {hbar}")
    dx = (x_max - x_min) / n
    dx2 = dx * dx
    if not sys.float_info.min <= dx2 < math.inf:
        raise ConfigError(f"{span_key}: dx^2 must be finite and dx positive, with dx^2 "
                          f"a normal float, got dx = {dx}")
    dp = 2.0 * math.pi * hbar / (n * dx)    # momentum_grid's step
    if not (math.isfinite(2.0 * math.pi * hbar) and math.isfinite(math.pi * hbar / dx)
            and dp >= sys.float_info.min and dp * dx2 >= sys.float_info.min):
        raise ConfigError(f"{hbar_key}: 2*pi*hbar and pi*hbar/dx must be finite and dp "
                          f"and dp*dx^2 normal floats, got hbar = {hbar} with n = {n}, "
                          f"dx = {dx}")
    return GridSpec(x_min, dx, n)


def _eps_pair(pair, where) -> ConfidencePair:
    """A pair [eps1, eps2] of confidence levels, each in (0, 1) (grids._target)."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError(f"{where}: expected a pair [eps1, eps2]")
    for k, e in enumerate(pair):
        x = _number(e, f"{where}[{k}]")
        with _located(f"{where}[{k}]"):
            _target(x)
    return ConfidencePair(float(pair[0]), float(pair[1]))


def _parse_confidence(pairs, where="confidence"):
    out = [_eps_pair(pr, f"{where}[{i}]") for i, pr in enumerate(_list(pairs, where))]
    if not out:
        raise ConfigError(f"{where}: at least one pair required")
    return out


def _gaussian_params(spec, grid, hbar, where) -> tuple:
    s = _require_keys(spec, where, {"sigma": None}, {"x0": 0.0, "p0": 0.0})
    params = tuple(_number(s[k], f"{where}.{k}") for k in ("x0", "p0", "sigma"))
    with _located(where):
        _check_gaussian(*params, grid, hbar)
    return params


def _split_kind(spec, where):
    """The 'kind' of a tagged config object and its other keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {type(spec).__name__}")
    if "kind" not in spec:
        raise ConfigError(f"{where}: missing key 'kind'")
    return spec["kind"], {k: v for k, v in spec.items() if k != "kind"}


def _parse_generator(spec, grid, hbar, where) -> list:
    """A generator's (weight, (x0, p0, sigma)) components, checked, not built."""
    kind, body = _split_kind(spec, where)
    if kind == "gaussian":
        return [(1.0, _gaussian_params(body, grid, hbar, where))]
    if kind == "mixture":
        m = _require_keys(body, where, {"components": None})
        comps = []
        for i, c in enumerate(_list(m["components"], f"{where}.components")):
            cwhere = f"{where}.components[{i}]"
            cw = _require_keys(c, cwhere, {"weight": None, "sigma": None},
                               {"x0": 0.0, "p0": 0.0})
            weight = _number(cw.pop("weight"), f"{cwhere}.weight")
            comps.append((weight, _gaussian_params(cw, grid, hbar, cwhere)))
        with _located(f"{where}.components"):
            _mixture_total([w for w, _ in comps])
        return comps
    raise ConfigError(f"{where}.kind: unknown generator kind {kind!r}")


def _parse_warp(spec, i) -> tuple:
    """Warp i's (name, gamma_q, gamma_p).  The name is a nonempty string of
    ASCII letters, digits and underscores, `warp<i>` when omitted or null;
    a map is None when its knot list is omitted: that axis stays unwarped."""
    where = f"warps[{i}]"
    w = _require_keys(spec, where, {}, {"name": None, "q_knots": None, "p_knots": None})
    name = f"warp{i}" if w["name"] is None else w["name"]
    if not (isinstance(name, str) and WARP_NAME.fullmatch(name)):
        raise ConfigError(f"{where}.name: expected a nonempty string of letters, digits "
                          f"and underscores, got {name!r}")

    def plm(label):
        if w[label] is None:
            return None
        xs, ys = [], []
        for j, k in enumerate(_list(w[label], f"{where}.{label}")):
            if not (isinstance(k, list) and len(k) == 2):
                raise ConfigError(f"{where}.{label}[{j}]: expected a pair [x, y]")
            xs.append(_number(k[0], f"{where}.{label}[{j}][0]"))
            ys.append(_number(k[1], f"{where}.{label}[{j}][1]"))
        with _located(f"{where}.{label}"):
            return PiecewiseLinearMap(tuple(xs), tuple(ys))

    return name, plm("q_knots"), plm("p_knots")


def _parse_warps(specs) -> list:
    """The warps of a verify config; their names label rows, so they must differ."""
    warps = [_parse_warp(w, i) for i, w in enumerate(_list(specs, "warps"))]
    names = [name for name, _, _ in warps]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"warps[{i}].name: {name!r} is already the name of "
                              f"warps[{names.index(name)}]")
    return warps


def _parse_calibration(obj, grid, hbar, where="calibration") -> CalibrationConfig:
    c = _require_keys(obj, where, {"delta_ladder": None},
                      {"probe_centers": [0.0], "probe_kind": "box"})
    ladder = tuple(_number(d, f"{where}.delta_ladder[{i}]")
                   for i, d in enumerate(_list(c["delta_ladder"], f"{where}.delta_ladder")))
    centers = tuple(_number(x, f"{where}.probe_centers[{i}]")
                    for i, x in enumerate(_list(c["probe_centers"], f"{where}.probe_centers")))
    if c["probe_kind"] not in PROBE_KINDS:
        raise ConfigError(f"{where}.probe_kind: unknown probe kind {c['probe_kind']!r}, "
                          f"expected one of {list(PROBE_KINDS)}")
    # CalibrationConfig's messages start with the field: `where.field: ...`
    try:
        return CalibrationConfig(ladder, centers, grid, hbar)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    """The --out directory, made after every config check and before verify
    or scan computes a row, so an unusable path fails before any work."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: list, rows) -> Path:
    """The version line, then the header and the rows of formatted cells."""
    with open(path, "w", newline="") as fh:
        fh.write(REPORT_VERSION + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_reports(reports, out_dir: Path):
    rows = [[_fmt(getattr(rep, c)) for c in REPORT_COLUMNS] for rep in reports]
    csv_path = _write_csv(out_dir / "report.csv", REPORT_COLUMNS, rows)
    # the JSON report holds the same strings, and `passed` as a JSON boolean,
    # as the text of json.dumps(..., indent=2), built here: with an indent
    # json takes its pure-Python encoder, whose closures leave reference cycles
    quote = encode_basestring_ascii
    objects = ["{\n" + ",\n".join(f"    {quote(c)}: {cell if c == 'passed' else quote(cell)}"
                                  for c, cell in zip(REPORT_COLUMNS, row)) + "\n  }"
               for row in rows]
    json_path = out_dir / "report.json"
    json_path.write_text("[\n  " + ",\n  ".join(objects) + "\n]\n")
    return csv_path, json_path


def _json_int(text: str):
    """A JSON integer; one past int()'s digit limit reads as a float, +-inf,
    which the check of its key then rejects by name."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_config(args, required: dict, optional: dict) -> tuple:
    """The config's top-level object, hbar and grid, which verify and scan
    take from their config only."""
    for flag, value, key in (("--hbar", args.hbar, "hbar"),
                             ("--grid-n", args.grid_n, "grid.n")):
        if value is not None:
            raise ConfigError(f"{flag}: not accepted by {args.command}; "
                              f"the config supplies {key}")
    text = Path(args.config).read_text()
    top = _require_keys(json.loads(text, parse_int=_json_int), "config",
                        {"grid": None, **required}, {"hbar": 1.0, **optional})
    hbar = _number(top["hbar"], "hbar")
    g = _require_keys(top["grid"], "grid", {"n": None, "x_min": None, "x_max": None})
    grid = _phase_space(g["n"], _number(g["x_min"], "grid.x_min"),
                        _number(g["x_max"], "grid.x_max"), hbar, ("grid.n", "grid", "hbar"))
    return top, hbar, grid


def _generator_reports(gi: int, comps, eps_pairs, calib, warps) -> list:
    """The report rows of generator gi, comps from :func:`_parse_generator`,
    on calib's grid and hbar: one per eps pair and warp, the plain row (the
    warp with no maps) first.  The generator's states, measures, kernels and
    window tables live only in this call, so none is held after it."""
    mu, nu = marginal_measures(MixedState([(w, gaussian_state(*params, calib.grid, calib.hbar))
                                           for w, params in comps]))
    # rows that share a kernel (an omitted knot list, equal knots) share its pass
    scenarios = [(f"gen{gi}-eps{ei}" if wname is None else f"gen{gi}-{wname}-eps{ei}",
                  eps, (Kernel("q", mu, gamma_q), Kernel("p", nu, gamma_p)))
                 for ei, eps in enumerate(eps_pairs)
                 for wname, gamma_q, gamma_p in [(None, None, None)] + warps]
    return verify_scenarios(calib, scenarios)


def cmd_verify(args) -> int:
    top, hbar, grid = _read_config(
        args, {"confidence": None, "generators": None, "calibration": None}, {"warps": []})
    # a momentum window table spans the 2n - 1 cells of two momentum grids' sum
    if not math.isfinite((2 * grid.n - 2) * momentum_grid(grid, hbar).dx):
        raise ConfigError(f"hbar: the momentum window span (2n - 2)*dp must be finite, "
                          f"got hbar = {hbar} with n = {grid.n}, dx = {grid.dx}")
    with _located("grid"):
        parity_offset(grid)     # the position smearing measure is a reflected marginal
    eps_pairs = _parse_confidence(top["confidence"])
    calib = _parse_calibration(top["calibration"], grid, hbar)
    warps = _parse_warps(top["warps"])
    generators = [_parse_generator(g, grid, hbar, f"generators[{gi}]")
                  for gi, g in enumerate(_list(top["generators"], "generators"))]
    if not generators:
        raise ConfigError("generators: at least one generator required")

    out = _out_dir(args)
    reports = []
    for gi, comps in enumerate(generators):
        reports += _generator_reports(gi, comps, eps_pairs, calib, warps)
    csv_path, json_path = _write_reports(reports, out)
    all_pass = all(rep.passed for rep in reports)
    print(f"{len(reports)} scenario rows -> {csv_path}, {json_path}; "
          f"{'all passed' if all_pass else 'FAILURES present'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# widths and scan: one state-to-widths path
# ---------------------------------------------------------------------------

class _Workspace:
    """The three arrays that `widths` writes its state into, and `scan` each
    lattice point.

    :meth:`state` runs the steps of gaussian_state or box_state and
    WaveFunction, and :meth:`widths` those of position_distribution,
    momentum_distribution, GridMeasure and overall_width, through the same
    kernels, on these arrays: the position points x; the amplitudes, which
    take the squared FFT moduli once the FFT has read them; and one buffer
    of n + 2 floats.  Its first n + 1 entries are the prefix sums, whose
    tail holds a marginal's weights before the in-place cumsum (and |a|^2
    for the norms); the whole buffer, viewed as n/2 + 1 complex values, is
    the real FFT's output, which is read into the amplitudes before the
    momentum weights fill the tail.  The FFT leaves bin 0 in prefix[0], so
    :meth:`_marginal_run` zeroes it.  A box, or a Gaussian at p0 = 0,
    allocates no n-length array; at p0 != 0 the amplitudes are complex, in
    a new array, and take the complex FFT.  The kernels skip only steps
    that cannot change a bit, as their docstrings say.
    """

    def __init__(self, grid: GridSpec, hbar: float):
        n = grid.n
        self.grid, self.hbar = grid, hbar
        self.dp = momentum_grid(grid, hbar).dx
        self.x = grid.points()
        self.amps = np.empty(n)
        buf = np.empty(n + 2)
        self.prefix = buf[:n + 1]
        self.spectrum = buf.view(complex)

    def state(self, kind: str, params: dict) -> np.ndarray:
        """Unit-norm amplitudes of a STATE_PARAMS kind, once params pass its checks."""
        grid, w = self.grid, self.prefix[1:]
        if kind == "gaussian":
            a = _gaussian_amps(params["x0"], params["p0"], params["sigma"], grid, self.hbar,
                               self.x, self.amps, w)
        else:
            a = _box_amps(params["center"], params["width"], grid, self.amps)
        _unit_norm(a, grid.dx, w)
        return a

    def widths(self, a: np.ndarray, eps: ConfidencePair) -> tuple:
        """(width_q, width_p) of the state with the amplitudes a from :meth:`state`."""
        grid, hbar = self.grid, self.hbar
        w = self.prefix[1:]
        _position_weights([(1.0, a)], grid.dx, w)
        wq = (self._marginal_run(eps.eps1) - 1) * grid.dx
        _momentum_weights([(1.0, a)], grid, hbar, w, self.spectrum, self.amps)
        wp = (self._marginal_run(eps.eps2) - 1) * self.dp
        return wq, wp

    def _marginal_run(self, eps: float) -> int:
        """Normalizes the weights in the prefix tail, sums them in place, and
        bisects the shortest run on the prefix sums."""
        w = self.prefix[1:]
        _normalize_weights(w)
        self.prefix[0] = 0.0
        np.cumsum(w, out=w)
        return _shortest_run(self.prefix, eps)


def _parse_state_spec(spec: str) -> tuple:
    """The kind of a `--state` spec, ``kind:name=value,...``, and its
    parameters, with the STATE_PARAMS defaults of those it omits."""
    head, _, rest = spec.partition(":")
    given = []
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not v:
                raise ConfigError(f"state spec: malformed parameter {item!r}")
            try:
                given.append((k.strip(), float(v)))
            except ValueError:
                raise ConfigError(f"state spec: {k.strip()}: expected a number, "
                                  f"got {v!r}") from None
    if head not in STATE_PARAMS:
        raise ConfigError(f"state spec: unknown state kind {head!r}")
    names = [k for k, _ in given]
    extra = set(names) - set(STATE_PARAMS[head])
    if extra:
        raise ConfigError(f"state spec: unknown parameters {sorted(extra)}")
    for k in names:
        if names.count(k) > 1:
            raise ConfigError(f"state spec: {k}: given twice")
    return head, {**STATE_PARAMS[head], **dict(given)}


def _parse_eps(text: str) -> ConfidencePair:
    """``--eps``: one level for both axes, or a pair ``eps1,eps2``."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ConfigError(f"--eps: expected eps or eps1,eps2, got {len(parts)} values")
    with _located("--eps"):
        return ConfidencePair(float(parts[0]), float(parts[-1]))


def _product_cells(wq: float, wp: float, bs: float, bu: float) -> list:
    """The PRODUCT_COLUMNS cells of widths wq, wp against the bounds bs, bu."""
    prod = wq * wp
    return [_fmt(float(v)) for v in (wq, wp, prod, bs, bu,
                                     prod / bu if bu > 0 else float("inf"))]


def cmd_widths(args) -> int:
    n = WIDTHS_GRID_N_DEFAULT if args.grid_n is None else args.grid_n
    hbar = WIDTHS_HBAR_DEFAULT if args.hbar is None else args.hbar
    # the bits of GridSpec.symmetric(args.window, n)
    grid = _phase_space(n, -args.window, args.window, hbar, ("--grid-n", "--window", "--hbar"))
    kind, params = _parse_state_spec(args.state)
    ws = _Workspace(grid, hbar)
    with _located("state spec"):
        a = ws.state(kind, params)
    eps = _parse_eps(args.eps)
    wq, wp = ws.widths(a, eps)
    bu = bound_uffink(eps, hbar)
    passed = wq * wp >= bu - 4.0 * grid.dx * max(wq, wp)
    cells = _product_cells(wq, wp, bound_simple(eps, hbar), bu) + [_fmt(passed)]
    for label, cell in zip(PRODUCT_COLUMNS + ["passed"], cells):
        print(f"{label:14s} {cell}")
    return 0 if passed else 1


def cmd_scan(args) -> int:
    top, hbar, grid = _read_config(
        args, {"eps": None, "family": None, "lattice": None}, {"cap": SCAN_CAP_DEFAULT})
    eps = _eps_pair(top["eps"], "eps")
    family = top["family"]
    if not (isinstance(family, str) and family in STATE_PARAMS):
        raise ConfigError(f"family: unknown family {family!r}")
    lattice = top["lattice"]
    if not isinstance(lattice, dict) or not lattice:
        raise ConfigError("lattice: expected a nonempty object of parameter lists")
    names = sorted(lattice)
    defaults = STATE_PARAMS[family]
    for name in names:
        if name not in defaults:
            raise ConfigError(f"lattice.{name}: unknown parameter")
    if len(names) > 2:
        raise ConfigError("lattice: at most 2 parameters supported")
    values = [[_number(v, f"lattice.{n}[{i}]")
               for i, v in enumerate(_list(lattice[n], f"lattice.{n}"))] for n in names]
    for name, v in zip(names, values):
        if not v:
            raise ConfigError(f"lattice.{name}: at least one value required")
    cap = top["cap"]
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ConfigError(f"cap: expected a positive integer, got {cap!r}")
    n_points = math.prod(len(v) for v in values)
    if n_points > cap:
        raise ConfigError(
            f"lattice has {n_points} points, above the cap {cap}; coarsen it")

    # the checks of _Workspace.state, on every point before any state is built
    for combo in iproduct(*values):
        p = {**defaults, **dict(zip(names, combo))}
        with _located("lattice point " + ", ".join(f"{k}={v}" for k, v in zip(names, combo))):
            if family == "gaussian":
                _check_gaussian(p["x0"], p["p0"], p["sigma"], grid, hbar)
            else:
                _box_cells(p["center"], p["width"], grid)

    bs, bu = bound_simple(eps, hbar), bound_uffink(eps, hbar)
    ws = _Workspace(grid, hbar)
    out = _out_dir(args)
    # every width is computed before the file is opened, so no partial
    # scan.csv is left behind; the rows are formatted as they are written
    widths = np.empty((n_points, 2))
    for row, combo in zip(widths, iproduct(*values)):
        row[:] = ws.widths(ws.state(family, {**defaults, **dict(zip(names, combo))}), eps)
    del ws  # its arrays are not held while the file is written
    rows = ([_fmt(float(v)) for v in combo] + _product_cells(wq, wp, bs, bu)
            for combo, (wq, wp) in zip(iproduct(*values), widths))
    path = _write_csv(out / "scan.csv", names + PRODUCT_COLUMNS, rows)
    print(f"{n_points} lattice rows -> {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and reused: its
    objects form reference cycles that only the cyclic collector frees."""
    ap = argparse.ArgumentParser(prog="uncert",
                                 description="Joint-measurement uncertainty checks")
    ap._negative_number_matcher = NEGATIVE_NUMBER
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
    w._negative_number_matcher = NEGATIVE_NUMBER
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
    except (ValueError, OSError) as exc:  # ConfigError, JSONDecodeError, file errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # every array a command holds is O(n)
        key = "--grid-n" if args.command == "widths" else "grid.n"
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: {key}: the grid does not fit in memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
