import contextlib
import csv
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import uncert
from uncert import cli, metrology, observables
from uncert.cli import PRODUCT_COLUMNS, REPORT_COLUMNS, REPORT_VERSION, _Workspace, \
    build_parser, main
from uncert.grids import GridSpec, overall_width
from uncert.metrology import ConfidencePair
from uncert.observables import PiecewiseLinearMap
from uncert.states import MixedState, box_state, gaussian_state, momentum_distribution, \
    position_distribution

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def verify_config(**overrides):
    cfg = {
        "grid": {"n": 512, "x_min": -12.8, "x_max": 12.8},
        "confidence": [[0.05, 0.05]],
        "generators": [{"kind": "gaussian", "sigma": 1.0}],
        "calibration": {"delta_ladder": [0.4, 0.2]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def bench_verify_config(n, confidence):
    """The seed-0 config of the verify-* benchmark workloads at n points."""
    half = 20.0
    return {
        "grid": {"n": n, "x_min": -half, "x_max": half},
        "hbar": 1.0,
        "confidence": confidence,
        "generators": [{"kind": "gaussian", "sigma": 1.0},
                       {"kind": "mixture",
                        "components": [{"weight": 0.5, "sigma": 0.8},
                                       {"weight": 0.5, "sigma": 1.2, "x0": 0.5}]}],
        "calibration": {"delta_ladder": [0.4, 0.2, 0.1], "probe_centers": [0.0],
                        "probe_kind": "box"},
        "warps": [{"name": "wiggle",
                   "q_knots": [[-half, -half], [-1, -0.7], [1, 1.3], [half, half]]}],
    }


P_BEND = [[-40.0, -40.0], [-1.0, -0.6], [1.0, 1.4], [40.0, 40.0]]
Q_SHIFT = [[-12.8, -12.5], [12.8, 13.1]]
P_SHIFT = [[-40.0, -40.4], [40.0, 39.6]]


class TestVerify:
    def test_passing_run_writes_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, verify_config())
        rc = main(["--out", str(tmp_path / "out"), "verify", path])
        assert rc == 0
        assert "all passed" in capsys.readouterr().out
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == REPORT_VERSION
        assert lines[1].split(",") == REPORT_COLUMNS
        assert len(lines) == 3
        row = lines[2].split(",")
        assert row[0] == "gen0-eps0"
        assert row[-1] == "true"
        # floats are serialized at fixed precision
        assert row[1] == "5.00000e-02"
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(payload) == 1 and payload[0]["passed"] is True

    def test_reports_are_byte_stable(self, tmp_path):
        path = write_config(tmp_path, verify_config())
        main(["--out", str(tmp_path / "a"), "verify", path])
        main(["--out", str(tmp_path / "b"), "verify", path])
        assert (tmp_path / "a" / "report.csv").read_bytes() == \
            (tmp_path / "b" / "report.csv").read_bytes()
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_exhausted_confidence_annotated(self, tmp_path):
        cfg = verify_config(confidence=[[0.6, 0.6]])
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert "gen0-eps0(no positive bound)" in csv_text

    def test_warped_scenarios_included(self, tmp_path):
        cfg = verify_config(warps=[{
            "name": "wiggle",
            "q_knots": [[-12.8, -12.8], [-1.0, -0.7], [1.0, 1.3], [12.8, 12.8]],
        }])
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0
        csv_text = (tmp_path / "out" / "report.csv").read_text()
        assert "gen0-wiggle-eps0" in csv_text
        assert len(csv_text.splitlines()) == 4

    def test_mixture_generator(self, tmp_path):
        cfg = verify_config(generators=[{
            "kind": "mixture",
            "components": [{"weight": 0.5, "sigma": 0.8},
                           {"weight": 0.5, "sigma": 1.2}],
        }])
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0

    def test_truncated_gaussian_probes(self, tmp_path):
        cfg = verify_config(
            confidence=[[0.05, 0.05], [0.1, 0.2]],
            calibration={"delta_ladder": [0.4, 0.2], "probe_kind": "truncated_gaussian"},
            warps=[{"name": "wiggle",
                    "q_knots": [[-12.8, -12.8], [-1.0, -0.7], [1.0, 1.3], [12.8, 12.8]]}])
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(payload) == 4
        assert all(row["passed"] is True for row in payload)

    def test_two_cell_rung_survives_momentum_rescale(self, tmp_path):
        # 0.2 is exactly 2 position cells; rescaled to the momentum axis it
        # lands one rounding step below 2 momentum cells
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            calibration={"delta_ladder": [0.4, 0.2]})
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0

    def test_rung_within_the_tolerance_of_two_cells_accepted(self, tmp_path):
        # 1.999999999 position cells, which rescaled to the momentum axis is
        # a rounding step further below 2 momentum cells
        cfg = verify_config(calibration={"delta_ladder": [0.4, 0.09999999995]})
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0

    def test_rung_just_below_the_grid_length_accepted(self, tmp_path):
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            calibration={"delta_ladder": [25.5, 0.4]})
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, cfg)])
        assert rc == 0

    def test_report_bytes_pinned(self, tmp_path):
        # tests/golden/verify_warped holds the report bytes this config must
        # keep writing: plain and warped rows of a Gaussian and a mixture generator
        cfg = verify_config(
            grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
            confidence=[[0.05, 0.05], [0.1, 0.2]],
            generators=[{"kind": "gaussian", "sigma": 1.0},
                        {"kind": "mixture",
                         "components": [{"weight": 0.3, "sigma": 0.8, "x0": -0.5},
                                        {"weight": 0.7, "sigma": 1.3, "x0": 0.4}]}],
            warps=[{"name": "bend", "q_knots": [[-12.8, -12.8], [-1.0, -0.7],
                                                [1.0, 1.3], [12.8, 12.8]]}])
        rc = main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)])
        assert rc == 0
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (GOLDEN / "verify_warped" / name).read_bytes()

    def test_report_bytes_pinned_with_shift_and_momentum_warps(self, tmp_path):
        # tests/golden/verify_shift_pwarp: two probe centers, a mixture with
        # a momentum boost, a p_knots-only bend (its q axis unwarped) and a
        # two-knot shift of both axes, whose error-bar ladder alone keeps
        # the edge clipping (its resolution is its measure's overall width)
        cfg = verify_config(
            grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
            confidence=[[0.05, 0.05], [0.1, 0.2]],
            generators=[{"kind": "gaussian", "sigma": 1.0},
                        {"kind": "mixture",
                         "components": [{"weight": 0.4, "sigma": 0.9, "x0": -0.6, "p0": 0.8},
                                        {"weight": 0.6, "sigma": 1.2, "x0": 0.3}]}],
            calibration={"delta_ladder": [0.8, 0.4, 0.2], "probe_centers": [0.0, 1.5]},
            warps=[{"name": "pbend", "p_knots": P_BEND},
                   {"name": "shift", "q_knots": Q_SHIFT, "p_knots": P_SHIFT}])
        rc = main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)])
        assert rc == 0
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "out" / name).read_bytes() == \
                (GOLDEN / "verify_shift_pwarp" / name).read_bytes()

    def test_unwarped_axis_builds_no_warp_or_outcome(self, tmp_path, monkeypatch):
        # an omitted knot list leaves its axis unwarped (gmap None): every
        # _warp_cells call carries one of the given maps, and no kernel, the
        # covariant shift included, convolves or pushes an outcome forward
        seen = []
        warp_cells = observables._warp_cells

        def counted_warp_cells(g, gmap, *span):
            seen.append(("warp_cells", gmap))
            return warp_cells(g, gmap, *span)

        for module in (metrology, observables):
            monkeypatch.setattr(module, "_warp_cells", counted_warp_cells)
        for name in ("pushforward", "convolve"):
            monkeypatch.setattr(observables, name, lambda *args, name=name: seen.append(name))
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            calibration={"delta_ladder": [0.4, 0.2],
                                         "probe_centers": [0.0, 1.5]},
                            warps=[{"name": "pbend", "p_knots": P_BEND},
                                   {"name": "qshift", "q_knots": Q_SHIFT}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        bend, shift = (PiecewiseLinearMap(*zip(*knots)) for knots in (P_BEND, Q_SHIFT))
        assert set(seen) == {("warp_cells", bend), ("warp_cells", shift)}

    def test_a_shift_resolution_is_its_measure_overall_width(self, tmp_path):
        # a covariant kernel's resolution does not depend on where its
        # outcome lands: a shift of +30 on +-12.8 sends every outcome past
        # the grid's edge, and the resolution is still the measure's
        # overall width, 3.9
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            warps=[{"name": "far", "q_knots": [[-12.8, 17.2], [12.8, 42.8]]}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        row = (tmp_path / "out" / "report.csv").read_text().splitlines()[-1].split(",")
        far = dict(zip(REPORT_COLUMNS, row))
        assert far["scenario_id"] == "gen0-far-eps0"
        assert far["resolution_q"] == far["overall_q"] == "3.90000e+00"

    def test_one_overall_width_per_axis_and_row(self, tmp_path, monkeypatch):
        # an unwarped axis reads its overall width off _axis_pass's
        # resolution, and a warped (here non-covariant) axis reads it off the
        # plain kernel's pass at the same eps: 2 eps pairs x 2 axes
        calls = []
        overall_width = metrology.overall_width

        def counted(P, eps):
            calls.append(eps)
            return overall_width(P, eps)

        monkeypatch.setattr(metrology, "overall_width", counted)
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            confidence=[[0.05, 0.05], [0.1, 0.2]],
                            warps=[{"name": "pbend", "p_knots": P_BEND}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 2 * 2

    def test_desk_config_passes_each_kernel_once(self, tmp_path, monkeypatch):
        # per generator the rows use three kernels: plain q, wiggle-warped q
        # and plain p (the wiggle leaves p unwarped), one table each about
        # the one probe center; the overall widths are the plain kernels'
        # resolutions at 3 eps each
        tables, widths = [], []
        overall_width = metrology.overall_width

        class Counted(metrology._CenteredWindows):
            def __init__(self, kernel, axis_grid, x):
                tables.append((kernel, x))
                super().__init__(kernel, axis_grid, x)

        def counted(P, eps):
            widths.append((P, eps))
            return overall_width(P, eps)

        monkeypatch.setattr(metrology, "_CenteredWindows", Counted)
        monkeypatch.setattr(metrology, "overall_width", counted)
        cfg = bench_verify_config(4096, [[0.05, 0.05], [0.1, 0.2], [0.2, 0.1]])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        assert len(tables) == len(set(tables)) == 6
        assert len(widths) == len(set(widths)) == 12

    def test_each_generator_reads_its_marginals_once(self, tmp_path, monkeypatch):
        # the smearing measures are the generator's public marginals,
        # reflected, so the benchmark's span tracer, which wraps public
        # functions, counts their calls and FFTs
        calls = {"position_distribution": [], "momentum_distribution": []}

        def counted(name):
            fn = getattr(observables, name)

            def wrapper(rho):
                calls[name].append(len(rho.components))
                return fn(rho)
            return wrapper

        for name in calls:
            monkeypatch.setattr(observables, name, counted(name))
        cfg = verify_config(generators=[
            {"kind": "gaussian", "sigma": 1.0},
            {"kind": "mixture", "components": [{"weight": 0.5, "sigma": 0.8},
                                               {"weight": 0.5, "sigma": 1.2, "x0": 0.5}]}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        # the gaussian generator has one component, the mixture two
        assert calls == {"position_distribution": [1, 2], "momentum_distribution": [1, 2]}

    def test_warps_with_the_plain_or_equal_maps_share_passes(self, tmp_path, monkeypatch):
        # a warp with no knot lists is the plain row and a second warp with
        # the first one's knots is its row: equal numbers, no extra table
        tables = []

        class Counted(metrology._CenteredWindows):
            def __init__(self, kernel, axis_grid, x):
                tables.append((kernel.axis, kernel.gmap))
                super().__init__(kernel, axis_grid, x)

        monkeypatch.setattr(metrology, "_CenteredWindows", Counted)
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            confidence=[[0.05, 0.05], [0.1, 0.2]],
                            warps=[{"name": "none"}, {"name": "b1", "p_knots": P_BEND},
                                   {"name": "b2", "p_knots": P_BEND}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        bend = PiecewiseLinearMap(*zip(*P_BEND))
        assert sorted(tables, key=str) == sorted([("q", None), ("p", None), ("p", bend)], key=str)
        rows = [line.split(",") for line in
                (tmp_path / "out" / "report.csv").read_text().splitlines()[2:]]
        assert [row[0] for row in rows] == [f"gen0-{w}eps{e}" for e in (0, 1)
                                            for w in ("", "none-", "b1-", "b2-")]
        for plain, none, b1, b2 in (rows[:4], rows[4:]):
            assert none[1:] == plain[1:] and b2[1:] == b1[1:]
            assert b1[1:] != plain[1:]

    def test_desk_report_matches_the_benchmark_reference(self, tmp_path):
        # the seed-0 verify-desk benchmark config: n = 4096, 2 generators x
        # 3 eps pairs x (plain, warped) = 12 rows; the stored report is only read
        cfg = bench_verify_config(4096, [[0.05, 0.05], [0.1, 0.2], [0.2, 0.1]])
        rc = main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)])
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").read_text() == \
            (REFERENCE / "verify-desk.csv").read_text()

    def test_large_report_matches_the_benchmark_reference(self, tmp_path):
        # the seed-0 verify-large benchmark config: n = 65536, 2 generators x
        # 1 eps pair x (plain, warped) = 4 rows; the stored report is only read
        cfg = bench_verify_config(65536, [[0.05, 0.05]])
        rc = main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)])
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").read_text() == \
            (REFERENCE / "verify-large.csv").read_text()

    def test_large_verify_peak_memory(self, tmp_path):
        # the seed-0 verify-large config.  The peak is in marginal_measures
        # for the mixture: its two states (1 MiB), nu's weights and the real
        # FFT's spectrum, about 2.08 MiB traced.  Copies of each marginal in
        # GridMeasure and np.roll took it to 3.02 MiB; holding the previous
        # generator's measures, the states through verify_scenarios, copies
        # of the window distances and whole-array warp cells, to 5.59 MiB
        argv = ["--out", str(tmp_path / "out"), "verify",
                write_config(tmp_path, bench_verify_config(65536, [[0.05, 0.05]]))]
        gc.collect()
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2.5 * 2**20

    def test_verify_leaves_no_cyclic_garbage(self, tmp_path):
        # a verify op frees every object it makes by reference counting, so
        # its peak does not depend on when the cyclic collector runs; the
        # pure-Python JSON encoder used to leave 33 objects in cycles
        argv = ["--out", str(tmp_path / "out"), "verify",
                write_config(tmp_path, bench_verify_config(4096, [[0.05, 0.05]]))]
        assert main(argv) == 0  # builds the parser and imports lazily
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rows_without_a_positive_bound_are_annotated(self, tmp_path):
        # eps1 + eps2 >= 1: the plain row and the warped row both say so
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            confidence=[[0.6, 0.6]],
                            warps=[{"name": "w", "p_knots": P_BEND}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()[2:]
        assert [line.split(",")[0] for line in lines] == \
            ["gen0-eps0(no positive bound)", "gen0-w-eps0(no positive bound)"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [row["scenario_id"] for row in report] == \
            ["gen0-eps0(no positive bound)", "gen0-w-eps0(no positive bound)"]


class TestVerifyConfigErrors:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = verify_config(surprise=1)
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = verify_config()
        del cfg["calibration"]
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_grid_n_not_power_of_two(self, tmp_path):
        cfg = verify_config(grid={"n": 500, "x_min": -12.8, "x_max": 12.8})
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_bad_eps_pair(self, tmp_path):
        cfg = verify_config(confidence=[[0.05]])
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_unknown_generator_kind(self, tmp_path):
        cfg = verify_config(generators=[{"kind": "bessel"}])
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_ladder_below_grid_resolution(self, tmp_path):
        cfg = verify_config(calibration={"delta_ladder": [0.4, 0.01]})
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_non_monotone_warp_knots(self, tmp_path):
        cfg = verify_config(warps=[{
            "q_knots": [[-12.8, -12.8], [0.0, 2.0], [1.0, 1.0], [12.8, 12.8]],
        }])
        assert main(["verify", write_config(tmp_path, cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    @pytest.mark.parametrize("grid, ladder", [
        ({"n": 64, "x_min": -12.8, "x_max": 12.9}, [1.6, 0.9]),      # -x_j off the grid
        ({"n": 256, "x_min": -29.4, "x_max": 12.0}, [0.8, 0.4]),    # not symmetric about 0
    ])
    def test_grid_not_symmetric_about_0_names_grid(self, tmp_path, capsys, grid, ladder):
        cfg = verify_config(grid=grid, calibration={"delta_ladder": ladder})
        assert main(["verify", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid: ") and "Traceback" not in err

    def test_smearings_is_an_unknown_key(self, tmp_path, capsys):
        cfg = verify_config(smearings=[{"kind": "delta", "c": 0.0}])
        assert main(["verify", write_config(tmp_path, cfg)]) == 2
        assert "unknown key 'smearings'" in capsys.readouterr().err


def run_python(*argv):
    """A fresh interpreter on argv that imports uncert from this source tree."""
    src = str(Path(uncert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def run_cli(*argv):
    return run_python("-m", "uncert.cli", *argv)


SCAN_CONFIG = {
    "grid": {"n": 512, "x_min": -12.8, "x_max": 12.8},
    "eps": [0.05, 0.05],
    "family": "gaussian",
    "lattice": {"sigma": [1.0]},
}


# dx = 3.9e152, so dx^2 is finite
HUGE_GRID = {"n": 512, "x_min": -1e155, "x_max": 1e155}


@pytest.mark.parametrize("command, cfg, key", [
    ("verify", verify_config(confidence=[[None, 0.1]]), "confidence[0][0]"),
    ("verify", verify_config(grid={"n": 512, "x_min": "-12.8", "x_max": 12.8}), "grid.x_min"),
    ("verify", verify_config(generators={"kind": "gaussian", "sigma": 1.0}), "generators"),
    ("verify", verify_config(generators=[{"kind": "gaussian", "sigma": float("nan")}]),
     "generators[0].sigma"),
    ("verify", [verify_config()], "config: must be a JSON object"),
    ("scan", dict(SCAN_CONFIG, cap=None), "cap"),
    ("verify", verify_config(calibration={"delta_ladder": [100, 50]}),
     "calibration.delta_ladder[0]"),
    ("verify", verify_config(calibration={"delta_ladder": [25.6, 0.4]}),
     "calibration.delta_ladder[0]"),
    ("scan", dict(SCAN_CONFIG, hbar=0), "hbar: must be positive"),
    ("scan", dict(SCAN_CONFIG, hbar=-1.0), "hbar: must be positive"),
    ("verify", verify_config(calibration={"delta_ladder": [0.4, 0.2],
                                          "probe_centers": [0.0, 100.0]}),
     "calibration.probe_centers[1]"),
    ("verify", verify_config(calibration={"delta_ladder": [0.4, 0.2],
                                          "probe_centers": [-12.91]}),
     "calibration.probe_centers[0]"),
    ("scan", dict(SCAN_CONFIG, grid={"n": 1024, "x_min": -40.0, "x_max": 40.0},
                  lattice={"sigma": [1.0, 2.0, 6.0]}), "lattice point sigma=6.0"),
    ("scan", dict(SCAN_CONFIG, lattice={"sigma": [1.0], "x0": [0.0, 9.5]}),
     "lattice point sigma=1.0, x0=9.5"),
    ("verify", verify_config(calibration={"delta_ladder": [0.4, 0.2], "probe_kind": "spline"}),
     "calibration.probe_kind"),
    ("verify", verify_config(calibration={"delta_ladder": [0.4, 0.2], "probe_centers": []},
                             warps=[{"name": "bend", "q_knots": [[-12.8, -12.8], [-1.0, -0.7],
                                                                 [1.0, 1.3], [12.8, 12.8]]}]),
     "calibration.probe_centers"),
    ("verify", verify_config(generators=[{"kind": "mixture", "components": [
        {"weight": -0.2, "sigma": 1.0}, {"weight": 1.2, "sigma": 1.0}]}]),
     "generators[0].components: component weights must be nonnegative"),
    ("verify", verify_config(generators=[{"kind": "gaussian", "sigma": 1.0},
                                         {"kind": "mixture", "components": []}]),
     "generators[1].components"),
    ("verify", verify_config(generators=[{"kind": "gaussian", "sigma": 3.0}]),
     "generators[0]: grid"),
    ("scan", dict(SCAN_CONFIG, eps=[0.05, 1.5]), "eps[1]: eps must lie in (0, 1), got 1.5"),
    ("verify", verify_config(confidence=[[0.05, 0.1], [0.05, 1.0]]), "confidence[1][1]"),
    ("verify", verify_config(warps=[{"q_knots": [[-12.8, "nan"], [12.8, 1]]}]),
     "warps[0].q_knots[0][1]"),
    ("verify", verify_config(warps=[{}, {"p_knots": [[-12.8, -1e308], [12.8, 1e308]]}]),
     "warps[1].p_knots: knots must be strictly increasing in both coordinates, with finite"),
    ("verify", verify_config(warps=[{"q_knots": [[-12.8, -12.8, 0.0], [12.8, 12.8]]}]),
     "warps[0].q_knots[0]: expected a pair"),
    ("verify", verify_config(warps=[{"name": [1]}]), "warps[0].name:"),
    ("verify", verify_config(warps=[{"name": "ok"}, {"name": ""}]), "warps[1].name:"),
    ("verify", verify_config(warps=[{"name": "a,b"}]), "warps[0].name:"),
    ("verify", verify_config(warps=[{"name": "a\nb"}]), "warps[0].name:"),
    ("verify", verify_config(warps=[{"name": "bend", "p_knots": P_BEND}, {"name": "bend"}]),
     "warps[1].name: 'bend' is already the name of warps[0]"),
    ("verify", verify_config(warps=[{"name": "warp1"}, {}]),
     "warps[1].name: 'warp1' is already the name of warps[0]"),
    ("verify", verify_config(generators=[]), "generators: at least one generator"),
    ("verify", verify_config(grid={"n": 512, "x_min": -1e308, "x_max": 1e308}),
     "grid: x_max - x_min overflows"),
    ("scan", dict(SCAN_CONFIG, grid={"n": 512, "x_min": -1e308, "x_max": 1e308}),
     "grid: x_max - x_min overflows"),
    # 2 pi hbar overflows; then only pi hbar / dx (dx = 0.05)
    ("verify", verify_config(hbar=1e308), "hbar: 2*pi*hbar and pi*hbar/dx must be finite"),
    ("scan", dict(SCAN_CONFIG, hbar=1e308), "hbar: 2*pi*hbar and pi*hbar/dx must be finite"),
    ("scan", dict(SCAN_CONFIG, hbar=1e307), "hbar: 2*pi*hbar and pi*hbar/dx must be finite"),
    # the 2n - 1 cell momentum window table of verify overflows; scan builds none
    ("verify", verify_config(hbar=1e306), "hbar: the momentum window span (2n - 2)*dp"),
    # dx^2 overflows (dx = 3.9e154)
    ("verify", verify_config(grid={"n": 512, "x_min": -1e157, "x_max": 1e157}),
     "grid: dx^2 must be finite"),
    ("verify", verify_config(grid={"n": 512, "x_min": -1e300, "x_max": 1e300},
                             generators=[{"kind": "gaussian", "sigma": 1e299}]),
     "grid: dx^2 must be finite"),
    ("scan", dict(SCAN_CONFIG, grid={"n": 512, "x_min": -1e157, "x_max": 1e157}),
     "grid: dx^2 must be finite"),
    # 4 sigma^2 overflows on a grid that holds 8 sigma
    ("verify", verify_config(grid=HUGE_GRID, generators=[{"kind": "gaussian", "sigma": 1e155}],
                             calibration={"delta_ladder": [4e154, 2e154]}),
     "generators[0]: 4 sigma^2 must be finite"),
    ("verify", verify_config(grid=HUGE_GRID, generators=[{"kind": "mixture", "components": [
        {"weight": 1.0, "sigma": 1e155}]}], calibration={"delta_ladder": [4e154, 2e154]}),
     "generators[0].components[0]: 4 sigma^2 must be finite"),
    ("scan", dict(SCAN_CONFIG, grid=HUGE_GRID, lattice={"sigma": [1e155]}),
     "lattice point sigma=1e+155: 4 sigma^2 must be finite"),
    # n past 2^53, where float grid indices are no longer exact; 2^1100 is
    # past the float range
    ("scan", dict(SCAN_CONFIG, grid={"n": 2**1100, "x_min": -12.8, "x_max": 12.8}),
     "grid.n: must be a power of two from 2 to 9007199254740992, got 13582985"),
    ("verify", verify_config(grid={"n": 2**54, "x_min": -12.8, "x_max": 12.8}),
     "grid.n: must be a power of two from 2 to 9007199254740992, got 18014398509481984"),
    # 4 sigma^2 fits, but the squared distance 1e155 from x0 to a grid end
    # does not
    ("verify", verify_config(grid=HUGE_GRID, generators=[{"kind": "gaussian", "sigma": 1e153}],
                             calibration={"delta_ladder": [4e154, 2e154]}),
     "generators[0]: (x - x0)^2 must be finite on the grid"),
    ("verify", verify_config(grid=HUGE_GRID, generators=[{"kind": "mixture", "components": [
        {"weight": 1.0, "sigma": 1e153, "x0": 5e154}]}], calibration={"delta_ladder": [4e154]}),
     "generators[0].components[0]: (x - x0)^2 must be finite on the grid"),
    ("scan", dict(SCAN_CONFIG, grid=HUGE_GRID, lattice={"sigma": [1e153], "p0": [0.0, 1e-153]}),
     "lattice point p0=0.0, sigma=1e+153: (x - x0)^2 must be finite on the grid"),
    # dp = 2 pi hbar / (n dx) underflows to 0
    ("verify", verify_config(hbar=5e-324), "hbar: 2*pi*hbar and pi*hbar/dx must be finite and"),
    ("scan", dict(SCAN_CONFIG, hbar=5e-324), "hbar: 2*pi*hbar and pi*hbar/dx must be finite and"),
    # dx = 1e-320 / 4096 underflows to 0
    ("verify", verify_config(grid={"n": 4096, "x_min": 0, "x_max": 1e-320}),
     "grid: dx^2 must be finite and dx positive"),
    ("scan", dict(SCAN_CONFIG, grid={"n": 4096, "x_min": 0, "x_max": 1e-320}),
     "grid: dx^2 must be finite and dx positive"),
    ("scan", dict(SCAN_CONFIG, lattice={"sigma": []}), "lattice.sigma: at least one"),
    ("scan", dict(SCAN_CONFIG, cap=0), "cap: expected a positive integer, got 0"),
    ("scan", dict(SCAN_CONFIG, cap=-3), "cap: expected a positive integer, got -3"),
    # a family is a `--state` kind, and the lattice sweeps that kind's parameters
    ("scan", dict(SCAN_CONFIG, family="box"), "lattice.sigma: unknown parameter"),
    ("scan", dict(SCAN_CONFIG, family="airy"), "family: unknown family 'airy'"),
    ("scan", dict(SCAN_CONFIG, family=["box"]), "family: unknown family ['box']"),
    ("scan", dict(SCAN_CONFIG, family="box", lattice={"width": [0.01]}),
     "lattice point width=0.01: box width 0.01 below the 2-cell minimum 0.1 (grid step 0.05)"),
    # a center 1 + 1e-9 cells left of the grid, whose rung of 2 - 0.6e-9
    # cells about it a bent kernel builds holds no grid point
    ("verify", verify_config(calibration={"delta_ladder": [0.4, (2 - 0.6e-9) * 0.05],
                                          "probe_centers": [-12.8 - (1 + 1e-9) * 0.05]},
                             warps=[{"name": "bend", "q_knots": [[-12.8, -12.8], [-1.0, -0.7],
                                                                 [1.0, 1.3], [12.8, 12.8]]}]),
     "calibration.probe_centers[0]: -12.85000000005 is more than one cell"),
    # 10**330 is past the float range, so float() of it raises OverflowError
    ("verify", verify_config(hbar=10**330),
     "hbar: expected a finite number, got an integer too large for a float"),
    ("verify", verify_config(grid={"n": 512, "x_min": -10**330, "x_max": 12.8}),
     "grid.x_min: expected a finite number, got an integer too large"),
    ("verify", verify_config(generators=[{"kind": "gaussian", "sigma": 10**330}]),
     "generators[0].sigma: expected a finite number, got an integer too large"),
    ("verify", verify_config(warps=[{"q_knots": [[10**330, 0.0], [12.8, 12.8]]}]),
     "warps[0].q_knots[0][0]: expected a finite number, got an integer too large"),
    ("scan", dict(SCAN_CONFIG, lattice={"sigma": [10**330]}),
     "lattice.sigma[0]: expected a finite number, got an integer too large"),
    ("verify", verify_config(confidence=[]), "confidence: at least one pair required"),
    ("scan", dict(SCAN_CONFIG, lattice={}),
     "lattice: expected a nonempty object of parameter lists"),
    ("scan", dict(SCAN_CONFIG, lattice={"sigma": [1.0], "x0": [0.0], "p0": [0.0]}),
     "lattice: at most 2 parameters supported"),
    ("scan", dict(SCAN_CONFIG, lattice={"sigma": [1.0], "x0": []}),
     "lattice.x0: at least one value required"),
])
def test_config_type_errors_exit_2_with_location(tmp_path, command, cfg, key):
    out = tmp_path / "out"
    proc = run_cli("--out", str(out), command, write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    # every generator and lattice point is checked before the output
    # directory is made
    assert not out.exists()


# each a config with "BIG" in place of a JSON integer of 5,001 digits, more
# than int() converts (4,300 by default), and the error that names its key
BIG_INTEGER_CASES = {
    "lattice-sigma": ("scan", dict(SCAN_CONFIG, lattice={"sigma": ["BIG"]}),
                      "lattice.sigma[0]: expected a finite number, got inf"),
    "grid-n": ("scan", dict(SCAN_CONFIG, grid={"n": "BIG", "x_min": -12.8, "x_max": 12.8}),
               "grid.n: must be a power of two from 2 to 9007199254740992, got inf"),
    "cap": ("scan", dict(SCAN_CONFIG, cap="BIG"), "cap: expected a positive integer, got inf"),
    "hbar": ("verify", verify_config(hbar="-BIG"), "hbar: expected a finite number, got -inf"),
    "delta": ("verify", verify_config(calibration={"delta_ladder": [0.4, "BIG"]}),
              "calibration.delta_ladder[1]: expected a finite number, got inf"),
}


@pytest.mark.parametrize("case", BIG_INTEGER_CASES)
def test_an_integer_past_the_digit_limit_exits_2_naming_its_key(tmp_path, capsys, case):
    # int() converts at most 4,300 digits, and json.loads reads every
    # integer before any key is checked
    command, cfg, key = BIG_INTEGER_CASES[case]
    path = tmp_path / "cfg.json"
    digits = "1" * 5001
    path.write_text(json.dumps(cfg).replace('"BIG"', digits).replace('"-BIG"', "-" + digits))
    out = tmp_path / "out"
    rc = main(["--out", str(out), command, str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {key}\n"
    assert not out.exists()


def test_verify_at_a_huge_hbar_that_fits_is_accepted():
    # (2n - 2)*dp = 3.75e307 on the 512-point grid over +-12.8
    assert _run_verify_quietly(verify_config(hbar=3e305)) == 0


def test_config_path_that_is_a_directory_exits_2(tmp_path):
    proc = run_cli("--out", str(tmp_path / "out"), "verify", str(tmp_path))
    assert proc.returncode == 2
    assert f"error: [Errno 21] Is a directory: {str(tmp_path)!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", [True, False])
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_an_unusable_out_fails_before_any_row_is_computed(tmp_path, monkeypatch, capsys,
                                                         command, below):
    # --out below a regular file, or the file itself, fails as the output
    # directory is made, before verify_scenarios or _Workspace.widths runs
    calls = []
    verify_scenarios, widths = cli.verify_scenarios, _Workspace.widths

    def counted_verify_scenarios(*args):
        calls.append("verify_scenarios")
        return verify_scenarios(*args)

    def counted_widths(*args):
        calls.append("widths")
        return widths(*args)

    monkeypatch.setattr(cli, "verify_scenarios", counted_verify_scenarios)
    monkeypatch.setattr(_Workspace, "widths", counted_widths)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x" if below else tmp_path / "file"
    cfg = verify_config() if command == "verify" else SCAN_CONFIG
    rc = main(["--out", str(out), command, write_config(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 20] Not a directory:" if below
                          else "error: [Errno 17] File exists:")
    assert str(out) in err
    assert calls == []


def test_out_below_a_regular_file_exits_2(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    proc = run_cli("--out", str(out), "verify", write_config(tmp_path, verify_config()))
    assert proc.returncode == 2
    assert "error: [Errno 20] Not a directory:" in proc.stderr
    assert str(out) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, options, flag", [
    ("verify", ["--hbar", "nan", "--grid-n", "3"], "--hbar"),
    ("verify", ["--grid-n", "4096"], "--grid-n"),
    ("scan", ["--hbar", "2"], "--hbar"),
    ("scan", ["--grid-n", "512"], "--grid-n"),
])
def test_global_hbar_and_grid_n_rejected(tmp_path, capsys, command, options, flag):
    # verify and scan read hbar and the grid from the config alone
    cfg = verify_config() if command == "verify" else SCAN_CONFIG
    rc = main(["--out", str(tmp_path / "out"), *options, command, write_config(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{flag}:" in err and "the config supplies" in err
    assert not (tmp_path / "out").exists()


def _run_quietly(argv, keys) -> tuple:
    """Exit code and stderr of main(argv).  An exception or RuntimeWarning
    escaping main() would reach the user as a traceback, and fails here; so
    does an exit-2 message that does not start with `error: ` and one of
    keys, the inputs it may name."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    msg = err.getvalue()
    assert "Traceback" not in msg and "Warning" not in msg
    if rc == 2:
        assert any(re.match(rf"error: {re.escape(k)}[:.\[]", msg) for k in keys), msg
    return rc, msg


CONFIG_KEYS = ["config", "grid", "hbar", "confidence", "generators", "calibration", "warps"]


def _run_verify_quietly(cfg) -> int:
    """Exit code of `verify` on cfg, run by :func:`_run_quietly`: an exit-2
    message names a top-level config key."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        return _run_quietly(["--out", str(Path(tmp) / "out"), "verify", path], CONFIG_KEYS)[0]


# each grid and hbar rule that verify, scan and widths share, on a grid of
# n points over +-half: (n, half, hbar, the input named, the message)
SHARED_RULES = {
    "n-not-a-power-of-two": (3, 12.8, 1.0, "n", "must be a power of two from 2 to"),
    "span-negative": (512, -12.8, 1.0, "span", "x_max must exceed x_min"),
    "span-zero": (512, 0.0, 1.0, "span", "x_max must exceed x_min"),
    "span-overflows": (512, 1e308, 1.0, "span", "x_max - x_min overflows"),
    # dx = 3.9e154 and 3.9e-160
    "dx^2-overflows": (512, 1e157, 1.0, "span", "dx^2 must be finite"),
    "dx^2-subnormal": (512, 1e-157, 1.0, "span", "dx^2 must be finite"),
    "hbar-zero": (512, 12.8, 0.0, "hbar", "must be positive"),
    "hbar-negative": (512, 12.8, -1.0, "hbar", "must be positive"),
    "2pi-hbar-overflows": (512, 12.8, 1e308, "hbar", "2*pi*hbar and pi*hbar/dx must be"),
    # dp = 2.5e-321, and 0
    "dp-subnormal": (512, 12.8, 1e-320, "hbar", "2*pi*hbar and pi*hbar/dx must be"),
    "dp-zero": (512, 12.8, 5e-324, "hbar", "2*pi*hbar and pi*hbar/dx must be"),
    # dx = 1e-150 and dp = 9.8e-11 are normal, dp*dx^2 = 9.8e-311 is not
    "dp*dx^2-subnormal": (512, 2.56e-148, 8e-159, "hbar", "2*pi*hbar and pi*hbar/dx must be"),
}
CONFIG_NAMES = {"n": "grid.n", "span": "grid", "hbar": "hbar"}
FLAGS = {"n": "--grid-n", "span": "--window", "hbar": "--hbar"}


@pytest.mark.parametrize("command", ["verify", "scan", "widths"])
@pytest.mark.parametrize("rule", SHARED_RULES)
def test_each_command_applies_the_shared_grid_and_hbar_rules(tmp_path, rule, command):
    n, half, hbar, name, message = SHARED_RULES[rule]
    out = tmp_path / "out"
    if command == "widths":
        key = FLAGS[name]
        argv = [f"--grid-n={n}", f"--hbar={hbar!r}", "widths", "--state", "gaussian:sigma=1",
                "--eps", "0.05", f"--window={half!r}"]
    else:
        key = CONFIG_NAMES[name]
        grid = {"n": n, "x_min": -half, "x_max": half}
        cfg = verify_config(grid=grid, hbar=hbar) if command == "verify" \
            else dict(SCAN_CONFIG, grid=grid, hbar=hbar)
        argv = [command, write_config(tmp_path, cfg)]
    rc, err = _run_quietly(["--out", str(out), *argv], [key])
    assert rc == 2 and err.startswith(f"error: {key}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("message", [
    "Unable to allocate 128. GiB for an array with shape (17179869184,) and data type float64",
    ""])
@pytest.mark.parametrize("command, where, key", [
    ("verify", "marginal_measures", "grid.n"),
    ("scan", "_Workspace", "grid.n"),
    ("widths", "_Workspace", "--grid-n"),
])
def test_a_grid_too_large_for_memory_names_the_grid_size(tmp_path, monkeypatch, command,
                                                         where, key, message):
    # the first O(n) allocation of each command fails as numpy's would on a
    # grid that passes every grid rule but does not fit in memory
    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, where, out_of_memory)
    out = tmp_path / "out"
    if command == "widths":
        argv = ["widths", "--state", "gaussian:sigma=1", "--eps", "0.05"]
    else:
        argv = [command, write_config(tmp_path, verify_config() if command == "verify"
                                      else SCAN_CONFIG)]
    rc, err = _run_quietly(["--out", str(out), *argv], [key])
    want = f"error: {key}: the grid does not fit in memory"
    assert rc == 2 and err == (f"{want} ({message})\n" if message else f"{want}\n")
    # verify builds a generator's measures as its rows are computed, once
    # the output directory is made; no report is written
    if command == "verify":
        assert out.is_dir() and not any(out.iterdir())
    else:
        assert not out.exists()


# 10**330 is a JSON integer past the float range
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                         st.sampled_from([10**330, -10**330]), st.floats(),
                         st.text(max_size=3))
# on the fuzz grid, 256 points over +-12.8 (dx = 0.1): rungs anywhere from
# 2 cells to the grid length, and rungs and centers within a few 1e-9 of a
# cell of the 2-cell minimum and of one cell outside the grid
NEAR = st.one_of(st.sampled_from([-1e-9, -0.6e-9, 0.0, 1e-9]), st.floats(-4e-9, 4e-9))
RUNGS = st.one_of(st.floats(0.2, 25.6), NEAR.map(lambda t: (2 + t) * 0.1))
EDGE_CENTERS = st.one_of(NEAR.map(lambda t: -12.8 - (1 + t) * 0.1),
                         NEAR.map(lambda t: 12.7 + (1 + t) * 0.1))
LADDERS = st.one_of(
    st.permutations([0.8, 0.4, 0.2]),
    st.lists(RUNGS, min_size=1, max_size=4, unique=True).map(lambda d: sorted(d, reverse=True)),
    st.lists(st.one_of(RUNGS, JSON_SCALARS), max_size=4),
    JSON_SCALARS)
CENTERS = st.one_of(st.lists(st.one_of(st.floats(-13.0, 13.0), EDGE_CENTERS), max_size=3),
                    st.lists(JSON_SCALARS, max_size=2), JSON_SCALARS)
KINDS = st.one_of(st.sampled_from(["box", "truncated_gaussian", "spline"]), JSON_SCALARS)
CALIBRATION_EDITS = st.lists(st.one_of(
    st.tuples(st.just("delta_ladder"), LADDERS),
    st.tuples(st.just("probe_centers"), CENTERS),
    st.tuples(st.just("probe_kind"), KINDS),
    st.tuples(st.sampled_from(["probe_width", "delta"]), JSON_SCALARS)), max_size=2)


@settings(max_examples=60, deadline=None)
@given(edits=CALIBRATION_EDITS,
       drop=st.sampled_from([None] * 4 + ["delta_ladder", "probe_centers", "probe_kind"]))
@example(edits=[("delta_ladder", [0.4, (2 - 1e-9) * 0.1])], drop=None)
@example(edits=[("delta_ladder", [0.4, (2 - 0.6e-9) * 0.1]),
                ("probe_centers", [-12.8 - (1 + 1e-9) * 0.1])], drop=None)
def test_calibration_fuzz_exits_with_a_documented_code(edits, drop):
    block = {"delta_ladder": [0.8, 0.4, 0.2], "probe_centers": [0.0], "probe_kind": "box"}
    block.update(edits)
    block.pop(drop, None)
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8}, calibration=block,
                        warps=[{"name": "bend", "q_knots": [[-12.8, -12.8], [-1.0, -0.7],
                                                            [1.0, 1.3], [12.8, 12.8]]}])
    assert _run_verify_quietly(cfg) in {0, 1, 2}


def test_knots_far_past_the_grid_pile_the_outcome_at_its_edges(tmp_path):
    # y = 7.8e298 x sends each side of x = 0 to an edge of the 2n - 1 cell
    # outcome grid, so every centered window that holds 1 - eps of a probe's
    # outcome spans the whole grid: 51.0 at n = 256 on +-12.8
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                        warps=[{"q_knots": [[-12.8, -1e300], [12.8, 1e300]]}])
    assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
    row = (tmp_path / "out" / "report.csv").read_text().splitlines()[-1].split(",")
    warped = dict(zip(REPORT_COLUMNS, row))
    assert warped["scenario_id"] == "gen0-warp0-eps0"
    assert float(warped["resolution_q"]) == float(warped["errorbar_q"]) == 51.0


def test_knot_at_float_max_overflows_only_past_the_grid(tmp_path):
    # slope 3.9e306: the map's images overflow to inf right of x = -12.8 and
    # land on the last outcome cell, so the window tables' warp cells, which
    # end at a reach, must widen from clipped cells alone (51.0 as above);
    # the p column and the unwarped row are those of the plain kernel
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                        warps=[{"q_knots": [[-12.8, -12.8], [12.8, 1e308]]}])
    assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()[2:]
    plain, warped = (dict(zip(REPORT_COLUMNS, row.split(","))) for row in rows)
    assert warped["scenario_id"] == "gen0-warp0-eps0"
    assert float(warped["resolution_q"]) == float(warped["errorbar_q"]) == 51.0
    assert (plain["resolution_q"], plain["errorbar_q"]) == ("3.90000e+00", "4.00000e+00")
    for col in ("resolution_p", "errorbar_p", "errorbar_p_spread"):
        assert warped[col] == plain[col]


KNOT_VALUES = st.one_of(st.floats(-14.0, 14.0), st.floats(),
                        st.sampled_from([1e300, -1e300, 1e308, "nan"]), JSON_SCALARS)
# increasing knots over either axis' range; slope 1 is a covariant shift
MONOTONE = st.builds(lambda xs, slope, shift: [[x, slope * x + shift] for x in sorted(xs)],
                     st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=4, unique=True),
                     st.sampled_from([1.0, 1.1, 0.5, 1e300]), st.floats(-2.0, 2.0))


def _replace_knot_value(knots, edit):
    if edit is not None:
        j, c, value = edit
        knots[j % len(knots)][c] = value
    return knots


# one_of flattens nested one_of branches, so a few fixed values stand for
# the wrong JSON types and the increasing knot lists keep most examples
NOT_A_LIST = st.sampled_from([None, True, 3, 0.5, "q", {"x": 1.0}])
KNOTS = st.one_of(
    MONOTONE, MONOTONE,
    st.builds(_replace_knot_value, MONOTONE,
              st.tuples(st.integers(0, 3), st.integers(0, 1), KNOT_VALUES)),
    st.lists(st.lists(KNOT_VALUES, max_size=3), max_size=3),
    NOT_A_LIST)
WARP = st.fixed_dictionaries({}, optional={"name": st.one_of(st.text(max_size=3), NOT_A_LIST),
                                           "q_knots": KNOTS, "p_knots": KNOTS})
WARPS = st.one_of(st.lists(WARP, min_size=1, max_size=2), NOT_A_LIST)


@settings(max_examples=60, deadline=None)
@given(warps=WARPS)
@example(warps=[{"q_knots": [[-12.8, -12.8], [12.8, 1e308]]}])
def test_warps_fuzz_exits_with_a_documented_code(warps):
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                        calibration={"delta_ladder": [0.4, 0.2], "probe_centers": [0.0, 1.5]},
                        warps=warps)
    assert _run_verify_quietly(cfg) in {0, 1, 2}


def _mostly(valid, odd):
    """Mostly `valid`, so most examples get past the parser; `odd` when a
    drawn integer in [0, 3] is 0."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else valid)


def _normalized(components):
    total = sum(c["weight"] for c in components)
    return [dict(c, weight=c["weight"] / total) for c in components] if total > 0 \
        else components


GAUSSIAN_KEYS = {"sigma": st.floats(0.05, 2.0), "x0": st.floats(-5.0, 5.0),
                 "p0": st.floats(-40.0, 40.0)}
GAUSSIAN = st.fixed_dictionaries({"kind": st.just("gaussian"), "sigma": GAUSSIAN_KEYS["sigma"]},
                                 optional={k: GAUSSIAN_KEYS[k] for k in ("x0", "p0")})
COMPONENT = st.fixed_dictionaries(
    {"weight": st.one_of(st.sampled_from([0.5, 0.25, 0.0, 1.0]), st.floats(-0.2, 1.2)),
     "sigma": GAUSSIAN_KEYS["sigma"]},
    optional={k: GAUSSIAN_KEYS[k] for k in ("x0", "p0")})
COMPONENTS = st.lists(COMPONENT, min_size=1, max_size=3)
MIXTURE = st.fixed_dictionaries({"kind": st.just("mixture"), "components": st.one_of(
    COMPONENTS.map(_normalized), COMPONENTS.map(_normalized), COMPONENTS)})
# wrong types, kinds, missing or extra keys
ODD_GENERATOR = st.one_of(NOT_A_LIST, st.fixed_dictionaries(
    {}, optional={"kind": st.one_of(st.sampled_from(["gaussian", "mixture"]), JSON_SCALARS),
                  "components": st.one_of(st.lists(COMPONENT, max_size=1), JSON_SCALARS),
                  "weight": JSON_SCALARS, "sigma": JSON_SCALARS, "x0": JSON_SCALARS,
                  "p0": st.one_of(st.floats(), JSON_SCALARS)}))
GENERATORS = _mostly(st.lists(st.one_of(GAUSSIAN, MIXTURE), min_size=1, max_size=2),
                     st.one_of(st.lists(st.one_of(GAUSSIAN, MIXTURE, ODD_GENERATOR), max_size=2),
                               NOT_A_LIST))


# on the fuzz grid (n = 256, dx = 0.1) the momentum window span (2n - 2)*dp
# overflows from hbar = 1.44e306 on; the example runs that case every time.
# From 1e-310 down, dp is subnormal or 0
HBARS = _mostly(st.sampled_from([1.0, 0.5, 1e305, 1e306, 3e306,
                                 1e-310, 1e-315, 1e-320, 5e-324]), JSON_SCALARS)


@settings(max_examples=60, deadline=None)
@given(generators=GENERATORS, hbar=HBARS)
@example(generators=[{"kind": "gaussian", "sigma": 1.0}], hbar=3e306)
@example(generators=[{"kind": "gaussian", "sigma": 1.0}], hbar=1e-320)
def test_generators_fuzz_exits_with_a_documented_code(generators, hbar):
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8}, hbar=hbar,
                        generators=generators,
                        warps=[{"name": "bend", "p_knots": P_BEND}])
    assert _run_verify_quietly(cfg) in {0, 1, 2}


# n stays small: a power of two up to 1024; verify needs a grid symmetric about 0
GRID_BLOCK = st.builds(lambda n, x_min, x_max: {"n": n, "x_min": x_min,
                                                "x_max": -x_min if x_max is None else x_max},
                       st.sampled_from([2, 4, 8, 64, 256, 1024]), st.floats(-40.0, -1.0),
                       st.one_of(st.none(), st.none(), st.floats(1.0, 40.0)))
# wrong types and values, missing or extra keys
ODD_GRID = st.fixed_dictionaries({}, optional={
    "n": st.one_of(st.sampled_from([256, 3, 0, -4, 2.0, 1e300, True, "256"]), st.none()),
    "x_min": st.one_of(st.floats(), JSON_SCALARS), "x_max": st.one_of(st.floats(), JSON_SCALARS),
    "dx": JSON_SCALARS})


@settings(max_examples=60, deadline=None)
@given(grid=_mostly(GRID_BLOCK, st.one_of(ODD_GRID, NOT_A_LIST)))
def test_grid_fuzz_exits_with_a_documented_code(grid):
    # the ladder is three and two cells of a grid that parses, so most
    # examples get past the calibration block to the states
    ladder = [3.0, 2.0]
    try:
        ladder = [k * (grid["x_max"] - grid["x_min"]) / grid["n"] for k in ladder]
    except (KeyError, TypeError, ZeroDivisionError, OverflowError):
        pass
    cfg = verify_config(grid=grid, calibration={"delta_ladder": ladder,
                                                "probe_centers": [0.0, 1.5]},
                        generators=[{"kind": "gaussian", "sigma": 0.5},
                                    {"kind": "mixture", "components": [
                                        {"weight": 0.5, "sigma": 0.4, "x0": -0.3, "p0": 0.7},
                                        {"weight": 0.5, "sigma": 0.6, "x0": 0.2}]}],
                        warps=[{"name": "bend", "q_knots": [[-1.0, -0.8], [1.0, 1.3]]}])
    assert _run_verify_quietly(cfg) in {0, 1, 2}


# n stays at most 4096, the default; the odd values never allocate
WIDTHS_GRID_N = _mostly(st.sampled_from(["2", "4", "64", "512", "1024", None]),
                        st.sampled_from(["3", "0", "-4", str(2**54), str(2**1100), "2.0", "x"]))
EXTREME_FLOATS = st.sampled_from([0.0, -16.0, 5e-324, 1e-320, 1e-310, 1e-157, 1e-150,
                                  1e155, 1e158, 1e300, 1e308, math.inf, math.nan])
WIDTHS_WINDOW = _mostly(st.one_of(st.none(), st.floats(0.5, 100.0)),
                        st.one_of(EXTREME_FLOATS, st.floats()))
WIDTHS_HBAR = _mostly(st.one_of(st.none(), st.floats(0.01, 10.0)),
                      st.one_of(EXTREME_FLOATS, st.floats()))
STATE_VALUES = st.one_of(st.floats(-5.0, 5.0), st.floats(0.05, 3.0), EXTREME_FLOATS,
                         st.floats(), st.sampled_from(["", "x", "1,"]))
STATE_SPEC = st.builds(
    lambda kind, params: kind + (":" if params else "")
    + ",".join(f"{k}={v}" for k, v in params.items()),
    st.sampled_from(["gaussian", "gaussian", "box", "airy", ""]),
    st.dictionaries(st.sampled_from(["sigma", "x0", "p0", "center", "width", "skew"]),
                    STATE_VALUES, max_size=3))
WIDTHS_EPS = st.one_of(st.sampled_from(["0.05", "0.05,0.1", "0.3", "0.6", "0.05,0.05,0.9",
                                        "1.5", "0", "nan", "abc", ""]),
                       st.floats(0.0, 1.0).map(repr))
WIDTHS_FLAGS = ["--grid-n", "--window", "--hbar", "--eps", "state spec"]


def _flag(name, value, spaced) -> list:
    """`name=value`, or `name value` as two arguments; None gives no flag."""
    if value is None:
        return []
    return [name, repr(value)] if spaced else [f"{name}={value!r}"]


@settings(max_examples=120, deadline=None)
@given(grid_n=WIDTHS_GRID_N, window=WIDTHS_WINDOW, hbar=WIDTHS_HBAR, state=STATE_SPEC,
       eps=WIDTHS_EPS, spaced=st.booleans())
@example(grid_n=None, window=None, hbar=1e-320, state="gaussian:sigma=1", eps="0.05",
         spaced=False)
@example(grid_n=None, window=-1e5, hbar=-math.inf, state="gaussian:sigma=1", eps="0.05",
         spaced=True)
def test_widths_fuzz_exits_with_a_documented_code(grid_n, window, hbar, state, eps, spaced):
    # None leaves a flag at its default; a --window or --hbar value is a
    # float, which argparse must pass on, also as a separate argument
    argv = ([f"--grid-n={grid_n}"] * (grid_n is not None) + _flag("--hbar", hbar, spaced)
            + ["widths", f"--state={state}", f"--eps={eps}"]
            + _flag("--window", window, spaced))
    try:
        rc = _run_quietly(argv, WIDTHS_FLAGS)[0]
    except SystemExit as exc:   # argparse's usage error: only --grid-n=x or =2.0
        assert exc.code == 2 and grid_n in {"x", "2.0"}
        return
    assert rc in {0, 1, 2}


class TestWidths:
    def test_defaults_are_hbar_1_and_4096_points(self, capsys):
        argv = ["widths", "--state", "gaussian:sigma=1", "--eps", "0.05", "--window", "16"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(["--hbar", "1", "--grid-n", "4096", *argv]) == 0
        assert capsys.readouterr().out == default

    def test_nan_sigma_is_a_config_error(self, capsys):
        rc = main(["--grid-n", "1024", "widths",
                   "--state", "gaussian:sigma=nan", "--eps", "0.05", "--window", "16"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_gaussian_state_passes(self, capsys):
        rc = main(["--grid-n", "1024", "widths",
                   "--state", "gaussian:sigma=1", "--eps", "0.05", "--window", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "width_q" in out and "passed         true" in out

    def test_eps_pair_accepted(self, capsys):
        rc = main(["--grid-n", "1024", "widths",
                   "--state", "box:width=2,center=0", "--eps", "0.05,0.1",
                   "--window", "16"])
        assert rc == 0

    @pytest.mark.parametrize("argv, want", [
        (["widths", "--state", "gaussian:sigma=1", "--eps", "0.05"],
         ["3.90625e+00", "1.88496e+00", "7.36311e+00", "5.08938e+00", "5.08938e+00",
          "1.44676e+00", "true"]),
        (["--grid-n", "1024", "widths", "--state", "box:width=2,center=0",
          "--eps", "0.05,0.1", "--window", "16"],
         ["1.90625e+00", "5.10509e+00", "9.73157e+00", "4.53960e+00", "4.58191e+00",
          "2.12391e+00", "true"]),
        # p0 != 0: complex amplitudes and the complex FFT
        (["--grid-n", "1024", "widths", "--state", "gaussian:sigma=0.8,x0=1.5,p0=2",
          "--eps", "0.05,0.1", "--window", "16"],
         ["3.12500e+00", "1.96350e+00", "6.13592e+00", "4.53960e+00", "4.58191e+00",
          "1.33916e+00", "true"]),
        # the momentum grid's x_min + 255*dp overflows; its true last point does not
        (["--hbar", "3e306", "--grid-n", "256", "widths", "--state", "gaussian:sigma=1",
          "--eps", "0.05", "--window", "12.8"],
         ["3.90000e+00", "5.89049e+306", "2.29729e+307", "1.52681e+307", "1.52681e+307",
          "1.50463e+00", "true"]),
    ])
    def test_stdout_pinned(self, capsys, argv, want):
        assert main(argv) == 0
        labels = ["width_q", "width_p", "product", "bound_simple", "bound_uffink",
                  "ratio_uffink", "passed"]
        assert capsys.readouterr().out == "".join(
            f"{label:14s} {cell}\n" for label, cell in zip(labels, want))

    def test_unknown_state_kind(self):
        assert main(["widths", "--state", "airy:sigma=1", "--eps", "0.05"]) == 2

    def test_unknown_state_parameter(self):
        assert main(["widths", "--state", "gaussian:skew=2", "--eps", "0.05"]) == 2

    @pytest.mark.parametrize("state, eps, key", [
        ("gaussian:sigma=1", "0.05,0.05,0.9", "--eps"),
        ("gaussian:sigma=1", "0.05,abc", "--eps"),
        ("gaussian:sigma=1", "0.05,1.5", "--eps"),
        ("gaussian:sigma=1", "nan", "--eps"),
        ("gaussian:sigma=abc", "0.05", "state spec: sigma"),
        ("box:width=2,center=x", "0.05", "state spec: center"),
        ("gaussian:sigma=1,sigma=2", "0.05", "state spec: sigma: given twice"),
    ])
    def test_bad_input_names_the_argument(self, capsys, state, eps, key):
        rc = main(["--grid-n", "1024", "widths", "--state", state, "--eps", eps,
                   "--window", "16"])
        assert rc == 2
        assert key in capsys.readouterr().err

    # 2^1100 does not convert to a float, and it crashed the grid step
    @pytest.mark.parametrize("grid_n", ["3", str(2**54), str(2**1100)],
                             ids=["3", "2^54", "2^1100"])
    def test_bad_grid_n_names_the_argument(self, capsys, grid_n):
        rc = main(["--grid-n", grid_n, "widths", "--state", "gaussian:sigma=1", "--eps", "0.05"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --grid-n: must be a power of two from 2 to 9007199254740992, got ")

    # 1e158 and 1e300: dx^2 overflows; 5e-324: dx underflows to 0; -1e5 to
    # -nan fall outside argparse's own negative-number pattern
    @pytest.mark.parametrize("window, state", [
        ("inf", "gaussian:sigma=1"), ("0", "gaussian:sigma=1"), ("-16", "gaussian:sigma=1"),
        ("1e308", "gaussian:sigma=1"), ("1e158", "box:width=2.5e157"),
        ("1e300", "gaussian:sigma=1e299"), ("5e-324", "gaussian:sigma=1"),
        ("-1e5", "gaussian:sigma=1"), ("-1.5E+2", "gaussian:sigma=1"),
        ("-inf", "gaussian:sigma=1"), ("-Infinity", "gaussian:sigma=1"),
        ("-nan", "gaussian:sigma=1")],
        ids=["inf", "0", "-16", "1e308", "1e158-box", "1e300-gaussian", "5e-324",
             "-1e5", "-1.5E+2", "-inf", "-Infinity", "-nan"])
    def test_bad_window_names_the_argument(self, capsys, recwarn, window, state):
        rc = main(["--grid-n", "1024", "widths", "--state", state,
                   "--eps", "0.05", "--window", window])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --window:")
        assert not recwarn.list

    # 1e308: 2 pi hbar overflows; 1e307: pi hbar / dx does, with dx = 1/32;
    # 1e-323: dp underflows to 0; -1e-3 and -inf fall outside argparse's own
    # negative-number pattern
    @pytest.mark.parametrize("hbar", ["nan", "inf", "-1", "0", "1e308", "1e307", "1e-323",
                                      "-1e-3", "-inf"])
    def test_bad_hbar_names_the_argument(self, capsys, recwarn, hbar):
        rc = main(["--grid-n", "1024", "--hbar", hbar, "widths", "--state", "gaussian:sigma=1",
                   "--eps", "0.05", "--window", "16"])
        assert rc == 2
        assert "--hbar:" in capsys.readouterr().err
        assert not recwarn.list

    def test_huge_hbar_that_fits_is_accepted(self, capsys, recwarn):
        assert main(["--hbar", "1e300", "widths", "--state", "gaussian:sigma=1",
                     "--eps", "0.05"]) == 0
        assert "passed         true" in capsys.readouterr().out
        assert not recwarn.list


class TestMomentumCoverage:
    """A Gaussian whose 8 sigma_p momentum spread leaves the +-pi hbar / dx
    momentum grid would wrap around it; each command rejects it, names its
    input, and warns nothing."""

    @pytest.mark.parametrize("lattice, point", [
        ({"p0": [1e6]}, "lattice point p0=1000000.0: momentum grid"),
        ({"sigma": [1e-300]}, "lattice point sigma=1e-300: momentum grid"),
        ({"sigma": [1.0, 0.01], "x0": [0.0]}, "lattice point sigma=0.01, x0=0.0: momentum grid"),
    ])
    def test_scan_names_the_lattice_point(self, tmp_path, capsys, recwarn, lattice, point):
        cfg = {"grid": {"n": 1024, "x_min": -40.0, "x_max": 40.0}, "eps": [0.05, 0.05],
               "family": "gaussian", "lattice": lattice}
        rc = main(["--out", str(tmp_path / "out"), "scan", write_config(tmp_path, cfg)])
        assert rc == 2
        assert point in capsys.readouterr().err
        assert not (tmp_path / "out" / "scan.csv").exists()
        assert not recwarn.list

    @pytest.mark.parametrize("generator, where", [
        ({"kind": "gaussian", "sigma": 0.01}, "generators[0]: momentum grid"),
        ({"kind": "gaussian", "sigma": 1.0, "p0": 60.0}, "generators[0]: momentum grid"),
        ({"kind": "mixture", "components": [{"weight": 0.5, "sigma": 1.0},
                                            {"weight": 0.5, "sigma": 1e-300}]},
         "generators[0].components[1]: momentum grid"),
    ])
    def test_verify_names_the_generator(self, tmp_path, capsys, recwarn, generator, where):
        cfg = verify_config(generators=[generator])  # n = 512 over +-12.8: p_max = 62.8
        rc = main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)])
        assert rc == 2
        assert where in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("state, window, where", [
        ("gaussian:sigma=0.01", "40", "state spec: momentum grid"),  # p_max = 160.8
        ("gaussian:sigma=1e-300", "40", "state spec: momentum grid"),
        ("gaussian:sigma=1,p0=1e6", "40", "state spec: momentum grid"),
        ("gaussian:sigma=1e155", "1e156", "state spec: 4 sigma^2 must be finite"),
        ("gaussian:sigma=1e153", "1e155", "state spec: (x - x0)^2 must be finite"),
        ("box:width=inf", "40", "state spec: box center and width must be finite"),
    ], ids=["gaussian:sigma=0.01", "gaussian:sigma=1e-300", "gaussian:sigma=1,p0=1e6",
            "gaussian:sigma=1e155", "gaussian:sigma=1e153", "box:width=inf"])
    def test_widths_names_the_state_spec(self, capsys, recwarn, state, window, where):
        rc = main(["widths", "--state", state, "--eps", "0.05", "--window", window])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")
        assert not recwarn.list


class TestScan:
    def scan_config(self, **overrides):
        cfg = {
            "grid": {"n": 512, "x_min": -12.8, "x_max": 12.8},
            "eps": [0.05, 0.05],
            "family": "gaussian",
            "lattice": {"sigma": [0.8, 1.0, 1.2], "x0": [0.0, 1.0]},
        }
        cfg.update(overrides)
        return cfg

    def test_lattice_rows_written(self, tmp_path, capsys):
        path = write_config(tmp_path, self.scan_config())
        rc = main(["--out", str(tmp_path / "out"), "scan", path])
        assert rc == 0
        lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        assert lines[0] == REPORT_VERSION
        # parameters are ordered by name: sigma, x0
        assert lines[1].split(",")[:2] == ["sigma", "x0"]
        assert len(lines) == 2 + 3 * 2

    def test_product_clears_bound_on_lattice(self, tmp_path):
        path = write_config(tmp_path, self.scan_config())
        main(["--out", str(tmp_path / "out"), "scan", path])
        lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        cols = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(cols, line.split(",")))
            assert float(row["ratio_uffink"]) >= 0.95

    def test_cap_enforced(self, tmp_path):
        cfg = self.scan_config(lattice={"sigma": [1.0] * 40, "x0": [0.0] * 40},
                               cap=100)
        assert main(["scan", write_config(tmp_path, cfg)]) == 2

    def test_unknown_lattice_parameter(self, tmp_path):
        cfg = self.scan_config(lattice={"chirp": [1.0]})
        assert main(["scan", write_config(tmp_path, cfg)]) == 2

    def test_box_rows_hold_the_cells_widths_prints(self, tmp_path, capsys):
        # a scan family is any `--state` kind, with its parameters as the lattice's
        lattice = {"center": [-1.5, 0.25], "width": [1.0, 2.5, 6.0]}
        cfg = self.scan_config(grid={"n": 1024, "x_min": -16.0, "x_max": 16.0}, hbar=0.37,
                               eps=[0.05, 0.1], family="box", lattice=lattice)
        assert main(["--out", str(tmp_path / "out"), "scan", write_config(tmp_path, cfg)]) == 0
        capsys.readouterr()
        rows = list(csv.reader((tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]))
        assert rows[0] == ["center", "width"] + PRODUCT_COLUMNS
        assert len(rows) == 1 + 2 * 3
        for row, (center, width) in zip(rows[1:], itertools.product(*lattice.values())):
            rc = main(["--grid-n", "1024", "--hbar", "0.37", "widths",
                       "--state", f"box:center={center!r},width={width!r}",
                       "--eps", "0.05,0.1", "--window", "16"])
            assert rc in (0, 1)
            printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
            assert row[2:] == printed[:len(PRODUCT_COLUMNS)]

    def test_scan_csv_bytes_pinned(self, tmp_path):
        cfg = self.scan_config(grid={"n": 1024, "x_min": -40.0, "x_max": 40.0},
                               eps=[0.05, 0.1],
                               lattice={"sigma": [0.8, 1.7, 3.1], "x0": [-2.5, 1.25]})
        rc = main(["--out", str(tmp_path / "out"), "scan", write_config(tmp_path, cfg)])
        assert rc == 0
        rows = [
            "8.00000e-01,-2.50000e+00,3.12500e+00,2.04204e+00,6.38136e+00",
            "8.00000e-01,1.25000e+00,3.12500e+00,2.04204e+00,6.38136e+00",
            "1.70000e+00,-2.50000e+00,6.64062e+00,9.42478e-01,6.25864e+00",
            "1.70000e+00,1.25000e+00,6.64062e+00,9.42478e-01,6.25864e+00",
            "3.10000e+00,-2.50000e+00,1.21094e+01,4.71239e-01,5.70641e+00",
            "3.10000e+00,1.25000e+00,1.21094e+01,4.71239e-01,5.70641e+00",
        ]
        ratios = ["1.39273e+00", "1.39273e+00", "1.36595e+00", "1.36595e+00",
                  "1.24542e+00", "1.24542e+00"]
        want = ("# uncert-report v1\n"
                "sigma,x0,width_q,width_p,product,bound_simple,bound_uffink,ratio_uffink\r\n"
                + "".join(f"{row},4.53960e+00,4.58191e+00,{r}\r\n"
                          for row, r in zip(rows, ratios)))
        assert (tmp_path / "out" / "scan.csv").read_bytes() == want.encode()

    def test_scan_csv_bytes_pinned_with_momentum_boosts(self, tmp_path):
        # p0 != 0 gives complex amplitudes: those rows take the full complex
        # FFT, the p0 = 0 rows the real one
        cfg = self.scan_config(grid={"n": 1024, "x_min": -40.0, "x_max": 40.0},
                               eps=[0.05, 0.1],
                               lattice={"sigma": [0.8, 1.7, 3.1], "p0": [-2.25, 0.0, 1.5]})
        rc = main(["--out", str(tmp_path / "out"), "scan", write_config(tmp_path, cfg)])
        assert rc == 0
        widths = [("8.00000e-01", "3.12500e+00,2.04204e+00,6.38136e+00", "1.39273e+00"),
                  ("1.70000e+00", "6.64062e+00,9.42478e-01,6.25864e+00", "1.36595e+00"),
                  ("3.10000e+00", "1.21094e+01,4.71239e-01,5.70641e+00", "1.24542e+00")]
        want = ("# uncert-report v1\n"
                "p0,sigma,width_q,width_p,product,bound_simple,bound_uffink,ratio_uffink\r\n"
                + "".join(f"{p0},{sigma},{w},4.53960e+00,4.58191e+00,{r}\r\n"
                          for p0 in ("-2.25000e+00", "0.00000e+00", "1.50000e+00")
                          for sigma, w, r in widths))
        assert (tmp_path / "out" / "scan.csv").read_bytes() == want.encode()

    def test_workload_scale_scan_csv_pinned(self, tmp_path):
        # tests/golden/scan_lattice: the seed-0 scan-lattice benchmark config,
        # a 26 x 10 sigma x x0 lattice at n = 16384, and the scan.csv it writes
        golden = GOLDEN / "scan_lattice"
        rc = main(["--out", str(tmp_path / "out"), "scan", str(golden / "config.json")])
        assert rc == 0
        assert (tmp_path / "out" / "scan.csv").read_bytes() == \
            (golden / "scan.csv").read_bytes()

    def test_momentum_boost_scan_csv_pinned(self, tmp_path):
        # tests/golden/scan_p0: a sigma x p0 lattice at n = 1024 on +-40; the
        # p0 != 0 points have complex amplitudes and take the complex FFT
        golden = GOLDEN / "scan_p0"
        rc = main(["--out", str(tmp_path / "out"), "scan", str(golden / "config.json")])
        assert rc == 0
        assert (tmp_path / "out" / "scan.csv").read_bytes() == \
            (golden / "scan.csv").read_bytes()


    def test_left_edge_box_scan_csv_pinned(self, tmp_path):
        # tests/golden/scan_box_edge: boxes at the center and at the left
        # edge of n = 1024 on +-12.8; the real FFT writes bin 0 into the
        # first prefix sum, which must read 0 again before the next search
        golden = GOLDEN / "scan_box_edge"
        rc = main(["--out", str(tmp_path / "out"), "scan", str(golden / "config.json")])
        assert rc == 0
        assert (tmp_path / "out" / "scan.csv").read_bytes() == \
            (golden / "scan.csv").read_bytes()

    @staticmethod
    def traced_peak(argv) -> int:
        """The tracemalloc peak of main(argv), after one untraced warm-up call."""
        assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_workload_scale_scan_peak_memory(self, tmp_path):
        # the seed-0 scan-lattice config, 26 x 10 points at n = 16384: the
        # points, amplitudes and prefix sums are 0.375 MiB; a separate real
        # FFT array and every row's formatted cells traced 0.67 MiB
        peak = self.traced_peak(["--out", str(tmp_path / "out"), "scan",
                                 str(GOLDEN / "scan_lattice" / "config.json")])
        assert peak < 0.45 * 2**20

    def test_scan_memory_per_point_is_two_floats(self, tmp_path):
        # 16 bytes a point hold its two widths; each row's cells are made as
        # it is written.  Holding every row's formatted cells grew the peak
        # by about 630 bytes a point
        peaks = []
        for n_sigma, n_x0 in ((10, 20), (40, 50)):
            cfg = self.scan_config(
                grid={"n": 64, "x_min": -12.8, "x_max": 12.8},
                lattice={"sigma": [1.0 + 0.01 * i for i in range(n_sigma)],
                         "x0": [0.02 * j - 0.5 for j in range(n_x0)]})
            peaks.append(self.traced_peak(["--out", str(tmp_path / "out"), "scan",
                                           write_config(tmp_path, cfg)]))
        assert peaks[1] - peaks[0] <= 32 * (40 * 50 - 10 * 20)


def _public_widths(kind, params, grid, eps):
    """(width_q, width_p) of a STATE_PARAMS state through the public functions."""
    if kind == "gaussian":
        psi = gaussian_state(params["x0"], params["p0"], params["sigma"], grid, 1.0)
    else:
        psi = box_state(params["center"], params["width"], grid, 1.0)
    rho = MixedState.pure(psi)
    return (overall_width(position_distribution(rho), eps.eps1),
            overall_width(momentum_distribution(rho), eps.eps2))


def _workspace_widths(ws, kind, params, eps):
    return ws.widths(ws.state(kind, params), eps)


def gaussian(x0, p0, sigma):
    return "gaussian", {"x0": x0, "p0": p0, "sigma": sigma}


def box(center, width):
    return "box", {"center": center, "width": width}


@st.composite
def scan_points(draw):
    """A grid and two states on it: Gaussians, each with 8 sigma around x0 on
    the grid and 8 sigma_p around p0 within the momentum grid's +-pi / dx,
    and boxes, each at least 2 dx wide and on the grid."""
    n = draw(st.sampled_from([256, 1024, 4096, 16384]))
    half = draw(st.sampled_from([10.0, 40.0]))
    grid = GridSpec(-half, 2 * half / n, n)
    p_max = math.pi / grid.dx

    def point():
        x0 = draw(st.floats(-0.4, 0.4)) * half
        room = min(x0 - grid.x_min, grid.x_max - x0)
        if draw(st.booleans()):
            lo, hi = 2.0 * grid.dx, 2.0 * room
            return box(x0, lo * (hi / lo) ** draw(st.floats(0.0, 1.0)))
        p0 = draw(st.sampled_from([0.0, 0.0, draw(st.floats(-0.4, 0.4)) * p_max]))
        lo, hi = 4.0 / (p_max - abs(p0)), room / 8.0
        return gaussian(x0, p0, lo * (hi / lo) ** draw(st.floats(0.001, 0.999)))

    eps = ConfidencePair(draw(st.floats(0.01, 0.3)), draw(st.floats(0.01, 0.3)))
    return grid, point(), point(), eps


class TestWorkspace:
    """The one state-to-widths path of `widths` and `scan` gives the public
    functions' bits, and its reused arrays carry nothing from one state to
    the next."""

    @settings(max_examples=150, deadline=None)
    @given(scan_points())
    def test_widths_equal_the_public_functions(self, case):
        grid, before, point, eps = case
        ws = _Workspace(grid, 1.0)
        _workspace_widths(ws, *before, eps)
        assert _workspace_widths(ws, *point, eps) == _public_widths(*point, grid, eps)

    def test_reversed_lattice_gives_the_same_rows(self, tmp_path):
        lattice = {"sigma": [0.6, 1.1, 2.3, 3.4], "x0": [-3.0, 0.0, 2.5]}
        rows = {}
        for order in ("forward", "reversed"):
            lat = {k: (v if order == "forward" else v[::-1]) for k, v in lattice.items()}
            cfg = {"grid": {"n": 4096, "x_min": -40.0, "x_max": 40.0}, "eps": [0.05, 0.1],
                   "family": "gaussian", "lattice": lat}
            out = tmp_path / order
            assert main(["--out", str(out), "scan", write_config(tmp_path, cfg)]) == 0
            rows[order] = sorted((out / "scan.csv").read_text().splitlines()[2:])
        assert rows["forward"] == rows["reversed"]

    @pytest.mark.parametrize("bad", [gaussian(0.0, 0.0, 1e-300), gaussian(0.0, 1e6, 1.0),
                                     gaussian(39.0, 0.0, 1.0), box(0.0, 1e-3)])
    def test_a_failed_point_leaves_no_trace(self, bad):
        grid, eps = GridSpec(-40.0, 80.0 / 4096, 4096), ConfidencePair(0.05, 0.05)
        ws = _Workspace(grid, 1.0)
        _workspace_widths(ws, *gaussian(1.0, 0.0, 0.7), eps)
        with pytest.raises(ValueError):
            _workspace_widths(ws, *bad, eps)
        for point in (gaussian(-2.0, 0.0, 2.9), box(0.5, 3.0)):
            assert _workspace_widths(ws, *point, eps) == _public_widths(*point, grid, eps)

    def test_a_point_allocates_no_grid_length_array(self):
        grid, eps = GridSpec(-40.0, 80.0 / 16384, 16384), ConfidencePair(0.05, 0.05)
        ws = _Workspace(grid, 1.0)
        _workspace_widths(ws, *gaussian(0.0, 0.0, 1.0), eps)
        tracemalloc.start()
        try:
            for point in [gaussian(-4.5, 0.0, 0.5), gaussian(0.0, 0.0, 1.7),
                          gaussian(3.5, 0.0, 3.0), box(-1.0, 2.5)]:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                _workspace_widths(ws, *point, eps)
                assert tracemalloc.get_traced_memory()[1] - base < grid.n  # bytes
        finally:
            tracemalloc.stop()


def test_parser_is_built_once():
    # each parser's objects form reference cycles that only the cyclic
    # collector frees, so main reuses one
    assert build_parser() is build_parser()


def test_cli_import_does_not_load_scipy():
    code = "import sys, uncert.cli; sys.exit('scipy' in sys.modules)"
    assert run_python("-c", code).returncode == 0


def test_import_uncert_loads_the_four_modules_and_exports_no_other_name():
    # each name is imported from the module that defines it, so the
    # package's own namespace holds its modules and __version__ alone
    code = ("import sys, uncert; "
            "print(sorted(n for n in vars(uncert) if not n.startswith('_'))); "
            "print([f'uncert.{m}' in sys.modules for m in "
            "('grids', 'states', 'observables', 'metrology')]); print(uncert.__version__)")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['grids', 'metrology', 'observables', 'states']", "[True, True, True, True]", "0.1.0"]
