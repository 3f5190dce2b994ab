import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import uncert
from uncert import metrology, observables
from uncert.cli import REPORT_COLUMNS, REPORT_VERSION, main
from uncert.grids import centered_width, uniform_measure
from uncert.observables import Kernel, PiecewiseLinearMap

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
        # two-knot shift of both axes, which keeps its edge clipping
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
        # _warp_cells or Kernel.smear call carries one of the given maps, and
        # only the covariant shift builds a point mass's outcome
        seen = []
        warp_cells, smear = observables._warp_cells, Kernel.smear

        def counted_warp_cells(g, gmap):
            seen.append(("warp_cells", gmap))
            return warp_cells(g, gmap)

        def counted_smear(self, P, conv=None):
            seen.append(("smear", self.gmap))
            return smear(self, P, conv)

        monkeypatch.setattr(metrology, "_warp_cells", counted_warp_cells)
        monkeypatch.setattr(observables, "_warp_cells", counted_warp_cells)
        monkeypatch.setattr(Kernel, "smear", counted_smear)
        cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                            calibration={"delta_ladder": [0.4, 0.2],
                                         "probe_centers": [0.0, 1.5]},
                            warps=[{"name": "pbend", "p_knots": P_BEND},
                                   {"name": "qshift", "q_knots": Q_SHIFT}])
        assert main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)]) == 0
        bend, shift = (PiecewiseLinearMap(*zip(*knots)) for knots in (P_BEND, Q_SHIFT))
        assert set(seen) == {("warp_cells", bend), ("warp_cells", shift), ("smear", shift)}

    def test_desk_report_matches_the_benchmark_reference(self, tmp_path):
        # the seed-0 verify-desk benchmark config: n = 4096, 2 generators x
        # 3 eps pairs x (plain, warped) = 12 rows; the stored report is only read
        half = 20.0
        cfg = {
            "grid": {"n": 4096, "x_min": -half, "x_max": half},
            "hbar": 1.0,
            "confidence": [[0.05, 0.05], [0.1, 0.2], [0.2, 0.1]],
            "generators": [{"kind": "gaussian", "sigma": 1.0},
                           {"kind": "mixture",
                            "components": [{"weight": 0.5, "sigma": 0.8},
                                           {"weight": 0.5, "sigma": 1.2, "x0": 0.5}]}],
            "calibration": {"delta_ladder": [0.4, 0.2, 0.1], "probe_centers": [0.0],
                            "probe_kind": "box"},
            "warps": [{"name": "wiggle",
                       "q_knots": [[-half, -half], [-1, -0.7], [1, 1.3], [half, half]]}],
        }
        rc = main(["--out", str(tmp_path / "out"), "verify", write_config(tmp_path, cfg)])
        assert rc == 0
        assert (tmp_path / "out" / "report.csv").read_text() == \
            (REFERENCE / "verify-desk.csv").read_text()

    def test_inconclusive_ladder_exits_3(self, tmp_path, capsys, monkeypatch):
        # every rung's window comes out wider than the last one's, so the
        # ladder cannot settle: a numerical finding, not a config error
        def growing_ladder(kernel, eps, cfg):
            widths = [0.5 + 0.25 * (i + 1) for i in range(len(cfg.delta_ladder))]
            return 0.0, [centered_width(uniform_measure(-w, w, cfg.grid), 0.0, eps)
                         for w in widths]

        monkeypatch.setattr(metrology, "_axis_pass", growing_ladder)
        rc = main(["--out", str(tmp_path / "out"), "verify",
                   write_config(tmp_path, verify_config())])
        assert rc == 3
        err = capsys.readouterr().err
        assert "calibration error grew" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


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

    def test_smearings_is_an_unknown_key(self, tmp_path, capsys):
        cfg = verify_config(smearings=[{"kind": "delta", "c": 0.0}])
        assert main(["verify", write_config(tmp_path, cfg)]) == 2
        assert "unknown key 'smearings'" in capsys.readouterr().err


def run_cli(*argv):
    src = str(Path(uncert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "uncert.cli", *argv], env=env,
                          capture_output=True, text=True)


SCAN_CONFIG = {
    "grid": {"n": 512, "x_min": -12.8, "x_max": 12.8},
    "eps": [0.05, 0.05],
    "family": "gaussian",
    "lattice": {"sigma": [1.0]},
}


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
    ("scan", dict(SCAN_CONFIG, eps=[0.05, 1.5]), "eps[1]: eps values must lie in (0, 1)"),
    ("verify", verify_config(confidence=[[0.05, 0.1], [0.05, 1.0]]), "confidence[1][1]"),
    ("verify", verify_config(warps=[{"q_knots": [[-12.8, "nan"], [12.8, 1]]}]),
     "warps[0].q_knots[0][1]"),
    ("verify", verify_config(warps=[{}, {"p_knots": [[-12.8, -1e308], [12.8, 1e308]]}]),
     "warps[1].p_knots: knots must be strictly increasing in both coordinates, with finite"),
    ("verify", verify_config(warps=[{"q_knots": [[-12.8, -12.8, 0.0], [12.8, 12.8]]}]),
     "warps[0].q_knots[0]: expected a pair"),
])
def test_config_type_errors_exit_2_with_location(tmp_path, command, cfg, key):
    proc = run_cli("--out", str(tmp_path / "out"), command, write_config(tmp_path, cfg))
    assert proc.returncode == 2
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert not (tmp_path / "out").exists()


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


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6),
                         st.floats(), st.text(max_size=3))
RUNGS = st.floats(0.2, 25.6)
LADDERS = st.one_of(
    st.permutations([0.8, 0.4, 0.2]),
    st.lists(RUNGS, min_size=1, max_size=4, unique=True).map(lambda d: sorted(d, reverse=True)),
    st.lists(st.one_of(RUNGS, JSON_SCALARS), max_size=4),
    JSON_SCALARS)
CENTERS = st.one_of(st.lists(st.floats(-13.0, 13.0), max_size=3),
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
def test_calibration_fuzz_exits_with_a_documented_code(edits, drop):
    block = {"delta_ladder": [0.8, 0.4, 0.2], "probe_centers": [0.0], "probe_kind": "box"}
    block.update(edits)
    block.pop(drop, None)
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8}, calibration=block,
                        warps=[{"name": "bend", "q_knots": [[-12.8, -12.8], [-1.0, -0.7],
                                                            [1.0, 1.3], [12.8, 12.8]]}])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["--out", str(Path(tmp) / "out"), "verify", path])
    # an exception escaping main() would reach the user as a traceback and fails here
    assert rc in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()


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
def test_warps_fuzz_exits_with_a_documented_code(warps):
    cfg = verify_config(grid={"n": 256, "x_min": -12.8, "x_max": 12.8},
                        calibration={"delta_ladder": [0.4, 0.2], "probe_centers": [0.0, 1.5]},
                        warps=warps)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["--out", str(Path(tmp) / "out"), "verify", path])
    # an exception or warning escaping main() fails here
    assert rc in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()


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
    ])
    def test_bad_input_names_the_argument(self, capsys, state, eps, key):
        rc = main(["--grid-n", "1024", "widths", "--state", state, "--eps", eps,
                   "--window", "16"])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["inf", "0", "-16"])
    def test_bad_window_names_the_argument(self, capsys, recwarn, window):
        rc = main(["--grid-n", "1024", "widths", "--state", "gaussian:sigma=1",
                   "--eps", "0.05", "--window", window])
        assert rc == 2
        assert "--window:" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("hbar", ["nan", "inf", "-1", "0"])
    def test_bad_hbar_names_the_argument(self, capsys, recwarn, hbar):
        rc = main(["--grid-n", "1024", "--hbar", hbar, "widths", "--state", "gaussian:sigma=1",
                   "--eps", "0.05", "--window", "16"])
        assert rc == 2
        assert "--hbar:" in capsys.readouterr().err
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

    def test_empty_lattice_value_list_gives_header_only(self, tmp_path):
        cfg = self.scan_config(lattice={"sigma": []})
        path = write_config(tmp_path, cfg)
        rc = main(["--out", str(tmp_path / "out"), "scan", path])
        assert rc == 0
        lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        assert len(lines) == 2


def test_cli_import_does_not_load_scipy():
    src = str(Path(uncert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, uncert.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
