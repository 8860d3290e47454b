import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbrolin import cli
from qbrolin.cli import load_config, main
from writer_refs import ref_write_csv, ref_write_json

SQ_MINUS_2 = {"coeffs": [[-2, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_top_key(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"mode": "julia", "frobnicate": 1,
                                      "polynomial": SQ_MINUS_2})
    assert main([cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "frobnicate" in err["message"]


def test_unknown_mode(tmp_path):
    cfg = _write(tmp_path, "c.json", {"mode": "frobnicate"})
    assert main([cfg]) == 2


def test_unknown_param_for_mode(tmp_path):
    cfg = _write(tmp_path, "c.json", {"mode": "julia",
                                      "polynomial": SQ_MINUS_2,
                                      "params": {"depth": 3}})
    assert main([cfg]) == 2


def test_missing_polynomial(tmp_path):
    cfg = _write(tmp_path, "c.json", {"mode": "green"})
    assert main([cfg]) == 2


def test_unreadable_config(tmp_path):
    assert main([str(tmp_path / "nope.json")]) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    # the equilibrium target 0 is exceptional for q^2
    cfg = _write(tmp_path, "c.json", {
        "mode": "equilibrium",
        "polynomial": {"coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"target": 0.0, "depth": 4},
        "out": str(tmp_path / "out")})
    assert main([cfg]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ExceptionalTarget"


def test_julia_pgm_output(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "julia", "polynomial": SQ_MINUS_2,
        "grid": {"center": [0, 0], "half_width": 2.0, "h": 0.0625},
        "params": {"max_iter": 40}, "out": str(tmp_path / "out")})
    assert main([cfg]) == 0
    pgm = (tmp_path / "out" / "julia.pgm").read_bytes()
    assert pgm.startswith(b"P5\n65 65\n255\n")
    assert len(pgm) == len(b"P5\n65 65\n255\n") + 65 * 65
    man = json.loads((tmp_path / "out" / "julia.manifest.json").read_text())
    assert "out" not in man["config"]
    assert man["config"]["mode"] == "julia"


def test_julia_non_monic_escape_radius(tmp_path):
    # K(0.1 q^2) on the slice is the disk of radius 10: all of [-4, 4]^2
    cfg = _write(tmp_path, "c.json", {
        "mode": "julia",
        "polynomial": {"coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0.1, 0, 0, 0]]},
        "grid": {"center": [0, 0], "half_width": 4.0, "h": 0.5},
        "out": str(tmp_path / "out")})
    assert main([cfg]) == 0
    man = json.loads((tmp_path / "out" / "julia.manifest.json").read_text())
    assert man["escape_radius"] >= 10.0 and man["inside_fraction"] == 1.0


def test_equilibrium_on_a_cubic_with_a_tiny_leading_coefficient(tmp_path):
    # a cubic whose roots span 1e-3 .. 3.5e7: every tree level certifies
    cfg = _write(tmp_path, "c.json", {
        "mode": "equilibrium", "polynomial": {"coeffs": [
            [-5.82, 0, 0, 0], [-2098.7, 0, 0, 0], [4301.6, 0, 0, 0],
            [-1.23e-4, 0, 0, 0]]},
        "params": {"depth": 3, "target": 0.0}, "out": str(tmp_path / "out")})
    assert main([cfg]) == 0
    rows = (tmp_path / "out" / "measure.csv").read_text().split()[1:]
    assert len(rows) == 4
    assert math.isclose(sum(float(r.split(",")[3]) for r in rows), 1.0)


def test_green_depth_0_is_log_plus(tmp_path):
    # G_0 = log+|q|: the raster maximum is at the corners, |q| = 2 sqrt 2
    cfg = _write(tmp_path, "c.json", {
        "mode": "green", "polynomial": SQ_MINUS_2,
        "grid": {"center": [0, 0], "half_width": 2.0, "h": 0.25},
        "params": {"depth": 0}, "out": str(tmp_path / "out")})
    assert main([cfg]) == 0
    rows = dict(line.split(",") for line in (
        tmp_path / "out" / "green_stats.csv").read_text().split()[1:])
    assert float(rows["max"]) == math.log(abs(complex(2.0, 2.0)))
    assert 0.0 < float(rows["zero_fraction"]) < 1.0


def test_green_all_zero_raster_reports_max_0(tmp_path):
    # [-0.25, 0.25]^2 lies inside the filled Julia set of q^2 - 1: every
    # node has G = 0, and the image is black
    cfg = _write(tmp_path, "c.json", {
        "mode": "green",
        "polynomial": {"coeffs": [[-1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "grid": {"center": [0, 0], "half_width": 0.25, "h": 1 / 16},
        "params": {"depth": 12}, "out": str(tmp_path / "out")})
    assert main([cfg]) == 0
    rows = dict(line.split(",") for line in (
        tmp_path / "out" / "green_stats.csv").read_text().split()[1:])
    assert float(rows["max"]) == 0.0
    assert float(rows["zero_fraction"]) == 1.0
    assert (tmp_path / "out" / "green.pgm").read_bytes().endswith(bytes(81))


def test_mode_override_flag(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "julia", "polynomial": SQ_MINUS_2,
        "grid": {"center": [0, 0], "half_width": 2.0, "h": 0.125},
        "out": str(tmp_path / "out")})
    assert main([cfg, "--mode", "green"]) == 0
    assert (tmp_path / "out" / "green.pgm").exists()


def test_equilibrium_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "c.json", {
        "mode": "equilibrium", "polynomial": SQ_MINUS_2,
        "params": {"target": 0.0, "depth": 6}, "out": str(out)})
    assert main([cfg]) == 0
    measure = json.loads((out / "measure.json").read_text())
    mass = sum(a["weight"] for a in measure["atoms"])
    assert abs(mass - 1.0) < 1e-9
    csv = (out / "measure.csv").read_text().splitlines()
    assert csv[0] == "kind,alpha,rho,weight"
    assert len(csv) == len(measure["atoms"]) + 1


def test_general_gap_mode(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "c.json", {
        "mode": "general-gap",
        "polynomial": {"coeffs": [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"a": 0.0, "b": 1.0, "n_list": [2, 3]}, "out": str(out)})
    assert main([cfg]) == 0
    rows = (out / "gap.csv").read_text().splitlines()
    assert rows[0].startswith("n,")
    assert len(rows) == 3


def test_general_gap_probe_count_reaches_brolin3_gap(tmp_path, monkeypatch):
    import qbrolin.cli as cli
    seen = []

    def gap(p, a, b, n, probe_points=None, **kw):
        seen.append(len(probe_points))
        return 0.5

    monkeypatch.setattr(cli, "brolin3_gap", gap)
    cfg = {"mode": "general-gap",
           "polynomial": {"coeffs": [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
           "params": {"n_list": [2, 3]}}
    assert main([_write(tmp_path, "a.json",
                        dict(cfg, out=str(tmp_path / "a")))]) == 0
    cfg["params"]["probe_count"] = 9
    assert main([_write(tmp_path, "b.json",
                        dict(cfg, out=str(tmp_path / "b")))]) == 0
    # the default is annulus_probes()'s own 100 (10 x 10), then 3 x 3
    assert seen == [100, 100, 9, 9]


def _config_error(tmp_path, capsys, cfg):
    path = _write(tmp_path, "c.json", dict(cfg, out=str(tmp_path / "out")))
    code = main([path])
    err = json.loads(capsys.readouterr().err)
    return code, err


def test_equilibrium_rejects_complex_coefficients(tmp_path, capsys):
    code, err = _config_error(tmp_path, capsys, {
        "mode": "equilibrium",
        "polynomial": {"coeffs": [[-1, 0.5, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"depth": 3}})
    assert code == 2 and err["error"] == "ConfigError"
    assert "real coefficients" in err["message"]


def test_lyapunov_rejects_degree_one(tmp_path, capsys):
    code, err = _config_error(tmp_path, capsys, {
        "mode": "lyapunov",
        "polynomial": {"coeffs": [[0.5, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"n_samples": 10}})
    assert code == 2 and err["error"] == "ConfigError"
    assert "degree" in err["message"]


def test_zero_grid_spacing_is_a_config_error(tmp_path, capsys):
    code, err = _config_error(tmp_path, capsys, {
        "mode": "julia", "polynomial": SQ_MINUS_2, "grid": {"h": 0}})
    assert code == 2 and err["error"] == "ConfigError"
    assert "grid.h" in err["message"]


def test_non_numeric_target_is_a_config_error(tmp_path, capsys):
    code, err = _config_error(tmp_path, capsys, {
        "mode": "equilibrium", "polynomial": SQ_MINUS_2,
        "params": {"target": "abc", "depth": 3}})
    assert code == 2 and err["error"] == "ConfigError"
    assert "params.target" in err["message"]


def _q2_minus_1(mode, params, **extra):
    poly = {"coeffs": [[-1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
    return dict({"mode": mode, "polynomial": poly, "params": params}, **extra)


def test_bad_count_params_are_config_errors(tmp_path, capsys):
    for cfg, key in [
            # n_max 2 leaves the mixing slope fit a single lag
            (_q2_minus_1("mixing", {"n_max": 2, "samples": 10}), "n_max"),
            (_q2_minus_1("equilibrium", {"depth": -1}), "depth"),
            (_q2_minus_1("equilibrium", {"depth": 2.5}), "depth"),
            # n_max 1 fits an entropy slope through one point
            (_q2_minus_1("entropy", {"kind": "partition", "n_max": 1,
                                     "samples": 100}), "n_max")]:
        code, err = _config_error(tmp_path, capsys, cfg)
        assert code == 2 and err["error"] == "ConfigError"
        assert f"params.{key}" in err["message"]


def test_bad_top_level_values_are_config_errors(tmp_path, capsys):
    # seed is an integer >= 0, bools refused; quad_level is no config key
    # (it changed no number); a grid side has 2 to 8193 nodes; an int past
    # the float range is no number
    for cfg, key in [
            (_q2_minus_1("lyapunov", {"n_samples": 5}, seed=-1), "seed"),
            (_q2_minus_1("clt", {"n_samples": 5}, seed=-1), "seed"),
            (_q2_minus_1("verify", {}, seed=-1), "seed"),
            (_q2_minus_1("lyapunov", {"n_samples": 5}, seed=True), "seed"),
            (_q2_minus_1("one-slice", {"depth": 2}, quad_level="x"),
             "unknown config keys: ['quad_level']"),
            (_q2_minus_1("one-slice", {"depth": 2}, quad_level=2.5),
             "unknown config keys: ['quad_level']"),
            (_q2_minus_1("one-slice", {"depth": 2}, quad_level=0),
             "unknown config keys: ['quad_level']"),
            (_q2_minus_1("one-slice", {"depth": 2}, quad_level=True),
             "unknown config keys: ['quad_level']"),
            (_q2_minus_1("julia", {}, grid={"half_width": 1e-9, "h": 0.5}),
             "grid"),
            (_q2_minus_1("green", {}, grid={"half_width": 1e300}), "grid"),
            (_q2_minus_1("green", {"depth": 10 ** 400}), "params.depth")]:
        code, err = _config_error(tmp_path, capsys, cfg)
        assert code == 2 and err["error"] == "ConfigError"
        assert err["message"].startswith(key)
        assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, "c.json", _q2_minus_1(
        "lyapunov", {"n_samples": 5}, out=str(tmp_path / "out")))
    assert main([path, "--seed", "-3"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "seed" in err["message"]


def test_policy_key_is_refused_before_out(tmp_path, capsys):
    # every tolerance is a library constant: no config sets one
    code, err = _config_error(tmp_path, capsys, _q2_minus_1(
        "equilibrium", {"depth": 3}, policy={"burn_in": 5}))
    assert code == 2 and err["error"] == "ConfigError"
    assert "policy" in err["message"]
    assert not (tmp_path / "out").exists()


def test_general_gap_refuses_a_non_finite_h_n(tmp_path, capsys):
    # h_10 of q^2 + j has 201 NaN coefficients: its gap is no number
    with np.errstate(over="ignore", invalid="ignore"):
        code, err = _config_error(tmp_path, capsys, {
            "mode": "general-gap", "polynomial": {"coeffs": [
                [0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
            "params": {"n_list": [9, 10], "probe_count": 4}})
    assert code == 3 and err["error"] == "InvariantViolation"
    assert "non-finite" in err["message"]


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH, for
    fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    return env


def test_general_gap_stderr_is_one_json_line(tmp_path):
    # h_10 of q^2 + j overflows inside hn_build, and so does h_1 of
    # 1e154 (q^2 + q j + j), whose coefficient-norm sum squared raised
    # OverflowError; a fresh interpreter (no pytest warning capture) must
    # print the error line and nothing else
    env = _src_env()
    for k, (coeffs, n_list) in enumerate((
            ([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]], [9, 10]),
            ([[0, 0, 1e154, 0], [0, 0, 1e154, 0], [1e154, 0, 0, 0]], [1]))):
        cfg = _write(tmp_path, f"c{k}.json", {
            "mode": "general-gap", "polynomial": {"coeffs": coeffs},
            "params": {"n_list": n_list}})
        r = subprocess.run([sys.executable, "-m", "qbrolin.cli", cfg,
                            "--out", str(tmp_path / f"out{k}")],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 3
        lines = r.stderr.splitlines()
        assert len(lines) == 1, r.stderr
        assert json.loads(lines[0])["error"] == "InvariantViolation"


@pytest.mark.parametrize("lead", [1e300, 1e-300])
def test_one_slice_extreme_coefficient_stderr_is_one_json_line(tmp_path,
                                                               lead):
    # g_1 of lead I q^2 overflows (1e300), or its leading coefficient
    # underflows to a degree-0 g_1 (1e-300); these once left an
    # OverflowError and a ValueError from the exceptional screening
    cfg = _write(tmp_path, "c.json", {
        "mode": "one-slice", "polynomial": {"coeffs": [
            [0, 0, 0, 0], [0, 0, 0, 0], [0, lead, 0, 0]]},
        "params": {"depth": 1}})
    env = _src_env()
    r = subprocess.run([sys.executable, "-m", "qbrolin.cli", cfg,
                        "--out", str(tmp_path / "out")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 3
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert json.loads(lines[0])["error"] == "InvariantViolation"


# configs whose overflows once printed RuntimeWarning lines before the
# error line, or ended in a NaN result or a table of rounding residue
# (mixing, exit 0) or a traceback (equilibrium, exit 1): (config, exit code,
# error)
_OVERFLOW_EXITS = {
    "mixing_huge_real": ({"mode": "mixing", "polynomial": {"coeffs": [
        [1e300, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"n_max": 3, "samples": 50}}, 3, "InvariantViolation"),
    "mixing_huge_imaginary": ({"mode": "mixing", "polynomial": {"coeffs": [
        [0, 1e300, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"n_max": 3, "samples": 50}}, 3, "InvariantViolation"),
    "mixing_tiny_lead": ({"mode": "mixing", "polynomial": {"coeffs": [
        [-2, 0, 0, 0], [0, 0, 0, 0], [1e-300, 0, 0, 0]]},
        "params": {"n_max": 3, "samples": 50}}, 3, "InvariantViolation"),
    "equilibrium_subnormal_lead": ({"mode": "equilibrium", "polynomial": {
        "coeffs": [[-2, 0, 0, 0], [0, 0, 0, 0], [5e-324, 0, 0, 0]]},
        "params": {"depth": 4, "target": 0.5}}, 3, "InvariantViolation"),
    "lyapunov_sphere_escape": ({"mode": "lyapunov", "polynomial": {"coeffs": [
        [1e300, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"sphere_beta": 0.5}}, 3, "DegenerateSample"),
    "entropy_huge_lead": ({"mode": "entropy", "polynomial": {"coeffs": [
        [-2, 0, 0, 0], [0, 0, 0, 0], [1e300, 0, 0, 0]]}}, 3, "SolverFailure"),
    "equilibrium_huge_imaginary": ({"mode": "equilibrium", "polynomial": {
        "coeffs": [[0, 1e300, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}},
        2, "ConfigError"),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOW_EXITS))
def test_overflowing_runs_print_one_json_line(tmp_path, name):
    # a fresh interpreter (no pytest warning capture); no file is written
    cfg, code, error = _OVERFLOW_EXITS[name]
    out = tmp_path / "out"
    r = subprocess.run([sys.executable, "-m", "qbrolin.cli",
                        _write(tmp_path, "c.json", cfg), "--out", str(out)],
                       capture_output=True, text=True, env=_src_env())
    assert r.returncode == code
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert json.loads(lines[0])["error"] == error
    assert not out.exists() or not any(out.iterdir())


def test_failed_verify_check_exits_3(tmp_path, capsys, monkeypatch):
    # the files and the summary are written first; then the error line
    monkeypatch.setattr(cli, "kernel_pairings", lambda *args: [0.0])
    out = tmp_path / "out"
    path = _write(tmp_path, "c.json", {"mode": "verify", "out": str(out)})
    assert main([path]) == 3
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "InvariantViolation"
    assert "fundamental solution (coarse)" in err["message"]
    assert "FAIL" in captured.out
    assert json.loads((out / "verify.json").read_text())["all_pass"] is False


def test_equilibrium_refuses_an_inexact_exceptional_target(tmp_path, capsys):
    # (q - 0.1)^2 + 0.1: 0.1 is a critical fixed point, which no float
    # fiber of 0.1 keeps exactly
    code, err = _config_error(tmp_path, capsys, {
        "mode": "equilibrium", "polynomial": {"coeffs": [
            [0.11, 0, 0, 0], [-0.2, 0, 0, 0], [1, 0, 0, 0]]},
        "params": {"target": 0.1, "depth": 8}})
    assert code == 3 and err["error"] == "ExceptionalTarget"


def test_off_slice_coefficient_is_a_config_error(tmp_path, capsys):
    # j-component 0.3 in the constant term: off the reference slice C_i
    poly = {"coeffs": [[0, 0, 0.3, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
    for mode, params in [("julia", {"max_iter": 5}),
                         ("lyapunov", {"n_samples": 10}),
                         ("one-slice", {"depth": 2}),
                         ("mixing", {"n_max": 3, "samples": 5}),
                         ("entropy", {"kind": "partition", "n_max": 2,
                                      "samples": 10})]:
        code, err = _config_error(tmp_path, capsys, {
            "mode": mode, "polynomial": poly, "params": params})
        assert code == 2 and err["error"] == "ConfigError", mode
        assert "reference slice" in err["message"]


def test_bad_list_params_and_coefficients_are_config_errors(tmp_path, capsys):
    nan_poly = {"coeffs": [[float("nan"), 0, 0, 0], [0, 0, 0, 0],
                           [1, 0, 0, 0]]}
    for cfg, key in [
            (_q2_minus_1("entropy", {"box": 5}), "params.box"),
            (_q2_minus_1("entropy", {"kind": "partition", "box": [1, 0]}),
             "params.box"),
            (_q2_minus_1("entropy", {"eps_list": []}), "params.eps_list"),
            (_q2_minus_1("entropy", {"kind": "x"}), "kind"),
            (_q2_minus_1("general-gap", {"n_list": []}), "params.n_list"),
            (_q2_minus_1("general-gap", {"n_list": ["a"]}), "params.n_list"),
            (_q2_minus_1("delta-star", {"h_list": [0]}), "params.h_list"),
            (_q2_minus_1("delta-star", {"center": [0.3, 0.0]}),
             "params.center"),
            (_q2_minus_1("delta-star", {"h_list": [0.5]}), "params.h_list"),
            ({"mode": "lyapunov", "polynomial": nan_poly,
              "params": {"n_samples": 10}}, "finite"),
            ({"mode": "lyapunov", "polynomial": {"coeffs": [[10 ** 400] * 4]},
              "params": {"n_samples": 10}}, "polynomial"),
            # a j part within the slice tolerance restricts to degree 0
            ({"mode": "julia", "polynomial": {"coeffs": [
                [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1e-13, 0]]}}, "degree")]:
        code, err = _config_error(tmp_path, capsys, cfg)
        assert code == 2 and err["error"] == "ConfigError", cfg
        assert key in err["message"]


def test_entropy_box_off_the_julia_set_is_a_numerical_failure(tmp_path,
                                                             capsys):
    code, err = _config_error(tmp_path, capsys, _q2_minus_1(
        "entropy", {"n_max": 3, "eps_list": [0.3], "box": [3, 4, 0, 1],
                    "grid_density": 20}))
    assert code == 3 and err["error"] == "InvariantViolation"


def test_summaries_read_the_finest_spacing_and_the_largest_n(tmp_path):
    # delta_star.json and gap.json must not depend on the list order
    gap_poly = {"coeffs": [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
    for mode, poly, params, orders, name in [
            ("delta-star", SQ_MINUS_2, {}, [{"h_list": [1 / 8, 1 / 32]},
                                            {"h_list": [1 / 32, 1 / 8]}],
             "delta_star.json"),
            ("general-gap", gap_poly, {"probe_count": 4},
             [{"n_list": [1, 4]}, {"n_list": [4, 1]}], "gap.json")]:
        got = []
        for i, order in enumerate(orders):
            out = tmp_path / f"{mode}-{i}"
            path = _write(tmp_path, "c.json", {
                "mode": mode, "polynomial": poly,
                "params": dict(params, **order), "out": str(out)})
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([path]) == 0
            got.append((out / name).read_text())
        assert got[0] == got[1], mode
    assert json.loads(got[0])["n_max"] == 4


def test_bad_params_are_refused_before_any_file_is_written(tmp_path, capsys):
    for cfg, key in [
            (_q2_minus_1("entropy", {"kind": "bogus"}), "params.kind"),
            # a target is one number, or a list of exactly one
            (_q2_minus_1("equilibrium", {"target": [0.5, "x", None]}),
             "params.target"),
            # a delta-star grid spans [-2, 2]: h = 1e-6 would ask for
            # 4,000,001 nodes a side (116 TiB per raster), 4 / 8193 for 8194
            (_q2_minus_1("delta-star", {"h_list": [0.5, 1e-6]}),
             "params.h_list"),
            (_q2_minus_1("delta-star", {"h_list": [0.5, 4 / 8193]}),
             "params.h_list")]:
        code, err = _config_error(tmp_path, capsys, cfg)
        assert code == 2 and err["error"] == "ConfigError"
        assert err["message"].startswith(key)
        assert not (tmp_path / "out").exists()
    # h = 1/2048 gives 8193 nodes a side, the most a grid may have
    cfg = load_config(_write(tmp_path, "c.json", _q2_minus_1(
        "delta-star", {"h_list": [0.5, 1 / 2048]})), {})
    assert cfg["params"]["h_list"] == [0.5, 1 / 2048]


def test_manifest_echoes_the_resolved_params_and_grid(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "c.json", {
        "mode": "julia", "polynomial": SQ_MINUS_2, "grid": {"h": 0.5},
        "out": str(out)})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([cfg]) == 0
    man = json.loads((out / "julia.manifest.json").read_text())
    assert man["config"]["params"] == {"max_iter": 60}
    assert man["config"]["grid"] == {"center": [0.0, 0.0], "half_width": 2.0,
                                     "h": 0.5}
    cfg = _write(tmp_path, "c.json", _q2_minus_1(
        "equilibrium", {"target": [0.25], "depth": 2}, out=str(out)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([cfg]) == 0
    man = json.loads((out / "measure.manifest.json").read_text())
    assert man["config"]["params"] == {"target": 0.25, "depth": 2}


def test_every_default_passes_its_own_check(tmp_path):
    # load_config runs each default through its param's check
    for mode, params in [(m, {}) for m in cli.MODES] + [
            ("entropy", {"kind": "partition"})]:
        cfg = load_config(_write(tmp_path, "c.json",
                                 _q2_minus_1(mode, params)), {})
        assert set(cfg["params"]) == set(cli._MODES[mode][1]), mode
    assert cfg["params"]["box"] == [-2.0, 2.0]


# Small valid params per mode: every count is small, so that one run takes
# milliseconds whichever keys the property below replaces.
_SMALL_PARAMS = {
    "julia": {"max_iter": 3},
    "equilibrium": {"target": 0.25, "depth": 3},
    "green": {"depth": 3},
    "delta-star": {"center": [0.3, 0.4], "h_list": [0.5, 0.25]},
    "lyapunov": {"n_samples": 5, "sphere_n": 3, "sphere_alpha": 0.1,
                 "sphere_beta": 0.5},
    "entropy": {"kind": "topological", "n_max": 3, "eps_list": [0.3],
                "cells": 4, "samples": 20, "box": [-2, 2, 0, 1],
                "grid_density": 20},
    "mixing": {"n_max": 3, "samples": 5},
    "clt": {"n_terms": 3, "n_samples": 5, "null_reps": 2},
    "one-slice": {"depth": 2, "target": 0.0},
    "general-gap": {"a": 0.0, "b": 1.0, "n_list": [1, 2], "probe_count": 4},
    "verify": {},
}


def test_small_params_hold_every_param_of_the_table():
    # the property below draws only these keys
    assert {mode: set(params) for mode, params in _SMALL_PARAMS.items()} == \
        {mode: set(table) for mode, (_, table) in cli._MODES.items()}


_NON_FINITE = [float("nan"), float("inf"), -float("inf")]
_number = st.one_of(
    st.integers(-2, 4),
    st.sampled_from(_NON_FINITE + [0.0, -0.0, -1.5, 0.25, 0.5, 1.75, 1e300]))
_json_scalar = st.one_of(st.none(), st.booleans(), st.text(max_size=2), _number)
# numbers and lists of numbers as often as any other JSON value, so that
# runs reach the estimators and not only the config checks
_json_value = st.one_of(
    _number, st.lists(_number, max_size=5),
    st.recursive(_json_scalar, lambda inner: st.lists(inner, max_size=4),
                 max_leaves=6))
_coeff = st.sampled_from(_NON_FINITE + [0.0, -0.0, 0.3, -1.0, 1.0, 1e300])
_polynomials = st.one_of(
    _json_value,
    st.lists(st.lists(_coeff, min_size=4, max_size=4), max_size=4)
    .map(lambda rows: {"coeffs": rows}))


_grids = st.one_of(_json_value, st.fixed_dictionaries({}, optional={
    "center": _json_value, "half_width": _number, "h": _number}))
_TOP_LEVEL = {"polynomial": _polynomials, "seed": _json_value,
              "quad_level": _json_value, "grid": _grids}


def _small_config(mode, **top):
    return dict({"mode": mode, "params": dict(_SMALL_PARAMS[mode]), "seed": 0,
                 "polynomial": {"coeffs": [[-1, 0, 0, 0], [0, 0, 0, 0],
                                           [1, 0, 0, 0]]}}, **top)


def test_import_loads_no_scipy_module():
    # scipy is imported by the KS statistic and the separated set at their
    # first call; a fresh interpreter sees what the package itself loads
    code = ("import sys, qbrolin, qbrolin.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=_src_env())
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr


@pytest.mark.parametrize("mode", ["clt", "entropy"])
def test_scipy_modes_run_from_a_fresh_interpreter(tmp_path, mode):
    # the two modes that reach the deferred scipy imports (ks_distance,
    # separated_count), with no scipy module loaded beforehand
    cfg = _write(tmp_path, "c.json", _small_config(mode))
    r = subprocess.run([sys.executable, "-m", "qbrolin.cli", cfg,
                        "--out", str(tmp_path / "out")],
                       capture_output=True, text=True, env=_src_env())
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "out" / f"{mode}.json").read_text())


@st.composite
def _configs(draw):
    """A small config of any mode with up to two params or top-level keys
    replaced by arbitrary JSON values."""
    cfg = _small_config(draw(st.sampled_from(sorted(_SMALL_PARAMS))))
    keys = sorted(cfg["params"]) + ["extra"] + sorted(_TOP_LEVEL)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        if key in _TOP_LEVEL:
            cfg[key] = draw(_TOP_LEVEL[key])
        else:
            cfg["params"][key] = draw(_json_value)
    return cfg


# pinned: a negative seed, quad_level (no config key) at its former default
# and at values it used to refuse, and grids of one node and of about
# 2.6e302 nodes a side
@example(_small_config("lyapunov", seed=-1))
@example(_small_config("clt", seed=-1))
@example(_small_config("verify", seed=-1))
@example(_small_config("one-slice", quad_level=3))
@example(_small_config("one-slice", quad_level="x"))
@example(_small_config("one-slice", quad_level=2.5))
@example(_small_config("one-slice", quad_level=0))
@example(_small_config("julia", grid={"half_width": 1e-9, "h": 0.5}))
@example(_small_config("green", grid={"half_width": 1e300}))
@given(_configs())
@settings(max_examples=150, deadline=None)
def test_arbitrary_params_keep_the_exit_code_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(dict(cfg, out=str(Path(tmp) / "out"))))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([str(path)])
    assert code in (0, 2, 3)


Q2_PLUS_03I = {"coeffs": [[0, 0.3, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
Q2_PLUS_I = {"coeffs": [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}


def test_one_slice_refuses_the_removed_bin_width(tmp_path, capsys):
    # mu' is the fold of one unbinned tree: the bin width is no param now
    code, err = _config_error(tmp_path, capsys, {
        "mode": "one-slice", "polynomial": Q2_PLUS_03I,
        "params": {"depth": 4, "bin_width": 1.0 / 128.0}})
    assert code == 2 and err["error"] == "ConfigError"
    assert err["message"] == \
        "unknown params for mode one-slice: ['bin_width']"


def test_one_slice_runs_past_the_expanded_solve(tmp_path):
    # g_n's expanded coefficients gave NaN residuals at depths 8 and 9 and
    # overflowed at 10; the fiber is solved by composition now
    for depth in (8, 9, 10):
        for target in (0.0, 0.3):
            out = tmp_path / f"out{depth}-{target}"
            cfg = _write(tmp_path, "c.json", {
                "mode": "one-slice", "polynomial": Q2_PLUS_I,
                "params": {"depth": depth, "target": target},
                "out": str(out)})
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([cfg]) == 0, (depth, target)
            report = json.loads((out / "one_slice.json").read_text())
            assert report["weak_distance"] <= 0.05


def test_topological_entropy_refuses_nonreal_coefficients(tmp_path, capsys):
    params = {"n_max": 3, "eps_list": [0.3], "box": [-2, 2, 0, 1],
              "grid_density": 20, "cells": 4, "samples": 20}
    code, err = _config_error(tmp_path, capsys, {
        "mode": "entropy", "polynomial": Q2_PLUS_03I,
        "params": dict(params, kind="topological")})
    assert code == 2 and err["error"] == "ConfigError"
    assert "real coefficients" in err["message"]
    # partition entropy works on the reference slice alone: it still runs
    cfg = {"mode": "entropy", "polynomial": Q2_PLUS_03I,
           "params": dict(params, kind="partition", box=[-2, 2],
                          samples=2000),
           "out": str(tmp_path / "partition")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([_write(tmp_path, "p.json", cfg)]) == 0


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                   1e308, -1e308, 5e-324, -2.5e-310, 2.2250738585072014e-308]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_csv_value = st.one_of(
    st.text(max_size=4), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    _floats, _floats.map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_csv_row = st.lists(_csv_value, max_size=5)


def _written(writer, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        writer(path, *args)
        return path.read_bytes()


@example(["h", "x"], [[1, 0.1]] * 3 + [["a", True], [np.int64(7)], []])
@example(["x"], [[x] for x in _SPECIAL_FLOATS]
         + [[np.float64(x)] for x in _SPECIAL_FLOATS])
@given(st.lists(st.text(alphabet="abc_", max_size=3), max_size=4),
       st.lists(st.one_of(_csv_row, _csv_row.map(tuple)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_write_csv_bytes_equal_the_former_writer(header, rows):
    assert (_written(cli.write_csv, header, rows)
            == _written(ref_write_csv, header, rows))


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(), _floats,
                       _floats.map(np.float64), st.text(max_size=4))
_json_obj = st.recursive(
    _json_leaf, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12)


def _sorted_pairs(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@example({"b": [1.5, float("nan")], "a": {"z": -0.0, "\n": "x\ny"}})
@given(_json_obj)
@settings(max_examples=300, deadline=None)
def test_write_json_parses_back_equal_to_the_former_writer(obj):
    text = _written(cli.write_json, obj).decode()
    assert text.endswith("\n") and text.count("\n") == 1
    got = json.loads(text, object_pairs_hook=_sorted_pairs)
    # repr compares NaN, -0.0 and int against float exactly
    assert repr(got) == repr(json.loads(_written(ref_write_json, obj)))
