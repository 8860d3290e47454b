import json

from qbrolin.cli import main

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


def test_bad_policy_values_are_config_errors(tmp_path, capsys):
    for policy in ({"burn_in": "x"}, {"cluster_tol": -1}, {"burn_in": 0},
                   {"aberth_max_iter": 2.5}, {"aberth_tol": float("nan")}):
        code, err = _config_error(tmp_path, capsys, _q2_minus_1(
            "equilibrium", {"depth": 3}, policy=policy))
        assert code == 2 and err["error"] == "ConfigError"
        assert f"policy.{next(iter(policy))}" in err["message"]


def test_valid_policy_values_run(tmp_path):
    path = _write(tmp_path, "c.json", _q2_minus_1(
        "equilibrium", {"depth": 3}, out=str(tmp_path / "out"),
        policy={"burn_in": 5, "cluster_tol": 1e-8, "aberth_tol": 1}))
    assert main([path]) == 0
