"""Command-line front end: config-driven, seeded, file-output experiments.

One JSON config file drives a run; a few flags override scalar fields.
`_MODES` is the one table of modes: each mode's runner and, for each param,
its default and its check. `load_config` checks every value, defaults
included, before any file is written, and resolves the config: every param
and grid key the config leaves out gets its default, and float params become
floats. Every output file is accompanied by a manifest echoing that resolved
config (the output directory aside) and the library version, with no
timestamps, so identical config + seed yields byte-identical CSV/JSON.

Exit codes: 0 success, 2 config validation error, 3 numerical failure.
Machine-readable error JSON goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cdyn import escape_radius, filled_julia_mask, green_field
from .dynstats import (CLT_NULL, AxialBox, clt_harness, clt_ks_bar,
                       fit_log_slope, interval_partition, lyapunov_slice,
                       lyapunov_sphere_direction, mixing_correlation,
                       partition_entropy, sample_mu, topological_entropy)
from .errors import (CoefficientOffSlice, ConfigError, InvariantViolation,
                     QBrolinError)
from .grids import SliceGrid
from .laplacian import kernel_pairings, refinement_order
from .measures import (EmpiricalMeasure, brolin_pullback, pushforward,
                       standard_panel, weak_distance)
from .poly import (ComplexPoly, QPolynomial, evaluate, star,
                   star_conjugation_point)
from .quat import hamilton, norm_sq, sphere_quadrature
from .slicecases import (annulus_probes, brolin3_gap, gn_pullback_measure,
                         mu_prime_estimate)

_TOP_KEYS = {"mode", "polynomial", "grid", "seed", "out", "params"}
# a grid side has round(2 half_width / h) + 1 nodes, from two up to 8193
# (h = 1/2048 over [-2, 2]: 67M nodes, about 1 GB per complex raster)
_GRID_DEFAULTS = {"center": [0.0, 0.0], "half_width": 2.0, "h": 1.0 / 128.0}
_GRID_MAX_SIDE = 8193
# the Gaussian bump that delta-star and verify pair the Laplacian kernels with
_BUMP = lambda al, be: np.exp(-((al - 0.1) ** 2 + be ** 2))  # noqa: E731


class _AtomColumns(NamedTuple):
    """A measure as text: what its JSON and CSV files are written from."""
    columns: list
    meta: dict


def _atom_columns(m: EmpiricalMeasure) -> _AtomColumns:
    """Text columns kind, alpha, rho, weight of a measure's atoms, kind
    "point" where rho == 0, each float its repr: the one text of both measure
    files. repr runs on each alpha, and once per distinct bit pattern of rho
    and of weight: these repeat (-0.0 keeps its sign)."""
    kind = list(map(("sphere", "point").__getitem__, (m.rho == 0.0).tolist()))
    columns = [kind, list(map(float.__repr__, m.alpha.tolist()))]
    for x in (m.rho, m.weight):
        bits = x.view(np.int64).tolist()
        memo = {b: repr(v) for b, v in dict(zip(bits, x.tolist())).items()}
        columns.append(list(map(memo.__getitem__, bits)))
    return _AtomColumns(columns, m.meta)


def write_csv(path: Path, header, rows):
    """A measure's _AtomColumns: one kind,alpha,rho,weight row per atom, the
    repr text of measure.json joined by commas. Any other rows: %.17g for
    numbers (bools too), else str."""
    lines = [",".join(header)]
    if isinstance(rows, _AtomColumns):
        lines += map(",".join, zip(*rows.columns))
    else:
        lines += (",".join("%.17g" % v if isinstance(v, (int, float))
                           else str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj):
    """One line with sorted keys, as json.dumps writes it. A measure's
    _AtomColumns is {"atoms": [{"alpha", "kind", "rho", "weight"}, ...],
    "meta": ...}: its text slotted between the literals, joined once."""
    if isinstance(obj, _AtomColumns):
        parts = ['{"alpha": ', 0, ', "kind": "', 0, '", "rho": ', 0,
                 ', "weight": ', 0, "}, "] * len(obj.columns[0])
        # the columns are kind, alpha, rho, weight; the keys sort alpha first
        parts[3::9], parts[1::9], parts[5::9], parts[7::9] = obj.columns
        if parts:
            parts[-1] = "}"     # no comma after the last atom
        parts[:0] = ['{"atoms": [']
        parts += ['], "meta": ', json.dumps(obj.meta, sort_keys=True), "}\n"]
        text = "".join(parts)
    else:
        text = json.dumps(obj, sort_keys=True) + "\n"  # C encoder: no indent
    path.write_text(text)


def write_pgm(path: Path, image: np.ndarray):
    """8-bit binary PGM; image values in [0, 255], row 0 at the top."""
    img = np.asarray(image, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _is_number(x) -> bool:
    # finite, and an int that a float can hold (abs() never overflows)
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_count(x, low) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _numbers(value, length=None) -> bool:
    return (isinstance(value, list) and len(value) > 0
            and all(map(_is_number, value)) and length in (None, len(value)))


def _side_fits(span, h) -> bool:
    # round(span / h) + 1 nodes a side, from two up to _GRID_MAX_SIDE
    side = span / h
    return math.isfinite(side) and 2 <= round(side) + 1 <= _GRID_MAX_SIDE


def _qpoly(cfg) -> QPolynomial:
    try:
        p = QPolynomial.from_json(cfg["polynomial"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad polynomial spec: {exc}")
    if p.degree < 2:
        raise ConfigError(f"polynomial degree must be >= 2, got {p.degree}")
    return p


def _cpoly(cfg) -> ComplexPoly:
    """The config polynomial over the reference slice C_i, or ConfigError."""
    try:
        pc = _qpoly(cfg).restrict_to_slice()
    except CoefficientOffSlice as exc:
        raise ConfigError(f"polynomial must lie in the reference slice: {exc}")
    if pc.degree < 2:
        raise ConfigError("polynomial degree over the reference slice must be "
                          f">= 2, got {pc.degree}")
    return pc


def _grid(cfg) -> SliceGrid:
    g = cfg["grid"]
    return SliceGrid.square(complex(*g["center"]), g["half_width"], g["h"])


def _manifest(out: Path, stem: str, cfg, extra=None):
    # the output directory is run-local plumbing; dropping it keeps two
    # runs of one config byte-identical wherever they land
    cfg = {k: v for k, v in cfg.items() if k != "out"}
    write_json(out / f"{stem}.manifest.json",
               {"config": cfg, "version": __version__, **(extra or {})})


def run_julia(cfg, out: Path):
    pc = _cpoly(cfg)
    grid = _grid(cfg)
    radius = escape_radius(pc)
    inside = filled_julia_mask(pc, grid, cfg["params"]["max_iter"])
    write_pgm(out / "julia.pgm", np.where(inside[::-1], 255, 0))
    _manifest(out, "julia", cfg,
              {"inside_fraction": float(np.mean(inside)),
               "escape_radius": radius})
    print(f"julia: {inside.sum()} / {inside.size} nodes inside, "
          f"R = {radius:.3g}")


def run_equilibrium(cfg, out: Path):
    p = _qpoly(cfg)
    if not p.has_real_coeffs():
        raise ConfigError("equilibrium mode needs real coefficients")
    params = cfg["params"]
    m = brolin_pullback(p, params["target"], params["depth"])
    text = _atom_columns(m)
    write_json(out / "measure.json", text)
    write_csv(out / "measure.csv", ["kind", "alpha", "rho", "weight"], text)
    _manifest(out, "measure", cfg, {"atoms": len(m)})
    print(f"equilibrium: {len(m)} atoms, mass {m.total_mass():.6f}")


def run_green(cfg, out: Path):
    pc = _cpoly(cfg)
    grid = _grid(cfg)
    depth = cfg["params"]["depth"]
    g = green_field(pc, grid, depth)
    vmax = float(np.max(g.values))
    # an all-zero raster (every node inside K) draws black
    write_pgm(out / "green.pgm",
              np.clip(g.values[::-1] / (vmax or 1.0) * 255.0, 0, 255))
    write_csv(out / "green_stats.csv", ["quantity", "value"],
              [["max", vmax], ["cell_sum", g.cell_sum()],
               ["zero_fraction", float(np.mean(g.values == 0.0))]])
    _manifest(out, "green", cfg, {"grid": grid.to_json(), "depth": depth})
    print(f"green: depth {depth}, max {vmax:.4f}")


def run_delta_star(cfg, out: Path):
    center = cfg["params"]["center"]
    rows = []
    by_h_real, by_h_pair = {}, {}
    a, b = center[0], abs(center[1])
    want_r, want_p = 0.5 * _BUMP(a, 0.0), float(_BUMP(a, b))
    for h in cfg["params"]["h_list"]:
        # the real point's kernel and the sphere's conjugate pair
        got_r, got_p = kernel_pairings(
            SliceGrid.square(0j, 2.0, h), _BUMP,
            [[complex(a, 0.0)], [complex(a, b), complex(a, -b)]])
        by_h_real[h], by_h_pair[h] = got_r, got_p
        rows.append([h, got_r, want_r, got_p, want_p])
    write_csv(out / "delta_star.csv",
              ["h", "real_value", "real_expected", "pair_value",
               "pair_expected"], rows)
    _, got_r, want_r, got_p, want_p = min(rows, key=lambda row: row[0])
    report = {
        "real_order": refinement_order(by_h_real, want_r),
        "pair_order": refinement_order(by_h_pair, want_p),
        "finest_real_rel_err": abs(got_r / want_r - 1.0),
        "finest_pair_rel_err": abs(got_p / want_p - 1.0),
    }
    write_json(out / "delta_star.json", report)
    _manifest(out, "delta_star", cfg)
    print(f"delta-star: rel errs {report['finest_real_rel_err']:.2e} / "
          f"{report['finest_pair_rel_err']:.2e}")


def run_lyapunov(cfg, out: Path):
    p, pc = _qpoly(cfg), _cpoly(cfg)
    params = cfg["params"]
    rep = lyapunov_slice(pc, params["n_samples"], cfg["seed"])
    result = rep.to_json()
    if params["sphere_beta"] > 0:
        result["sphere_direction"] = lyapunov_sphere_direction(
            p, params["sphere_alpha"], params["sphere_beta"],
            params["sphere_n"])
    write_json(out / "lyapunov.json", result)
    _manifest(out, "lyapunov", cfg)
    print(f"lyapunov: {rep.value:.5f} +- {rep.stderr:.5f}")


def run_entropy(cfg, out: Path):
    pc = _cpoly(cfg)
    params = cfg["params"]
    kind, box = params["kind"], params["box"]
    if kind == "topological":
        rep = topological_entropy(pc, AxialBox(*box), params["n_max"],
                                  params["eps_list"], params["grid_density"],
                                  cfg["seed"])
        write_csv(out / "entropy_counts.csv", ["n", "count"],
                  rep.params["counts"])
    else:
        part = interval_partition(box[0], box[1], params["cells"])
        rep = partition_entropy(pc, part, params["n_max"], params["samples"],
                                cfg["seed"])
        write_csv(out / "entropy_counts.csv", ["n", "H_n"],
                  rep.params["H_n"])
    write_json(out / "entropy.json", rep.to_json())
    _manifest(out, "entropy", cfg)
    print(f"entropy ({kind}): {rep.value:.4f} +- {rep.stderr:.4f}")


def run_mixing(cfg, out: Path):
    pc = _cpoly(cfg)
    params = cfg["params"]
    panel = standard_panel()
    # observe |q|^2 at the base point, Re at the forward point: the swapped
    # pair vanishes identically for even maps by parity
    corr = mixing_correlation(pc, panel["abs2"], panel["re"], params["n_max"],
                              params["samples"], cfg["seed"])
    slope = fit_log_slope(corr, n_min=2)
    write_csv(out / "mixing.csv", ["n", "correlation"], corr)
    write_json(out / "mixing.json",
               {"name": "mixing_slope", "value": slope,
                "pair": ["abs2", "re"], "seed": cfg["seed"]})
    _manifest(out, "mixing", cfg)
    print(f"mixing: slope {slope:.4f} (log d = {math.log(pc.degree):.4f})")


def run_clt(cfg, out: Path):
    """KS of S_n/sqrt(n), phi = Re, against `clt_ks_bar`; null_95, null and
    pass are null where no exact null applies. null_reps changes nothing."""
    pc = _cpoly(cfg)
    params = cfg["params"]
    res = clt_harness(pc, standard_panel()["re"], params["n_terms"],
                      params["n_samples"], cfg["seed"])
    bar = clt_ks_bar(pc, params["n_terms"], params["n_samples"])
    ok = ((not res.degenerate) and res.ks_statistic <= bar) if bar else None
    write_json(out / "clt.json", {
        "ks": res.ks_statistic, "sigma": res.sigma_hat,
        "degenerate": res.degenerate, "null_95": bar,
        "null": CLT_NULL if bar else None, "pass": ok})
    _manifest(out, "clt", cfg)
    print(f"clt: ks {res.ks_statistic:.4f} vs null bar {bar or 'none'}")


def run_one_slice(cfg, out: Path):
    pc = _cpoly(cfg)
    params = cfg["params"]
    depth, target = params["depth"], params["target"]
    mp = mu_prime_estimate(pc, depth, target)
    mg = gn_pullback_measure(pc, target, depth)
    dist = weak_distance(mg, mp)
    write_json(out / "mu_prime.json", _atom_columns(mp))
    write_json(out / "gn_pullback.json", _atom_columns(mg))
    write_json(out / "one_slice.json",
               {"weak_distance": dist, "depth": depth, "target": target,
                "real_mass": sum(mp.weight[mp.rho == 0.0].tolist())})
    _manifest(out, "one_slice", cfg)
    print(f"one-slice: distance {dist:.4f} at depth {depth}")


def run_general_gap(cfg, out: Path):
    p = _qpoly(cfg)
    params = cfg["params"]
    a, b = params["a"], params["b"]
    probes = annulus_probes(params["probe_count"])
    rows = [[n, brolin3_gap(p, a, b, n, probes)]
            for n in params["n_list"]]
    write_csv(out / "gap.csv", ["n", "gap"], rows)
    n_max, final_gap = max(rows, key=lambda row: row[0])
    write_json(out / "gap.json",
               {"a": a, "b": b, "final_gap": final_gap, "n_max": n_max})
    _manifest(out, "gap", cfg)
    print(f"general-gap: gap({n_max}) = {final_gap:.3e}")


def _star_algebra_worst(seed):
    """Worst errors of (f*g)^c = g^c * f^c, of the realness of f^c * f and
    of (f*g)(q) = f(q) g(T_f(q)), each over 100 trials of f (degree 3),
    g (degree 2) and q drawn in turn, checked as one batch."""
    rng = np.random.default_rng(seed)

    def trials(*shapes):
        draws = [[rng.normal(size=s) for s in shapes] for _ in range(100)]
        return [np.stack(x) for x in zip(*draws)]

    conj = np.array([1.0, -1.0, -1.0, -1.0])
    f, g = trials((4, 4), (3, 4))
    diff = star(f, g) * conj - star(g * conj, f * conj)
    antihom = float(np.max(np.linalg.norm(diff, axis=-1)))
    f, = trials((4, 4))
    x, y, z = np.moveaxis(star(f * conj, f)[..., 1:], -1, 0)
    realness = float(np.max(np.sqrt(x * x + y * y + z * z)))
    f, g, q = trials((4, 4), (3, 4), (4,))
    fq = evaluate(f, q)
    ok = np.sqrt(norm_sq(fq)) > 1e-12
    want = np.zeros_like(fq)
    want[ok] = hamilton(fq[ok], evaluate(
        g[ok], star_conjugation_point(f[ok], q[ok])))
    got = evaluate(star(f, g), q)
    identity = float(np.max(np.sqrt(norm_sq(got - want))
                            / (1.0 + np.sqrt(norm_sq(got)))))
    return antihom, realness, identity


def run_verify(cfg, out: Path):
    """Fast invariant suite; InvariantViolation (exit 3) names the failed
    checks, after the files and the summary are written."""
    seed = cfg["seed"]
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    anti, sym, ident = _star_algebra_worst(seed)
    check("conj antihomomorphism", anti < 1e-10, f"worst {anti:.2e}")
    check("symmetrization realness", sym < 1e-10, f"worst {sym:.2e}")
    check("star evaluation identity", ident < 1e-9, f"worst {ident:.2e}")

    weights = sphere_quadrature(3)[1]
    check("quadrature total weight",
          abs(np.sum(weights) - 4.0 * math.pi) < 1e-12)

    p2 = QPolynomial.from_real([-2.0, 0.0, 1.0])
    nu = brolin_pullback(p2, 0.0, 8)
    check("pullback mass", abs(nu.total_mass() - 1.0) < 1e-12)
    push = pushforward(p2, nu)
    dist = weak_distance(push, nu)
    check("pushforward invariance", dist < 0.05, f"distance {dist:.4f}")

    pc = p2.restrict_to_slice()
    s1 = sample_mu(pc, 500, seed)
    s2 = sample_mu(pc, 500, seed)
    check("sampler determinism", np.array_equal(s1, s2))
    check("sampler stays on Julia set",
          float(np.max(np.abs(s1.imag))) < 1e-9
          and float(np.max(np.abs(s1.real))) <= 2.0 + 1e-9)

    grid = SliceGrid.square(0j, 2.0, 1.0 / 64)
    got = kernel_pairings(grid, _BUMP, [[0.3 + 0j]])[0]
    want = 0.5 * _BUMP(0.3, 0.0)
    rel = abs(got / want - 1.0)
    check("fundamental solution (coarse)", rel < 0.05, f"rel err {rel:.2e}")

    rows = [[name, int(ok), detail] for name, ok, detail in checks]
    write_csv(out / "verify.csv", ["check", "pass", "detail"], rows)
    write_json(out / "verify.json",
               {"checks": [{"name": n, "pass": o, "detail": d}
                           for n, o, d in checks],
                "all_pass": all(o for _, o, _ in checks), "seed": seed})
    _manifest(out, "verify", cfg)
    width = max(len(n) for n, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        raise InvariantViolation(f"verify checks failed: {failed}")


class _Param(NamedTuple):
    default: object     # a value, or a function of the params resolved before
    ok: Callable        # (value, params resolved before) -> bool; defaults too
    what: str           # what ok asks for, for the error message
    cast: Callable = lambda v: v    # applied to a value that passed ok


def _count(default, low):
    return _Param(default, lambda v, _: _is_number(v) and _is_count(v, low),
                  f"an integer >= {low}")


def _real(default):
    return _Param(default, lambda v, _: _is_number(v), "a finite number",
                  float)


# a topological box bounds (alpha, beta), a partition box alpha alone
_ENTROPY_BOXES = {"topological": [-2.2, 2.2, 0.0, 1.5],
                  "partition": [-2.0, 2.0]}

# Each mode's runner and params, in the order they resolve. A count param is
# an integer of at least the smallest value with a meaning: a mixing slope
# needs lags 2 and 3, an entropy slope two n. delta-star's grids span
# [-2, 2]^2: its singularity must lie inside and off the real axis, and a
# refinement order needs two spacings, each at most 1 so that the grid has
# interior nodes, and each with at most _GRID_MAX_SIDE nodes a side.
_MODES = {
    "julia": (run_julia, {"max_iter": _count(60, 1)}),
    "equilibrium": (run_equilibrium, {
        "target": _Param(0.0, lambda v, _: _is_number(v) or _numbers(v, 1),
                         "a finite number or a list of one",
                         lambda v: float(v[0] if isinstance(v, list) else v)),
        "depth": _count(10, 0)}),
    "green": (run_green, {"depth": _count(12, 0)}),
    "delta-star": (run_delta_star, {
        "center": _Param([0.3, 0.4], lambda v, _: _numbers(v, 2)
                         and max(map(abs, v)) < 2 and v[1] != 0,
                         "[alpha, beta] in (-2, 2)^2 with beta != 0"),
        "h_list": _Param([1.0 / 64, 1.0 / 128, 1.0 / 256],
                         lambda v, _: _numbers(v) and len(set(v)) > 1
                         and all(0 < h <= 1 and _side_fits(4.0, h)
                                 for h in v),
                         "two or more distinct spacings h in (0, 1], "
                         f"round(4 / h) + 1 <= {_GRID_MAX_SIDE}")}),
    "lyapunov": (run_lyapunov, {
        "n_samples": _count(20000, 2), "sphere_alpha": _real(0.0),
        "sphere_beta": _real(0.0), "sphere_n": _count(20, 1)}),
    "entropy": (run_entropy, {
        "kind": _Param("topological",
                       lambda v, _: v in ("topological", "partition"),
                       "topological or partition"),
        "box": _Param(lambda params: _ENTROPY_BOXES[params["kind"]],
                      lambda v, params: _numbers(
                          v, len(_ENTROPY_BOXES[params["kind"]]))
                      and all(lo < hi for lo, hi in zip(v[::2], v[1::2])),
                      "finite increasing bounds, 4 (topological) or 2 "
                      "(partition)"),
        "n_max": _count(8, 2),
        # separated_count compares float32 squared distances with eps^2
        # (squared as a float: a large int's square has no float32 value)
        "eps_list": _Param([0.2, 0.3], lambda v, _: _numbers(v) and all(
            e > 0 and np.float32(float(e) * e) > 0 for e in v),
                           "a list of finite numbers above about 2.6e-23, "
                           "whose squares are positive in float32"),
        "grid_density": _count(20000, 1), "cells": _count(16, 1),
        "samples": _count(100000, 1)}),
    "mixing": (run_mixing, {"n_max": _count(10, 3),
                            "samples": _count(100000, 1)}),
    "clt": (run_clt, {"n_terms": _count(200, 1), "n_samples": _count(10000, 2),
                      "null_reps": _count(200, 1)}),
    "one-slice": (run_one_slice, {"depth": _count(6, 1),
                                  "target": _real(0.0)}),
    "general-gap": (run_general_gap, {
        "a": _real(0.0), "b": _real(1.0),
        "n_list": _Param(list(range(1, 9)), lambda v, _: _numbers(v) and all(
            _is_count(n, 1) for n in v), "a list of integers >= 1"),
        "probe_count": _count(100, 1)}),
    "verify": (run_verify, {}),
}
MODES = tuple(_MODES)


def load_config(path: str, overrides) -> dict:
    """The config at path with the non-None overrides applied, every value
    checked, and every param and grid key resolved: defaults filled in,
    float params cast to float. ConfigError names the first bad key."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(raw, **{k: v for k, v in overrides.items() if v is not None})
    mode = cfg.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", ".")
    if not _is_count(cfg["seed"], 0):
        raise ConfigError(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    given, table = cfg.get("params", {}), _MODES[mode][1]
    if not isinstance(given, dict):
        raise ConfigError("params must be an object")
    bad = set(given) - set(table)
    if bad:
        raise ConfigError(f"unknown params for mode {mode}: {sorted(bad)}")
    cfg["params"] = {}
    for key, spec in table.items():
        value = given.get(key, spec.default)
        if callable(value):
            value = value(cfg["params"])
        if not spec.ok(value, cfg["params"]):
            raise ConfigError(
                f"params.{key} must be {spec.what}, got {value!r}")
        cfg["params"][key] = spec.cast(value)
    g = cfg.get("grid", {})
    if not isinstance(g, dict) or set(g) - set(_GRID_DEFAULTS):
        raise ConfigError(f"grid keys must be within {sorted(_GRID_DEFAULTS)}")
    g = cfg["grid"] = dict(_GRID_DEFAULTS, **g)
    if not all(_is_number(g[k]) and g[k] > 0 for k in ("half_width", "h")):
        raise ConfigError("grid.half_width and grid.h must be positive numbers")
    if not _numbers(g["center"], 2):
        raise ConfigError(f"grid.center must be two numbers, got {g['center']!r}")
    if not _side_fits(2 * g["half_width"], g["h"]):
        raise ConfigError(
            f"grid must have 2 to {_GRID_MAX_SIDE} nodes a side, round(2 "
            f"half_width / h) + 1; 2 half_width / h is "
            f"{2 * g['half_width'] / g['h']!r}")
    if mode != "verify" and "polynomial" not in cfg:
        raise ConfigError(f"mode {mode} requires a polynomial")
    return cfg


def run(cfg: dict) -> int:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    _MODES[cfg["mode"]][0](cfg, out)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="qbrolin",
        description="equilibrium-measure experiments for quaternionic polynomials")
    ap.add_argument("config", help="JSON config file")
    ap.add_argument("--mode", choices=MODES)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    try:
        return run(load_config(args.config, {"mode": args.mode,
                                             "seed": args.seed,
                                             "out": args.out}))
    except QBrolinError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
