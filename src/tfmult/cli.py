"""Command-line front end: run configured experiments, emit CSV and SVG.

Usage:
    tfmult list
    tfmult validate <config.ini>
    tfmult run <config.ini>

Configuration files are flat INI: one [experiment] section of key = value
pairs, lists comma-separated.  Results land in the directory named by the
``out`` key (overridden by the TFMULT_OUT environment variable) as
``results.csv`` plus, for table experiments, ``plot.svg``.

CSV schema (stable column order): experiment, parameters, measured,
predicted, rel_deviation, refinement_estimate.  The predicted column is
empty when no closed-form prediction applies.  Exit codes: 0 all assertions
passed, 1 an assertion failed, 2 configuration or parameter error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import verify
from .core import ParameterError, _check_coarsenable, default_grid, make_grid, sample
from .mult import _check_unimodular_alpha, symbol_unimodular
from .tf import _check_exponent, gaussian_window
from .verify import DEFAULT_SEED


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return format(float(v), ".12g")


def emit_csv(rows, path: Path) -> None:
    """Write result rows; UTF-8, deterministic order, 12 significant digits."""
    header = "experiment,parameters,measured,predicted,rel_deviation,refinement_estimate"
    lines = [header]
    for r in rows:
        lines.append(",".join([
            r["experiment"],
            r["parameters"],
            _fmt(r.get("measured")),
            _fmt(r.get("predicted")),
            _fmt(r.get("rel_deviation")),
            _fmt(r.get("refinement_estimate")),
        ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_svg(series, path: Path, title: str = "") -> None:
    """Standalone SVG line/scatter plot: {name: (xs, ys)} with shared axes."""
    W, H, M = 640, 420, 60
    xs_all = [x for _, (xs, _) in series.items() for x in xs]
    ys_all = [y for _, (_, ys) in series.items() for y in ys
              if y is not None and not math.isnan(y)]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    if not ys_all:
        ys_all = [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return M + (x - x0) / (x1 - x0) * (W - 2 * M)

    def py(y):
        return H - M - (y - y0) / (y1 - y0) * (H - 2 * M)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
        f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{M - 8}" y="{H - M + 4}" text-anchor="end" font-size="10">{_fmt(y0)}</text>',
        f'<text x="{M - 8}" y="{M + 4}" text-anchor="end" font-size="10">{_fmt(y1)}</text>',
        f'<text x="{M}" y="{H - M + 16}" text-anchor="middle" font-size="10">{_fmt(x0)}</text>',
        f'<text x="{W - M}" y="{H - M + 16}" text-anchor="middle" font-size="10">{_fmt(x1)}</text>',
    ]
    for i, (name, (xs, ys)) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        pts = [(px(x), py(y)) for x, y in zip(xs, ys)
               if y is not None and not math.isnan(y)]
        if len(pts) > 1:
            poly = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
            parts.append(f'<polyline points="{poly}" fill="none" stroke="{color}"/>')
        for a, b in pts:
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{W - M}" y="{M + 14 * (i + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# configuration


class ConfigError(Exception):
    pass


def _floats(cfg, key, default=None):
    raw = cfg.get(key, None)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return list(default)
    try:
        vals = [float(s) for s in raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad list for {key!r}: {raw}") from exc
    if not vals or not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{key!r} must be a non-empty list of finite numbers, got {raw!r}")
    return vals


def _float(cfg, key, default=None, finite=True):
    raw = cfg.get(key, None)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return float(default)
    try:
        v = float("inf") if raw.strip() in ("inf", "oo") else float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad number for {key!r}: {raw}") from exc
    if finite and not math.isfinite(v):
        raise ConfigError(f"{key!r} must be a finite number, got {raw!r}")
    return v


def _exponent(cfg, key, default=None):
    """A Lebesgue exponent in [1, inf]; inf is allowed, nan is not."""
    try:
        return _check_exponent(_float(cfg, key, default, finite=False))
    except ParameterError as exc:
        raise ConfigError(f"{key!r}: {exc}") from exc


def _int(cfg, key, default=None):
    v = _float(cfg, key, default, finite=False)
    if not v.is_integer():
        raise ConfigError(f"{key!r} must be an integer, got {cfg.get(key, default)}")
    return int(v)


def load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "experiment" not in parser:
        raise ConfigError("config must contain an [experiment] section")
    cfg = dict(parser["experiment"])
    if "name" not in cfg:
        raise ConfigError("missing key 'name'")
    if cfg["name"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg['name']!r}; see 'tfmult list'")
    return cfg


def _grid_from(cfg, d_default=1, L_default=None, N_default=None):
    d = _int(cfg, "d", d_default)
    base = default_grid(d)
    L = _float(cfg, "l", L_default if L_default is not None else base.L)
    N = _int(cfg, "n", N_default if N_default is not None else base.N)
    return make_grid(d, L, N)


# ---------------------------------------------------------------------------
# experiment runners: cfg -> (rows, plot_series or None, ok)


def _run_chirp_stft(cfg):
    grid = _grid_from(cfg, 1, 32.0, 2048)
    rows, ok = [], True
    tol = _float(cfg, "tolerance", 1e-6)
    for t in _floats(cfg, "t_list", (0.0, 0.5, 1.0, 2.0)):
        rep = verify.verify_chirp_stft(grid, t)
        ok = ok and rep.max_abs_error < tol
        rows.append({
            "experiment": "chirp_stft",
            "parameters": f"t={t:g};L={grid.L:g};N={grid.N};aliased={rep.aliasing_warning}",
            "measured": rep.max_abs_error,
            "predicted": 0.0,
            "rel_deviation": rep.max_abs_error,
        })
    return rows, None, ok


def _run_amalgam_constants(cfg):
    d = _int(cfg, "d", 1)
    t_list = _floats(cfg, "t_list", (0.5, 1.0, 2.0, 4.0))
    tol = _float(cfg, "tolerance", 0.02 if d == 1 else 0.05)
    rows, ok = [], True
    series = {"W measured": ([], []), "W predicted": ([], [])}
    for r in verify.verify_amalgam_constants(t_list, d=d):
        ok = ok and r.w_rel_err < tol
        rows.append({
            "experiment": "amalgam_constants",
            "parameters": f"norm=W;t={r.t:g};d={d}",
            "measured": r.w_measured,
            "predicted": r.w_predicted,
            "rel_deviation": r.w_rel_err,
            "refinement_estimate": r.w_refinement,
        })
        series["W measured"][0].append(r.t)
        series["W measured"][1].append(r.w_measured)
        series["W predicted"][0].append(r.t)
        series["W predicted"][1].append(r.w_predicted)
        if not math.isnan(r.m1inf_measured):
            ok = ok and r.m1inf_rel_err < tol
            rows.append({
                "experiment": "amalgam_constants",
                "parameters": f"norm=M1inf;t={r.t:g};d={d}",
                "measured": r.m1inf_measured,
                "predicted": r.m1inf_predicted,
                "rel_deviation": r.m1inf_rel_err,
            })
    return rows, series, ok


def _run_divergence(cfg):
    t = _float(cfg, "t", 1.0)
    boxes = _floats(cfg, "l_list", (16.0, 32.0, 64.0))
    rep = verify.verify_m_inf_1_divergence(t, boxes)
    rows = [{
        "experiment": "m_inf_1_divergence",
        "parameters": f"t={t:g};L={L:g}",
        "measured": v,
    } for L, v in zip(rep.box_sizes, rep.values)]
    ok = True
    if t != 0:
        ok = all(g >= 1.5 for g in rep.growth_factors)
        for L, g in zip(rep.box_sizes[1:], rep.growth_factors):
            rows.append({
                "experiment": "m_inf_1_divergence",
                "parameters": f"t={t:g};growth_to_L={L:g}",
                "measured": g,
                "predicted": 2.0,
                "rel_deviation": abs(g - 2.0) / 2.0,
            })
    series = {"norm vs box": (rep.box_sizes, rep.values)}
    return rows, series, ok


def _series_depth(cfg):
    """(K, J) of the dyadic series, range-checked as ``dyadic_fl1_series`` does."""
    K, J = _int(cfg, "k", 40), _int(cfg, "j", 20)
    verify._check_series_depth(K, J)
    return K, J


def _run_dyadic_series(cfg):
    K, J = _series_depth(cfg)
    rows, ok = [], True
    for alpha in _floats(cfg, "alpha_list", (0.5, 1.0, 2.0)):
        rep = verify.dyadic_fl1_series(alpha, K=K, J=J)
        ok = ok and (rep.series_bound >= rep.direct_fl1
                     and math.isfinite(rep.series_bound)
                     and rep.cauchy_k is not None
                     and rep.direct_refinement < 0.01)
        rows.append({
            "experiment": "dyadic_series",
            "parameters": f"alpha={alpha:g};quantity=direct_fl1",
            "measured": rep.direct_fl1,
            "refinement_estimate": rep.direct_refinement,
        })
        rows.append({
            "experiment": "dyadic_series",
            "parameters": f"alpha={alpha:g};quantity=series_bound;cauchy_k={rep.cauchy_k}",
            "measured": rep.series_bound,
        })
    return rows, None, ok


def _run_sin_singular(cfg):
    alpha = _float(cfg, "alpha", 1.0)
    delta = _float(cfg, "delta", 1.0)
    rep = verify.verify_sin_singular_fl1(alpha, delta)
    ok = (math.isfinite(rep.direct_fl1) and rep.direct_refinement < 0.01 and rep.cauchy)
    rows = [{
        "experiment": "sin_singular_fl1",
        "parameters": f"alpha={alpha:g};delta={delta:g}",
        "measured": rep.direct_fl1,
        "refinement_estimate": rep.direct_refinement,
    }]
    return rows, None, ok


def _run_linear_phase(cfg):
    n = _int(cfg, "cases", 50)
    seed = _int(cfg, "seed", DEFAULT_SEED)
    cases = verify.linear_phase_random_cases(n, seed)
    rows, ok = [], True
    worst = 0.0
    for label, before, after in cases:
        dev = abs(before - after) / max(before, 1e-300)
        worst = max(worst, dev)
        ok = ok and dev < 1e-12
    rows.append({
        "experiment": "linear_phase",
        "parameters": f"cases={n};seed={seed}",
        "measured": worst,
        "predicted": 0.0,
        "rel_deviation": worst,
    })
    return rows, None, ok


def _run_operator_probe(cfg):
    alphas = _floats(cfg, "alpha_list", (0.5, 1.0, 1.5, 2.0))
    pq_list = [(1.0, 1.0), (2.0, 2.0), (float("inf"), 1.0), (1.0, float("inf"))]
    N = _int(cfg, "n", 512)
    L = _float(cfg, "l", 32.0)
    probes = {}  # per N: the family, window and base norms, which no alpha changes
    for NN in (N, 2 * N):
        grid = make_grid(1, L, NN)
        family, g = verify.probe_family(grid), gaussian_window(grid)
        probes[NN] = (grid, family, g, verify.probe_base_norms(family, g, pq_list))
    rows, ok = [], True
    for alpha in alphas:
        maxima = {}
        for NN, (grid, family, g, base) in probes.items():
            sig = symbol_unimodular(grid, alpha, t=1.0)
            reps = verify.probe_ratios(sig, pq_list, family, g, base)
            maxima[NN] = {pq: reps[pq].max_ratio for pq in pq_list}
        for pq in pq_list:
            a, b = maxima[N][pq], maxima[2 * N][pq]
            change = abs(a - b) / max(a, 1e-300)
            ok = ok and change < 0.05 and b < 10.0
            rows.append({
                "experiment": "operator_probe",
                "parameters": f"alpha={alpha:g};p={pq[0]:g};q={pq[1]:g};N={2 * N}",
                "measured": b,
                "rel_deviation": change,
            })
    return rows, None, ok


def _run_lp_contrast(cfg):
    t = _float(cfg, "t", 1.0)
    lambdas = _floats(cfg, "lambda_list", (1.0, 2.0, 4.0, 8.0))
    rep = verify.lp_contrast_probe(t, lambdas)
    increasing = all(b > a for a, b in zip(rep.l1_ratios, rep.l1_ratios[1:]))
    spread = max(rep.m11_ratios) / min(rep.m11_ratios)
    ok = (t == 0 or increasing) and spread < 3.0
    rows = []
    for lam, r, o, m in zip(rep.lambdas, rep.l1_ratios, rep.l1_oracle, rep.m11_ratios):
        rows.append({
            "experiment": "lp_contrast",
            "parameters": f"t={t:g};lambda={lam:g};space=L1",
            "measured": r,
            "predicted": o,
            "rel_deviation": abs(r - o) / o,
        })
        rows.append({
            "experiment": "lp_contrast",
            "parameters": f"t={t:g};lambda={lam:g};space=M11",
            "measured": m,
        })
    series = {"L1 ratio": (rep.lambdas, rep.l1_ratios),
              "L1 oracle": (rep.lambdas, rep.l1_oracle),
              "M11 ratio": (rep.lambdas, rep.m11_ratios)}
    return rows, series, ok


def _default_initial_data(grid):
    g1 = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
    g2 = sample(lambda x: np.exp(2j * np.pi * x) * np.exp(-np.pi * (x - 1.0) ** 2), grid)
    return [("gauss", g1), ("mod_shift_gauss", g2)]


def _run_schrodinger(cfg):
    grid = _grid_from(cfg, 1, 32.0, 2048)
    t_list = _floats(cfg, "t_list", (0.5, 1.0, 2.0, 4.0))
    p = _exponent(cfg, "p", 1.0)
    q = _exponent(cfg, "q", float("inf"))
    w = gaussian_window(grid)
    fields = _default_initial_data(grid)
    rep = verify.schrodinger_conservation(fields, w, p, q, t_list)
    ok = rep.stability < 0.10
    rows = []
    for (label, t), r in sorted(rep.ratios.items()):
        rows.append({
            "experiment": "schrodinger_conservation",
            "parameters": f"f={label};t={t:g};p={p:g};q={q:g}",
            "measured": r,
            "predicted": rep.fitted_c * (t * t + 4 * np.pi ** 2) ** 0.25,
            "rel_deviation": rep.c_values[(label, t)] / rep.fitted_c,
        })
    l2 = verify.schrodinger_conservation(fields[:1], w, 2, 2, t_list)
    for (label, t), r in sorted(l2.ratios.items()):
        ok = ok and abs(r - 1.0) < 1e-10
        rows.append({
            "experiment": "schrodinger_conservation",
            "parameters": f"f={label};t={t:g};p=2;q=2",
            "measured": r,
            "predicted": 1.0,
            "rel_deviation": abs(r - 1.0),
        })
    series = {label: (t_list, [rep.ratios[(label, t)] for t in t_list])
              for label, _ in fields}
    return rows, series, ok


def _run_wave(cfg):
    grid = _grid_from(cfg, 1, 32.0, 2048)
    t_list = _floats(cfg, "t_list", (0.5, 1.0, 2.0))
    p = _exponent(cfg, "p", 1.0)
    q = _exponent(cfg, "q", 1.0)
    w = gaussian_window(grid)
    f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
    g0 = sample(lambda x: np.zeros_like(x), grid)
    rep = verify.wave_conservation(f, g0, w, p, q, t_list)
    ok = rep.energy_drift < 1e-10 and all(r < 0.01 for r in rep.refinement)
    rows = [{
        "experiment": "wave_conservation",
        "parameters": f"t={t:g};p={p:g};q={q:g}",
        "measured": c,
        "refinement_estimate": r,
    } for t, c, r in zip(rep.t_list, rep.c_values, rep.refinement)]
    rows.append({
        "experiment": "wave_conservation",
        "parameters": "quantity=energy_drift",
        "measured": rep.energy_drift,
        "predicted": 0.0,
        "rel_deviation": rep.energy_drift,
    })
    series = {"C(t)": (rep.t_list, rep.c_values)}
    return rows, series, ok


EXPERIMENTS = {
    "chirp_stft": _run_chirp_stft,
    "amalgam_constants": _run_amalgam_constants,
    "m_inf_1_divergence": _run_divergence,
    "dyadic_series": _run_dyadic_series,
    "sin_singular_fl1": _run_sin_singular,
    "linear_phase": _run_linear_phase,
    "operator_probe": _run_operator_probe,
    "lp_contrast": _run_lp_contrast,
    "schrodinger_conservation": _run_schrodinger,
    "wave_conservation": _run_wave,
}


def _validate(cfg) -> None:
    """Re-parse every numeric key and grid parameter without running anything."""
    name = cfg["name"]
    if "n" in cfg or "l" in cfg or "d" in cfg:
        _grid_from(cfg)
    for key in ("t", "alpha", "delta", "tolerance"):
        if key in cfg:
            _float(cfg, key)
    for key in ("p", "q"):
        if key in cfg:
            _exponent(cfg, key)
    for key in ("seed", "cases", "k", "j"):
        if key in cfg:
            _int(cfg, key)
    for key in ("t_list", "l_list", "alpha_list", "lambda_list"):
        if key in cfg:
            _floats(cfg, key)
    if name != "amalgam_constants" and _int(cfg, "d", 1) != 1:
        raise ConfigError(f"{name} is one-dimensional; only amalgam_constants takes d = 2")
    if name == "m_inf_1_divergence" and "l_list" in cfg:
        verify._check_boxes(_floats(cfg, "l_list"))
    if name == "lp_contrast" and "lambda_list" in cfg:
        verify._check_dilations(_floats(cfg, "lambda_list"))
    if name == "linear_phase" and "cases" in cfg:
        verify._check_case_count(_int(cfg, "cases"))
    if name == "dyadic_series":
        _series_depth(cfg)
        for alpha in _floats(cfg, "alpha_list", ()):
            verify._check_dyadic_alpha(alpha)
    if name == "operator_probe":
        for alpha in _floats(cfg, "alpha_list", ()):
            _check_unimodular_alpha(alpha)
    if name == "sin_singular_fl1":
        verify._check_sin_singular(_float(cfg, "alpha", 1.0), _float(cfg, "delta", 1.0))
    if name == "wave_conservation":  # its refinement recompute coarsens the grid
        _check_coarsenable(_grid_from(cfg))


def run_experiment(cfg, out_dir: Path) -> int:
    rows, series, ok = EXPERIMENTS[cfg["name"]](cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(rows, out_dir / "results.csv")
    if series is not None:
        emit_svg(series, out_dir / "plot.svg", title=cfg["name"])
    if not ok:
        for r in rows:
            print(f"FAIL-context: {r['experiment']} {r['parameters']} "
                  f"measured={_fmt(r.get('measured'))}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tfmult", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="enumerate available experiments")
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    args = parser.parse_args(argv)

    if args.cmd == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    try:
        cfg = load_config(args.config)
        _validate(cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd == "validate":
        print(f"ok: {cfg['name']}")
        return 0
    out = os.environ.get("TFMULT_OUT") or cfg.get("out", ".")
    try:
        return run_experiment(cfg, Path(out))
    except (ParameterError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
