"""Command-line front end: run configured experiments, emit CSV and SVG.

Usage:
    tfmult list
    tfmult validate <config.ini>
    tfmult run <config.ini>

Configuration files are flat INI: one [experiment] section of key = value
pairs, lists comma-separated.  Results land in the directory named by the
``out`` key (overridden by the TFMULT_OUT environment variable) as
``results.csv`` plus, for table experiments, ``plot.svg``.

Parameter schema, the one place where keys, defaults and ranges live: the
keys an experiment takes are its plan's keyword parameters, with the keyword
defaults as their defaults, and ``PARSERS`` gives each key's kind;
``parse_params`` reads only these, and a key the experiment does not take is
an error.  Each experiment is a plan: it derives the grids, windows,
symbols and comparison regions its run measures, the closed-form
predictions that need a check and the fields that can overflow, runs each
check once, starts no FFT, and returns its measure step.  The measure step
hands all of these to ``verify`` as required arguments, and nothing there
derives or checks them again.  ``validate`` runs the plan; ``run`` runs the
plan and then the measure step (``EXPERIMENTS`` holds the runners that do
both), so a config that validates is one that run can measure.

CSV schema (stable column order): experiment, parameters, measured,
predicted, rel_deviation, refinement_estimate.  The predicted column is
empty when no closed-form prediction applies.  Exit codes: 0 all assertions
passed, 1 an assertion failed, 2 configuration or parameter error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import inspect
import math
import os
import sys
from pathlib import Path

from . import verify
from .core import ParameterError, SamplingError, default_grid, half_grid, l1_norm, make_grid
from .mult import symbol_unimodular, wave_symbols
from .tf import (_check_exponent, bump_chi, gaussian_window, modulation_norm,
                 modulation_norms_multi)
from .verify import DEFAULT_SEED


def _fmt(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return format(float(v), ".12g")


_COLUMNS = ("experiment", "parameters", "measured", "predicted", "rel_deviation",
           "refinement_estimate")


def emit_csv(rows, path: Path) -> None:
    """Write result rows; UTF-8, deterministic order, 12 significant digits."""
    lines = [",".join(_COLUMNS)]
    for r in rows:
        lines.append(",".join([r["experiment"], r["parameters"],
                               *(_fmt(r.get(key)) for key in _COLUMNS[2:])]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _span(lo, hi) -> tuple:
    """(lo, hi) with a one-valued span widened by 1, or by one ulp of lo where 1 is less."""
    return (lo, hi) if hi > lo else (lo, lo + max(1.0, math.ulp(lo)))


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
    x0, x1 = _span(min(xs_all), max(xs_all))
    y0, y1 = _span(min(ys_all), max(ys_all))

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


def _number(key, raw) -> float:
    try:
        return float("inf") if raw.strip() in ("inf", "oo") else float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad number for {key!r}: {raw}") from exc


def _float(key, raw) -> float:
    v = _number(key, raw)
    if not math.isfinite(v):
        raise ConfigError(f"{key!r} must be a finite number, got {raw!r}")
    return v


def _exponent(key, raw) -> float:
    """A Lebesgue exponent in [1, inf]; inf is allowed, nan is not."""
    try:
        return _check_exponent(_number(key, raw))
    except ParameterError as exc:
        raise ConfigError(f"{key!r}: {exc}") from exc


def _int(key, raw) -> int:
    """Exact for integer literals; integer-valued spellings such as 1e3 also pass."""
    try:
        return int(raw)
    except ValueError:
        v = _number(key, raw)
    if not v.is_integer():
        raise ConfigError(f"{key!r} must be an integer, got {raw}")
    return int(v)


def _floats(key, raw) -> tuple:
    try:
        vals = tuple(float(s) for s in raw.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"bad list for {key!r}: {raw}") from exc
    if not vals or not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{key!r} must be a non-empty list of finite numbers, got {raw!r}")
    return vals


# the kind of every key any experiment takes: its INI text -> value
PARSERS = {
    **dict.fromkeys(("d", "n", "k", "j", "cases", "seed"), _int),
    **dict.fromkeys(("l", "t", "alpha", "delta", "tolerance"), _float),
    **dict.fromkeys(("p", "q"), _exponent),
    **dict.fromkeys(("t_list", "l_list", "alpha_list", "lambda_list"), _floats),
}


def load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        if "experiment" not in parser:
            raise ConfigError("config must contain an [experiment] section")
        cfg = dict(parser["experiment"])  # interpolates, so it too can raise
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}") from None
    if "name" not in cfg:
        raise ConfigError("missing key 'name'")
    if cfg["name"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg['name']!r}; see 'tfmult list'")
    return cfg


def parse_params(cfg) -> dict:
    """The plan's keyword arguments: keys parsed, defaults filled in."""
    name = cfg["name"]
    defaults = {key: par.default for key, par in
                inspect.signature(EXPERIMENTS[name]).parameters.items()}
    unknown = sorted(cfg.keys() - defaults.keys() - {"name", "out"})
    if unknown:
        note = "; only amalgam_constants takes d = 2" if "d" in unknown else ""
        raise ConfigError(f"{name} takes no key {', '.join(map(repr, unknown))} "
                          f"(it takes {', '.join(defaults)}){note}")
    return {key: PARSERS[key](key, cfg[key]) if key in cfg else default
            for key, default in defaults.items()}


# ---------------------------------------------------------------------------
# experiments: a plan takes the keyword parameters, derives and checks what its
# run measures, starts no FFT, and returns its measure step, which takes no
# argument and returns (rows, plot_series or None, ok)

_GRID = default_grid(1)  # the desk-scale 1D grid, L = 32 and N = 2048


def _row(*values, **named) -> dict:
    """A results row: the values of the leading columns, then any named; the rest are empty."""
    return dict(zip(_COLUMNS, values), **named)


def _grid_1d(l, n, factor=1):
    """The (l, factor n) grid, with N no larger than the largest grid an experiment derives."""
    if factor * n > verify.DIVERGENCE_MAX_N:
        also = f", and this experiment also measures on N = {factor}n" if factor > 1 else ""
        raise ParameterError(f"n = {n}: a 1D grid may have at most N = "
                             f"{verify.DIVERGENCE_MAX_N} points{also}")
    return make_grid(1, l, factor * n)


def _sampled(what, fn, *args):
    """``fn(*args)``, a sampled field; a non-finite sample is a ParameterError naming ``what``."""
    try:
        return fn(*args)
    except SamplingError as exc:
        raise ParameterError(f"{what}: {exc}") from None


def _check_tolerance(tolerance):
    """None stands for the experiment's own default."""
    if tolerance is not None and not tolerance > 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")


def _run_chirp_stft(t_list=(0.0, 0.5, 1.0, 2.0), tolerance=1e-6, l=_GRID.L, n=_GRID.N):
    grid = _grid_1d(l, n)
    chirps = [_sampled(f"the chirp of t = {t:g} on the grid L = {l:g}, N = {n}",
                       verify.chirp_field, grid, t) for t in t_list]
    regions = [verify._chirp_stft_region(grid, t) for t in t_list]
    # each row names whether the chirp is unresolved anywhere in the box
    aliased = [verify.chirp_aliased(grid, t, grid.L / 2.0) for t in t_list]
    _check_tolerance(tolerance)
    for t in t_list:
        verify._check_chirp_box(grid, t)
        verify._check_chirp_alias(grid, t, tolerance)
    g = gaussian_window(grid)

    def measure():
        rows, ok = [], True
        for t, f, region, alias in zip(t_list, chirps, regions, aliased):
            err = verify.verify_chirp_stft(f, g, t, region)
            ok = ok and err < tolerance
            rows.append(_row("chirp_stft", f"t={t:g};L={grid.L:g};N={grid.N};aliased={alias}",
                             err, 0.0, err))
        return rows, None, ok
    return measure


def _run_amalgam_constants(d=1, t_list=(0.5, 1.0, 2.0, 4.0), tolerance=None):
    base, stride = verify._amalgam_grid(d)
    windows, w_preds, m1_preds = verify._amalgam_checks(t_list, base)
    _check_tolerance(tolerance)
    tol = {1: 0.02, 2: 0.05}[d] if tolerance is None else tolerance
    g = gaussian_window(base)

    def measure():
        rows, ok, measured = [], True, []
        norms = verify.verify_amalgam_constants(t_list, g, stride, m1_preds, windows)
        for t, (w, w_ref, m1), w_pred, m1_pred in zip(t_list, norms, w_preds, m1_preds):
            err = abs(w - w_pred) / w_pred
            ok = ok and err < tol
            rows.append(_row("amalgam_constants", f"norm=W;t={t:g};d={d}", w, w_pred, err, w_ref))
            measured.append(w)
            if not math.isnan(m1):
                err = abs(m1 - m1_pred) / m1_pred
                ok = ok and err < tol
                rows.append(_row("amalgam_constants", f"norm=M1inf;t={t:g};d={d}", m1, m1_pred,
                                 err))
        return rows, {"W measured": (t_list, measured), "W predicted": (t_list, w_preds)}, ok
    return measure


def _run_divergence(t=1.0, l_list=verify.DIVERGENCE_BOXES):
    windows = [gaussian_window(grid) for grid in verify._divergence_grids(t, l_list)]
    # the value grows linearly with the box, so each growth factor is
    # predicted by the box ratio and must pass halfway from 1 to it
    ratios = [b / a for a, b in zip(l_list, l_list[1:])]

    def measure():
        values = verify.verify_m_inf_1_divergence(t, windows)
        rows = [_row("m_inf_1_divergence", f"t={t:g};L={L:g}", v) for L, v in zip(l_list, values)]
        ok = True
        if t != 0:
            growth = [values[i + 1] / values[i] for i in range(len(values) - 1)]
            ok = all(g >= (1.0 + r) / 2.0 for g, r in zip(growth, ratios))
            rows += [_row("m_inf_1_divergence", f"t={t:g};growth_to_L={L:g}", g, r, abs(g - r) / r)
                     for L, g, r in zip(l_list[1:], growth, ratios)]
        return rows, {"norm vs box": (l_list, values)}, ok
    return measure


def _run_dyadic_series(alpha_list=(0.5, 1.0, 2.0), k=40, j=20):
    verify._check_series_depth(k, j)
    grid = verify._dyadic_grid()
    for alpha in alpha_list:
        verify._check_dyadic_alpha(alpha)
        # the k = K term holds the series' largest samples; sampled to check, not kept
        _sampled(f"alpha = {alpha:g}: the k = {k} term |x|^(k alpha) psi(|x|)",
                 verify._dyadic_term, grid, k, alpha)
    chi = bump_chi(grid).field

    def measure():
        rows, ok = [], True
        for alpha in alpha_list:
            direct, refinement, bound, cauchy_k = verify.dyadic_fl1_series(chi, alpha, k, j)
            ok = ok and (bound >= direct and math.isfinite(bound) and cauchy_k is not None
                         and refinement < 0.01)
            rows.append(_row("dyadic_series", f"alpha={alpha:g};quantity=direct_fl1", direct,
                             refinement_estimate=refinement))
            rows.append(_row("dyadic_series",
                             f"alpha={alpha:g};quantity=series_bound;cauchy_k={cauchy_k}", bound))
        return rows, None, ok
    return measure


def _run_sin_singular(alpha=1.0, delta=1.0):
    verify._check_sin_singular(alpha, delta)
    grid = verify._dyadic_grid()

    def measure():
        direct, refinement, cauchy = verify.verify_sin_singular_fl1(grid, alpha, delta)
        ok = math.isfinite(direct) and refinement < 0.01 and cauchy
        return [_row("sin_singular_fl1", f"alpha={alpha:g};delta={delta:g}", direct,
                     refinement_estimate=refinement)], None, ok
    return measure


def _run_linear_phase(cases=verify.LINEAR_PHASE_CASES, seed=DEFAULT_SEED):
    verify._check_case_count(cases)
    verify._check_seed(seed)
    g = gaussian_window(verify._linear_phase_grid())

    def measure():
        ok, worst = True, 0.0
        for label, before, after in verify.linear_phase_random_cases(g, cases, seed):
            dev = abs(before - after) / max(before, 1e-300)
            worst = max(worst, dev)
            ok = ok and dev < 1e-12
        return [_row("linear_phase", f"cases={cases};seed={seed}", worst, 0.0, worst)], None, ok
    return measure


def _run_operator_probe(alpha_list=(0.5, 1.0, 1.5, 2.0), l=32.0, n=512):
    pq_list = [(1.0, 1.0), (2.0, 2.0), (float("inf"), 1.0), (1.0, float("inf"))]
    grids = [_grid_1d(l, n), _grid_1d(l, n, factor=2)]
    # per grid: each alpha's symbol by its index, the probe family and the window
    probes = [(dict(enumerate(symbol_unimodular(grid, alpha, t=1.0) for alpha in alpha_list)),
               dict(_sampled(f"the probe family on the grid L = {l:g}, N = {grid.N}",
                             verify.probe_family, grid)),
               gaussian_window(grid)) for grid in grids]
    verify._check_probe_grid(grids[0])

    def measure():
        largest = []  # per grid: (alpha index, (p, q)) -> the largest ratio over the family
        for symbols, family, g in probes:
            ratios = verify.probe_ratios(symbols, family,
                                         lambda h: modulation_norms_multi(h, g, pq_list))
            largest.append({(i, pq): max(ratios[(i, label)][pq] for label in family)
                            for i in symbols for pq in pq_list})
        a, b = largest
        rows, ok = [], True
        for i, alpha in enumerate(alpha_list):
            for pq in pq_list:
                change = abs(a[i, pq] - b[i, pq]) / max(a[i, pq], 1e-300)
                ok = ok and change < 0.05 and b[i, pq] < 10.0
                rows.append(_row("operator_probe",
                                 f"alpha={alpha:g};p={pq[0]:g};q={pq[1]:g};N={grids[1].N}",
                                 b[i, pq], rel_deviation=change))
        return rows, None, ok
    return measure


def _run_lp_contrast(t=1.0, lambda_list=verify.LP_CONTRAST_LAMBDAS):
    verify._check_dilations(lambda_list)
    grid = verify._lp_contrast_grid()
    symbols = {t: symbol_unimodular(grid, 2.0, t=t)}
    oracle = verify._check_fresnel_ratios(t, lambda_list)
    fields = {lam: _sampled(f"the Gaussian e^(-pi lambda |x|^2) of lambda = {lam:g} on the grid "
                            f"L = {grid.L:g}, N = {grid.N}", verify.gaussian_data, grid, lam)
              for lam in lambda_list}
    g = gaussian_window(grid)

    def measure():
        ratios = verify.probe_ratios(
            symbols, fields, lambda h: {"L1": l1_norm(h), "M11": modulation_norm(h, g, 1, 1)})
        l1 = [ratios[(t, lam)]["L1"] for lam in lambda_list]
        m11 = [ratios[(t, lam)]["M11"] for lam in lambda_list]
        increasing = all(b > a for a, b in zip(l1, l1[1:]))
        spread = max(m11) / min(m11)
        ok = (t == 0 or increasing) and spread < 3.0
        rows = []
        for lam, r, o, m in zip(lambda_list, l1, oracle, m11):
            rows.append(_row("lp_contrast", f"t={t:g};lambda={lam:g};space=L1", r, o,
                             abs(r - o) / o))
            rows.append(_row("lp_contrast", f"t={t:g};lambda={lam:g};space=M11", m))
        series = {"L1 ratio": (lambda_list, l1),
                  "L1 oracle": (lambda_list, oracle),
                  "M11 ratio": (lambda_list, m11)}
        return rows, series, ok
    return measure


def _run_schrodinger(t_list=(0.5, 1.0, 2.0, 4.0), p=1.0, q=math.inf, l=_GRID.L, n=_GRID.N):
    grid = _grid_1d(l, n)
    envelopes, symbols = {}, {}
    for t in t_list:
        envelopes[t] = verify.schrodinger_envelope(t, 1)
        symbols[t] = symbol_unimodular(grid, 2.0, t)
    fields = {label: _sampled(f"the initial data {label} on the grid L = {l:g}, N = {n}",
                              verify.gaussian_data, grid, *params)
              for label, params in verify.INITIAL_DATA.items()}
    w = gaussian_window(grid)

    def measure():
        ratios, l2_ratios = verify.schrodinger_conservation(fields, w, p, q, symbols)
        # each ratio over its envelope is an envelope constant, fitted by their maximum
        c = {k: r / envelopes[k[1]] for k, r in ratios.items()}
        fitted = max(c.values())
        ok = (fitted - min(c.values())) / fitted < 0.10
        rows = [_row("schrodinger_conservation", f"f={label};t={t:g};p={p:g};q={q:g}", r,
                     fitted * envelopes[t], c[(label, t)] / fitted)
                for (label, t), r in sorted(ratios.items())]
        label = next(iter(fields))  # the M^{2,2} check is reported for the Gaussian only
        for t in sorted(set(t_list)):
            r = l2_ratios[(label, t)]
            ok = ok and abs(r - 1.0) < 1e-10
            rows.append(_row("schrodinger_conservation", f"f={label};t={t:g};p=2;q=2", r, 1.0,
                             abs(r - 1.0)))
        series = {label: (t_list, [ratios[(label, t)] for t in t_list]) for label in fields}
        return rows, series, ok
    return measure


def _run_wave(t_list=(0.5, 1.0, 2.0), p=1.0, q=1.0, l=_GRID.L, n=_GRID.N):
    grid = _grid_1d(l, n)
    # per grid, each t's multipliers: the refinement estimate measures on N / 2
    # too, and t = 0 gives the energy baseline on the data's grid
    flows = {h: {t: wave_symbols(h, t) for t in ts}
             for h, ts in ((grid, (0.0, *t_list)), (half_grid(grid), t_list))}
    w, f = gaussian_window(grid), verify.gaussian_data(grid, *verify.INITIAL_DATA["gauss"])

    def measure():
        cs, refinement, drift = verify.wave_conservation(f, w, p, q, t_list, flows)
        ok = drift < 1e-10 and all(r < 0.01 for r in refinement)
        rows = [_row("wave_conservation", f"t={t:g};p={p:g};q={q:g}", c, refinement_estimate=r)
                for t, c, r in zip(t_list, cs, refinement)]
        rows.append(_row("wave_conservation", "quantity=energy_drift", drift, 0.0, drift))
        return rows, {"C(t)": (t_list, cs)}, ok
    return measure


def _runner(plan):
    """The runner of ``plan``: the plan's keywords; it runs the plan, then its measure step."""
    @functools.wraps(plan)
    def run(**params):
        return plan(**params)()
    return run


# name -> runner; ``inspect.unwrap`` of a runner is its plan
EXPERIMENTS = {name: _runner(plan) for name, plan in {
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
}.items()}


def run_experiment(name, params, out_dir: Path) -> int:
    rows, series, ok = EXPERIMENTS[name](**params)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out_dir / "results.csv")
        if series is not None:
            emit_svg(series, out_dir / "plot.svg", title=name)
    except OSError as exc:
        print(f"error: cannot write results to {out_dir}: {exc}", file=sys.stderr)
        return 2
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
        params = parse_params(cfg)
        if args.cmd == "validate":
            inspect.unwrap(EXPERIMENTS[cfg["name"]])(**params)  # the plan alone
            print(f"ok: {cfg['name']}")
            return 0
        out = os.environ.get("TFMULT_OUT") or cfg.get("out", ".")
        return run_experiment(cfg["name"], params, Path(out))
    except (ConfigError, ParameterError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
