"""Batch front-end: JSON config in, CSV/JSON/SVG artifacts out.

Usage: ``spdelab <command> --config path.json [--seed N] [--out dir]``.

One config file drives one command; a sha256 hash of the resolved config
is embedded in every artifact so results stay attributable.  Reruns with
the same config and seed write byte-identical CSV/JSON (plots are
content-deterministic but excluded from the byte guarantee).  Exit code:
0 all checks passed, 1 a check failed (report still written), 2 bad
config, including a config that violates a check's hypotheses or a
symbol's class.  ``SPDELAB_THREADS`` caps battery-level parallelism;
artifact writes stay serialized in the main thread.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import battery
from .covariance import builtin_kernel
from .errors import (HypothesisViolationError, SchemaError, SpdelabError,
                     SymbolClassError)
from .gaussian import QSpec
from .malliavin import skorohod_moment_check
from .reports import _plain
from .solver import ESTIMATORS, SPDEProblem, ensemble_summary_rows, solve
from .spectral import Field, GridSpec, check_grid_size
from .symbols import builtin_symbol, check_marcinkiewicz, check_mihlin
from .verify import (
    apriori_refinement,
    bessel_equivalence_check,
    g_operator_check,
    kernel_envelope_check,
    lp_inequality_check,
    maximal_inequality_check,
)

COMMANDS = (
    "simulate", "verify-maximal", "verify-lp", "verify-bessel",
    "verify-multiplier", "verify-kernelenv", "verify-goperator",
    "verify-apriori", "verify-skorohod", "kernels",
)

_TOP_KEYS = {"command", "seed", "output_dir", "emit_plots", "params"}

_PARAM_KEYS = {
    "simulate": {"psi", "phi", "kernel", "grid", "T", "n_t", "m", "lambdas",
                 "u0", "f", "g", "n_samples", "estimator", "p", "q_exp",
                 "quad_refine"},
    "verify-maximal": {"process", "kernel", "p", "q_exp", "n_samples",
                       "sup_levels", "J", "m", "T"},
    "verify-lp": {"phi", "psi", "p", "q_exp", "r_exp", "n_theta", "levels",
                  "a", "b", "box", "m", "forcing"},
    "verify-bessel": {"phi", "alpha", "p", "grid", "count", "m", "band_frac"},
    "verify-multiplier": {"d"},
    "verify-kernelenv": {"phi", "psi", "t_minus_s", "grid", "var_tol"},
    "verify-goperator": {"phi", "psi", "p", "levels", "a", "b", "box", "m"},
    "verify-apriori": {"psi", "phi", "kernel", "levels", "T", "m", "lambdas",
                       "u0", "f", "g", "n_samples", "estimator", "p", "q_exp",
                       "quad_refine"},
    "verify-skorohod": {"n_samples", "J", "m", "T"},
    "kernels": set(),
}


@dataclass
class RunConfig:
    """Resolved invocation: command, nested check parameters, bookkeeping."""

    command: str
    params: dict
    seed: int
    output_dir: str
    emit_plots: bool
    config_hash: str


def _canonical(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def load_config(command, path=None, seed=None, out=None) -> RunConfig:
    """Parse + strictly validate the config file, applying CLI overrides."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchemaError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level config keys: {sorted(unknown)}")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; have {COMMANDS}")
    if "command" in raw and raw["command"] != command:
        raise SchemaError(
            f"config names command {raw['command']!r} but {command!r} was invoked")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be a JSON object")
    allowed = _PARAM_KEYS[command]
    bad = set(params) - allowed
    if bad:
        raise SchemaError(
            f"unknown params for {command}: {sorted(bad)}; allowed {sorted(allowed)}")
    eff_seed = seed if seed is not None else raw.get("seed", 0)
    if not isinstance(eff_seed, int) or isinstance(eff_seed, bool):
        raise SchemaError("seed must be an integer")
    out_dir = out if out is not None else raw.get("output_dir", "runs")
    emit = bool(raw.get("emit_plots", False))
    # hash what determines the numbers (not where they are written)
    resolved = {"command": command, "params": params, "seed": eff_seed}
    digest = hashlib.sha256(_canonical(resolved).encode("utf-8")).hexdigest()
    return RunConfig(command=command, params=params, seed=eff_seed,
                     output_dir=str(out_dir), emit_plots=emit,
                     config_hash=digest)


def _threads():
    val = os.environ.get("SPDELAB_THREADS")
    return max(1, int(val)) if val else None


def _map_jobs(fn, items):
    n = _threads()
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# config -> objects

_PHI_1D = {"name": "power", "gamma": 2.0, "d": 1}
_PSI_1D = {"name": "heat", "gamma": 2.0, "d": 1}


@contextmanager
def _schema_errors(what):
    """Report a bad value met while building `what` from config as SchemaError."""
    try:
        yield
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from None


def _build(ctor, cfg, default=None):
    """ctor(name, **kw) from a config "name" or {"name": ..., **kw}."""
    cfg = default if cfg is None else cfg
    with _schema_errors(repr(cfg)):
        if isinstance(cfg, dict):
            kw = dict(cfg)
            return ctor(kw.pop("name"), **kw)
        return ctor(cfg)


def _symbol(cfg, default, d):
    """A builtin symbol from config that lives on a d-dimensional grid."""
    sym = _build(builtin_symbol, cfg, default)
    if sym.d != d:
        raise SchemaError(f"symbol {sym.name!r} has d={sym.d} but the grid "
                          f"has d={d}")
    return sym


def _param(params, key, default, kind=float, above=None):
    """params[key] (or default): an integer for kind int, else any finite
    number; optionally > above."""
    val = params.get(key, default)
    if not (_is_int(val) or kind is float and isinstance(val, float)) \
            or kind is float and not _finite(val) \
            or above is not None and not val > above:
        raise SchemaError(
            f"param {key!r} must be "
            f"{'an integer' if kind is int else 'a finite number'}"
            f"{'' if above is None else f' > {above}'}, got {val!r}")
    return kind(val)


def _finite(val):
    """True if the number val converts to a finite float."""
    try:
        return math.isfinite(val)
    except OverflowError:      # an integer beyond the float range
        return False


def _choice(params, key, default, allowed):
    """params[key] (or default), which must be one of `allowed`."""
    val = params.get(key, default)
    if val not in allowed:
        raise SchemaError(f"unknown {key} {val!r}; have {list(allowed)}")
    return val


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _levels(params):
    """The (n, n_t) refinement levels of the operator and a-priori checks."""
    with _schema_errors("param 'levels'"):
        levels = [(n, n_t) for n, n_t in
                  params.get("levels", [[32, 16], [64, 32], [128, 64]])]
        if not levels:
            raise ValueError("need at least one level")
        for n, n_t in levels:
            if not (_is_int(n) and _is_int(n_t)):
                raise ValueError(f"levels must be integer pairs, got {[n, n_t]}")
            check_grid_size(n)
            if n_t < 1:
                raise ValueError(f"n_t must be >= 1, got {n_t}")
        return levels


def _window(params):
    """(a, b, box) of the operator checks: forcing window a < b, box > 0."""
    a = _param(params, "a", 0.0)
    return (a, _param(params, "b", 1.0, above=a),
            _param(params, "box", 2.0 * np.pi, above=0))


def _sup_levels(params):
    """The sup-level refinements of verify-maximal: a non-empty integer list."""
    levels = params.get("sup_levels", [64, 128, 256])
    if not (isinstance(levels, list) and levels
            and all(_is_int(v) and v >= 1 for v in levels)):
        raise SchemaError("param 'sup_levels' must be a non-empty list of "
                          f"integers >= 1, got {levels!r}")
    return tuple(levels)


def _t_minus_s(params):
    """The lags of verify-kernelenv: a non-empty list of finite numbers > 0."""
    taus = params.get("t_minus_s", [0.1, 0.2, 0.4])
    if not (isinstance(taus, list) and taus):
        raise SchemaError("param 't_minus_s' must be a non-empty list of "
                          f"numbers > 0, got {taus!r}")
    return [_param({"t_minus_s": t}, "t_minus_s", None, above=0) for t in taus]


def _make_grid(cfg, default_n, L=2.0 * np.pi, n=None):
    """GridSpec from a config {"d", "n", "L"}; a given n overrides cfg's."""
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise SchemaError(f"param 'grid' must be a JSON object, got {cfg!r}")
    with _schema_errors(f"grid {cfg}"):
        return GridSpec(d=_param(cfg, "d", 1, int), L=_param(cfg, "L", L),
                        n=n if n is not None else _param(cfg, "n", default_n, int))


def _u0_field(kind, grid, m):
    if kind == "zero":
        return Field.zeros(grid, m)
    if kind == "bump":
        bump = battery.bump_profile(box=grid.L, width_frac=1.0 / 8.0)
        vals = np.tile(bump(grid.x_grid())[None, :], (m, 1))
        return Field(grid, m, vals)
    raise SchemaError(f"unknown u0 kind {kind!r}")


def _forcing_arrays(params, grid, times, m, J):
    """Build (f, g) node/cell arrays from the config 'f'/'g' kind switches."""
    bump = battery.bump_profile(box=grid.L, width_frac=1.0 / 8.0)(grid.x_grid())
    T = float(times[-1])
    f_kind = params.get("f", "none")
    g_kind = params.get("g", "none")
    f = None
    if f_kind == "bump":
        win = np.sin(np.pi * times / T) ** 2
        f = win[:, None, None] * np.tile(bump[None, None, :], (1, m, 1))
    elif f_kind != "none":
        raise SchemaError(f"unknown f kind {f_kind!r}")
    g = None
    if g_kind == "constant":
        if J < 1:
            raise SchemaError("g 'constant' needs at least one noise mode "
                              "(param 'lambdas' is empty)")
        fac = 1.0 / (1.0 + np.arange(J))
        g = np.tile(bump[None, None, None, :], (len(times) - 1, m, J, 1)) \
            * fac[None, None, :, None]
    elif g_kind != "none":
        raise SchemaError(f"unknown g kind {g_kind!r}")
    return f, g


def _build_problem(params, n=None, n_t=None):
    grid = _make_grid(params.get("grid"), 32, n=n)
    psi = _symbol(params.get("psi"), {"name": "heat", "d": grid.d}, grid.d)
    phi_cfg = params.get("phi")
    phi = _symbol(phi_cfg, None, grid.d) if phi_cfg is not None else None
    kernel = _build(builtin_kernel, params.get("kernel", "wiener"))
    T = _param(params, "T", 1.0, above=0)
    nt = n_t if n_t is not None else _param(params, "n_t", 16, int, above=0)
    times = np.linspace(0.0, T, nt + 1)
    m = _param(params, "m", 1, int, above=0)
    lambdas = params.get("lambdas", [1.0, 0.5])
    if not isinstance(lambdas, list):
        raise SchemaError(f"param 'lambdas' must be a list, got {lambdas!r}")
    with _schema_errors("param 'lambdas'"):
        q = QSpec(tuple(lambdas))
    u0 = _u0_field(params.get("u0", "bump"), grid, m)
    f, g = _forcing_arrays(params, grid, times, m, q.J)
    p, q_exp = _param(params, "p", 2.0), _param(params, "q_exp", 2.0)
    quad_refine = _param(params, "quad_refine", 8, int, above=0)
    with _schema_errors("problem"):
        return SPDEProblem(psi=psi, u0=u0, kernel=kernel, q=q, times=times,
                           f=f, g=g, phi=phi, p=p, q_exp=q_exp,
                           quad_refine=quad_refine)


# ---------------------------------------------------------------------------
# command runners: each returns (passed, report_dict, table_rows, trace)


def _ratio_result(rep, xlabel):
    rows = [{"level": lev, "ratio": r} for (lev, r) in rep.refinement_trace]
    return rep.passed, rep.to_dict(), rows, (xlabel, "ratio", rep.refinement_trace)


def _run_kernels(cfg: RunConfig):
    listing = [("wiener", {}), ("fbm", {"H": 0.75}), ("linear", {}),
               ("bessel", {"delta": 0.5}), ("heat", {"delta": 1.0})]
    rows = []
    for name, kw in listing:
        k = builtin_kernel(name, **kw)
        rows.append({"kernel": k.name, "params": _canonical(kw),
                     "r_exp": k.r_exp, "s_exp": k.s_exp,
                     "C_R": "" if k.C_R is None else k.C_R,
                     "singular_density": k.singular_density})
    return True, {"kernels": rows}, rows, None


def _run_simulate(cfg: RunConfig):
    pb = _build_problem(cfg.params)
    ens = solve(pb, _param(cfg.params, "n_samples", 32, int, above=0), cfg.seed,
                estimator=_choice(cfg.params, "estimator", "modewise", ESTIMATORS))
    summary = ensemble_summary_rows(ens)
    rows = [{"t": t, "mean_l2": mf, "total_variance": tv, "mean_sup": ms}
            for (t, mf, tv, ms) in summary]
    report = {"estimator": ens.estimator, "n_samples": ens.n_samples,
              "n_times": pb.n_times, "grid_n": pb.grid.n, "m": pb.m,
              "kernel": pb.kernel.name, "rows": rows}
    trace = [(r["t"], r["total_variance"]) for r in rows]
    passed = bool(np.all(np.isfinite(summary)))
    return passed, report, rows, ("t", "total variance", trace)


def _run_verify_skorohod(cfg: RunConfig):
    p = cfg.params
    J = _param(p, "J", 2, int, above=0)
    cases = battery.skorohod_battery(J=J, m=_param(p, "m", 2, int, above=0),
                                     T=_param(p, "T", 1.0, above=0))
    n = _param(p, "n_samples", 100_000, int, above=0)
    lam = (1.0,) * J

    def job(case):
        name, proc, kern = case
        return skorohod_moment_check(proc, kern, QSpec(lam), n, cfg.seed,
                                     name=name)
    reports = _map_jobs(job, cases)
    rows = [{"case": r.name, "lhs": r.lhs, "rhs": r.rhs,
             "z_score": r.z_score, "passed": r.passed} for r in reports]
    passed = all(r.passed for r in reports)
    return passed, {"checks": [r.to_dict() for r in reports]}, rows, None


def _run_verify_maximal(cfg: RunConfig):
    p = cfg.params
    J = _param(p, "J", 2, int, above=0)
    procs = dict(battery.elementary_battery(
        J=J, m=_param(p, "m", 2, int, above=0), T=_param(p, "T", 1.0, above=0)))
    pname = _choice(p, "process", "linear-exact", sorted(procs))
    kern = _build(builtin_kernel, p.get("kernel", "wiener"))
    rep = maximal_inequality_check(
        procs[pname], kern, QSpec((1.0,) * J), _param(p, "p", 2.0),
        _param(p, "q_exp", 2.0), _param(p, "n_samples", 4096, int, above=0),
        cfg.seed, sup_levels=_sup_levels(p),
        name=f"maximal[{pname}/{kern.name}]")
    return _ratio_result(rep, "level")


def _run_verify_lp(cfg: RunConfig):
    p = cfg.params
    phi = _build(builtin_symbol, p.get("phi"), _PHI_1D)
    psi = _symbol(p.get("psi"), dict(_PSI_1D, d=phi.d), phi.d)
    a, b, box = _window(p)
    forcing = _choice(p, "forcing", "product", ("product", "mixed"))
    maker = battery.lp_forcing if forcing == "product" else battery.lp_forcing_mixed
    f_fn = maker(a=a, b=b, box=box, m=_param(p, "m", 1, int, above=0))
    rep = lp_inequality_check(
        phi, psi, f_fn, _param(p, "p", 2.0), _param(p, "q_exp", 2.0),
        _param(p, "r_exp", 2.0), levels=_levels(p), a=a, b=b, box=box,
        n_theta=_param(p, "n_theta", 1, int, above=0))
    return _ratio_result(rep, "grid n")


def _run_verify_bessel(cfg: RunConfig):
    p = cfg.params
    grid = _make_grid(p.get("grid"), 64)
    phi = _symbol(p.get("phi"), dict(_PHI_1D, d=grid.d), grid.d)
    fields = battery.bessel_field_battery(
        grid, m=_param(p, "m", 1, int, above=0),
        count=_param(p, "count", 16, int, above=0), seed=cfg.seed,
        band_frac=_param(p, "band_frac", 0.5, above=0))
    alpha = _param(p, "alpha", 2.0)
    if alpha < 0:
        raise SchemaError(f"param 'alpha' must be >= 0, got {alpha!r}")
    # lp_norm is no norm below p = 1, and the equivalence needs 1 < p
    rep = bessel_equivalence_check(phi, alpha, _param(p, "p", 2.0, above=1),
                                   fields)
    rows = [{"field": i, "ratio": r} for i, r in enumerate(rep["ratios"])]
    return rep["passed"], rep, rows, None


def _run_verify_multiplier(cfg: RunConfig):
    d = _param(cfg.params, "d", 1, int, above=0)
    if d > 3:
        raise SchemaError(f"param 'd' must be <= 3 (dyadic sampling), got {d}")
    mih, marc, failing = battery.multiplier_battery(d=d)
    rows, reports = [], []
    ok = True
    for name, sym in mih:
        r = check_mihlin(sym)
        reports.append((name, "mihlin", True, r))
        ok = ok and r.passed
    for name, sym in marc:
        r = check_marcinkiewicz(sym)
        reports.append((name, "marcinkiewicz", True, r))
        ok = ok and r.passed
    for name, sym in failing:
        r = check_mihlin(sym)
        reports.append((name, "mihlin", False, r))
        ok = ok and (not r.passed)
    for name, cond, expect, r in reports:
        rows.append({"case": name, "condition": cond,
                     "worst_constant": r.worst_constant,
                     "passed": r.passed, "expected_pass": expect})
    report = {"checks": [dict(case=n, condition=c, expected_pass=e,
                              report=r.to_dict())
                         for (n, c, e, r) in reports]}
    return ok, report, rows, None


def _run_verify_kernelenv(cfg: RunConfig):
    p = cfg.params
    # box 4*pi: the far-field fit region must hold several kernel widths
    grid = _make_grid(p.get("grid"), 256, L=4.0 * np.pi)
    phi = _symbol(p.get("phi"), dict(_PHI_1D, d=grid.d), grid.d)
    psi = _symbol(p.get("psi"), dict(_PSI_1D, d=grid.d), grid.d)
    taus = _t_minus_s(p)
    var_tol = _param(p, "var_tol", 0.2)
    if var_tol < 0:
        raise SchemaError(f"param 'var_tol' must be >= 0, got {var_tol!r}")
    rep = kernel_envelope_check(phi, psi, taus, grid, var_tol=var_tol)
    rows = [{"tau": tau, "C_kernel": ck, "C_grad": cg, "C_ds": cs,
             "sup_kernel": sk}
            for tau, ck, cg, cs, sk in zip(rep["taus"], rep["C_kernel"],
                                           rep["C_grad"], rep["C_ds"],
                                           rep["sup_kernel"])]
    trace = list(zip(rep["taus"], rep["C_kernel"]))
    return rep["passed"], rep, rows, ("t-s", "fitted C", trace)


def _run_verify_goperator(cfg: RunConfig):
    p = cfg.params
    phi = _build(builtin_symbol, p.get("phi"), _PHI_1D)
    psi = _symbol(p.get("psi"), dict(_PSI_1D, d=phi.d), phi.d)
    if psi.time_dependent:
        raise SchemaError("verify-goperator needs a time-independent psi, "
                          f"got {psi.name!r}")
    a, b, box = _window(p)
    rep = g_operator_check(
        phi, psi, battery.g_operator_forcings(
            a=a, b=b, box=box, m=_param(p, "m", 1, int, above=0)),
        _param(p, "p", 2.0), levels=_levels(p), a=a, b=b, box=box)
    return _ratio_result(rep, "grid n")


def _run_verify_apriori(cfg: RunConfig):
    p = dict(cfg.params)
    p.setdefault("phi", _PHI_1D)
    rep = apriori_refinement(
        lambda n, n_t: _build_problem(p, n=n, n_t=n_t), _levels(p),
        _param(p, "n_samples", 48, int, above=0), cfg.seed,
        estimator=_choice(p, "estimator", "pathwise", ESTIMATORS))
    return _ratio_result(rep, "grid n")


_RUNNERS = {
    "kernels": _run_kernels,
    "simulate": _run_simulate,
    "verify-skorohod": _run_verify_skorohod,
    "verify-maximal": _run_verify_maximal,
    "verify-lp": _run_verify_lp,
    "verify-bessel": _run_verify_bessel,
    "verify-multiplier": _run_verify_multiplier,
    "verify-kernelenv": _run_verify_kernelenv,
    "verify-goperator": _run_verify_goperator,
    "verify-apriori": _run_verify_apriori,
}


# ---------------------------------------------------------------------------
# artifact writers (all byte-deterministic for fixed config + seed)


def _fmt_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _write_csv(path, rows, config_hash):
    """RFC-4180 table; the config hash rides along as a trailing column."""
    if not rows:
        rows = [{}]
    header = list(rows[0].keys()) + ["config_hash"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt_cell(r[k]) for k in header[:-1]] + [config_hash])


def _write_json(path, payload):
    text = json.dumps(_plain(payload), sort_keys=True, indent=2,
                      ensure_ascii=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _append_ledger(path, entry):
    """Append one JSONL line; identical reruns leave the file unchanged."""
    line = _canonical(entry)
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            if any(ln.strip() == line for ln in fh):
                return
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(line + "\n")


def _write_svg(path, xlabel, ylabel, points, title):
    """Minimal polyline plot; deterministic text output, no timestamps."""
    W, H, pad = 640, 400, 50
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if not xs:
        xs, ys = [0.0], [0.0]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (W - 2 * pad)

    def py(y):
        return H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>',
        f'<text x="{W//2}" y="{H-12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{H//2}" font-size="12" transform="rotate(-90 14 {H//2})">{ylabel}</text>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def run(config: RunConfig) -> int:
    """Execute one command and write its artifacts; returns the exit code."""
    runner = _RUNNERS[config.command]
    passed, report, rows, trace = runner(config)
    os.makedirs(config.output_dir, exist_ok=True)
    stem = os.path.join(config.output_dir, config.command)
    payload = {
        "command": config.command,
        "seed": config.seed,
        "config_hash": config.config_hash,
        "passed": bool(passed),
        "report": report,
    }
    _write_json(stem + ".json", payload)
    _write_csv(stem + ".csv", rows, config.config_hash)
    if config.emit_plots and trace is not None:
        xlabel, ylabel, pts = trace
        _write_svg(stem + ".svg", xlabel, ylabel, pts,
                   f"{config.command} ({config.config_hash[:12]})")
    _append_ledger(os.path.join(config.output_dir, "results.jsonl"), {
        "command": config.command, "config_hash": config.config_hash,
        "seed": config.seed, "passed": bool(passed)})
    print(f"{config.command}: {'PASS' if passed else 'FAIL'} "
          f"(artifacts in {config.output_dir}, config {config.config_hash[:12]})")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spdelab",
        description="simulator and inequality checkers (config-driven)")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output dir")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.command, path=args.config, seed=args.seed,
                             out=args.out)
    except (SchemaError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (SchemaError, HypothesisViolationError, SymbolClassError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpdelabError as exc:
        print(f"check failed to run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
